"""Fault-injection layer: equivalence, degraded operation, hardening.

The acceptance bar of the robustness PR:

* a **zero-event** :class:`FaultSchedule` is bit-identical to running
  without one at all — fixed population, churn and heterogeneous-fleet
  paths, every record field (records under real events are pinned by
  ``tests/test_engine_golden.py``);
* a ``fault_transition`` event opens the window it applies to, in
  every engine;
* the event model is seeded and deterministic, the survivor rule
  holds, windows are cut at fault boundaries, power caps throttle
  mid-window, rack outages are correlated, and insufficient surviving
  capacity degrades into shedding instead of crashing;
* the parallel fault sweep equals the serial one exactly, and the
  process fan isolates failures instead of aborting.
"""

import time

import pytest

from repro.baselines import OnlineReactivePolicy
from repro.cloud import (
    fixed_schedule,
    summarize,
)
from repro.cloud.faults import (
    FAULT_SCENARIOS,
    FaultConfig,
    FaultSchedule,
    generate_faults,
    get_fault_scenario,
    zero_faults,
)
from repro.core import EpactPolicy, FleetSpec, PoolSpec
from repro.dcsim import DataCenterSimulation, engine
from repro.dcsim.engine import FailedRun, fan_out
from repro.errors import ConfigurationError
from repro.experiments.faults import run_faults
from repro.forecast import DayAheadPredictor
from repro.obs import RunTracer
from repro.power.server_power import (
    conventional_server_power_model,
    ntc_server_power_model,
)
from repro.traces import default_dataset
from repro.traces.lifecycle import ChurnConfig, generate_lifecycle


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def ds():
    return default_dataset(n_vms=30, n_days=9, seed=77)


@pytest.fixture(scope="module")
def pred(ds):
    predictor = DayAheadPredictor(ds)
    for day in range(7, ds.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="module")
def two_pool_fleet():
    return FleetSpec(
        pools=(
            PoolSpec("ntc", ntc_server_power_model(), 8),
            PoolSpec(
                "conv",
                conventional_server_power_model(),
                8,
                perf_platform="x86",
            ),
        )
    )


# -- zero-event bit-identity ------------------------------------------------


class TestZeroEventBitIdentity:
    def test_fixed_population(self, ds, pred):
        base = DataCenterSimulation(
            ds, pred, EpactPolicy(), max_servers=20, n_slots=24
        ).run()
        zf = zero_faults(20, 0, ds.n_slots)
        faulty = DataCenterSimulation(
            ds, pred, EpactPolicy(), max_servers=20, n_slots=24, faults=zf
        ).run()
        assert records_equal(base.records, faulty.records)

    def test_churn(self, ds, pred):
        schedule = generate_lifecycle(
            ds.n_vms,
            168,
            168 + 24,
            config=ChurnConfig(initial_fraction=0.5),
            seed=9,
        )
        kwargs = dict(max_servers=20, n_slots=24)
        base = DataCenterSimulation(
            ds, pred, OnlineReactivePolicy(), schedule=schedule, **kwargs
        ).run()
        faulty = DataCenterSimulation(
            ds,
            pred,
            OnlineReactivePolicy(),
            schedule=schedule,
            faults=zero_faults(20, 0, ds.n_slots),
            **kwargs,
        ).run()
        assert records_equal(base.records, faulty.records)

    def test_hetero_fleet(self, ds, pred, two_pool_fleet):
        kwargs = dict(fleet=two_pool_fleet, n_slots=24)
        base = DataCenterSimulation(
            ds, pred, EpactPolicy(), **kwargs
        ).run()
        zf = zero_faults(16, 0, ds.n_slots, pool_sizes=(8, 8))
        faulty = DataCenterSimulation(
            ds, pred, EpactPolicy(), faults=zf, **kwargs
        ).run()
        assert records_equal(base.records, faulty.records)


# -- trace order -------------------------------------------------------------


class TestFaultTraceOrder:
    @pytest.mark.parametrize("engine", ["fixed", "churn"])
    def test_transition_opens_its_window(self, ds, pred, engine):
        """Each fault_transition is followed by the allocation_window of
        the window it opens — same slot, nothing in between."""
        faults = FaultSchedule(
            20,
            0,
            ds.n_slots,
            server_outages=((2, 170, 176), (7, 173, 180)),
            cap_windows=((174, 182, 0.05),),
        )
        tracer = RunTracer()
        kwargs = dict(max_servers=20, n_slots=24, faults=faults, tracer=tracer)
        if engine == "fixed":
            DataCenterSimulation(ds, pred, EpactPolicy(), **kwargs).run()
        else:
            schedule = generate_lifecycle(
                ds.n_vms,
                168,
                168 + 24,
                config=ChurnConfig(initial_fraction=0.5),
                seed=9,
            )
            DataCenterSimulation(
                ds, pred, OnlineReactivePolicy(), schedule=schedule, **kwargs
            ).run()
        events = [
            e
            for e in tracer.events
            if e["event"] in ("fault_transition", "allocation_window")
        ]
        transitions = [
            i for i, e in enumerate(events) if e["event"] == "fault_transition"
        ]
        assert len(transitions) >= 4  # 170, 173, 174, 176, 180, 182
        for i in transitions:
            opened = events[i + 1]
            assert opened["event"] == "allocation_window"
            assert opened["slot"] == events[i]["slot"]


# -- event semantics --------------------------------------------------------


class TestFaultSemantics:
    @staticmethod
    def _day_ahead_policy():
        # EPACT reallocates every slot by default; a 24-slot window
        # makes the fault-boundary cut observable.
        policy = EpactPolicy()
        policy.reallocation_period_slots = 24
        return policy

    def test_window_cut_at_outage_boundary(self, ds, pred):
        # An outage starting mid-window must cut the window there.
        fs = FaultSchedule(20, 0, ds.n_slots, server_outages=((5, 171, 174),))
        result = DataCenterSimulation(
            ds,
            pred,
            self._day_ahead_policy(),
            max_servers=20,
            n_slots=12,
            faults=fs,
        ).run()
        downs = [r.n_failed_servers for r in result.records]
        assert downs == [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        # Forced re-placement shows up as fault migrations at the cut.
        boundary = result.records[3]
        assert boundary.migrations >= 0
        assert result.total_fault_migrations >= 0

    def test_mid_window_cap_throttles_and_reverts(self, ds, pred):
        fs = FaultSchedule(20, 0, ds.n_slots, cap_windows=((172, 175, 0.02),))
        base = DataCenterSimulation(
            ds,
            pred,
            self._day_ahead_policy(),
            max_servers=20,
            n_slots=12,
        ).run()
        capped = DataCenterSimulation(
            ds,
            pred,
            self._day_ahead_policy(),
            max_servers=20,
            n_slots=12,
            faults=fs,
        ).run()
        flags = [r.capped_samples > 0 for r in capped.records]
        assert flags == [
            False, False, False, False,
            True, True, True,
            False, False, False, False, False,
        ]
        # Energy shrinks during the cap and only there.
        for rb, rc in zip(base.records, capped.records):
            if rc.capped_samples:
                assert rc.energy_j < rb.energy_j
        assert capped.total_energy_mj < base.total_energy_mj

    def test_rack_outage_is_correlated(self):
        cfg = FaultConfig(
            rack_size=5, rack_mtbf_slots=30.0, outage_duration_mean_slots=4.0
        )
        fs = generate_faults(20, 0, 200, config=cfg, seed=11)
        assert fs.server_outages, "expected at least one rack outage"
        # Independent server outages are disabled, so any multi-server
        # failure slot is a correlated rack event: at some slot most of
        # one rack must be down together.
        down_at = {
            s: [
                sid
                for sid, s0, s1 in fs.server_outages
                if s0 <= s < s1
            ]
            for s in range(200)
        }
        correlated = [
            sids for sids in down_at.values() if len(sids) >= 3
        ]
        assert correlated, "no slot saw a rack-sized failure group"
        assert any(
            len({sid // 5 for sid in sids}) == 1 for sids in correlated
        )
        # Never a fully-dark fleet.
        assert max(fs.n_failed(s) for s in range(200)) < 20

    def test_shed_under_insufficient_capacity(self, ds, pred):
        # 30 VMs on 6 servers with 4 of them failed: 2 survivors cannot
        # physically host the population — the reactive policy sheds
        # instead of crashing, and the debt is visible in the summary.
        fs = FaultSchedule(
            6,
            0,
            ds.n_slots,
            server_outages=(
                (2, 170, 176),
                (3, 170, 176),
                (4, 170, 176),
                (5, 170, 176),
            ),
        )
        sched = fixed_schedule(ds.n_vms, 168, 168 + 12)
        result = DataCenterSimulation(
            ds,
            pred,
            OnlineReactivePolicy(),
            schedule=sched,
            max_servers=6,
            n_slots=12,
            faults=fs,
        ).run()
        assert result.total_shed_vm_slots > 0
        shed_series = result.shed_vms_per_slot
        # Shedding happens only while the servers are down.
        assert shed_series[:2].sum() == 0
        assert shed_series[2:8].sum() > 0
        assert shed_series[8:].sum() == 0
        summary = summarize(result)
        assert summary.shed_vm_minutes > 0.0
        assert summary.downtime_server_minutes == pytest.approx(
            result.total_failed_server_slots * 60.0
        )

    def test_day_ahead_policy_survives_outage_squeeze(self, ds, pred):
        fs = FaultSchedule(
            8, 0, ds.n_slots, server_outages=((6, 170, 175), (7, 170, 175))
        )
        result = DataCenterSimulation(
            ds, pred, EpactPolicy(), max_servers=8, n_slots=12, faults=fs
        ).run()
        assert result.total_failed_server_slots == 10
        # The reduced capacity is respected: never more active servers
        # than survivors.
        for rec in result.records:
            assert rec.n_active_servers <= 8 - rec.n_failed_servers


# -- determinism ------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        cfg = FaultConfig(
            server_mtbf_slots=150.0,
            rack_size=4,
            rack_mtbf_slots=300.0,
            cap_rate_per_slot=0.05,
        )
        a = generate_faults(16, 0, 250, config=cfg, seed=42)
        b = generate_faults(16, 0, 250, config=cfg, seed=42)
        assert a.server_outages == b.server_outages
        assert a.cap_windows == b.cap_windows
        c = generate_faults(16, 0, 250, config=cfg, seed=43)
        assert (
            c.server_outages != a.server_outages
            or c.cap_windows != a.cap_windows
        )

    def test_scenario_registry_builds_deterministically(self):
        for name in FAULT_SCENARIOS:
            s1 = get_fault_scenario(name).build(12, 0, 100, seed=5)
            s2 = get_fault_scenario(name).build(12, 0, 100, seed=5)
            assert s1.server_outages == s2.server_outages
            assert s1.cap_windows == s2.cap_windows

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ConfigurationError, match="rack-outage"):
            get_fault_scenario("nope")

    def test_parallel_fault_sweep_equals_serial(self):
        kwargs = dict(
            quick=False,
            n_vms=24,
            n_days=9,
            n_slots=10,
            max_servers=12,
            fault_names=["none", "frequent-outages"],
        )
        serial = run_faults(jobs=1, **kwargs)
        parallel = run_faults(jobs=2, **kwargs)
        assert serial.results.keys() == parallel.results.keys()
        for name in serial.results:
            for policy, res in serial.results[name].items():
                assert records_equal(
                    res.records, parallel.results[name][policy].records
                )


# -- schedule API and validation --------------------------------------------


class TestScheduleValidation:
    def test_next_change_walks_event_boundaries(self):
        fs = FaultSchedule(
            4, 0, 50, server_outages=((1, 10, 14),),
            cap_windows=((20, 25, 0.5),),
        )
        assert fs.next_change(0) == 10
        assert fs.next_change(10) == 14
        assert fs.next_change(14) == 20
        assert fs.next_change(20) == 25
        assert fs.next_change(25) == 50
        assert fs.has_events
        assert not zero_faults(4, 0, 50).has_events

    def test_survivor_rule_on_explicit_schedule(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultSchedule(
                2, 0, 20, server_outages=((0, 5, 8), (1, 6, 7))
            )

    def test_survivor_rule_per_pool(self):
        with pytest.raises(ConfigurationError, match="pool"):
            FaultSchedule(
                4,
                0,
                20,
                server_outages=((0, 5, 8), (1, 5, 8)),
                pool_sizes=(2, 2),
            )

    def test_generated_outages_respect_survivors(self):
        cfg = FaultConfig(server_mtbf_slots=3.0)  # absurdly failure-prone
        fs = generate_faults(5, 0, 120, config=cfg, seed=1)
        assert max(fs.n_failed(s) for s in range(120)) <= 4

    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            FaultSchedule(4, 0, 20, server_outages=((9, 1, 2),))
        with pytest.raises(ConfigurationError, match="empty"):
            FaultSchedule(4, 0, 20, server_outages=((0, 5, 5),))
        with pytest.raises(ConfigurationError):
            FaultSchedule(4, 0, 20, cap_windows=((1, 5, 1.5),))
        with pytest.raises(ConfigurationError, match="pool_sizes"):
            FaultSchedule(4, 0, 20, pool_sizes=(2, 3))

    def test_fault_config_validation(self):
        with pytest.raises(ConfigurationError, match="server_mtbf"):
            FaultConfig(server_mtbf_slots=-1.0)
        with pytest.raises(ConfigurationError, match="cap_frac"):
            FaultConfig(cap_frac=0.0)
        with pytest.raises(ConfigurationError, match="rack_size"):
            FaultConfig(rack_mtbf_slots=10.0)

    def test_engine_rejects_mismatched_schedule(self, ds, pred):
        fs = zero_faults(10, 0, ds.n_slots)
        with pytest.raises(ConfigurationError, match="servers"):
            DataCenterSimulation(
                ds, pred, EpactPolicy(), max_servers=20, n_slots=12,
                faults=fs,
            )
        short = zero_faults(20, 0, 100)  # ends before the horizon
        with pytest.raises(ConfigurationError, match="cover"):
            DataCenterSimulation(
                ds, pred, EpactPolicy(), max_servers=20, n_slots=12,
                faults=short,
            )


class TestSpecValidation:
    def test_pool_spec_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError, match="n_servers"):
            PoolSpec("ntc", ntc_server_power_model(), 0)
        with pytest.raises(ConfigurationError, match="integer"):
            PoolSpec("ntc", ntc_server_power_model(), 2.5)

    def test_pool_spec_rejects_unreachable_qos_floor(self):
        with pytest.raises(ConfigurationError, match="never be met"):
            PoolSpec(
                "ntc", ntc_server_power_model(), 4, qos_floor_ghz=99.0
            )

    def test_fleet_spec_rejects_non_pool_members(self):
        with pytest.raises(ConfigurationError, match="PoolSpec"):
            FleetSpec(pools=("not-a-pool",))

    def test_churn_config_rejects_negative_flash_slots(self):
        with pytest.raises(ConfigurationError, match="flash_slots"):
            ChurnConfig(flash_slots=(-3,))
        with pytest.raises(ConfigurationError, match="short_lifetime"):
            ChurnConfig(short_lifetime_mean_slots=0.0)


# -- the process fan's failure handling -------------------------------------


def _ok(x):
    return x * 2


def _boom(x):
    raise ValueError(f"boom {x}")


def _sleep(seconds):
    # Long enough to trip a sub-second wait twice, short enough not to
    # delay interpreter shutdown (abandoned workers finish the sleep).
    time.sleep(seconds)
    return seconds


class TestHardenedPoolRunner:
    """``fan_out`` over two workers: results in task order, failures
    isolated as :class:`FailedRun` after one retry."""

    def test_results_in_order_with_failures_isolated(self):
        results = fan_out(
            _ok, (), [("a", (1,)), ("b", (2,)), ("c", (3,))], jobs=2
        )
        assert list(results) == ["a", "b", "c"]
        assert results == {"a": 2, "b": 4, "c": 6}

    def test_failure_becomes_failed_run_not_exception(self):
        results = fan_out(_boom, (), [("bad", (7,)), ("worse", (8,))], jobs=2)
        failed = results["bad"]
        assert isinstance(failed, FailedRun)
        assert failed.key == "bad"
        assert failed.attempts == 2
        assert "boom 7" in failed.error
        assert "boom 8" in results["worse"].error

    def test_mixed_batch_keeps_survivors(self):
        # One function, data-dependent failure: exercised through a
        # single pool so the crash happens inside the shared executor.
        results = fan_out(
            _maybe_boom,
            (),
            [("x", (1,)), ("y", (-1,)), ("z", (3,))],
            jobs=2,
        )
        assert list(results) == ["x", "y", "z"]
        assert results["x"] == 1 and results["z"] == 9
        assert isinstance(results["y"], FailedRun)

    def test_timeout_is_reported(self, monkeypatch):
        monkeypatch.setattr(engine, "FAN_WAIT_S", 0.3)
        results = fan_out(
            _sleep, (), [("t", (2.0,)), ("quick", (0.0,))], jobs=2
        )
        assert isinstance(results["t"], FailedRun)
        assert "timed out" in results["t"].error
        assert results["quick"] == 0.0

    def test_duplicate_keys_rejected(self):
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="unique"):
                fan_out(_ok, (), [("k", (1,)), ("k", (2,))], jobs=jobs)


def _maybe_boom(x):
    if x < 0:
        raise RuntimeError("negative input")
    return x * x
