"""Cloud engine equivalences: zero churn, run semantics, parallel runs.

The acceptance bar of the online subsystem:

* a zero-churn cloud run reproduces the fixed-population engine
  *exactly* (every seed record field, bit for bit), online policies
  included;
* ``run_policies(..., schedule=..., jobs > 1)`` equals the serial run
  exactly;
* repeated runs with fresh (or reset) policy instances are identical;
* a window never reaches past midnight, so no decision reads a
  forecast fitted on slots after it.

Record-level regressions of the churn paths (resizes, PSU, migration
energy, empty-cloud gaps) are pinned by ``tests/test_engine_golden.py``.
"""

import numpy as np
import pytest

from repro.baselines import (
    CoatOptPolicy,
    CoatPolicy,
    OnlineBestFitPolicy,
    OnlineReactivePolicy,
)
from repro.cloud import (
    fixed_schedule,
    get_scenario,
    summarize,
)
from repro.core import EpactPolicy
from repro.dcsim import DataCenterSimulation, run_policies
from repro.errors import ConfigurationError
from repro.forecast import DayAheadPredictor
from repro.traces import LifecycleSchedule, TraceDataset, default_dataset
from repro.units import SAMPLES_PER_SLOT

SEED_FIELDS = (
    "slot_index",
    "case",
    "n_active_servers",
    "violations",
    "forced_placements",
    "energy_j",
    "mean_freq_ghz",
    "f_opt_ghz",
    "migrations",
)


def seed_fields(record):
    return tuple(getattr(record, f) for f in SEED_FIELDS)


def records_equal(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def churn_setup():
    dataset, schedule = get_scenario("diurnal-burst").build(
        n_vms=50, n_days=9, seed=13, n_slots=30
    )
    predictor = DayAheadPredictor(dataset)
    for day in range(7, dataset.n_days):
        predictor.forecast_day(day)
    return dataset, predictor, schedule


class TestZeroChurnEquivalence:
    @pytest.mark.parametrize(
        "policy_cls", [EpactPolicy, CoatPolicy, OnlineReactivePolicy]
    )
    def test_reproduces_fixed_population_exactly(
        self, small_dataset, arima_predictor, policy_cls
    ):
        n_slots = 26
        schedule = fixed_schedule(small_dataset.n_vms, 168, 168 + n_slots)
        fixed = DataCenterSimulation(
            small_dataset,
            arima_predictor,
            policy_cls(),
            max_servers=40,
            n_slots=n_slots,
        ).run()
        cloud = DataCenterSimulation(
            small_dataset,
            arima_predictor,
            policy_cls(),
            schedule=schedule,
            max_servers=40,
            n_slots=n_slots,
        ).run()
        assert len(fixed.records) == len(cloud.records)
        for a, b in zip(fixed.records, cloud.records):
            assert seed_fields(a) == seed_fields(b)
        # The cloud run additionally tracks the population.
        assert all(
            r.n_active_vms == small_dataset.n_vms for r in cloud.records
        )


class TestCloudRunSemantics:
    def test_migrations_exclude_arrivals_and_departures(self):
        """A policy that never moves persisting VMs shows 0 migrations
        even while the population churns."""
        dataset = default_dataset(n_vms=20, n_days=9, seed=5)
        predictor = DayAheadPredictor(dataset)
        schedule = LifecycleSchedule(
            arrival_slot=np.array([168] * 10 + [175] * 10),
            departure_slot=np.array([180] * 5 + [192] * 15),
            horizon_start=168,
            horizon_end=192,
        )
        result = DataCenterSimulation(
            dataset,
            predictor,
            OnlineBestFitPolicy(),
            schedule=schedule,
            max_servers=20,
            n_slots=24,
        ).run()
        assert result.total_migrations == 0
        assert result.total_arrivals == 10
        assert result.total_departures == 5
        # Population series follows the schedule.
        assert result.records[0].n_active_vms == 10
        assert result.records[-1].n_active_vms == 15

    def test_empty_cloud_slots_consume_nothing(self):
        dataset = default_dataset(n_vms=8, n_days=9, seed=6)
        predictor = DayAheadPredictor(dataset)
        schedule = LifecycleSchedule(
            arrival_slot=np.full(8, 172),
            departure_slot=np.full(8, 192),
            horizon_start=168,
            horizon_end=192,
        )
        result = DataCenterSimulation(
            dataset,
            predictor,
            OnlineBestFitPolicy(),
            schedule=schedule,
            max_servers=8,
            n_slots=24,
        ).run()
        for record in result.records[:4]:
            assert record.energy_j == 0.0
            assert record.n_active_servers == 0
            assert record.n_active_vms == 0
        assert result.records[4].n_active_vms == 8
        assert result.records[4].arrivals == 8

    def test_determinism_across_runs(self, churn_setup):
        dataset, predictor, schedule = churn_setup
        runs = [
            DataCenterSimulation(
                dataset,
                predictor,
                OnlineReactivePolicy(),
                schedule=schedule,
                max_servers=50,
                n_slots=30,
            ).run()
            for _ in range(2)
        ]
        assert records_equal(runs[0].records, runs[1].records)

    def test_policy_instance_reusable_via_reset(self, churn_setup):
        """The same stateful policy object yields identical runs."""
        dataset, predictor, schedule = churn_setup
        policy = OnlineReactivePolicy()
        kwargs = dict(schedule=schedule, max_servers=50, n_slots=30)
        first = DataCenterSimulation(
            dataset, predictor, policy, **kwargs
        ).run()
        second = DataCenterSimulation(
            dataset, predictor, policy, **kwargs
        ).run()
        assert records_equal(first.records, second.records)

    def test_schedule_validation(self, small_dataset, arima_predictor):
        with pytest.raises(ConfigurationError, match="VMs"):
            DataCenterSimulation(
                small_dataset,
                arima_predictor,
                EpactPolicy(),
                schedule=fixed_schedule(small_dataset.n_vms + 1, 168, 200),
                n_slots=24,
            )
        # The message names both ranges, as the fault check's does.
        with pytest.raises(
            ConfigurationError,
            match=r"covers \[168, 170\) but the simulation runs \[168, 192\)",
        ):
            DataCenterSimulation(
                small_dataset,
                arima_predictor,
                EpactPolicy(),
                schedule=fixed_schedule(small_dataset.n_vms, 168, 170),
                n_slots=24,
            )


class _RecordingCoatOpt(CoatOptPolicy):
    """COAT-OPT that keeps every decision it makes, in window order."""

    def __init__(self):
        super().__init__()
        self.decisions = []

    def allocate(self, ctx):
        allocation = super().allocate(ctx)
        self.decisions.append(
            (
                [plan.vm_ids for plan in allocation.plans],
                allocation.f_opt_ghz,
                allocation.violation_cap_pct,
            )
        )
        return allocation


def _window_decisions(dataset, schedule):
    """``{window start slot: decision}`` of a churn run of COAT-OPT."""
    policy = _RecordingCoatOpt()
    sim = DataCenterSimulation(
        dataset,
        DayAheadPredictor(dataset),
        policy,
        schedule=schedule,
        max_servers=40,
    )
    slots = [window.slot for window in sim.windows()]
    return dict(zip(slots, policy.decisions))


class TestCausalWindows:
    def test_window_plans_only_from_the_past(self):
        """Without a cut at midnight, the window starting at slot 215
        (day 8's last slot) runs two slots and plans slot 216 from day
        9's forecast, fitted on all of day 8: replacing only the truth
        from slot 215 on changes its plans.  Every window starting at or
        before the cut must plan the same from both traces."""
        dataset, schedule = get_scenario("steady").build(
            n_vms=60, n_days=10, seed=3
        )
        cut = 215
        rng = np.random.default_rng(0)
        cpu, mem = dataset.cpu_pct.copy(), dataset.mem_pct.copy()
        for matrix in (cpu, mem):
            tail = matrix[:, cut * SAMPLES_PER_SLOT :]
            tail[:] = rng.uniform(0.0, 100.0, tail.shape)
        altered = TraceDataset(specs=dataset.specs, cpu_pct=cpu, mem_pct=mem)
        true = _window_decisions(dataset, schedule)
        future_changed = _window_decisions(altered, schedule)
        assert cut in true
        for slot, decision in true.items():
            if slot <= cut:
                assert future_changed[slot] == decision, slot


class TestParallelCloudRuns:
    def test_jobs_match_serial_exactly(self, churn_setup):
        dataset, predictor, schedule = churn_setup
        def policies():
            return [
                EpactPolicy(),
                OnlineBestFitPolicy(),
                OnlineReactivePolicy(),
            ]
        serial = run_policies(
            dataset,
            predictor,
            policies(),
            schedule=schedule,
            max_servers=50,
            n_slots=30,
        )
        parallel = run_policies(
            dataset,
            predictor,
            policies(),
            jobs=2,
            schedule=schedule,
            max_servers=50,
            n_slots=30,
        )
        assert list(serial) == list(parallel)
        for name in serial:
            assert records_equal(
                serial[name].records, parallel[name].records
            )


class TestCloudExperiment:
    def test_registered_and_renders(self):
        from repro.experiments.cloud import render, run_cloud
        from repro.experiments.runner import EXPERIMENTS

        assert "cloud" in EXPERIMENTS
        result = run_cloud(
            quick=True, scenario_names=["zero-churn"], n_slots=4
        )
        text = render(result)
        assert "zero-churn" in text
        for policy in ("EPACT", "ONLINE-REACTIVE"):
            assert policy in text


class TestSlaSummary:
    def test_summary_rates(self, churn_setup):
        dataset, predictor, schedule = churn_setup
        result = DataCenterSimulation(
            dataset,
            predictor,
            OnlineReactivePolicy(),
            schedule=schedule,
            max_servers=50,
            n_slots=30,
        ).run()
        s = summarize(result)
        assert s.policy_name == "ONLINE-REACTIVE"
        assert s.total_energy_mj > 0.0
        assert 0.0 <= s.violation_rate <= 1.0
        assert s.mean_active_vms > 0.0
        assert s.energy_per_vm_slot_kj > 0.0
        assert s.total_arrivals >= 0 and s.total_departures >= 0

    def test_fixed_population_rates_match_zero_churn(
        self, small_dataset, arima_predictor
    ):
        """A fixed-population run records its population, so its
        per-VM-slot rates equal the zero-churn cloud run's."""
        kwargs = dict(max_servers=40, n_slots=2)
        fixed = summarize(
            DataCenterSimulation(
                small_dataset, arima_predictor, EpactPolicy(), **kwargs
            ).run()
        )
        cloud = summarize(
            DataCenterSimulation(
                small_dataset,
                arima_predictor,
                EpactPolicy(),
                schedule=fixed_schedule(small_dataset.n_vms, 168, 170),
                **kwargs,
            ).run()
        )
        assert fixed.mean_active_vms == small_dataset.n_vms
        assert fixed.energy_per_vm_slot_kj > 0.0
        assert fixed.migrations_per_vm_slot == cloud.migrations_per_vm_slot
        assert fixed.energy_per_vm_slot_kj == cloud.energy_per_vm_slot_kj
