"""Cross-module property-based tests (hypothesis).

System-level invariants that hold for arbitrary inputs, not just the
paper's operating points.
"""

import os
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    CoatOptPolicy,
    CoatPolicy,
    FfdPolicy,
    OnlineBestFitPolicy,
    OnlineReactivePolicy,
)
from repro.baselines.coat import _EPS as _COAT_EPS
from repro.baselines.coat import _allocate_reference as _coat_reference
from repro.cloud import StreamingCloudSimulation, fixed_schedule
from repro.cloud.faults import zero_faults
from repro.cloud.streaming import _FRAME, _PREAMBLE
from repro.cloud.telemetry import (
    TELEMETRY_SCENARIOS,
    TelemetryIngest,
    get_telemetry_scenario,
)
from repro.core import EpactPolicy
from repro.core.alloc1d import _EPS as _ALG1_EPS
from repro.core.alloc1d import (
    _LAZY_TRIES,
    _allocate_1d_reference,
    allocate_1d,
    ffd_order,
)
from repro.core.alloc2d import _allocate_2d_reference, allocate_2d
from repro.core.correlation import pearson_many
from repro.core.governor import DvfsGovernor
from repro.core.types import (
    AllocationContext,
    FaultWindow,
    FleetSpec,
    PoolSpec,
)
from repro.dcsim.engine import DataCenterSimulation, count_migrations
from repro.errors import ConfigurationError, ReproError
from repro.experiments.hyperscale import synthetic_dataset
from repro.forecast import DayAheadPredictor
from repro.forecast.predictor import PerfectPredictor
from repro.perf.workload import ALL_MEMORY_CLASSES
from repro.power.datacenter import DataCenterPowerAnalysis
from repro.serve.adapters import TelemetryBatch
from repro.shard import ShardedPolicy, shard_server_budgets
from repro.technology.opp import ntc_opp_table
from repro.traces import TraceDataset, default_dataset
from repro.traces.lifecycle import ChurnConfig, generate_lifecycle
from repro.units import SAMPLES_PER_DAY, SAMPLES_PER_SLOT, SLOTS_PER_DAY

freq_strategy = st.floats(min_value=0.1, max_value=3.1)
util_strategy = st.floats(min_value=0.0, max_value=100.0)
fraction_strategy = st.floats(min_value=0.0, max_value=1.0)


class TestPowerInvariants:
    @given(freq_strategy, fraction_strategy, fraction_strategy)
    def test_breakdown_components_non_negative(
        self, ntc_power, freq, busy, stall
    ):
        b = ntc_power.breakdown(
            freq, busy_fraction=busy, stall_fraction=stall
        )
        for field in (
            b.core_dynamic_w,
            b.core_leakage_w,
            b.llc_leakage_w,
            b.llc_access_w,
            b.uncore_constant_w,
            b.uncore_proportional_w,
            b.motherboard_w,
            b.dram_background_w,
            b.dram_access_w,
        ):
            assert field >= 0.0

    @given(freq_strategy, fraction_strategy)
    def test_stalling_never_increases_power(self, ntc_power, freq, stall):
        stalled = ntc_power.power_w(freq, 1.0, stall_fraction=stall)
        active = ntc_power.power_w(freq, 1.0, stall_fraction=0.0)
        assert stalled <= active + 1e-12

    @given(freq_strategy)
    def test_static_floor_below_full_load(self, ntc_power, freq):
        assert ntc_power.idle_power_w(freq) <= ntc_power.full_load_power_w(
            freq
        )

    @given(st.floats(min_value=1.0, max_value=99.0), freq_strategy)
    def test_dc_power_monotone_in_utilization(self, ntc_power, util, freq):
        from repro.errors import InfeasibleError

        dc = DataCenterPowerAnalysis(ntc_power, n_servers=80)
        try:
            low = dc.operating_point(freq, util * 0.5).power_kw
            high = dc.operating_point(freq, util).power_kw
        except InfeasibleError:
            return
        assert high >= low - 1e-9


class TestGovernorInvariants:
    @given(
        st.lists(util_strategy, min_size=1, max_size=8),
        st.sampled_from([0.1, 1.2, 1.8]),
    )
    def test_choice_covers_demand_and_floor(self, utils, floor):
        governor = DvfsGovernor(ntc_opp_table(), 3.1)
        util = np.array([utils])
        idx = governor.opp_indices(util, np.array([floor]))
        freqs = governor.frequencies_ghz[idx][0]
        for u, f in zip(utils, freqs):
            demand = min(u, 100.0) * 3.1 / 100.0
            assert f >= min(demand, 3.1) - 0.1 - 1e-9  # one OPP step max
            assert f >= floor - 1e-9

    @given(st.lists(util_strategy, min_size=1, max_size=8))
    def test_choice_is_minimal_covering_opp(self, utils):
        """No lower OPP would cover demand and floor."""
        governor = DvfsGovernor(ntc_opp_table(), 3.1)
        util = np.array([utils])
        floor = 0.1
        idx = governor.opp_indices(util, np.array([floor]))[0]
        freqs = governor.frequencies_ghz
        for u, i in zip(utils, idx):
            demand = u * 3.1 / 100.0
            if i > 0:
                below = freqs[i - 1]
                assert below < demand - 1e-9 or below < floor - 1e-9 or (
                    demand > 3.1
                )


_COAT_POLICIES = {
    "COAT": CoatPolicy,
    "COAT-OPT": CoatOptPolicy,
    "FFD": FfdPolicy,
    "COAT-55/70": lambda: CoatPolicy(cap_cpu_pct=55.0, cap_mem_pct=70.0),
}


def _same_allocation(got, want):
    assert [p.vm_ids for p in got.plans] == [p.vm_ids for p in want.plans]
    assert got.forced_placements == want.forced_placements
    assert got.f_opt_ghz == want.f_opt_ghz
    assert got.violation_cap_pct == want.violation_cap_pct


class TestAllocationInvariants:
    @given(st.integers(2, 25), st.integers(0, 1000))
    @settings(max_examples=15)
    def test_alloc1d_partition_and_caps(self, n_vms, seed):
        rng = np.random.default_rng(seed)
        cpu = rng.uniform(1.0, 25.0, size=(n_vms, 12))
        mem = rng.uniform(1.0, 10.0, size=(n_vms, 12))
        plans, forced = allocate_1d(cpu, mem, cap_cpu_pct=61.3)
        placed = sorted(v for p in plans for v in p.vm_ids)
        assert placed == list(range(n_vms))
        assert forced == 0
        for plan in plans:
            if len(plan.vm_ids) > 1:
                assert cpu[plan.vm_ids].sum(axis=0).max() <= 61.3 + 1e-9

    @given(st.integers(2, 25), st.integers(0, 1000))
    @settings(max_examples=15)
    def test_alloc1d_server_count_lower_bound(self, n_vms, seed):
        """Cannot beat the aggregate-demand lower bound."""
        rng = np.random.default_rng(seed)
        cpu = rng.uniform(1.0, 25.0, size=(n_vms, 12))
        mem = rng.uniform(0.5, 3.0, size=(n_vms, 12))
        cap = 61.3
        plans, _ = allocate_1d(cpu, mem, cap_cpu_pct=cap)
        import math

        lower = math.ceil(cpu.sum(axis=0).max() / cap - 1e-9)
        assert len(plans) >= lower

    @given(
        name=st.sampled_from(sorted(_COAT_POLICIES)),
        n_vms=st.integers(1, 40),
        width=st.sampled_from([1, 12, 48, 96, 288]),
        dtype=st.sampled_from([np.float32, np.float64]),
        mem_scale=st.floats(5.0, 60.0),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_coat_partition_caps_and_reference(
        self, ntc_power, name, n_vms, width, dtype, mem_scale, data, seed
    ):
        """Every ``CoatPolicy`` equals its seed oracle on windows on both
        sides of the one-pass width rule: constant rows, rows of one
        shared shape (Pearson near-ties) and fleets smaller than the VM
        count (forced placements)."""
        max_servers = data.draw(st.integers(1, n_vms), label="max_servers")
        rng = np.random.default_rng(seed)
        cpu = rng.uniform(1.0, 45.0, size=(n_vms, width))
        mem = rng.uniform(1.0, mem_scale, size=(n_vms, width))
        flat = rng.random(n_vms) < 0.25
        cpu[flat] = cpu[flat, :1]
        mem[flat] = mem[flat, :1]
        shared = rng.random(n_vms) < 0.3
        shape = rng.uniform(0.2, 1.0, size=width)
        cpu[shared] = shape * rng.uniform(5.0, 45.0, size=(shared.sum(), 1))
        cpu, mem = cpu.astype(dtype), mem.astype(dtype)
        ctx = AllocationContext(
            cpu, mem, ntc_power, max_servers, np.full(n_vms, 1.2)
        )
        policy = _COAT_POLICIES[name]()
        allocation = policy.allocate(ctx)
        _same_allocation(allocation, _coat_reference(policy, ctx))

        placed = sorted(v for p in allocation.plans for v in p.vm_ids)
        assert placed == list(range(n_vms))
        if allocation.forced_placements == 0:
            for plan in allocation.plans:
                if len(plan.vm_ids) > 1:
                    assert (
                        cpu[plan.vm_ids].astype(float).sum(axis=0).max()
                        <= plan.cap_cpu_pct + 1e-9
                    )
                    assert (
                        mem[plan.vm_ids].astype(float).sum(axis=0).max()
                        <= plan.cap_mem_pct + 1e-9
                    )

    @pytest.mark.parametrize("width", [12, 288])
    @pytest.mark.parametrize("resource", ["cpu", "mem"])
    def test_coat_aggregate_on_the_cap_fits_one_ulp_above_does_not(
        self, ntc_power, width, resource
    ):
        policy = CoatPolicy(cap_cpu_pct=55.0, cap_mem_pct=70.0)
        cap, first = (55.0, 30.0) if resource == "cpu" else (70.0, 40.0)
        cap += _COAT_EPS
        for target, n_plans in ((cap, 1), (np.nextafter(cap, np.inf), 2)):
            cpu = np.full((2, width), 5.0)
            mem = np.full((2, width), 5.0)
            load = cpu if resource == "cpu" else mem
            load[0, 1] = first
            load[1, 1] = target - first
            assert load[0, 1] + load[1, 1] == target  # exact
            ctx = AllocationContext(cpu, mem, ntc_power, 2, np.full(2, 1.2))
            allocation = policy.allocate(ctx)
            assert len(allocation.plans) == n_plans
            assert allocation.forced_placements == 0
            _same_allocation(allocation, _coat_reference(policy, ctx))

    def test_alloc1d_fallback_scan_equals_its_oracle(self):
        """The first server's top-ranked candidates all collide with it
        at its peak sample but pass the cheap minimum bound, so more
        than ``_LAZY_TRIES`` probes fail and the stacked scan decides.
        Left for the scan: a candidate that fits the CPU cap but not the
        memory cap, ranked above the one that fits both, whose CPU
        aggregate lands exactly on the cap."""
        rng = np.random.default_rng(5)
        cap = 100.0
        first = np.array([60.0] + [50.0] * 5 + [0.0] * 6)
        bad = np.tile([45.0] + [0.0] * 5 + [45.0] * 6, (_LAZY_TRIES + 3, 1))
        bad *= rng.uniform(0.97, 1.0, size=bad.shape)
        mem_heavy = np.array([20.0] + [10.0] * 5 + [14.0] * 6)
        fitting = np.array([cap + _ALG1_EPS - 60.0] + [6.0, 5.0] * 5 + [6.0])
        cpu = np.vstack([first, bad, mem_heavy, fitting])
        mem = np.full(cpu.shape, 2.0)
        mem[-2] = [99.0] + [50.0] * 11

        # The premise: the first VM opens the first server; its top
        # _LAZY_TRIES + 1 candidates pass the bound but do not fit, and
        # the memory-heavy one outranks the one that fits.
        assert ffd_order(cpu)[0] == 0
        rest_cpu, rest_mem = cpu[1:], mem[1:]
        assert (first + fitting).max() == cap + _ALG1_EPS
        cpu_fits = (first + rest_cpu).max(axis=1) <= cap + _ALG1_EPS
        fits = cpu_fits & ((mem[0] + rest_mem).max(axis=1) <= cap + _ALG1_EPS)
        assert np.flatnonzero(fits).tolist() == [len(rest_cpu) - 1]
        assert cpu_fits[-2]
        ranked = np.argsort(pearson_many(rest_cpu, first), kind="stable")
        assert not cpu_fits[ranked[: _LAZY_TRIES + 1]].any()
        order = ranked.tolist()
        assert order.index(len(rest_cpu) - 2) < order.index(len(rest_cpu) - 1)
        assert (rest_cpu.min(axis=1) <= cap - first.max()).all()
        assert (rest_mem.min(axis=1) <= cap - mem[0].max()).all()

        plans, forced = allocate_1d(cpu, mem, cap)
        want, want_forced = _allocate_1d_reference(
            cpu, mem, cap, 100.0, None, ffd_order(cpu)
        )
        assert [p.vm_ids for p in plans] == [p.vm_ids for p in want]
        assert forced == want_forced
        assert len(cpu) - 1 in plans[0].vm_ids

    @given(
        st.integers(1, 130),
        st.sampled_from([1, 12, 288]),
        st.floats(20.0, 100.0),
        st.floats(30.0, 100.0),
        st.integers(1, 40),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_alloc2d_partition_caps_and_reference(
        self, n_vms, width, cap_cpu, cap_mem, n_servers, extra, seed
    ):
        """Runs cross the fast path's 48-VM blocks; low caps make VMs
        that fit nowhere, so servers open and fleets run out."""
        rng = np.random.default_rng(seed)
        cpu = rng.uniform(1.0, 45.0, size=(n_vms, width))
        mem = rng.uniform(1.0, 30.0, size=(n_vms, width))
        flat = rng.random(n_vms) < 0.3
        cpu[flat] = cpu[flat, :1]
        mem[flat] = mem[flat, :1]
        bound = n_servers + extra
        plans, forced = allocate_2d(
            cpu, mem, n_servers, cap_cpu, cap_mem, max_servers=bound
        )
        reference, ref_forced = _allocate_2d_reference(
            cpu, mem, n_servers, cap_cpu, cap_mem, bound, np.arange(n_vms)
        )
        assert [p.vm_ids for p in plans] == [p.vm_ids for p in reference]
        assert forced == ref_forced

        placed = sorted(v for p in plans for v in p.vm_ids)
        assert placed == list(range(n_vms))
        assert len(plans) <= bound
        if forced == 0:
            for plan in plans:
                if len(plan.vm_ids) > 1:
                    assert cpu[plan.vm_ids].sum(axis=0).max() <= (
                        cap_cpu + 1e-9
                    )
                    assert mem[plan.vm_ids].sum(axis=0).max() <= (
                        cap_mem + 1e-9
                    )


class TestImputationInvariants:
    """The batched gap fill on arbitrary delivery masks."""

    @given(
        st.integers(1, 12),
        st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]),
        st.booleans(),
        st.sampled_from([1, 12, 288, 2016]),
        st.floats(0.0, 100.0),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["empty", "one", "all", "some"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_fill_matches_loop_keeps_observations_in_range(
        self, n_vms, density, from_zero, width, cold, seed, subset
    ):
        """~30% of the VMs are never observed; the window starts at
        sample 0 or anywhere, and is clipped to the 8-day horizon.  A
        read of a sorted row subset (empty, one row, every row or a
        random draw) gives those rows of the whole-window read."""
        rng = np.random.default_rng(seed)
        dataset = synthetic_dataset(n_vms, n_days=8)
        horizon = dataset.n_samples
        ingest = TelemetryIngest(dataset, cold_start_util_pct=cold)
        valid = rng.random((n_vms, horizon)) < density
        valid[rng.random(n_vms) < 0.3] = False
        rows, samples = np.nonzero(valid)
        ingest.ingest(
            TelemetryBatch(
                vm_rows=rows,
                samples=samples,
                cpu=rng.uniform(0.0, 100.0, rows.size),
                mem=rng.uniform(0.0, 100.0, rows.size),
            )
        )
        lo = 0 if from_zero else int(rng.integers(0, horizon))
        hi = min(lo + width, horizon)

        window = ingest.valid[:, lo:hi]
        filled = ingest.filled_window(lo, hi)
        reference = ingest._fill_reference(lo, hi)
        observed = (ingest.obs_cpu[:, lo:hi], ingest.obs_mem[:, lo:hi])
        for got, want, obs in zip(filled, reference, observed):
            assert got.tobytes() == want.tobytes()
            assert got[window].tobytes() == obs[window].tobytes()
            assert ((got >= 0.0) & (got <= 100.0)).all()
        carried = ingest._carry_before(lo)
        scanned = ingest._carry_before_reference(lo)
        for got, want in zip(carried, scanned):
            assert got.tobytes() == want.tobytes()

        rows = {
            "empty": np.empty(0, dtype=np.intp),
            "one": rng.integers(0, n_vms, size=1),
            "all": np.arange(n_vms),
            "some": np.flatnonzero(rng.random(n_vms) < 0.5),
        }[subset]
        for got, want, oracle in zip(
            ingest.filled_window(lo, hi, rows),
            filled,
            ingest._fill_reference(lo, hi, rows),
        ):
            assert got.shape == (rows.size, hi - lo)
            assert got.tobytes() == want[rows].tobytes()
            assert got.tobytes() == oracle.tobytes()
        for got, want in zip(ingest._carry_before(lo, rows), carried):
            assert got.tobytes() == want[rows].tobytes()


#: A reading's values: valid ones, and the ones the ingest must drop.
_READING = st.one_of(
    st.floats(0.0, 100.0),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 100.5, 400.0]),
)


class TestIngestInvariants:
    """The ingest's trust boundary on arbitrary batches."""

    N_VMS = 3

    @staticmethod
    def _ingest():
        """A one-day ingest holding three readings, all of them already
        checkpointed: only the batch moves its change mark."""
        ingest = TelemetryIngest(synthetic_dataset(TestIngestInvariants.N_VMS))
        ingest.ingest(
            TelemetryBatch(
                vm_rows=np.arange(3),
                samples=np.array([5, 6, 7]),
                cpu=np.full(3, 30.0),
                mem=np.full(3, 40.0),
            )
        )
        ingest.state(full=False)
        return ingest

    @given(
        readings=st.lists(
            st.tuples(
                st.integers(-2, N_VMS + 1),
                st.integers(-3, SAMPLES_PER_DAY + 2),
                _READING,
                _READING,
            ),
            max_size=12,
        ),
        slot=st.integers(-1, SLOTS_PER_DAY + 1),
        defect=st.sampled_from(
            ["none", "ragged", "float rows", "float samples"]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_raises_unchanged_or_stores_the_valid_part(
        self, readings, slot, defect
    ):
        """Out-of-range rows and samples, stamps at or after the polled
        slot, NaN, ±inf and out-of-range values are dropped: the batch
        stores what a batch of its valid part stores.  A ragged batch or
        float indices raise and store nothing."""
        rows, samples = (
            np.array([r[i] for r in readings], dtype=np.int64) for i in (0, 1)
        )
        cpu, mem = (np.array([r[i] for r in readings], float) for i in (2, 3))
        if defect == "ragged":
            mem = np.append(mem, 50.0)
        elif defect == "float rows":
            rows = rows.astype(float)
        elif defect == "float samples":
            samples = samples + 0.5
        batch = TelemetryBatch(vm_rows=rows, samples=samples, cpu=cpu, mem=mem)
        ingest, twin = self._ingest(), self._ingest()
        if defect != "none":
            with pytest.raises(ReproError):
                ingest.ingest(batch, slot)
        else:
            n_samples = ingest.valid.shape[1]
            keep = (
                (rows >= 0)
                & (rows < self.N_VMS)
                & (samples >= 0)
                & (samples < min(slot * SAMPLES_PER_SLOT, n_samples))
                & (cpu >= 0.0)
                & (cpu <= 100.0)
                & (mem >= 0.0)
                & (mem <= 100.0)
            )
            assert ingest.ingest(batch, slot) == rows.size - keep.sum()
            valid_part = TelemetryBatch(
                vm_rows=rows[keep],
                samples=samples[keep],
                cpu=cpu[keep],
                mem=mem[keep],
            )
            assert twin.ingest(valid_part, slot) == 0
        for name in ("obs_cpu", "obs_mem", "valid"):
            assert getattr(ingest, name).tobytes() == (
                getattr(twin, name).tobytes()
            )
        assert ingest.newest_delivery_slot == twin.newest_delivery_slot
        # The columns a checkpoint record would hold agree too.
        ours, theirs = ingest.state(full=False), twin.state(full=False)
        assert ours.keys() == theirs.keys()
        for key, value in ours.items():
            assert np.array_equal(value, theirs[key])


# A horizon that crosses from day 7 into day 8, so the ladder decides a
# day inside every run (fresh, stale or persistence).
_RESUME_START = 8 * SLOTS_PER_DAY - 6


@pytest.fixture(scope="module")
def resume_traces():
    return default_dataset(n_vms=24, n_days=10, seed=77)


_RESUME_POLICIES = {
    "epact": EpactPolicy,
    "reactive": OnlineReactivePolicy,
    "bestfit": OnlineBestFitPolicy,
}


def _resume_sim(dataset, telemetry, schedule, policy, max_imputed, **kwargs):
    return StreamingCloudSimulation(
        dataset,
        DayAheadPredictor(dataset),
        _RESUME_POLICIES[policy](),
        schedule,
        telemetry=telemetry,
        max_imputed_frac=max_imputed,
        max_servers=8,
        start_slot=_RESUME_START,
        **kwargs,
    )


def _last_record(data: bytes):
    """(offset, length) of a checkpoint file's last record, frame
    included, or ``None`` for a base alone."""
    _, _, base_len = _PREAMBLE.unpack_from(data)
    pos, last = _PREAMBLE.size + base_len, None
    while pos < len(data):
        length = _FRAME.size + _FRAME.unpack_from(data, pos)[0]
        last = (pos, length)
        pos += length
    return last


class TestResumeProperty:
    """Resuming a streaming run from a copy of its checkpoint file taken
    at any boundary, or from that copy cut inside its last record (a
    torn write, dropped on resume), gives the uninterrupted run.

    The drawn configurations compose policy, churn, degradation
    scenario, a strict or default fresh-fit threshold (so fresh, stale
    and persistence rungs all occur), the checkpoint cadence and a
    dataset ending ``extra_slots`` past a whole day (a sample count
    that is not always a multiple of 8, as the bit-packed validity
    must handle).
    """

    @given(
        policy=st.sampled_from(sorted(_RESUME_POLICIES)),
        churn=st.booleans(),
        scenario=st.sampled_from(sorted(TELEMETRY_SCENARIOS)),
        max_imputed=st.sampled_from([0.0, 0.25]),
        every=st.integers(1, 8),
        n_slots=st.integers(8, 12),
        extra_slots=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    # Late delivery under a zero threshold: day 7 fits fresh, day 8 is
    # stale, and a boundary falls on day 8's first slot, before the
    # ladder decides it from day 7's forecast.
    @example(
        policy="reactive",
        churn=True,
        scenario="late-burst",
        max_imputed=0.0,
        every=3,
        n_slots=12,
        extra_slots=1,
        seed=5,
    )
    # VMs 1 and 6 depart at slots 189 and 191, before day 8's first
    # slot (192), so day 8 fits fresh without their rows (NaN); the
    # boundaries at 188 and 190 resume into re-deciding that day.
    @example(
        policy="epact",
        churn=True,
        scenario="lossy-1pct",
        max_imputed=0.25,
        every=2,
        n_slots=12,
        extra_slots=2,
        seed=3,
    )
    # A placement-on-arrival policy over a fixed population: resuming
    # without its carried placement re-packs every VM.
    @example(
        policy="bestfit",
        churn=False,
        scenario="collector-outage",
        max_imputed=0.25,
        every=2,
        n_slots=8,
        extra_slots=0,
        seed=11,
    )
    @settings(max_examples=10, deadline=None)
    def test_resume_at_every_boundary(
        self, resume_traces, policy, churn, scenario, max_imputed, every,
        n_slots, extra_slots, seed,
    ):
        width = 9 * SAMPLES_PER_DAY + extra_slots * SAMPLES_PER_SLOT
        dataset = TraceDataset(
            specs=resume_traces.specs,
            cpu_pct=resume_traces.cpu_pct[:, :width],
            mem_pct=resume_traces.mem_pct[:, :width],
        )
        telemetry = get_telemetry_scenario(scenario).build(
            dataset.n_vms, 0, dataset.n_slots, seed=seed
        )
        if churn:
            schedule = generate_lifecycle(
                dataset.n_vms,
                _RESUME_START,
                _RESUME_START + n_slots,
                config=ChurnConfig(initial_fraction=0.5),
                seed=seed,
            )
        else:
            schedule = fixed_schedule(dataset.n_vms, 0, dataset.n_slots)
        args = (dataset, telemetry, schedule, policy, max_imputed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt")
            full = _resume_sim(
                *args,
                n_slots=n_slots,
                checkpoint_every_slots=every,
                checkpoint_path=path,
            )
            sources = []
            for decision in full.windows():
                if not decision.checkpointed:
                    continue
                saved = os.path.join(tmp, f"ckpt-{len(sources)}")
                shutil.copyfile(path, saved)
                sources.append(saved)
                with open(saved, "rb") as fh:
                    data = fh.read()
                last = _last_record(data)
                if last is not None:
                    # Cut somewhere inside the last record, frame
                    # included; the seed picks where.
                    start, length = last
                    with open(saved + "-cut", "wb") as fh:
                        fh.write(data[: start + 1 + seed % (length - 1)])
                    sources.append(saved + "-cut")
            assert sources
            expected = full.result.records
            for source in sources:
                resumed = _resume_sim(*args, n_slots=n_slots)
                resumed.restore(source)
                assert resumed.run().records == expected


_ENGINE_POLICIES = {
    "EPACT": EpactPolicy,
    "COAT": CoatPolicy,
    "COAT-OPT": CoatOptPolicy,
    "ONLINE-BF": OnlineBestFitPolicy,
    "ONLINE-REACTIVE": OnlineReactivePolicy,
}


class TestEngineSpecialCases:
    """The engine's special cases are its general case with neutral
    arguments: a zero-churn ``schedule=`` is the fixed population, and
    a zero-event fault schedule is no fault layer, with or without
    churn.  Two-day traces under the oracle predictor keep each example
    to a few milliseconds."""

    @given(
        policy=st.sampled_from(sorted(_ENGINE_POLICIES)),
        seed=st.integers(0, 2**16),
        n_vms=st.integers(2, 12),
        start=st.integers(1, 30),
        n_slots=st.integers(1, 17),
        tail=st.integers(0, 1),
    )
    # COAT-OPT is the one drawn policy that plans multi-slot (day-ahead)
    # windows, so only it shows a wrongly cut window.
    @example(
        policy="COAT-OPT", seed=0, n_vms=8, start=24, n_slots=17, tail=1
    )
    @settings(max_examples=15, deadline=None)
    def test_neutral_schedules_change_nothing(
        self, policy, seed, n_vms, start, n_slots, tail
    ):
        dataset = default_dataset(n_vms=n_vms, n_days=2, seed=seed)
        end = start + n_slots
        # A schedule may outlast the simulated horizon.
        horizon_end = end + tail * (dataset.n_slots - end)

        def run(**kwargs):
            return DataCenterSimulation(
                dataset,
                PerfectPredictor(dataset),
                _ENGINE_POLICIES[policy](),
                max_servers=n_vms,
                start_slot=start,
                n_slots=n_slots,
                **kwargs,
            ).run().records

        fixed = run()
        assert run(
            schedule=fixed_schedule(n_vms, start, horizon_end)
        ) == fixed
        no_faults = zero_faults(n_vms, 0, dataset.n_slots)
        assert run(faults=no_faults) == fixed
        churn = generate_lifecycle(
            n_vms,
            start,
            horizon_end,
            config=ChurnConfig(initial_fraction=0.5),
            seed=seed,
        )
        assert run(schedule=churn, faults=no_faults) == run(schedule=churn)


_CONTRACT_POLICIES = {
    "EPACT": EpactPolicy,
    "COAT": CoatPolicy,
    "COAT-OPT": CoatOptPolicy,
    "FFD": FfdPolicy,
    "ONLINE-BF": OnlineBestFitPolicy,
    "ONLINE-REACTIVE": OnlineReactivePolicy,
    "SHARDED-EPACT": lambda: ShardedPolicy(EpactPolicy(), 2),
}
#: Single-pool policies: the engine refuses them on a mixed fleet.
_ONE_POOL_ONLY = {"COAT", "COAT-OPT", "FFD"}


class TestAllocationContract:
    """What every policy owes the engine, on any fleet and fault state:
    each VM placed once or shed, shedding only under faults, no more
    plans than servers, and pool tags that respect every pool's
    capacity.  Packing caps are not asserted: an allocator opens a
    server for a VM whose own peak exceeds the cap without counting a
    forced placement."""

    @given(
        policy=st.sampled_from(sorted(_CONTRACT_POLICIES)),
        seed=st.integers(0, 2**32 - 1),
        n_vms=st.integers(1, 30),
        cpu_scale=st.floats(1.0, 60.0),
        mem_scale=st.floats(1.0, 40.0),
        n_ntc=st.integers(2, 12),
        n_conv=st.integers(2, 12),
        two_pools=st.booleans(),
        faulted=st.booleans(),
    )
    # Demand spills from the NTC pool onto the conventional one, so
    # both pools' plans must carry global VM ids.
    @example(
        policy="EPACT",
        seed=1,
        n_vms=30,
        cpu_scale=40.0,
        mem_scale=10.0,
        n_ntc=2,
        n_conv=6,
        two_pools=True,
        faulted=False,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_vm_placed_once_within_capacity(
        self,
        ntc_power,
        conv_power,
        policy,
        seed,
        n_vms,
        cpu_scale,
        mem_scale,
        n_ntc,
        n_conv,
        two_pools,
        faulted,
    ):
        two_pools = two_pools and policy not in _ONE_POOL_ONLY
        faulted = faulted and policy != "SHARDED-EPACT"
        rng = np.random.default_rng(seed)
        cpu = rng.uniform(0.0, cpu_scale, size=(n_vms, SAMPLES_PER_SLOT))
        mem = rng.uniform(0.0, mem_scale, size=(n_vms, SAMPLES_PER_SLOT))
        if two_pools:
            pools = (
                PoolSpec("ntc", ntc_power, n_ntc),
                PoolSpec(
                    "conventional", conv_power, n_conv, perf_platform="x86"
                ),
            )
        else:
            pools = (PoolSpec("ntc", ntc_power, n_ntc + n_conv),)
        fault = None
        if faulted:
            # One server of every pool is down.
            pools = tuple(
                replace(pool, n_servers=pool.n_servers - 1) for pool in pools
            )
            fault = FaultWindow(
                available_servers=sum(pool.n_servers for pool in pools),
                n_failed=len(pools),
                pool_available=(
                    tuple(pool.n_servers for pool in pools)
                    if two_pools
                    else None
                ),
            )
        fleet = FleetSpec(pools=pools)
        ctx = AllocationContext(
            pred_cpu=cpu,
            pred_mem=mem,
            power_model=ntc_power,
            max_servers=fleet.total_servers,
            qos_floor_ghz=np.full(n_vms, 0.5),
            fleet=fleet,
            faults=fault,
        )
        allocation = _CONTRACT_POLICIES[policy]().allocate(ctx)

        placed = [vm for plan in allocation.plans for vm in plan.vm_ids]
        assert sorted(placed + list(allocation.shed_vm_ids)) == list(
            range(n_vms)
        )
        if fault is None:
            assert not allocation.shed_vm_ids
        assert len(allocation.plans) <= ctx.max_servers
        if two_pools:
            tags = np.asarray(allocation.server_pools)
            assert tags.shape == (len(allocation.plans),)
            counts = np.bincount(tags, minlength=fleet.n_pools)
            assert counts.size == fleet.n_pools
            for m, pool in enumerate(fleet.pools):
                assert counts[m] <= pool.n_servers
        else:
            assert allocation.server_pools is None

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
            min_size=1,
            max_size=8,
        ),
        total=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_shard_server_budgets_cover_positive_shards(
        self, weights, total
    ):
        weights = np.asarray(weights)
        positive = weights > 0.0
        if total < positive.sum():
            with pytest.raises(ConfigurationError, match="fewer shards"):
                shard_server_budgets(weights, total)
            return
        budgets = shard_server_budgets(weights, total)
        assert budgets.sum() == (total if positive.any() else 0)
        assert np.all(budgets[positive] >= 1)
        assert np.all(budgets[~positive] == 0)


class TestMigrationInvariants:
    assignments = st.lists(
        st.integers(min_value=0, max_value=5), min_size=1, max_size=30
    )

    @given(assignments)
    def test_self_migration_zero(self, mapping):
        arr = np.array(mapping)
        assert count_migrations(arr, arr) == 0

    @given(assignments, assignments)
    def test_bounded_by_vm_count(self, old, new):
        n = min(len(old), len(new))
        old_arr = np.array(old[:n])
        new_arr = np.array(new[:n])
        m = count_migrations(old_arr, new_arr)
        assert 0 <= m <= n

    @given(assignments, st.permutations(list(range(6))))
    def test_relabel_invariance(self, mapping, perm):
        arr = np.array(mapping)
        relabeled = np.array([perm[s] for s in mapping])
        assert count_migrations(arr, relabeled) == 0


class TestTimingInvariants:
    @given(
        st.sampled_from(ALL_MEMORY_CLASSES),
        freq_strategy,
        freq_strategy,
    )
    def test_speedup_bounded_by_frequency_ratio(
        self, perf_sim, mem_class, f1, f2
    ):
        """Amdahl-style bound: memory time limits any DVFS speedup."""
        lo, hi = sorted((f1, f2))
        timing = perf_sim.timing(mem_class)
        speedup = timing.speedup(lo, hi)
        assert 1.0 - 1e-9 <= speedup <= hi / lo + 1e-9

    @given(st.sampled_from(ALL_MEMORY_CLASSES), freq_strategy)
    def test_uips_consistent_with_time(self, perf_sim, mem_class, freq):
        uips = perf_sim.chip_uips(mem_class, freq)
        cal = perf_sim.calibrations[mem_class]
        t = cal.ntc.execution_time_s(freq)
        assert uips * t == pytest.approx(16 * cal.profile.instructions)


class TestPsuEngineIntegration:
    def test_wall_energy_exceeds_dc_energy(
        self, small_dataset, oracle_predictor
    ):
        from repro.core import EpactPolicy
        from repro.dcsim import DataCenterSimulation
        from repro.power.psu import ntc_psu

        dc_side = DataCenterSimulation(
            small_dataset, oracle_predictor, EpactPolicy(),
            start_slot=24, n_slots=6,
        ).run()
        wall_side = DataCenterSimulation(
            small_dataset, oracle_predictor, EpactPolicy(),
            start_slot=24, n_slots=6, psu=ntc_psu(),
        ).run()
        assert wall_side.total_energy_mj > dc_side.total_energy_mj
        # Conversion overhead should be modest (a few to ~20 percent).
        ratio = wall_side.total_energy_mj / dc_side.total_energy_mj
        assert 1.02 < ratio < 1.35
