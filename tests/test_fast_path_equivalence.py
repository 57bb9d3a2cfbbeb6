"""Fast-path vs reference equivalence for the fleet-scale hot paths.

The allocation fast paths must reproduce the seed plans *exactly* on
regular instances (same greedy winners, same forced placements); the
batched forecaster must match the scalar reference within documented
tolerance; the engine's bincount scatter must be bit-identical to
``np.add.at``; the vectorized migration matcher must agree with the seed
pair loop everywhere.
"""

import numpy as np
import pytest

from repro.baselines import CoatOptPolicy, CoatPolicy, FfdPolicy
from repro.baselines.coat import _allocate_reference as _coat_reference
from repro.core.alloc1d import _allocate_1d_reference, allocate_1d, ffd_order
from repro.core.alloc2d import _allocate_2d_reference, allocate_2d
from repro.core.types import (
    Allocation,
    AllocationContext,
    ServerPlan,
    force_place_remaining,
)
from repro.core.workspace import validate_vm_order
from repro.core import EpactPolicy
from repro.dcsim.engine import (
    DataCenterSimulation,
    _count_migrations_reference,
    count_migrations,
)
from repro.errors import ConfigurationError, DomainError, ForecastError
from repro.experiments.hyperscale import synthetic_dataset
from repro.forecast import DayAheadPredictor
from repro.forecast.arima import ArimaModel, ArimaOrder
from repro.forecast.batch import (
    batched_arma_fit,
    batched_arma_forecast,
    batched_decomposed_forecast,
)
from repro.forecast.decomposed import DecomposedArimaForecaster
from repro.forecast.predictor import _MODEL
from repro.shard import cluster_vms
from repro.traces import default_dataset
from repro.traces.dataset import TraceDataset
from repro.units import SAMPLES_PER_DAY


def make_patterns(n_vms, n_samples=12, seed=0, scale=10.0):
    gen = np.random.default_rng(seed)
    base = gen.uniform(0.2, 1.0, size=(n_vms, 1)) * scale
    wiggle = 1.0 + 0.3 * np.sin(
        np.linspace(0, 2 * np.pi, n_samples)[None, :]
        + gen.uniform(0, 2 * np.pi, size=(n_vms, 1))
    )
    return base * wiggle


def plans_equal(a, b):
    return [p.vm_ids for p in a] == [p.vm_ids for p in b]


def reference_1d(
    cpu, mem, cap_cpu_pct, cap_mem_pct=100.0, max_servers=None, order=None
):
    """The seed loop of Algorithm 1 in ``allocate_1d``'s default order."""
    sequence = ffd_order(cpu) if order is None else np.asarray(order)
    return _allocate_1d_reference(
        cpu, mem, cap_cpu_pct, cap_mem_pct, max_servers, sequence
    )


def reference_2d(
    cpu,
    mem,
    n_servers,
    cap_cpu_pct,
    cap_mem_pct=100.0,
    max_servers=None,
    order=None,
):
    """The seed loop of Algorithm 2 in ``allocate_2d``'s default order,
    under its fleet bound (at least ``n_servers``)."""
    sequence = np.arange(cpu.shape[0]) if order is None else np.asarray(order)
    bound = max(n_servers if max_servers is None else max_servers, n_servers)
    return _allocate_2d_reference(
        cpu, mem, n_servers, cap_cpu_pct, cap_mem_pct, bound, sequence
    )


def nightly(*values):
    """Parameter values that run only in the nightly step
    (``pytest -m nightly``): the reference loops take seconds there."""
    return [pytest.param(value, marks=pytest.mark.nightly) for value in values]


class ScalarPredictor(DayAheadPredictor):
    """A predictor fitting every row through the scalar route, the
    batched day fit's oracle (and its fallback for rejected rows)."""

    def _fit_batch(self, windows, season_types, target_type):
        return tuple(
            np.array(
                [
                    self._forecast_series(row, season_types, target_type)
                    for row in window
                ]
            )
            for window in windows
        )


class TestAllocate1dEquivalence:
    @pytest.mark.parametrize("n_vms", [1, 2, 50, 300, 2000, *nightly(5000, 10000)])
    def test_matches_reference_random(self, n_vms):
        cpu = make_patterns(n_vms, seed=n_vms)
        mem = make_patterns(n_vms, seed=n_vms + 100, scale=5.0)
        fast, f_forced = allocate_1d(cpu, mem, cap_cpu_pct=60.0)
        ref, r_forced = reference_1d(cpu, mem, cap_cpu_pct=60.0)
        assert plans_equal(fast, ref)
        assert f_forced == r_forced

    def test_matches_reference_constant_patterns(self):
        """Degenerate shapeless patterns: Pearson is 0 everywhere and the
        tie-breaks (first fitting candidate) must match exactly."""
        cpu = np.full((40, 12), 7.0)
        mem = np.full((40, 12), 3.0)
        fast, _ = allocate_1d(cpu, mem, cap_cpu_pct=60.0)
        ref, _ = reference_1d(cpu, mem, cap_cpu_pct=60.0)
        assert plans_equal(fast, ref)

    def test_matches_reference_max_servers_exhaustion(self):
        cpu = make_patterns(120, seed=5)
        mem = make_patterns(120, seed=6, scale=5.0)
        fast, f_forced = allocate_1d(
            cpu, mem, cap_cpu_pct=40.0, max_servers=5
        )
        ref, r_forced = reference_1d(
            cpu, mem, cap_cpu_pct=40.0, max_servers=5
        )
        assert plans_equal(fast, ref)
        assert f_forced == r_forced > 0

    def test_matches_reference_memory_bound(self):
        cpu = make_patterns(60, seed=7, scale=2.0)
        mem = make_patterns(60, seed=8, scale=30.0)
        fast, _ = allocate_1d(
            cpu, mem, cap_cpu_pct=100.0, cap_mem_pct=80.0
        )
        ref, _ = reference_1d(
            cpu, mem, cap_cpu_pct=100.0, cap_mem_pct=80.0
        )
        assert plans_equal(fast, ref)

    def test_matches_reference_explicit_order(self):
        cpu = make_patterns(30, seed=9)
        mem = make_patterns(30, seed=10, scale=5.0)
        order = list(reversed(range(30)))
        fast, _ = allocate_1d(cpu, mem, 60.0, order=order)
        ref, _ = reference_1d(cpu, mem, 60.0, order=order)
        assert plans_equal(fast, ref)

    @pytest.mark.parametrize("n_vms", [60, *nightly(2000)])
    def test_matches_reference_day_window(self, n_vms):
        """Day-ahead window width (288 samples per pattern)."""
        cpu = make_patterns(n_vms, n_samples=288, seed=2)
        mem = make_patterns(n_vms, n_samples=288, seed=3, scale=5.0)
        fast, f_forced = allocate_1d(cpu, mem, cap_cpu_pct=60.0)
        ref, r_forced = reference_1d(cpu, mem, cap_cpu_pct=60.0)
        assert plans_equal(fast, ref)
        assert f_forced == r_forced


class TestAllocate2dEquivalence:
    @pytest.mark.parametrize("n_vms", [1, 2, 50, 300])
    def test_matches_reference_random(self, n_vms):
        cpu = make_patterns(n_vms, seed=n_vms + 1)
        mem = make_patterns(n_vms, seed=n_vms + 200, scale=5.0)
        n_servers = max(1, n_vms // 8)
        fast, f_forced = allocate_2d(
            cpu, mem, n_servers, cap_cpu_pct=60.0
        )
        ref, r_forced = reference_2d(
            cpu, mem, n_servers, cap_cpu_pct=60.0
        )
        assert plans_equal(fast, ref)
        assert f_forced == r_forced

    def test_matches_reference_constant_patterns(self):
        cpu = np.full((40, 12), 7.0)
        mem = np.full((40, 12), 3.0)
        fast, _ = allocate_2d(
            cpu, mem, 5, cap_cpu_pct=60.0, max_servers=10
        )
        ref, _ = reference_2d(
            cpu, mem, 5, cap_cpu_pct=60.0, max_servers=10
        )
        assert plans_equal(fast, ref)

    def test_matches_reference_fleet_exhaustion(self):
        cpu = make_patterns(120, seed=11)
        mem = make_patterns(120, seed=12, scale=5.0)
        fast, f_forced = allocate_2d(
            cpu, mem, 3, cap_cpu_pct=40.0, max_servers=5
        )
        ref, r_forced = reference_2d(
            cpu, mem, 3, cap_cpu_pct=40.0, max_servers=5
        )
        assert plans_equal(fast, ref)
        assert f_forced == r_forced > 0

    def test_matches_reference_memory_dominant(self):
        """The regime Algorithm 2 is designed for: few VMs per server."""
        cpu = make_patterns(200, seed=13, scale=15.0)
        mem = make_patterns(200, seed=14, scale=38.0)
        fast, _ = allocate_2d(
            cpu, mem, 90, 60.0, cap_mem_pct=90.0, max_servers=150
        )
        ref, _ = reference_2d(
            cpu, mem, 90, 60.0, cap_mem_pct=90.0, max_servers=150
        )
        assert plans_equal(fast, ref)

    def test_matches_reference_day_window(self):
        """Day-ahead window width (288 samples per pattern)."""
        cpu = make_patterns(60, n_samples=288, seed=15)
        mem = make_patterns(60, n_samples=288, seed=16, scale=5.0)
        fast, _ = allocate_2d(cpu, mem, 8, cap_cpu_pct=60.0)
        ref, _ = reference_2d(cpu, mem, 8, cap_cpu_pct=60.0)
        assert plans_equal(fast, ref)


def assert_alloc2d_matches_reference(cpu, mem, n_servers, *caps, **kwargs):
    """Fast plans and forced counts equal the seed loop's."""
    fast, f_forced = allocate_2d(cpu, mem, n_servers, *caps, **kwargs)
    ref, r_forced = reference_2d(
        cpu, mem, n_servers, *caps, **kwargs
    )
    assert plans_equal(fast, ref)
    assert f_forced == r_forced
    return fast, f_forced


class TestAllocate2dBlockEquivalence:
    """The fast path settles feasibility once per block of VMs and
    re-checks servers touched inside the block lazily; these instances
    stress that bookkeeping."""

    def test_hyperscale_shard(self):
        """One shard of a hyperscale region slot: 1,250 VMs on ~176
        servers, most picks scoring every server with ~19 of them
        touched in the current block."""
        dataset = synthetic_dataset(10_000, seed=2018)
        cpu = dataset.cpu_pct[:, :12]
        mem = dataset.mem_pct[:, :12]
        rows = cluster_vms(cpu, 8)[0]
        assert rows.size == 1250
        assert_alloc2d_matches_reference(
            cpu[rows], mem[rows], 172, 54.84, 90.0, max_servers=250
        )

    def test_touched_server_fails_recheck(self):
        """Two servers and a 40% cap: a server takes several VMs of one
        block, keeps winning argmaxes it can no longer take, and the
        lazy re-check has to reject it."""
        cpu = make_patterns(96, seed=21, scale=20.0)
        mem = make_patterns(96, seed=22, scale=5.0)
        assert_alloc2d_matches_reference(cpu, mem, 2, 40.0, max_servers=40)

    @pytest.mark.parametrize("seed, n_servers", [(0, 8), (1, 3)])
    def test_signed_patterns_refit_touched_server(self, seed, n_servers):
        """With negative samples a placement can lower a server's load,
        so a server that rejected a VM at block entry may fit it once
        touched: its column must turn unknown, not stay -inf."""
        rng = np.random.default_rng(seed)
        cpu = rng.uniform(-15.0, 30.0, size=(96, 12))
        mem = rng.uniform(-5.0, 20.0, size=(96, 12))
        assert_alloc2d_matches_reference(
            cpu, mem, n_servers, 60.0, max_servers=40
        )

    def test_stacked_flat_vms_stay_shapeless(self):
        """Two constant VMs share a server; their aggregate is exactly
        flat, so its Pearson term is 0 and it ties the empty server at
        merit 0, winning on index.  Summed incrementally, its centered
        norm cancels to ~1e-6 instead of 0, which turned the tie into a
        tiny negative merit and sent VM 2 to the empty server."""
        rng = np.random.default_rng(23813461)
        cpu = rng.uniform(1.0, 45.0, size=(12, 12))
        mem = rng.uniform(1.0, 30.0, size=(12, 12))
        cpu[:2] = cpu[:2, :1]
        mem[:2] = mem[:2, :1]
        plans, _ = assert_alloc2d_matches_reference(
            cpu[:3], mem[:3], 2, 91.0, 67.0
        )
        assert [p.vm_ids for p in plans] == [[0, 1, 2]]

    def test_representative_empty_moves_mid_block(self):
        """Mostly empty fleet: VMs land on the representative empty
        server inside a block, handing its role to the next empty."""
        cpu = make_patterns(96, seed=31, scale=20.0)
        mem = make_patterns(96, seed=32, scale=10.0)
        assert_alloc2d_matches_reference(cpu, mem, 64, 60.0)

    def test_oversized_vm_opens_server_mid_block(self):
        """VMs whose own peak exceeds the cap fit nowhere, so each opens
        a server past the block-entry fleet; later VMs of the block see
        that server as touched and must re-check it."""
        cpu = make_patterns(150, seed=23, scale=12.0)
        mem = make_patterns(150, seed=24, scale=30.0)
        big = [7, 30, 61, 100]
        cpu[big] += 60.0
        plans, forced = assert_alloc2d_matches_reference(
            cpu, mem, 40, 55.0, 90.0, max_servers=60
        )
        assert forced == 0
        for vm in big:
            assert [p.vm_ids for p in plans if vm in p.vm_ids] == [[vm]]

    def test_fleet_exhausted_mid_block(self):
        """The fleet bound is reached inside a block; the rest of the
        VMs are force-placed."""
        cpu = make_patterns(150, seed=25, scale=20.0)
        mem = make_patterns(150, seed=26, scale=5.0)
        _, forced = assert_alloc2d_matches_reference(
            cpu, mem, 10, 50.0, max_servers=14
        )
        assert forced > 0

    @pytest.mark.parametrize("n_vms", [600, 2000, *nightly(5000, 10000)])
    def test_gathered_memory_dominant(self, n_vms):
        """The memory-dominant shape (~2 VMs per server): few servers
        fit each VM, so picks score gathered columns only."""
        cpu = make_patterns(n_vms, seed=2, scale=15.0)
        mem = make_patterns(n_vms, seed=3, scale=38.0)
        assert_alloc2d_matches_reference(
            cpu, mem, n_vms * 9 // 20, 60.0, 90.0, max_servers=n_vms * 7 // 10
        )

    @pytest.mark.parametrize("n_vms", [400, *nightly(2000)])
    def test_gathered_day_window(self, n_vms):
        """288-sample day windows, mixing gathered and full-width
        picks."""
        cpu = make_patterns(n_vms, n_samples=288, seed=2)
        mem = make_patterns(n_vms, n_samples=288, seed=3, scale=5.0)
        assert_alloc2d_matches_reference(
            cpu, mem, n_vms // 5, 60.0, max_servers=n_vms * 2 // 5
        )


COAT_POLICIES = {
    "COAT": CoatPolicy,
    "COAT-OPT": CoatOptPolicy,
    "FFD": FfdPolicy,
    "COAT-55-70": lambda: CoatPolicy(cap_cpu_pct=55.0, cap_mem_pct=70.0),
}


def coat_ctx(ntc_power, cpu, mem, max_servers=None):
    return AllocationContext(
        pred_cpu=cpu,
        pred_mem=mem,
        power_model=ntc_power,
        max_servers=max_servers or cpu.shape[0],
        qos_floor_ghz=np.full(cpu.shape[0], 1.2),
    )


def assert_coat_matches_reference(make_policy, ctx):
    """The in-place packing loop against the kept seed loop."""
    fast = make_policy().allocate(ctx)
    ref = _coat_reference(make_policy(), ctx)
    assert plans_equal(fast.plans, ref.plans)
    assert fast.forced_placements == ref.forced_placements
    assert fast.f_opt_ghz == ref.f_opt_ghz
    assert fast.violation_cap_pct == ref.violation_cap_pct
    return fast


@pytest.mark.parametrize("policy", sorted(COAT_POLICIES))
class TestCoatEquivalence:
    """COAT, COAT-OPT and FFD pack exactly like the seed loop."""

    @pytest.mark.parametrize("n_vms", [1, 2, 50, 300])
    def test_matches_reference_random(self, ntc_power, policy, n_vms):
        cpu = make_patterns(n_vms, seed=n_vms + 3, scale=30.0)
        mem = make_patterns(n_vms, seed=n_vms + 300, scale=10.0)
        assert_coat_matches_reference(
            COAT_POLICIES[policy], coat_ctx(ntc_power, cpu, mem)
        )

    def test_matches_reference_constant_patterns(self, ntc_power, policy):
        """Shapeless patterns: Pearson is 0 for every server, so the
        first fitting candidate wins, exactly as in plain first fit."""
        levels = np.random.default_rng(19).uniform(4.0, 40.0, size=(60, 1))
        cpu = np.repeat(levels, 12, axis=1)
        mem = np.full((60, 12), 3.0)
        ctx = coat_ctx(ntc_power, cpu, mem)
        fast = assert_coat_matches_reference(COAT_POLICIES[policy], ctx)
        caps = fast.plans[0]
        first_fit = CoatPolicy(
            caps.cap_cpu_pct, caps.cap_mem_pct, correlation_aware=False
        )
        assert plans_equal(fast.plans, _coat_reference(first_fit, ctx).plans)

    def test_matches_reference_mixed_flat_rows(self, ntc_power, policy):
        """Some servers stay flat while others vary: the zero-variance
        mask is applied to part of the candidate rows."""
        cpu = make_patterns(80, seed=20, scale=30.0)
        cpu[::3] = cpu[::3, :1]
        mem = make_patterns(80, seed=21, scale=10.0)
        assert_coat_matches_reference(
            COAT_POLICIES[policy], coat_ctx(ntc_power, cpu, mem)
        )

    def test_matches_reference_max_servers_exhaustion(
        self, ntc_power, policy
    ):
        cpu = make_patterns(120, seed=22, scale=30.0)
        mem = make_patterns(120, seed=23, scale=10.0)
        fast = assert_coat_matches_reference(
            COAT_POLICIES[policy], coat_ctx(ntc_power, cpu, mem, 4)
        )
        assert fast.forced_placements > 0
        assert len(fast.plans) == 4

    def test_matches_reference_memory_bound(self, ntc_power, policy):
        cpu = make_patterns(60, seed=24, scale=2.0)
        mem = make_patterns(60, seed=25, scale=30.0)
        assert_coat_matches_reference(
            COAT_POLICIES[policy], coat_ctx(ntc_power, cpu, mem)
        )

    def test_matches_reference_day_window(self, ntc_power, policy):
        """Day-ahead window width (288 samples), COAT-OPT's cadence."""
        cpu = make_patterns(60, n_samples=288, seed=26, scale=30.0)
        mem = make_patterns(60, n_samples=288, seed=27, scale=10.0)
        assert_coat_matches_reference(
            COAT_POLICIES[policy], coat_ctx(ntc_power, cpu, mem)
        )

    @pytest.mark.parametrize("n_samples", [12, 288])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_near_ties(
        self, ntc_power, policy, dtype, n_samples
    ):
        """Every VM shares one CPU shape (up to sign), so all candidates
        correlate at +-1 and the last bit decides the winner.  With
        float32 predictions the reference upcasts every row to float64
        before summing or centering it: centering a VM row in float32,
        or keeping float32 patterns, changes these plans."""
        gen = np.random.default_rng(3)
        t = np.linspace(0, 2 * np.pi, n_samples)[None, :]
        sign = gen.choice([-1.0, 1.0], size=(150, 1))
        cpu = gen.uniform(3.0, 30.0, size=(150, 1)) * (
            1.0 + 0.3 * sign * np.sin(t)
        )
        mem = gen.uniform(1.0, 10.0, size=(150, 1)) * (
            1.0 + 0.3 * np.cos(t)
        )
        assert_coat_matches_reference(
            COAT_POLICIES[policy],
            coat_ctx(ntc_power, cpu.astype(dtype), mem.astype(dtype)),
        )


@pytest.mark.parametrize("n_samples", [12, *nightly(288)])
def test_coat_matches_reference_at_2k_vms(ntc_power, n_samples):
    """COAT packing 2,000 VMs over one slot window and over a day-ahead
    window."""
    cpu = make_patterns(2000, n_samples=n_samples, seed=2)
    mem = make_patterns(2000, n_samples=n_samples, seed=3, scale=5.0)
    assert_coat_matches_reference(CoatPolicy, coat_ctx(ntc_power, cpu, mem))


class TestOrderValidation:
    """The bincount-based permutation check (replaces sorted()==range)."""

    def test_valid_permutation_accepted(self):
        validate_vm_order(np.array([2, 0, 1]), 3)

    def test_empty_permutation_accepted(self):
        validate_vm_order(np.array([], dtype=int), 0)

    @pytest.mark.parametrize(
        "order",
        [[0, 1, 1], [0, 1], [0, 1, 3], [-1, 0, 1], [0, 1, 2, 3]],
    )
    def test_invalid_orders_raise(self, order):
        with pytest.raises(DomainError):
            validate_vm_order(np.asarray(order, dtype=int), 3)

    @pytest.mark.parametrize("as_array", [True, False])
    def test_allocators_reject_bad_orders(self, as_array):
        """A bad order is refused whether it comes as a list or an array."""
        cpu = make_patterns(4, seed=17)
        mem = make_patterns(4, seed=18, scale=5.0)
        wrap = np.asarray if as_array else list
        with pytest.raises(DomainError):
            allocate_1d(cpu, mem, 60.0, order=wrap([0, 1, 2, 2]))
        with pytest.raises(DomainError):
            allocate_2d(cpu, mem, 2, 60.0, order=wrap([0, 1, 2]))


class TestCountMigrationsEquivalence:
    def test_matches_reference_random_maps(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n_vms = int(rng.integers(1, 400))
            n_old = int(rng.integers(1, 40))
            n_new = int(rng.integers(1, 40))
            old = rng.integers(0, n_old, size=n_vms)
            new = rng.integers(0, n_new, size=n_vms)
            assert count_migrations(old, new) == (
                _count_migrations_reference(old, new)
            ), f"mismatch on trial {trial}"

    def test_identity_and_relabel(self):
        arr = np.array([0, 0, 1, 1, 2])
        assert count_migrations(arr, arr) == 0
        relabeled = np.array([2, 2, 0, 0, 1])
        assert count_migrations(arr, relabeled) == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            count_migrations(np.array([0]), np.array([0, 1]))

    def test_empty_maps(self):
        empty = np.array([], dtype=int)
        assert count_migrations(empty, empty) == 0

    def test_matches_reference_over_sequences(self):
        """Consecutive reallocations of one population, as the engine
        counts them window after window."""
        rng = np.random.default_rng(17)
        for trial in range(10):
            n_vms = int(rng.integers(1, 300))
            prev = rng.integers(0, int(rng.integers(1, 50)), size=n_vms)
            for step in range(8):
                new = rng.integers(0, int(rng.integers(1, 50)), size=n_vms)
                assert count_migrations(prev, new) == (
                    _count_migrations_reference(prev, new)
                ), f"mismatch on trial {trial}, step {step}"
                prev = new


class TestVmToServerVectorized:
    def test_roundtrip(self):
        allocation = Allocation(
            policy_name="t",
            plans=[
                ServerPlan(vm_ids=[2, 0]),
                ServerPlan(vm_ids=[1, 3]),
            ],
            dynamic_governor=True,
            violation_cap_pct=100.0,
        )
        np.testing.assert_array_equal(
            allocation.vm_to_server(4), [0, 1, 0, 1]
        )

    def test_duplicate_raises(self):
        allocation = Allocation(
            policy_name="t",
            plans=[ServerPlan(vm_ids=[0, 1]), ServerPlan(vm_ids=[1])],
            dynamic_governor=True,
            violation_cap_pct=100.0,
        )
        with pytest.raises(ConfigurationError):
            allocation.vm_to_server(2)

    def test_missing_raises(self):
        allocation = Allocation(
            policy_name="t",
            plans=[ServerPlan(vm_ids=[0])],
            dynamic_governor=True,
            violation_cap_pct=100.0,
        )
        with pytest.raises(ConfigurationError):
            allocation.vm_to_server(2)


class TestBincountScatterEquivalence:
    def test_matches_add_at_bitwise(self):
        """The engine's bincount aggregation accumulates in the same
        order as np.add.at, so the sums are bit-identical."""
        rng = np.random.default_rng(3)
        n_vms, n_srv, n_samples = 200, 23, 12
        vm2srv = rng.integers(0, n_srv, size=n_vms)
        real = rng.uniform(0, 100, size=(n_vms, n_samples))
        expected = np.zeros((n_srv, n_samples))
        np.add.at(expected, vm2srv, real)
        flat = (
            vm2srv[:, None] * n_samples + np.arange(n_samples)[None, :]
        ).ravel()
        got = np.bincount(
            flat, weights=real.ravel(), minlength=n_srv * n_samples
        ).reshape(n_srv, n_samples)
        np.testing.assert_array_equal(got, expected)


class TestBatchedForecastEquivalence:
    def test_batched_arma_matches_scalar(self):
        rng = np.random.default_rng(5)
        order = ArimaOrder(p=2, d=0, q=1)
        series = rng.normal(0, 1.0, size=(7, 400)).cumsum(axis=1) * 0.01
        fit = batched_arma_fit(series, order)
        assert fit.ok.all()
        fc = batched_arma_forecast(fit, 24)
        for row in range(series.shape[0]):
            model = ArimaModel(order)
            model.fit(series[row])
            np.testing.assert_allclose(
                fc[row], model.forecast(24), rtol=1e-6, atol=1e-8
            )

    def test_batched_constant_rows_collapse(self):
        order = ArimaOrder(p=2, d=0, q=1)
        series = np.vstack(
            [np.full(100, 3.5), np.sin(np.linspace(0, 20, 100))]
        )
        fit = batched_arma_fit(series, order)
        fc = batched_arma_forecast(fit, 10)
        np.testing.assert_allclose(fc[0], np.full(10, 3.5))

    def test_constant_verdict_at_the_tolerance_edge(self):
        # Rows whose spread sits on either side of the allclose
        # tolerance, above and below their first value: the batched
        # fit collapses exactly the rows the elementwise rule calls
        # constant.
        rng = np.random.default_rng(8)
        rows = []
        for first in (3.5, 0.0, 1e-4, 97.25, 1e3):
            tol = 1.0e-8 + 1.0e-5 * abs(first)
            for sign in (1.0, -1.0):
                for scale in (0.5, 1.0, 1.0 + 1e-9, 2.0):
                    row = first + sign * scale * tol * rng.random(60)
                    row[0] = first
                    row[17] = first + sign * scale * tol
                    rows.append(row)
        series = np.array(rows)
        first = series[:, :1]
        expected = (
            np.abs(series - first) <= 1.0e-8 + 1.0e-5 * np.abs(first)
        ).all(axis=1)
        assert expected.any() and (~expected).any()
        fit = batched_arma_fit(series, ArimaOrder(p=2, d=0, q=1))
        collapsed = (fit.const == series[:, 0]) & (fit.ar == 0).all(axis=1)
        collapsed &= fit.ok
        np.testing.assert_array_equal(collapsed[expected], True)
        assert not collapsed[~expected & (series[:, 0] != 0)].any()

    def test_batched_decomposed_matches_scalar(self):
        rng = np.random.default_rng(6)
        period, days = 48, 7
        t = np.arange(period * days)
        base = 20 + 10 * np.sin(2 * np.pi * t / period)
        series = base[None, :] + rng.normal(0, 1.0, size=(5, t.size))
        types = np.array([1 if d % 7 >= 5 else 0 for d in range(days)])
        fc, ok = batched_decomposed_forecast(
            series,
            order=ArimaOrder(2, 0, 1),
            period=period,
            decay=0.6,
            horizon=period,
            season_types=types,
            target_type=0,
        )
        assert ok.all()
        for row in range(series.shape[0]):
            model = DecomposedArimaForecaster(
                order=ArimaOrder(2, 0, 1), period=period
            )
            model.fit(series[row], season_types=types, target_type=0)
            np.testing.assert_allclose(
                fc[row], model.forecast(period), rtol=1e-6, atol=1e-7
            )

    def test_day_ahead_predictor_batch_matches_scalar(self):
        dataset = default_dataset(n_vms=12, n_days=9, seed=11)
        scalar = ScalarPredictor(dataset)
        batched = DayAheadPredictor(dataset)
        cpu_s, mem_s = scalar.forecast_day(7)
        cpu_b, mem_b = batched.forecast_day(7)
        np.testing.assert_allclose(cpu_b, cpu_s, rtol=1e-7, atol=1e-8)
        np.testing.assert_allclose(mem_b, mem_s, rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("n_vms", [12, *nightly(120)])
    def test_simulated_days_match_scalar(self, n_vms):
        """EPACT deciding from batched forecasts produces exactly the
        records it produces from scalar ones."""
        dataset = default_dataset(n_vms=n_vms, n_days=9, seed=2018)
        batched, scalar = (
            DataCenterSimulation(
                dataset, predictor, EpactPolicy(), max_servers=80
            ).run().records
            for predictor in (
                DayAheadPredictor(dataset),
                ScalarPredictor(dataset),
            )
        )
        assert batched == scalar

    def test_batched_rejects_differencing(self):
        with pytest.raises(ForecastError):
            batched_arma_fit(
                np.random.default_rng(0).normal(size=(2, 50)),
                ArimaOrder(p=1, d=1, q=0),
            )


def whole_stack_day(predictor, day):
    """One ``batched_decomposed_forecast`` call over the vstacked
    ``(2 * n_vms, window)`` matrix, rejected rows re-fitted on the
    scalar path, then clipped: the day fit before row blocking."""
    dataset = predictor._dataset
    days = range(day - predictor.history_days, day)
    lo, hi = days[0] * SAMPLES_PER_DAY, day * SAMPLES_PER_DAY
    types = np.array([1 if d % 7 >= 5 else 0 for d in days])
    target = 1 if day % 7 >= 5 else 0
    data = np.vstack([dataset.cpu_pct[:, lo:hi], dataset.mem_pct[:, lo:hi]])
    try:
        forecasts, ok = batched_decomposed_forecast(
            data,
            **_MODEL,
            horizon=SAMPLES_PER_DAY,
            season_types=types,
            target_type=target,
        )
    except ForecastError:
        forecasts = np.empty((data.shape[0], SAMPLES_PER_DAY))
        ok = np.zeros(data.shape[0], dtype=bool)
    for row in np.flatnonzero(~ok):
        forecasts[row] = predictor._forecast_series(data[row], types, target)
    np.clip(forecasts, 0.0, 100.0, out=forecasts)
    n = dataset.n_vms
    return forecasts[:n], forecasts[n:], ok


class TestBlockedDayFitEquivalence:
    """``DayAheadPredictor`` fits each resource in 128-row blocks; the
    forecasts and the fallback count must be those of one whole-stack
    call."""

    @staticmethod
    def assert_matches_whole_stack(dataset, day, **kwargs):
        blocked = DayAheadPredictor(dataset, **kwargs)
        whole = DayAheadPredictor(dataset, **kwargs)
        cpu, mem = blocked.forecast_day(day)
        cpu_w, mem_w, ok = whole_stack_day(whole, day)
        assert cpu.tobytes() == cpu_w.tobytes()
        assert mem.tobytes() == mem_w.tobytes()
        assert blocked.fallback_count == whole.fallback_count
        return ok, blocked.fallback_count

    def test_partial_last_block_constant_and_rejected_rows(self):
        """150 VMs split 128 + 22 per resource; constant rows take the
        batch's collapse path and a near-empty row is rejected by the
        batch and re-fitted on the scalar path."""
        base = synthetic_dataset(150, n_days=8, seed=3)
        cpu, mem = base.cpu_pct.copy(), base.mem_pct.copy()
        cpu[5] = 42.0
        mem[[7, 140]] = 0.0
        mem[149] = 0.0
        mem[149, 2000] = 1.0
        dataset = TraceDataset(specs=base.specs, cpu_pct=cpu, mem_pct=mem)
        ok, _ = self.assert_matches_whole_stack(dataset, 7)
        assert not ok.all()

    def test_non_finite_row_sends_every_row_to_the_scalar_path(self):
        """A NaN series fails the batch as a whole, also when it sits in
        a later block than rows that already fitted."""
        base = synthetic_dataset(130, n_days=3, seed=4)
        cpu = base.cpu_pct.copy()
        cpu[129, 10] = np.nan
        dataset = TraceDataset(specs=base.specs, cpu_pct=cpu, mem_pct=base.mem_pct)
        ok, fallbacks = self.assert_matches_whole_stack(
            dataset, 2, history_days=2
        )
        assert not ok.any()
        assert fallbacks >= 1


class TestForcePlaceEquivalence:
    @staticmethod
    def _seed_force_place(plans, vm_ids, pred_cpu):
        """The seed dict-scan implementation, kept inline as the oracle."""
        loads = {
            idx: float(pred_cpu[plan.vm_ids].sum(axis=0).max())
            if plan.vm_ids
            else 0.0
            for idx, plan in enumerate(plans)
        }
        for vm_id in vm_ids:
            target = min(loads, key=lambda idx: loads[idx])
            plans[target].vm_ids.append(vm_id)
            loads[target] += float(pred_cpu[vm_id].max())
        return len(vm_ids)

    def test_matches_seed_scan(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n_vms = int(rng.integers(2, 60))
            n_srv = int(rng.integers(1, 9))
            pred = rng.uniform(0, 20, size=(n_vms, 12))
            if trial % 3 == 0:
                pred = np.round(pred)  # provoke exact load ties
            order = rng.permutation(n_vms)
            k = int(rng.integers(0, n_vms))

            def build():
                plans = [ServerPlan() for _ in range(n_srv)]
                for i, vm in enumerate(order[:k]):
                    plans[i % n_srv].vm_ids.append(int(vm))
                return plans

            rest = [int(v) for v in order[k:]]
            fast_plans, ref_plans = build(), build()
            n_fast = force_place_remaining(fast_plans, rest, pred)
            n_ref = self._seed_force_place(ref_plans, rest, pred)
            assert n_fast == n_ref
            assert [p.vm_ids for p in fast_plans] == [
                p.vm_ids for p in ref_plans
            ]
