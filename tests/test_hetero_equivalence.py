"""Heterogeneous-fleet equivalence suite.

Two families of guarantees:

* **degeneracy** — a single-pool :class:`FleetSpec` must reproduce the
  homogeneous engine *bit-identically*: :class:`EpactPolicy` on the
  explicit fleet against the homogeneous data center on the
  fixed-population engine, and both EPACT and the pool-aware online
  policies under churn;
* **oracles** — on genuinely mixed fleets ``inspect_slot`` must add up
  to the engine's record, each pool of an :class:`EpactPolicy`
  allocation must equal running that pool's sizing and allocator
  separately, and each pool's fast case-1 sweep must equal the scalar
  reference.
  Mixed-fleet records
  themselves are pinned by ``tests/test_engine_golden.py``.
"""

import numpy as np
import pytest

from repro.baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from repro.core import (
    AllocationContext,
    EpactPolicy,
    FleetSpec,
    PoolSpec,
    allocate_1d,
    allocate_2d,
    split_fleet_vms,
)
from repro.core import sizing
from repro.dcsim import DataCenterSimulation
from repro.errors import ConfigurationError
from repro.forecast import DayAheadPredictor
from repro.power.server_power import (
    conventional_server_power_model,
    ntc_server_power_model,
)
from repro.traces import default_dataset
from repro.traces.lifecycle import ChurnConfig, generate_lifecycle
from repro.units import SLOTS_PER_DAY


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def het_dataset():
    return default_dataset(n_vms=40, n_days=9, seed=505)


@pytest.fixture(scope="module")
def het_predictor(het_dataset):
    predictor = DayAheadPredictor(het_dataset)
    for day in range(7, het_dataset.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="module")
def het_schedule(het_dataset):
    start = 7 * SLOTS_PER_DAY
    return generate_lifecycle(
        het_dataset.n_vms,
        start,
        start + 24,
        config=ChurnConfig(
            initial_fraction=0.6,
            arrival_rate_frac=0.01,
            lifetime_mean_slots=20.0,
        ),
        seed=31,
    )


@pytest.fixture(scope="module")
def single_pool_fleet():
    return FleetSpec(
        pools=(PoolSpec("ntc", ntc_server_power_model(), 40),)
    )


@pytest.fixture(scope="module")
def two_pool_fleet():
    # A deliberately tight NTC pool: demand genuinely spills onto the
    # conventional pool, so both models account servers every slot.
    return FleetSpec(
        pools=(
            PoolSpec("ntc", ntc_server_power_model(), 3),
            PoolSpec(
                "conventional",
                conventional_server_power_model(),
                30,
                perf_platform="x86",
            ),
        )
    )


@pytest.fixture(scope="module")
def fixed_opt_fleet():
    return FleetSpec(
        pools=(
            PoolSpec("ntc", ntc_server_power_model(), 3),
            PoolSpec(
                "conventional",
                conventional_server_power_model(),
                30,
                perf_platform="x86",
                opp_policy="fixed-opt",
            ),
        )
    )


class TestSinglePoolBitIdentity:
    def test_fixed_population_matches_homogeneous(
        self, het_dataset, het_predictor, single_pool_fleet
    ):
        """EPACT on a single-pool fleet == the homogeneous run, exactly."""
        homogeneous = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            max_servers=40,
            n_slots=16,
        ).run()
        fleet_run = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            fleet=single_pool_fleet,
            n_slots=16,
        ).run()
        assert records_equal(homogeneous.records, fleet_run.records)

    def test_fixed_population_per_slot_reference(
        self, het_dataset, het_predictor, single_pool_fleet
    ):
        """Per-slot pricing of a single-pool fleet takes the whole-matrix
        route and equals the homogeneous engine."""
        homogeneous = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            max_servers=40,
            n_slots=8,
        ).run()
        fleet_run = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            fleet=single_pool_fleet,
            n_slots=8,
        ).run()
        assert records_equal(homogeneous.records, fleet_run.records)

    def test_fixed_cap_policy_matches_homogeneous(
        self, het_dataset, het_predictor, single_pool_fleet
    ):
        """COAT's fixed-frequency windows (every server pinned) take
        the all-pinned fast path and still match the homogeneous
        engine exactly."""
        from repro.baselines import CoatPolicy

        homogeneous = DataCenterSimulation(
            het_dataset,
            het_predictor,
            CoatPolicy(),
            max_servers=40,
            n_slots=16,
        ).run()
        fleet_run = DataCenterSimulation(
            het_dataset,
            het_predictor,
            CoatPolicy(),
            fleet=single_pool_fleet,
            n_slots=16,
        ).run()
        assert records_equal(homogeneous.records, fleet_run.records)

    def test_churn_matches_homogeneous(
        self,
        het_dataset,
        het_predictor,
        het_schedule,
        single_pool_fleet,
    ):
        """Single-pool cloud runs reproduce the homogeneous engine."""
        homogeneous = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            schedule=het_schedule,
            max_servers=40,
            n_slots=24,
        ).run()
        fleet_run = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            schedule=het_schedule,
            fleet=single_pool_fleet,
            n_slots=24,
        ).run()
        assert records_equal(homogeneous.records, fleet_run.records)

    @pytest.mark.parametrize(
        "policy_cls", [OnlineBestFitPolicy, OnlineReactivePolicy]
    )
    def test_online_policies_match_homogeneous(
        self,
        het_dataset,
        het_predictor,
        het_schedule,
        single_pool_fleet,
        policy_cls,
    ):
        """The pool dimension is invisible on a single-pool fleet."""
        homogeneous = DataCenterSimulation(
            het_dataset,
            het_predictor,
            policy_cls(),
            schedule=het_schedule,
            max_servers=40,
            n_slots=24,
        ).run()
        fleet_run = DataCenterSimulation(
            het_dataset,
            het_predictor,
            policy_cls(),
            schedule=het_schedule,
            fleet=single_pool_fleet,
            n_slots=24,
        ).run()
        assert records_equal(homogeneous.records, fleet_run.records)


class TestHeteroAccountingOracles:
    def test_both_pools_actually_used(
        self, het_dataset, het_predictor, two_pool_fleet
    ):
        """The tight fleet exercises both models (not a vacuous test)."""
        sim = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            fleet=two_pool_fleet,
            n_slots=1,
        )
        allocation = sim._allocate_window(
            sim.start_slot, 1, *sim._window_rows(sim.start_slot)
        )
        assert allocation.server_pools is not None
        assert set(np.unique(allocation.server_pools)) == {0, 1}

    def test_inspect_slot_matches_engine_on_mixed_fleet(
        self, het_dataset, het_predictor, two_pool_fleet
    ):
        """inspect_slot must price each server with its own pool's
        tables — its aggregates must equal the engine's record."""
        from repro.dcsim import inspect_slot

        sim = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            fleet=two_pool_fleet,
            n_slots=1,
        )
        record = sim.run().records[0]
        detail = inspect_slot(sim, sim.start_slot)
        assert detail.energy_j == record.energy_j
        assert detail.total_violations == record.violations

    def test_fixed_opt_pool_pins_f_opt_not_f_min(
        self, het_dataset, het_predictor, fixed_opt_fleet
    ):
        """Policies without a planned frequency (planned_freq_ghz=0.0,
        e.g. the online policies) must pin fixed-opt servers at the
        pool's F_opt raised to the QoS floor — not quantize 0.0 down
        to the table's lowest OPP."""
        from repro.core.types import Allocation, ServerPlan

        sim = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            fleet=fixed_opt_fleet,
            n_slots=1,
        )
        n_vms = het_dataset.n_vms
        allocation = Allocation(
            policy_name="test",
            plans=[ServerPlan(vm_ids=list(range(n_vms)))],
            dynamic_governor=True,
            violation_cap_pct=100.0,
            server_pools=np.array([1]),  # the fixed-opt pool
        )
        acct = sim._prepare_allocation(allocation)
        conv_pool = fixed_opt_fleet.pools[1]
        freqs = np.asarray(conv_pool.opps.frequencies_ghz)
        assert acct.fixed_opp is not None
        pinned_freq = freqs[acct.fixed_opp[0]]
        f_opt = conv_pool.power_model.optimal_frequency_ghz()
        assert pinned_freq >= f_opt
        assert pinned_freq >= acct.floors[0]

    def test_max_servers_and_fleet_are_exclusive(
        self, het_dataset, het_predictor, two_pool_fleet
    ):
        with pytest.raises(ConfigurationError, match="max_servers"):
            DataCenterSimulation(
                het_dataset,
                het_predictor,
                EpactPolicy(),
                fleet=two_pool_fleet,
                max_servers=1000,
            )
        with pytest.raises(ConfigurationError, match="power_model"):
            DataCenterSimulation(
                het_dataset,
                het_predictor,
                EpactPolicy(),
                fleet=two_pool_fleet,
                power_model=ntc_server_power_model(),
            )

class TestPoolAwareMigrations:
    def test_cross_pool_block_move_counts_as_migrations(self):
        """A VM block landing on a server of another platform migrated
        (cross-ISA); pool-blind matching would count it as zero."""
        from repro.dcsim import count_migrations

        prev_map = np.array([0, 0, 0, 1, 1])
        new_map = np.array([0, 0, 0, 1, 1])
        prev_pools = np.array([0, 0])
        new_pools = np.array([1, 0])  # server 0 is now the other pool
        assert count_migrations(prev_map, new_map) == 0
        assert (
            count_migrations(
                prev_map,
                new_map,
                previous_pools=prev_pools,
                new_pools=new_pools,
            )
            == 3
        )

    def test_same_pool_matching_unchanged(self):
        from repro.dcsim import count_migrations

        prev_map = np.array([0, 0, 1, 1])
        new_map = np.array([1, 1, 0, 0])
        pools = np.array([0, 0])
        assert count_migrations(prev_map, new_map) == 0
        assert (
            count_migrations(
                prev_map,
                new_map,
                previous_pools=pools,
                new_pools=pools,
            )
            == 0
        )


class TestSplitAndPoolAllocators:
    def _patterns(self, n_vms=30, n_samples=12, seed=3):
        gen = np.random.default_rng(seed)
        base = gen.uniform(2.0, 12.0, size=(n_vms, 1))
        phase = gen.uniform(0, 2 * np.pi, size=(n_vms, 1))
        t = np.linspace(0, 2 * np.pi, n_samples)[None, :]
        return base * (1.0 + 0.3 * np.sin(t + phase))

    def test_split_covers_and_partitions(self, two_pool_fleet):
        cpu = self._patterns(seed=3)
        mem = self._patterns(seed=4)
        parts = split_fleet_vms(cpu, mem, two_pool_fleet)
        joined = np.concatenate(parts)
        assert len(parts) == 2
        assert np.array_equal(np.sort(joined), np.arange(30))
        for part in parts:
            assert np.array_equal(part, np.sort(part))

    def test_split_single_pool_is_identity(self, single_pool_fleet):
        cpu = self._patterns(seed=5)
        mem = self._patterns(seed=6)
        parts = split_fleet_vms(cpu, mem, single_pool_fleet)
        assert len(parts) == 1
        assert np.array_equal(parts[0], np.arange(30))

    def _assert_fleet_slot_pool(self, fleet, m, case):
        """Pool ``m`` of an :class:`EpactPolicy` allocation on ``fleet``
        is a standalone :func:`size_slot` plus allocator call
        (Algorithm 1 for ``case`` ``"cpu"``, 2 for ``"mem"``) on the
        split's assignment, remapped to global ids; the slot's forced
        placements sum over the pools."""
        for seed in range(6):
            cpu = self._patterns(seed=seed)
            mem = self._patterns(seed=seed + 1)
            allocation = EpactPolicy(mem_headroom_pct=0.0).allocate(
                AllocationContext(
                    pred_cpu=cpu,
                    pred_mem=mem,
                    power_model=fleet.pools[0].power_model,
                    max_servers=fleet.total_servers,
                    qos_floor_ghz=np.zeros(cpu.shape[0]),
                    fleet=fleet,
                )
            )
            plans, pools = allocation.plans, allocation.server_pools
            assert np.array_equal(pools, np.sort(pools))  # pool-major
            parts = split_fleet_vms(cpu, mem, fleet)
            assert parts[m].size
            ref_forced = 0
            ref_cases = []
            for n, idx in enumerate(parts):
                if idx.size == 0:
                    continue
                bound = fleet.pools[n].n_servers
                pool_sizing = sizing.size_slot(
                    cpu[idx],
                    mem[idx],
                    fleet.pools[n].power_model,
                    max_servers=bound,
                )
                ref_cases.append(pool_sizing.case)
                if n == m:
                    assert pool_sizing.case == case
                if pool_sizing.case == "cpu":
                    ref_plans, forced_n = allocate_1d(
                        cpu[idx],
                        mem[idx],
                        pool_sizing.cap_cpu_pct,
                        pool_sizing.cap_mem_pct,
                        max_servers=bound,
                    )
                else:
                    ref_plans, forced_n = allocate_2d(
                        cpu[idx],
                        mem[idx],
                        pool_sizing.n_servers,
                        pool_sizing.cap_cpu_pct,
                        pool_sizing.cap_mem_pct,
                        max_servers=bound,
                    )
                ref_forced += forced_n
                if n != m:
                    continue
                mine = [plan for plan, p in zip(plans, pools) if p == m]
                assert [plan.vm_ids for plan in mine] == [
                    [int(idx[v]) for v in ref.vm_ids] for ref in ref_plans
                ]
                assert all(
                    plan.planned_freq_ghz == pool_sizing.f_opt_ghz
                    for plan in mine
                )
            assert allocation.forced_placements == ref_forced
            assert allocation.case == "+".join(ref_cases)

    def test_fleet_slot_pool_equals_allocate_1d(self, two_pool_fleet):
        """The NTC pool packs its VMs with Algorithm 1."""
        self._assert_fleet_slot_pool(two_pool_fleet, 0, "cpu")

    def test_fleet_slot_pool_equals_allocate_2d(self, two_pool_fleet):
        """The conventional pool packs its VMs with Algorithm 2."""
        self._assert_fleet_slot_pool(two_pool_fleet, 1, "mem")

    def test_fleet_sizing_fast_matches_reference(
        self, two_pool_fleet, monkeypatch
    ):
        cpu = self._patterns(seed=11) * 2.0
        mem = self._patterns(seed=12)
        parts = split_fleet_vms(cpu, mem, two_pool_fleet)

        def pool_sizings():
            return [
                sizing.size_slot(
                    cpu[idx],
                    mem[idx],
                    pool.power_model,
                    max_servers=pool.n_servers,
                )
                for pool, idx in zip(two_pool_fleet.pools, parts)
                if idx.size
            ]

        fast = pool_sizings()
        # The scalar case-1 loop takes the sweep's arguments.
        monkeypatch.setattr(
            sizing, "_search_case1", sizing._search_case1_reference
        )
        ref = pool_sizings()
        assert len(fast) == len(ref) == 2
        for s_fast, s_ref in zip(fast, ref):
            assert s_fast.n_servers == s_ref.n_servers
            assert s_fast.f_opt_ghz == s_ref.f_opt_ghz
            assert s_fast.case == s_ref.case


class TestFleetValidation:
    def test_fleet_and_power_model_are_exclusive(
        self, het_dataset, het_predictor, single_pool_fleet
    ):
        with pytest.raises(ConfigurationError):
            DataCenterSimulation(
                het_dataset,
                het_predictor,
                EpactPolicy(),
                power_model=ntc_server_power_model(),
                fleet=single_pool_fleet,
            )

    def test_multi_pool_needs_server_pools(
        self, het_dataset, het_predictor, two_pool_fleet
    ):
        """Homogeneous policies cannot run untagged on a mixed fleet."""
        from repro.baselines import CoatPolicy

        sim = DataCenterSimulation(
            het_dataset,
            het_predictor,
            CoatPolicy(),
            fleet=two_pool_fleet,
            n_slots=1,
        )
        with pytest.raises(ConfigurationError, match="server_pools"):
            sim.run()

    def test_platform_f_opt_override_needs_one_pool(self, two_pool_fleet):
        """Each pool of a mixed fleet sizes at its own platform's F_opt."""
        cpu = np.full((4, 12), 10.0)
        ctx = AllocationContext(
            pred_cpu=cpu,
            pred_mem=cpu,
            power_model=two_pool_fleet.pools[0].power_model,
            max_servers=two_pool_fleet.total_servers,
            qos_floor_ghz=np.zeros(4),
            fleet=two_pool_fleet,
        )
        with pytest.raises(ConfigurationError, match="one-pool fleet"):
            EpactPolicy(f_ntc_opt_ghz=1.9).allocate(ctx)

    def test_pool_capacity_enforced(
        self, het_dataset, het_predictor
    ):
        from repro.core.types import Allocation, ServerPlan

        tight = FleetSpec(
            pools=(PoolSpec("ntc", ntc_server_power_model(), 1),)
        )
        sim = DataCenterSimulation(
            het_dataset,
            het_predictor,
            EpactPolicy(),
            fleet=tight,
            n_slots=1,
        )
        n_vms = het_dataset.n_vms
        plans = [
            ServerPlan(vm_ids=list(range(0, n_vms // 2))),
            ServerPlan(vm_ids=list(range(n_vms // 2, n_vms))),
        ]
        overfull = Allocation(
            policy_name="test",
            plans=plans,
            dynamic_governor=True,
            violation_cap_pct=100.0,
            server_pools=np.zeros(2, dtype=int),
        )
        with pytest.raises(ConfigurationError, match="capacity"):
            sim._prepare_allocation(overfull)

    def test_homogeneous_plan_count_enforced(
        self, het_dataset, het_predictor
    ):
        """A homogeneous data center is its one-pool fleet: an
        allocation with more plans than ``max_servers`` is refused."""
        from repro.core.types import Allocation, AllocationPolicy, ServerPlan

        class OneVmPerServer(AllocationPolicy):
            name = "ONE-PER-SERVER"

            def allocate(self, ctx):
                return Allocation(
                    policy_name=self.name,
                    plans=[ServerPlan(vm_ids=[v]) for v in range(ctx.n_vms)],
                    dynamic_governor=True,
                    violation_cap_pct=100.0,
                )

        sim = DataCenterSimulation(
            het_dataset,
            het_predictor,
            OneVmPerServer(),
            max_servers=het_dataset.n_vms - 1,
            n_slots=1,
        )
        with pytest.raises(ConfigurationError, match="capacity"):
            sim.run()

    @pytest.mark.parametrize("bad", [0, 2.5])
    def test_homogeneous_max_servers_validated(
        self, het_dataset, het_predictor, bad
    ):
        """``max_servers`` sizes the one pool, so the pool's checks
        apply: an integer of at least 1."""
        with pytest.raises(ConfigurationError, match="n_servers"):
            DataCenterSimulation(
                het_dataset, het_predictor, EpactPolicy(), max_servers=bad
            )

    def test_pool_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PoolSpec("bad", ntc_server_power_model(), 0)
        with pytest.raises(ConfigurationError):
            PoolSpec(
                "bad",
                ntc_server_power_model(),
                1,
                opp_policy="nonsense",
            )
        with pytest.raises(ConfigurationError):
            FleetSpec(pools=())
        with pytest.raises(ConfigurationError):
            FleetSpec(
                pools=(
                    PoolSpec("dup", ntc_server_power_model(), 1),
                    PoolSpec("dup", ntc_server_power_model(), 1),
                )
            )


class TestHybridExperiment:
    def test_quick_hybrid_runs_and_orders_mixes(self):
        from repro.experiments.hybrid import render, run_hybrid

        result = run_hybrid(
            quick=True,
            mix_names=["all-ntc", "all-conventional"],
            n_slots=6,
        )
        assert set(result.fixed) == {"all-ntc", "all-conventional"}
        energy = {
            name: sum(r.energy_j for r in res.records)
            for name, res in result.fixed.items()
        }
        # The paper's Fig. 1 story: the NTC fleet serves the same
        # traces with substantially less energy.
        assert energy["all-ntc"] < energy["all-conventional"]
        text = render(result)
        assert "all-ntc" in text and "headline" in text
