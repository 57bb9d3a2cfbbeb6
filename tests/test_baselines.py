"""Tests for the baseline policies: COAT, COAT-OPT, FFD, LOAD-BALANCE."""

import numpy as np
import pytest

from repro.baselines import (
    CoatOptPolicy,
    CoatPolicy,
    FfdPolicy,
    LoadBalancePolicy,
)
from repro.core.types import AllocationContext

import numpy as _np


def make_patterns(n_vms, n_samples=12, seed=0, scale=10.0):
    """Deterministic positive utilization patterns (local test helper)."""
    gen = _np.random.default_rng(seed)
    base = gen.uniform(0.2, 1.0, size=(n_vms, 1)) * scale
    wiggle = 1.0 + 0.3 * _np.sin(
        _np.linspace(0, 2 * _np.pi, n_samples)[None, :]
        + gen.uniform(0, 2 * _np.pi, size=(n_vms, 1))
    )
    return base * wiggle


def make_ctx(ntc_power, cpu, mem, max_servers=600):
    n_vms = cpu.shape[0]
    return AllocationContext(
        pred_cpu=cpu,
        pred_mem=mem,
        power_model=ntc_power,
        max_servers=max_servers,
        qos_floor_ghz=np.full(n_vms, 1.2),
    )


class TestCoat:
    def test_fixed_fmax_frequency(self, ntc_power):
        cpu = make_patterns(20, seed=1, scale=10.0)
        mem = make_patterns(20, seed=2, scale=5.0)
        allocation = CoatPolicy().allocate(make_ctx(ntc_power, cpu, mem))
        assert not allocation.dynamic_governor
        assert allocation.f_opt_ghz == pytest.approx(3.1)
        assert all(
            p.planned_freq_ghz == pytest.approx(3.1)
            for p in allocation.plans
        )

    def test_violation_cap_is_full_capacity(self, ntc_power):
        cpu = make_patterns(10, seed=3)
        mem = make_patterns(10, seed=4, scale=3.0)
        allocation = CoatPolicy().allocate(make_ctx(ntc_power, cpu, mem))
        assert allocation.violation_cap_pct == pytest.approx(100.0)

    def test_consolidates_to_fewer_servers_than_epact_style_cap(
        self, ntc_power
    ):
        from repro.core.alloc1d import allocate_1d

        cpu = make_patterns(40, seed=5, scale=12.0)
        mem = make_patterns(40, seed=6, scale=2.0)
        coat = CoatPolicy().allocate(make_ctx(ntc_power, cpu, mem))
        epact_plans, _ = allocate_1d(cpu, mem, cap_cpu_pct=61.3)
        assert coat.n_servers < len(epact_plans)

    def test_caps_respected(self, ntc_power):
        cpu = make_patterns(40, seed=7, scale=15.0)
        mem = make_patterns(40, seed=8, scale=10.0)
        allocation = CoatPolicy(cap_cpu_pct=80.0).allocate(
            make_ctx(ntc_power, cpu, mem)
        )
        for plan in allocation.plans:
            if len(plan.vm_ids) > 1:
                assert cpu[plan.vm_ids].sum(axis=0).max() <= 80.0 + 1e-9

    def test_correlation_aware_separates_correlated_vms(self, ntc_power):
        """Two correlated groups: COAT spreads each group across servers."""
        t = np.linspace(0, 2 * np.pi, 12)
        group_a = 25.0 + 20.0 * np.sin(t)
        group_b = 25.0 - 20.0 * np.sin(t)
        cpu = np.vstack([group_a] * 4 + [group_b] * 4)
        mem = np.full((8, 12), 2.0)
        allocation = CoatPolicy().allocate(make_ctx(ntc_power, cpu, mem))
        # With correlation-aware choice, anti-correlated VMs co-locate:
        # servers mix the two groups rather than stacking one group.
        for plan in allocation.plans:
            groups = {0 if vm < 4 else 1 for vm in plan.vm_ids}
            if len(plan.vm_ids) >= 2:
                assert len(groups) == 2

    def test_every_vm_placed(self, ntc_power):
        cpu = make_patterns(35, seed=9, scale=8.0)
        mem = make_patterns(35, seed=10, scale=4.0)
        allocation = CoatPolicy().allocate(make_ctx(ntc_power, cpu, mem))
        allocation.vm_to_server(35)

    def test_max_servers_forces(self, ntc_power):
        cpu = make_patterns(30, seed=11, scale=40.0)
        mem = make_patterns(30, seed=12, scale=1.0)
        allocation = CoatPolicy().allocate(
            make_ctx(ntc_power, cpu, mem, max_servers=2)
        )
        assert len(allocation.plans) <= 2
        assert allocation.forced_placements > 0
        allocation.vm_to_server(30)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CoatPolicy(cap_cpu_pct=0.0)
        with pytest.raises(ValueError):
            CoatPolicy(reallocation_period_slots=0)

    def test_default_cadence_hourly(self):
        assert CoatPolicy().reallocation_period_slots == 1

    def test_dynamic_governor_ablation(self, ntc_power):
        cpu = make_patterns(10, seed=13)
        mem = make_patterns(10, seed=14, scale=2.0)
        allocation = CoatPolicy(dynamic_governor=True).allocate(
            make_ctx(ntc_power, cpu, mem)
        )
        assert allocation.dynamic_governor
        assert allocation.violation_cap_pct == pytest.approx(100.0)


class TestCoatOpt:
    def test_cap_at_optimal_frequency(self, ntc_power):
        cpu = make_patterns(20, seed=15, scale=10.0)
        mem = make_patterns(20, seed=16, scale=3.0)
        policy = CoatOptPolicy()
        allocation = policy.allocate(make_ctx(ntc_power, cpu, mem))
        f_opt = ntc_power.optimal_frequency_ghz()
        assert allocation.f_opt_ghz == pytest.approx(f_opt)
        assert allocation.violation_cap_pct == pytest.approx(
            100.0 * f_opt / 3.1
        )

    def test_uses_more_servers_than_coat(self, ntc_power):
        cpu = make_patterns(40, seed=19, scale=12.0)
        mem = make_patterns(40, seed=20, scale=2.0)
        ctx = make_ctx(ntc_power, cpu, mem)
        coat = CoatPolicy().allocate(ctx)
        coat_opt = CoatOptPolicy().allocate(ctx)
        assert coat_opt.n_servers > coat.n_servers

    def test_day_ahead_cadence(self):
        assert CoatOptPolicy().reallocation_period_slots == 24


class TestFfd:
    def test_not_correlation_aware_but_complete(self, ntc_power):
        cpu = make_patterns(30, seed=21, scale=10.0)
        mem = make_patterns(30, seed=22, scale=4.0)
        allocation = FfdPolicy().allocate(make_ctx(ntc_power, cpu, mem))
        allocation.vm_to_server(30)
        assert allocation.f_opt_ghz == pytest.approx(3.1)

    def test_no_more_servers_than_coat_plus_margin(self, ntc_power):
        """FFD and COAT pack against the same cap; counts are similar."""
        cpu = make_patterns(40, seed=23, scale=12.0)
        mem = make_patterns(40, seed=24, scale=2.0)
        ctx = make_ctx(ntc_power, cpu, mem)
        ffd = FfdPolicy().allocate(ctx)
        coat = CoatPolicy().allocate(ctx)
        assert abs(ffd.n_servers - coat.n_servers) <= 2


class TestLoadBalance:
    def test_spreads_to_target_utilization(self, ntc_power):
        cpu = make_patterns(40, seed=25, scale=10.0)
        mem = make_patterns(40, seed=26, scale=2.0)
        allocation = LoadBalancePolicy(target_util_pct=40.0).allocate(
            make_ctx(ntc_power, cpu, mem)
        )
        peak = cpu.sum(axis=0).max()
        import math

        assert allocation.n_servers == math.ceil(peak / 40.0)
        allocation.vm_to_server(40)

    def test_dynamic_governor(self, ntc_power):
        cpu = make_patterns(10, seed=27)
        mem = make_patterns(10, seed=28, scale=2.0)
        allocation = LoadBalancePolicy().allocate(
            make_ctx(ntc_power, cpu, mem)
        )
        assert allocation.dynamic_governor

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            LoadBalancePolicy(target_util_pct=0.0)

    def test_balanced_loads(self, ntc_power):
        cpu = make_patterns(40, seed=29, scale=10.0)
        mem = make_patterns(40, seed=30, scale=2.0)
        allocation = LoadBalancePolicy(target_util_pct=50.0).allocate(
            make_ctx(ntc_power, cpu, mem)
        )
        peaks = [
            cpu[plan.vm_ids].sum(axis=0).max()
            for plan in allocation.plans
            if plan.vm_ids
        ]
        assert max(peaks) / max(min(peaks), 1e-9) < 3.0
