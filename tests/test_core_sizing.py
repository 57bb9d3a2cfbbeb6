"""Tests for Eq. 1 sizing and the case-1 (N, F) search."""

import math

import numpy as np
import pytest

from repro.core.sizing import (
    _search_case1,
    _search_case1_reference,
    n_servers_cpu,
    n_servers_mem,
    peak_aggregate_pct,
    size_slot,
)
from repro.errors import DomainError
from repro.power import conventional_server_power_model
from repro.power.server_power import ntc_server_power_model


def flat_patterns(n_vms, level_pct, n_samples=12):
    return np.full((n_vms, n_samples), level_pct, dtype=float)


class TestEq1:
    def test_peak_aggregate(self):
        pred = np.array([[1.0, 5.0], [2.0, 1.0]])
        assert peak_aggregate_pct(pred) == pytest.approx(6.0)

    def test_n_cpu_formula(self):
        """N_cpu = ceil(peak% * Fmax / (F_opt * 100))."""
        pred = flat_patterns(100, 10.0)  # aggregate 1000% = 10 servers@Fmax
        n = n_servers_cpu(pred, f_max_ghz=3.1, f_opt_ghz=1.9)
        assert n == math.ceil(1000.0 * 3.1 / (1.9 * 100.0))

    def test_n_cpu_at_fmax_equals_server_equivalents(self):
        pred = flat_patterns(40, 10.0)  # 400% -> 4 servers at Fmax
        assert n_servers_cpu(pred, 3.1, 3.1) == 4

    def test_n_mem_formula(self):
        pred = flat_patterns(30, 10.0)  # 300% -> 3 servers
        assert n_servers_mem(pred) == 3

    def test_n_mem_with_headroom_cap(self):
        pred = flat_patterns(30, 10.0)
        assert n_servers_mem(pred, cap_mem_pct=90.0) == 4

    def test_minimum_one_server(self):
        pred = flat_patterns(1, 0.001)
        assert n_servers_cpu(pred, 3.1, 1.9) == 1
        assert n_servers_mem(pred) == 1

    def test_validation(self):
        pred = flat_patterns(2, 10.0)
        with pytest.raises(DomainError):
            n_servers_cpu(pred, 3.1, 0.0)
        with pytest.raises(DomainError):
            n_servers_mem(pred, cap_mem_pct=0.0)
        with pytest.raises(DomainError):
            peak_aggregate_pct(np.zeros((0, 0)))


class TestSizeSlot:
    def test_cpu_dominant_case(self, ntc_power):
        # High CPU, tiny memory -> case 1.
        pred_cpu = flat_patterns(100, 10.0)
        pred_mem = flat_patterns(100, 1.0)
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=600)
        assert sizing.case == "cpu"
        assert sizing.n_cpu > sizing.n_mem
        assert sizing.n_mem <= sizing.n_servers <= sizing.n_cpu

    def test_cpu_case_picks_energy_optimal_frequency(self, ntc_power):
        """With ample memory headroom the search lands near F_NTC_opt."""
        pred_cpu = flat_patterns(100, 10.0)
        pred_mem = flat_patterns(100, 0.5)
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=600)
        assert 1.7 <= sizing.f_opt_ghz <= 2.1

    def test_mem_dominant_case(self, ntc_power):
        pred_cpu = flat_patterns(50, 2.0)   # 100% -> ~1.7 srv at f_opt
        pred_mem = flat_patterns(50, 20.0)  # 1000% -> 10 servers
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=600)
        assert sizing.case == "mem"
        assert sizing.n_servers == sizing.n_mem == 10

    def test_mem_case_frequency_covers_spread_demand(self, ntc_power):
        pred_cpu = flat_patterns(50, 2.0)
        pred_mem = flat_patterns(50, 20.0)
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=600)
        demand_ghz = 100.0 / 100.0 * 3.1
        assert sizing.f_opt_ghz * sizing.n_servers >= demand_ghz - 1e-9

    def test_cap_cpu_consistent_with_frequency(self, ntc_power):
        pred_cpu = flat_patterns(100, 10.0)
        pred_mem = flat_patterns(100, 1.0)
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=600)
        assert sizing.cap_cpu_pct == pytest.approx(
            100.0 * sizing.f_opt_ghz / 3.1
        )

    def test_mem_headroom_propagates(self, ntc_power):
        pred_cpu = flat_patterns(50, 2.0)
        pred_mem = flat_patterns(50, 20.0)
        sizing = size_slot(
            pred_cpu, pred_mem, ntc_power, max_servers=600,
            cap_mem_pct=90.0,
        )
        assert sizing.cap_mem_pct == pytest.approx(90.0)
        assert sizing.n_servers == math.ceil(1000.0 / 90.0)

    def test_max_servers_clamps(self, ntc_power):
        pred_cpu = flat_patterns(200, 10.0)
        pred_mem = flat_patterns(200, 1.0)
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=5)
        assert sizing.n_servers <= 5

    def test_explicit_f_opt_respected(self, ntc_power):
        pred_cpu = flat_patterns(100, 10.0)
        pred_mem = flat_patterns(100, 1.0)
        a = size_slot(
            pred_cpu, pred_mem, ntc_power, max_servers=600,
            f_ntc_opt_ghz=2.5,
        )
        b = size_slot(
            pred_cpu, pred_mem, ntc_power, max_servers=600,
            f_ntc_opt_ghz=1.9,
        )
        assert a.n_cpu <= b.n_cpu

    def test_search_beats_fixed_extremes(self, ntc_power):
        """The explored (N, F) must not be worse than the endpoints."""
        pred_cpu = flat_patterns(120, 8.0)
        pred_mem = flat_patterns(120, 1.0)
        sizing = size_slot(pred_cpu, pred_mem, ntc_power, max_servers=600)
        demand = peak_aggregate_pct(pred_cpu) * 3.1 / 100.0

        def dc_power(n, f):
            busy = min(1.0, demand / (n * f))
            return n * ntc_power.power_w(f, busy_fraction=busy)

        chosen = dc_power(sizing.n_servers, sizing.f_opt_ghz)
        fmax_n = max(1, math.ceil(demand / 3.1))
        assert chosen <= dc_power(fmax_n, 3.1) + 1e-9


class TestSizingSearchEquivalence:
    @pytest.mark.parametrize(
        "model_factory",
        [ntc_server_power_model, conventional_server_power_model],
    )
    def test_fast_matches_reference_random(self, model_factory):
        model = model_factory()
        rng = np.random.default_rng(11)
        for _ in range(400):
            demand = float(rng.uniform(0.5, 4000.0))
            n_mem = int(rng.integers(1, 300))
            n_cpu = n_mem + int(rng.integers(0, 300))
            assert _search_case1(
                model, demand, n_mem, n_cpu
            ) == _search_case1_reference(model, demand, n_mem, n_cpu)

    def test_saturation_branch(self):
        """Demand beyond Fmax packing on n_cpu servers saturates."""
        model = ntc_server_power_model()
        f_max = model.spec.f_max_ghz
        demand = 10.0 * f_max  # cannot be served by <= 4 servers
        assert _search_case1(model, demand, 2, 4) == (4, f_max)
        assert _search_case1_reference(model, demand, 2, 4) == (4, f_max)
