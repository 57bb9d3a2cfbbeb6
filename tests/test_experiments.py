"""Tests for the experiment harness: every table/figure reproduces its
published shape.

These are the repository's headline validation tests: each asserts the
qualitative claim of the corresponding paper table/figure against the
paper's numbers in :mod:`repro.anchors` (README's "Reproduction vs the
paper" table gives the quantitative paper-vs-measured record).
"""

import pytest

from repro.anchors import (
    EFFICIENCY_PEAK_FREQ_GHZ,
    QOS_MIN_FREQ_GHZ,
)
from repro.baselines import CoatPolicy, FfdPolicy
from repro.core import EpactPolicy
from repro.dcsim import run_policies, total_energy_savings_pct
from repro.experiments import fig1, fig2, fig3, fig456, fig7, table1
from repro.forecast import DayAheadPredictor
from repro.technology.scaling import fdsoi12_scaling, scaled_ntc_power_model
from repro.traces import default_dataset


@pytest.fixture(scope="module")
def table1_result():
    return table1.run_table1()


@pytest.fixture(scope="module")
def fig1_result():
    return fig1.run_fig1()


@pytest.fixture(scope="module")
def fig2_result():
    return fig2.run_fig2()


@pytest.fixture(scope="module")
def fig3_result():
    return fig3.run_fig3()


@pytest.fixture(scope="module")
def fig456_result():
    return fig456.run_fig456(quick=True)


class TestTable1:
    def test_reproduces_paper_within_rounding(self, table1_result):
        """All Table I cells within 0.5% of the published values."""
        assert table1_result.max_relative_error() < 0.005

    def test_speedups_in_published_range(self, table1_result):
        for label, speedup in table1_result.speedups_vs_thunderx.items():
            assert 1.2 <= speedup <= 1.85

    def test_render_mentions_every_class(self, table1_result):
        text = table1.render(table1_result)
        for label in ("low-mem", "mid-mem", "high-mem"):
            assert label in text


class TestFig1:
    def test_ntc_interior_optimum(self, fig1_result):
        lo, hi = fig1_result.ntc_interior_optimum_range()
        assert 1.7 <= lo <= hi <= 2.0

    def test_ntc_min_feasible_above_knee(self, fig1_result):
        for util in (70, 80, 90):
            curve = fig1_result.ntc_curves[util]
            opt = fig1_result.ntc_optima[util]
            assert opt.freq_ghz == pytest.approx(
                min(p.freq_ghz for p in curve)
            )

    def test_conventional_consolidation_wins(self, fig1_result):
        for opt in fig1_result.conventional_optima.values():
            assert opt.freq_ghz == pytest.approx(2.4)

    def test_power_increases_with_utilization(self, fig1_result):
        powers = [
            fig1_result.ntc_optima[u].power_kw for u in (10, 30, 50, 70, 90)
        ]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_render(self, fig1_result):
        text = fig1.render(fig1_result)
        assert "1.9 GHz" in text


class TestFig2:
    def test_qos_floors_match_paper(self, fig2_result):
        for label, floor in fig2_result.qos_floors_ghz.items():
            assert floor == pytest.approx(QOS_MIN_FREQ_GHZ[label])

    def test_normalized_below_one_at_2ghz(self, fig2_result):
        for label in fig2_result.sweeps:
            assert fig2_result.normalized_at(label, 2.0) < 1.0

    def test_normalized_above_one_at_low_frequency(self, fig2_result):
        for label in fig2_result.sweeps:
            assert fig2_result.normalized_at(label, 0.5) > 1.0

    def test_low_mem_meets_qos_at_1_5(self, fig2_result):
        """Section VI-B-3: low-mem's efficient 1.5 GHz still meets QoS."""
        assert fig2_result.normalized_at("low-mem", 1.5) < 1.0
        assert fig2_result.normalized_at("mid-mem", 1.5) > 1.0

    def test_curves_decrease_with_frequency(self, fig2_result):
        for points in fig2_result.sweeps.values():
            values = [p.normalized_to_qos_limit for p in points]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestFig3:
    def test_interior_peaks(self, fig3_result):
        """Every class peaks strictly inside the DVFS range."""
        grid = [p.freq_ghz for p in fig3_result.curves["low-mem"]]
        for label in fig3_result.curves:
            peak = fig3_result.peak(label)
            assert grid[0] < peak.freq_ghz < grid[-1]

    def test_high_mem_peaks_at_papers_1_2ghz(self, fig3_result):
        assert fig3_result.peak("high-mem").freq_ghz == pytest.approx(
            EFFICIENCY_PEAK_FREQ_GHZ["high-mem"], abs=0.15
        )

    def test_low_mid_peaks_near_papers_range(self, fig3_result):
        """Paper: ~1.5 GHz (``EFFICIENCY_PEAK_FREQ_GHZ``); the model lands
        in 1.5-1.8."""
        for label in ("low-mem", "mid-mem"):
            assert 1.4 <= fig3_result.peak(label).freq_ghz <= 1.8

    def test_efficiency_decreases_with_memory_intensity(self, fig3_result):
        """Fig. 3: more memory -> lower efficiency, at every frequency."""
        low = fig3_result.curves["low-mem"]
        mid = fig3_result.curves["mid-mem"]
        high = fig3_result.curves["high-mem"]
        for p_low, p_mid, p_high in zip(low, mid, high):
            assert (
                p_low.buips_per_watt
                > p_mid.buips_per_watt
                > p_high.buips_per_watt
            )

    def test_magnitudes_order_of_paper(self, fig3_result):
        """Paper peaks ~0.27/0.22/0.05 BUIPS/W; ours within 2x."""
        assert 0.12 <= fig3_result.peak("low-mem").buips_per_watt <= 0.5
        assert 0.02 <= fig3_result.peak("high-mem").buips_per_watt <= 0.12


class TestFig456:
    def test_epact_drastically_fewer_violations(self, fig456_result):
        """Fig. 4: EPACT's violations are a small fraction of COAT's."""
        assert fig456_result.violation_ratio_epact_vs_coat() < 0.1

    def test_coat_fewer_servers_than_epact(self, fig456_result):
        """Fig. 5: consolidation reduces active servers substantially."""
        reduction = fig456_result.server_reduction_coat_vs_epact_pct()
        assert 15.0 <= reduction <= 50.0

    def test_epact_saves_energy_vs_coat(self, fig456_result):
        """Fig. 6: EPACT saves substantially vs COAT (paper: up to 45%)."""
        assert fig456_result.total_saving_vs_coat_pct() > 25.0
        assert fig456_result.best_saving_vs_coat_pct() > 30.0

    def test_epact_saves_energy_vs_coat_opt(self, fig456_result):
        """Fig. 6: EPACT beats even the optimally capped baseline."""
        assert fig456_result.total_saving_vs_coat_opt_pct() > 5.0

    def test_energy_ordering(self, fig456_result):
        assert (
            fig456_result.epact.total_energy_mj
            < fig456_result.coat_opt.total_energy_mj
            < fig456_result.coat.total_energy_mj
        )

    def test_render(self, fig456_result):
        text = fig456.render(fig456_result)
        assert "EPACT vs COAT" in text
        assert "Fig. 4" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def fig7_result(self):
        return fig7.run_fig7(
            static_sweep_w=(5.0, 25.0, 45.0), quick=True
        )

    def test_savings_decrease_with_static_power(self, fig7_result):
        """The paper's Fig. 7 trend (EPACT gains from low static power)."""
        savings = [p.saving_pct for p in fig7_result.points]
        assert savings[0] > savings[-1]
        assert fig7_result.is_monotonically_decreasing(tolerance_pct=3.0)

    def test_epact_wins_at_every_static_point(self, fig7_result):
        for point in fig7_result.points:
            assert point.saving_pct > 0.0

    def test_optimal_frequency_rises_with_static(self, fig7_result):
        freqs = [p.epact_optimal_freq_ghz for p in fig7_result.points]
        assert freqs[-1] >= freqs[0]

    def test_render(self, fig7_result):
        assert "static" in fig7.render(fig7_result).lower()


@pytest.fixture(scope="module")
def week_dataset():
    """The reduced-scale week of the comparisons below: 120 VMs, 9 days."""
    return default_dataset(n_vms=120, n_days=9, seed=2018)


@pytest.fixture(scope="module")
def week_predictor(week_dataset):
    """Day-ahead predictor with the two evaluated days' forecasts fitted."""
    predictor = DayAheadPredictor(week_dataset)
    for day in range(7, week_dataset.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="module")
def compare(week_dataset, week_predictor, perf_sim):
    """Runs policies over the shared week, 600 servers."""

    def run(policies, n_slots, **kwargs):
        return run_policies(
            week_dataset,
            week_predictor,
            policies,
            perf=perf_sim,
            max_servers=600,
            n_slots=n_slots,
            **kwargs,
        )

    return run


class TestAblations:
    """Where EPACT's advantage comes from, beyond the paper's figures."""

    @pytest.fixture(scope="class")
    def one_day(self, compare):
        """EPACT, COAT, COAT with EPACT's governor and two fixed caps."""
        return compare(
            [
                EpactPolicy(),
                CoatPolicy(),
                CoatPolicy(dynamic_governor=True, name="COAT-DVFS"),
                CoatPolicy(cap_cpu_pct=70.0, name="CAP-70"),
                CoatPolicy(cap_cpu_pct=85.0, name="CAP-85"),
            ],
            n_slots=24,
        )

    @pytest.fixture(scope="class")
    def two_days(self, compare):
        """COAT re-packing hourly and daily, and plain FFD."""
        return compare(
            [
                CoatPolicy(),
                CoatPolicy(name="COAT-DAILY", reallocation_period_slots=24),
                FfdPolicy(),
            ],
            n_slots=48,
        )

    def test_other_caps_between_optimum_and_coat(self, one_day):
        """Fig. 6's "other caps" band: a lower fixed cap (a slower fixed
        frequency) consumes less energy."""
        energy = {name: run.total_energy_mj for name, run in one_day.items()}
        assert energy["CAP-70"] < energy["CAP-85"] < energy["COAT"]

    def test_governor_recovers_waste_but_not_the_gap(self, one_day):
        """COAT with EPACT's per-sample DVFS governor saves energy, yet
        does not beat EPACT by more than a few percent."""
        assert (
            one_day["COAT-DVFS"].total_energy_mj
            < one_day["COAT"].total_energy_mj
        )
        saving = total_energy_savings_pct(one_day["EPACT"], one_day["COAT-DVFS"])
        assert saving > -10.0

    def test_future_node_keeps_the_saving(self, one_day, compare):
        """The paper's conclusion: EPACT's edge holds or grows as static
        power shrinks, here on the 12 nm FD-SOI projection."""
        scaled = compare(
            [EpactPolicy(), CoatPolicy()],
            n_slots=24,
            power_model=scaled_ntc_power_model(fdsoi12_scaling()),
        )
        saving_28 = total_energy_savings_pct(one_day["EPACT"], one_day["COAT"])
        saving_12 = total_energy_savings_pct(scaled["EPACT"], scaled["COAT"])
        assert saving_12 > saving_28 - 2.0

    def test_hourly_reallocation_saves_energy(self, two_days):
        """Re-packing every hour costs no more than day-ahead packing."""
        assert (
            two_days["COAT"].total_energy_mj
            <= two_days["COAT-DAILY"].total_energy_mj
        )

    def test_correlation_awareness_costs_little_energy(self, two_days):
        """COAT vs plain first-fit decreasing at the same cadence."""
        coat = two_days["COAT"].total_energy_mj
        ffd = two_days["FFD"].total_energy_mj
        assert abs(coat - ffd) / ffd < 0.15
