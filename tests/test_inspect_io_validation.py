"""Tests for slot inspection and the self-validation module."""

import numpy as np
import pytest

from repro.cloud.faults import FaultSchedule
from repro.core import EpactPolicy
from repro.dcsim import DataCenterSimulation, inspect_slot
from repro.forecast import PerfectPredictor
from repro.power import ntc_psu
from repro.traces import default_dataset
from repro.units import SAMPLE_PERIOD_S


@pytest.fixture(scope="module")
def sim_pair():
    dataset = default_dataset(n_vms=30, n_days=8, seed=44)
    predictor = PerfectPredictor(dataset)
    sim = DataCenterSimulation(
        dataset, predictor, EpactPolicy(), start_slot=24, n_slots=6
    )
    return sim, sim.run()


class TestInspectSlot:
    def test_detail_matches_record(self, sim_pair):
        """The detail matrices aggregate to the engine's own record."""
        sim, result = sim_pair
        record = result.records[0]
        detail = inspect_slot(sim, record.slot_index)
        assert detail.energy_j == pytest.approx(record.energy_j)
        assert detail.total_violations == record.violations
        active = sum(
            1 for plan in detail.allocation.plans if plan.vm_ids
        )
        assert active == record.n_active_servers

    @pytest.mark.parametrize("layer", ["psu", "power-cap"])
    def test_detail_matches_record_at_the_wall_and_capped(self, layer):
        """The detail prices power like the engine: through the PSU
        transform and the fault layer's power cap."""
        dataset = default_dataset(n_vms=40, n_days=8, seed=3)
        kwargs = dict(start_slot=24, n_slots=4, max_servers=40)
        if layer == "psu":
            kwargs["psu"] = ntc_psu()
        else:
            kwargs["faults"] = FaultSchedule(
                40, 0, dataset.n_slots, cap_windows=((24, 28, 0.02),)
            )
        sim = DataCenterSimulation(
            dataset, PerfectPredictor(dataset), EpactPolicy(), **kwargs
        )
        result = sim.run()
        if layer == "power-cap":
            assert result.total_capped_samples > 0
        for record in result.records:
            detail = inspect_slot(sim, record.slot_index)
            assert detail.energy_j == record.energy_j
            assert detail.total_violations == record.violations

    def test_shapes_aligned(self, sim_pair):
        sim, result = sim_pair
        detail = inspect_slot(sim, result.records[0].slot_index)
        n = detail.n_servers
        for matrix in (
            detail.cpu_util_pct,
            detail.mem_util_pct,
            detail.freq_ghz,
            detail.power_w,
            detail.violated,
        ):
            assert matrix.shape == (n, 12)

    def test_hottest_servers_sorted(self, sim_pair):
        sim, result = sim_pair
        detail = inspect_slot(sim, result.records[0].slot_index)
        hottest = detail.hottest_servers(k=3)
        peaks = detail.cpu_util_pct.max(axis=1)
        assert list(peaks[hottest]) == sorted(peaks, reverse=True)[:3]

    def test_server_summary_fields(self, sim_pair):
        sim, result = sim_pair
        detail = inspect_slot(sim, result.records[0].slot_index)
        summary = detail.server_summary(0)
        assert summary["n_vms"] == len(detail.allocation.plans[0].vm_ids)
        assert summary["peak_cpu_pct"] == pytest.approx(
            detail.cpu_util_pct[0].max()
        )

    def test_frequencies_on_opp_grid(self, sim_pair):
        sim, result = sim_pair
        detail = inspect_slot(sim, result.records[0].slot_index)
        grid = set(
            float(f) for f in sim._power.spec.opps.frequencies_ghz
        )
        assert set(np.unique(detail.freq_ghz)).issubset(grid)

    def test_power_consistent_with_energy_rate(self, sim_pair):
        sim, result = sim_pair
        detail = inspect_slot(sim, result.records[0].slot_index)
        assert detail.energy_j == pytest.approx(
            detail.power_w.sum() * SAMPLE_PERIOD_S
        )


class TestValidation:
    def test_all_checks_pass(self):
        from repro.validation import validate_reproduction

        report = validate_reproduction()
        assert report.all_passed, report.summary()
        assert report.n_failed == 0
        assert len(report.checks) >= 6

    def test_summary_mentions_every_check(self):
        from repro.validation import validate_reproduction

        report = validate_reproduction()
        text = report.summary()
        assert text.count("[PASS]") == len(report.checks)
        assert "all checks passed" in text

    def test_cli_subcommand(self, capsys):
        from repro.experiments.runner import main

        assert main(["validate"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_report_detects_failures(self):
        from repro.validation import CheckResult, ValidationReport

        report = ValidationReport(
            checks=[
                CheckResult(name="a", passed=True, detail="ok"),
                CheckResult(name="b", passed=False, detail="bad"),
            ]
        )
        assert not report.all_passed
        assert report.n_failed == 1
        assert "[FAIL] b" in report.summary()
