"""Tests for the extension modules: migrations, PSU, CSV export, and
the ThunderX motivation experiment."""

import numpy as np
import pytest

from repro.dcsim.engine import count_migrations
from repro.errors import ConfigurationError, DomainError
from repro.power.psu import PsuModel, conventional_psu, ntc_psu


class TestCountMigrations:
    def test_identical_maps_no_migrations(self):
        mapping = np.array([0, 0, 1, 1, 2])
        assert count_migrations(mapping, mapping) == 0

    def test_relabeled_servers_no_migrations(self):
        """Server indices are arbitrary; a pure relabel is free."""
        old = np.array([0, 0, 1, 1])
        new = np.array([1, 1, 0, 0])
        assert count_migrations(old, new) == 0

    def test_single_move(self):
        old = np.array([0, 0, 1, 1])
        new = np.array([0, 0, 1, 0])
        assert count_migrations(old, new) == 1

    def test_split_counts_minority(self):
        """Splitting a 3-VM server keeps the plurality in place."""
        old = np.array([0, 0, 0])
        new = np.array([0, 0, 1])
        assert count_migrations(old, new) == 1

    def test_full_shuffle(self):
        old = np.array([0, 1, 2])
        new = np.array([0, 0, 0])
        # The merged server keeps one plurality VM; two must move.
        assert count_migrations(old, new) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            count_migrations(np.array([0]), np.array([0, 1]))


class TestMigrationAccounting:
    def test_epact_migrates_more_than_daily_coat(
        self, small_dataset, oracle_predictor
    ):
        from repro.baselines import CoatPolicy
        from repro.core import EpactPolicy
        from repro.dcsim import run_policies

        results = run_policies(
            small_dataset,
            oracle_predictor,
            [
                EpactPolicy(),
                CoatPolicy(
                    name="COAT-DAILY", reallocation_period_slots=24
                ),
            ],
            start_slot=24,
            n_slots=48,
        )
        assert (
            results["EPACT"].total_migrations
            > results["COAT-DAILY"].total_migrations
        )

    def test_migration_energy_charged(
        self, small_dataset, oracle_predictor
    ):
        from repro.core import EpactPolicy
        from repro.dcsim import DataCenterSimulation

        free = DataCenterSimulation(
            small_dataset, oracle_predictor, EpactPolicy(),
            start_slot=24, n_slots=12,
        ).run()
        charged = DataCenterSimulation(
            small_dataset, oracle_predictor, EpactPolicy(),
            start_slot=24, n_slots=12, migration_energy_j=500.0,
        ).run()
        expected_delta = charged.total_migrations * 500.0 / 1e6
        measured_delta = charged.total_energy_mj - free.total_energy_mj
        assert measured_delta == pytest.approx(expected_delta, rel=1e-6)

    def test_negative_migration_energy_rejected(
        self, small_dataset, oracle_predictor
    ):
        from repro.core import EpactPolicy
        from repro.dcsim import DataCenterSimulation

        with pytest.raises(ConfigurationError):
            DataCenterSimulation(
                small_dataset, oracle_predictor, EpactPolicy(),
                migration_energy_j=-1.0,
            )


class TestPsu:
    def test_wall_power_exceeds_dc_power(self):
        psu = ntc_psu()
        assert psu.wall_power_w(100.0) > 100.0

    def test_efficiency_peaks_at_mid_load(self):
        psu = ntc_psu()
        peak_load = psu.peak_efficiency_load_w()
        assert 0.3 * psu.rated_w < peak_load < psu.rated_w
        below = psu.efficiency(peak_load * 0.2)
        at_peak = psu.efficiency(peak_load)
        above = psu.efficiency(peak_load * 1.8)
        assert at_peak > below
        assert at_peak > above

    def test_reasonable_efficiency_at_operating_point(self):
        """~94% around the NTC server's busy region."""
        psu = ntc_psu()
        assert 0.90 <= psu.efficiency(140.0) <= 0.97

    def test_light_load_penalty(self):
        """NTC idle loads sit on the inefficient left edge."""
        psu = ntc_psu()
        assert psu.efficiency(10.0) < 0.75

    def test_oversized_conventional_psu_worse_at_light_load(self):
        small = ntc_psu()
        big = conventional_psu()
        assert big.efficiency(40.0) < small.efficiency(40.0)

    def test_zero_load_draws_fixed_loss(self):
        psu = ntc_psu()
        assert psu.efficiency(0.0) == 0.0
        assert psu.wall_power_w(0.0) == pytest.approx(psu.loss_fixed_w)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PsuModel(rated_w=0.0)
        psu = ntc_psu()
        with pytest.raises(DomainError):
            psu.efficiency(-1.0)
        with pytest.raises(DomainError):
            psu.wall_power_w(-1.0)

    def test_no_quadratic_term_monotone(self):
        psu = PsuModel(rated_w=100.0, loss_sq_per_w=0.0)
        assert psu.peak_efficiency_load_w() == pytest.approx(100.0)
        assert psu.efficiency(90.0) > psu.efficiency(10.0)


class TestThunderxExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.thunderx import run_thunderx

        return run_thunderx()

    def test_stock_thunderx_cannot_serve_memory_classes(self, result):
        """The paper's motivation: 'unable to meet QoS constraints'."""
        infeasible = result.thunderx_infeasible_classes()
        assert "mid-mem" in infeasible
        assert "high-mem" in infeasible
        assert "low-mem" not in infeasible

    def test_ntc_serves_everything(self, result):
        ntc_rows = [r for r in result.rows if r.platform == "ntc"]
        assert all(r.meets_qos for r in ntc_rows)

    def test_memory_subsystem_dominates_fix_for_memory_classes(
        self, result
    ):
        """For mid/high-mem the memory redesign contributed more than
        the OoO core swap."""
        for label in ("mid-mem", "high-mem"):
            assert (
                result.memory_speedup[label]
                > result.compute_speedup[label]
            )

    def test_render(self, result):
        from repro.experiments.thunderx import render

        text = render(result)
        assert "NONE" in text


class TestCsvExport:
    def test_export_all_quick(self, tmp_path):
        from repro.experiments.export import (
            export_fig2,
            export_table1,
        )
        from repro.experiments.fig2 import run_fig2
        from repro.experiments.table1 import run_table1

        paths = export_table1(run_table1(), tmp_path)
        paths += export_fig2(run_fig2(), tmp_path)
        assert all(p.exists() for p in paths)
        table1_lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert table1_lines[0] == "class,cell,model_s,paper_s"
        assert len(table1_lines) == 1 + 3 * 4

    def test_fig456_export_includes_migrations(self, tmp_path):
        from repro.experiments.export import export_fig456
        from repro.experiments.fig456 import Fig456Result
        from repro.dcsim.metrics import SimulationResult, SlotRecord

        record = SlotRecord(
            slot_index=0, case="cpu", n_active_servers=3, violations=1,
            forced_placements=0, energy_j=1e6, mean_freq_ghz=1.9,
            f_opt_ghz=1.9, migrations=4,
        )
        result = Fig456Result(
            results={
                name: SimulationResult(
                    policy_name=name, records=[record]
                )
                for name in ("EPACT", "COAT", "COAT-OPT")
            }
        )
        (path,) = export_fig456(result, tmp_path)
        content = path.read_text()
        assert "migrations" in content.splitlines()[0]
        assert ",4," in content
