"""Tests for the units module, error hierarchy and the public API surface."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import errors, units


class TestUnits:
    def test_energy_conversions(self):
        assert units.joules_to_megajoules(3.0e6) == pytest.approx(3.0)

    def test_time_grid_matches_paper(self):
        """5-min samples, 1 h slots, 168 slots/week (Section V-B)."""
        assert units.SAMPLE_PERIOD_S == 300.0
        assert units.SAMPLES_PER_SLOT == 12
        assert units.SLOT_PERIOD_S == 3600.0
        assert units.SAMPLES_PER_DAY == 288
        assert units.SLOTS_PER_WEEK == 168
        assert units.SAMPLES_PER_WEEK == 2016


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.ConfigurationError,
            errors.DomainError,
            errors.InfeasibleError,
            errors.CalibrationError,
            errors.ForecastError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.DomainError("x")


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_documents_every_export(self):
        """Every name ``from repro import`` exports appears in backticks
        in README's "Public API" section."""
        readme = Path(repro.__file__).resolve().parents[2] / "README.md"
        section = readme.read_text().split("### Public API\n", 1)[1]
        section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
        documented = set(re.findall(r"`([^`]+)`", section))
        assert sorted(set(repro.__all__) - documented) == []

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_key_entry_points_callable(self):
        assert callable(repro.ntc_server_power_model)
        assert callable(repro.run_policies)
        policy = repro.EpactPolicy()
        assert policy.name == "EPACT"

    def test_policies_share_interface(self):
        for cls in (
            repro.EpactPolicy,
            repro.CoatPolicy,
            repro.CoatOptPolicy,
            repro.FfdPolicy,
            repro.LoadBalancePolicy,
        ):
            policy = cls()
            assert isinstance(policy, repro.AllocationPolicy)
            assert policy.reallocation_period_slots >= 1

    def test_experiments_cli_subset(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_experiments_cli_checks_scenario_names_first(
        self, capsys, tmp_path
    ):
        from repro.experiments.runner import main

        out = tmp_path / "run"
        argv = ["telemetry", "cloud", "--scenarios", "clean,lossy-10pct,steady"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.strip().splitlines()
        assert line == (
            "repro-experiments: --scenarios name 'steady' is not in "
            "TELEMETRY_SCENARIOS, the registry of the telemetry "
            "experiment; it is in SCENARIOS (cloud)"
        )
        assert main(["faults", "--scenarios", "nope"]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "'nope' is not in FAULT_SCENARIOS" in line
        assert line.endswith("no registry holds it")
        assert main(["hyperscale", "--scenarios", "steady"]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "not in PROFILES" in line
        assert "it is in SCENARIOS (cloud)" in line


class TestNumpyOnly:
    def test_runs_without_scipy(self):
        """The library needs only NumPy: in a fresh interpreter where
        any SciPy import fails, traces, a churn scenario and a lossy
        serve replay all build and run."""
        script = textwrap.dedent(
            """
            import sys
            sys.modules["scipy"] = None  # every scipy import now fails
            from repro.cloud import get_scenario
            from repro.serve import ServeConfig, serve
            from repro.traces import default_dataset

            default_dataset(n_vms=12, n_days=2, seed=1)
            get_scenario("diurnal-burst").build(n_vms=12, n_days=9, seed=1)
            result = serve(ServeConfig(
                workload="diurnal-burst", telemetry_scenario="lossy-10pct",
                n_vms=12, n_days=9, n_slots=6, max_servers=8,
            ))
            assert result.total_imputed_samples > 0
            print("ok")
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
