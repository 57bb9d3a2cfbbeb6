"""The process fan's retry path, failure counting, and the CLI's exit code.

Complements the fan tests in ``test_fault_equivalence.py``: those prove
failures are *isolated*; these prove the retry actually *recovers*
transient failures (fail once, succeed on the fresh-pool retry, which
receives the shared inputs too), that a persistent timeout burns both
attempts, that failures carry their cost (elapsed seconds, attempt
count) into the FAILED summary line, that the fan emits task lifecycle
events when traced, that every sweep's ``jobs=2`` run equals its serial
run, and that any surviving :class:`FailedRun` anywhere in an
experiment result makes ``repro-experiments`` exit non-zero.
"""

import multiprocessing
import os
import time

import pytest

from repro.baselines import CoatPolicy
from repro.dcsim import engine
from repro.dcsim.engine import FailedRun, fan_out
from repro.dcsim.reporting import failed_line
from repro.experiments import fig456, fig7, runner
from repro.experiments.cloud import run_cloud
from repro.experiments.hybrid import run_hybrid
from repro.experiments.runner import count_failures
from repro.experiments.telemetry import run_telemetry
from repro.traces import default_dataset


def _fail_once(greeting, sentinel_path):
    # Transient failure: the first attempt plants the sentinel and
    # crashes; the fresh-pool retry sees it and succeeds.  The sentinel
    # lives on disk because the retry runs in a different process.
    if os.path.exists(sentinel_path):
        return greeting
    with open(sentinel_path, "w") as fh:
        fh.write("tried")
    raise RuntimeError("transient telemetry hiccup")


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


class TestRetryPath:
    def test_transient_failure_recovers_on_retry(self, tmp_path):
        from repro.obs import RunTracer

        steady = tmp_path / "steady"
        steady.write_text("tried")
        tracer = RunTracer.for_run_dir(tmp_path)
        results = fan_out(
            _fail_once,
            ("recovered",),
            [
                ("flaky", (str(tmp_path / "flaky"),)),
                ("steady", (str(steady),)),
            ],
            jobs=2,
            tracer=tracer,
        )
        tracer.close()
        # The retry worker got the shared greeting through the
        # initializer of its fresh pool.
        assert results == {"flaky": "recovered", "steady": "recovered"}
        assert [e["key"] for e in tracer.of_type("task_retry")] == ["flaky"]
        assert {
            e["key"]: e["retried"] for e in tracer.of_type("task_done")
        } == {"flaky": True, "steady": False}
        assert [e["attempts"] for e in tracer.timing_events] == [2, 1]

    def test_double_timeout_reports_both_attempts(self, monkeypatch):
        monkeypatch.setattr(engine, "FAN_WAIT_S", 0.3)
        results = fan_out(
            _sleep, (), [("t", (2.0,)), ("quick", (0.0,))], jobs=2
        )
        failed = results["t"]
        assert isinstance(failed, FailedRun)
        assert failed.attempts == 2
        assert "timed out" in failed.error
        assert "retry:" in failed.error
        # Both attempts burned at least their waits; the failure
        # carries the submit-to-final-failure wall time.
        assert failed.elapsed_s >= 0.6
        assert results["quick"] == 0.0

    def test_failed_line_carries_attempts_and_elapsed(self):
        failure = FailedRun(
            key=("s", "P"), error="boom", attempts=2, elapsed_s=12.34
        )
        line = failed_line(("s", "P"), failure)
        assert "FAILED ('s', 'P')" in line
        assert "2 attempt(s)" in line
        assert "12.3s" in line
        assert "boom" in line


def _double(x):
    return 2 * x


class TestTaskEvents:
    def test_traced_pool_emits_lifecycle_and_timing(self, tmp_path):
        from repro.obs import RunTracer
        from repro.obs.report import render_report

        tracer = RunTracer.for_run_dir(tmp_path)
        results = fan_out(
            _double,
            (),
            [("a", (1,)), ("b", (2,))],
            jobs=2,
            tracer=tracer,
        )
        tracer.close()
        assert results == {"a": 2, "b": 4}
        starts = tracer.of_type("task_start")
        dones = tracer.of_type("task_done")
        assert [e["key"] for e in starts] == ["a", "b"]
        assert [e["key"] for e in dones] == ["a", "b"]
        assert all(not e["retried"] for e in dones)
        times = tracer.timing_events
        assert [e["event"] for e in times] == ["task_time", "task_time"]
        assert [e["key"] for e in times] == ["a", "b"]
        assert all(
            e["elapsed_s"] >= 0.0 and e["attempts"] == 1 and not e["failed"]
            for e in times
        )
        assert "task_elapsed_s: n=2 " in render_report(tmp_path)

    def test_untraced_pool_emits_nothing(self, tmp_path):
        from repro.obs import RunTracer

        results = fan_out(_double, (), [("a", (3,)), ("b", (4,))], jobs=2)
        assert results == {"a": 6, "b": 8}
        # In-process runs emit no task events even with a tracer: the
        # engines trace themselves there.
        tracer = RunTracer.for_run_dir(tmp_path)
        assert fan_out(_double, (), [("a", (3,))], 2, tracer) == {"a": 6}
        tracer.close()
        assert not tracer.of_type("task_start")
        assert not tracer.timing_events


class TestCountFailures:
    def test_walks_nested_containers_and_dataclasses(self):
        boom = FailedRun(key="k", error="e", attempts=2)
        from repro.experiments.telemetry import TelemetryResult

        nested = TelemetryResult(
            results={
                "clean": {"EPACT": object(), "R": boom},
                "lossy": {"EPACT": boom},
            },
            schedules={},
        )
        assert count_failures(boom) == 1
        assert count_failures({"a": [boom, boom], "b": 3}) == 2
        assert count_failures(nested) == 2
        assert count_failures({"fine": [1, 2, (3,)]}) == 0
        assert count_failures(None) == 0
        # The FailedRun *class* (vs an instance) is not a failure.
        assert count_failures(FailedRun) == 0


def _records(value, path=()):
    """Every run's records in a sweep result, keyed by their path."""
    if hasattr(value, "records"):
        return {path: value.records}
    out = {}
    for key, child in value.items():
        out.update(_records(child, path + (key,)))
    return out


class TestSweepParity:
    """Every sweep's ``jobs=2`` run equals its serial run, record for
    record (``test_fault_equivalence.py`` holds the faults sweep's)."""

    @pytest.mark.parametrize(
        "run, kwargs",
        [
            (
                run_cloud,
                dict(max_servers=12, scenario_names=["zero-churn", "steady"]),
            ),
            (
                run_telemetry,
                dict(max_servers=12, scenario_names=["clean", "lossy-10pct"]),
            ),
            (
                run_hybrid,
                dict(total_servers=12, mix_names=["all-ntc", "hybrid-50/50"]),
            ),
        ],
        ids=["cloud", "telemetry", "hybrid"],
    )
    def test_jobs_two_equals_serial(self, run, kwargs):
        kwargs = dict(kwargs, n_vms=24, n_days=9, n_slots=10)
        serial, fanned = (run(jobs=jobs, **kwargs) for jobs in (1, 2))
        for field in ("results", "fixed", "churn"):
            if hasattr(serial, field):
                want = _records(getattr(serial, field))
                got = _records(getattr(fanned, field))
                assert list(got) == list(want)
                for path, records in want.items():
                    assert got[path] == records, path


def _refuse(self, ctx):
    raise RuntimeError("allocator offline")


def _tiny_dataset(n_vms, n_days, seed):
    return default_dataset(n_vms=12, n_days=n_days, seed=seed)


class TestRunnerExitCode:
    def test_failures_make_exit_nonzero(self, monkeypatch, capsys):
        monkeypatch.setitem(
            runner.EXPERIMENTS,
            "fake",
            lambda full, jobs, obs: ("boom", 2, None),
        )
        assert runner.main(["fake"]) == 1
        captured = capsys.readouterr()
        assert "2 run(s) FAILED after retry" in captured.err

    def test_clean_sweep_exits_zero(self, monkeypatch, capsys):
        monkeypatch.setitem(
            runner.EXPERIMENTS,
            "fake",
            lambda full, jobs, obs: ("fine", 0, None),
        )
        assert runner.main(["fake"]) == 0
        assert "FAILED" not in capsys.readouterr().err

    def test_failed_figure_runs_print_failed_lines(self, monkeypatch, capsys):
        """A policy run that fails twice under ``--jobs 2`` prints its
        FAILED line in place of the figure and fails the exit code."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit the patched policy")
        monkeypatch.setattr(fig456, "default_dataset", _tiny_dataset)
        monkeypatch.setattr(fig7, "default_dataset", _tiny_dataset)
        # COAT-OPT inherits COAT's allocate: both fail, EPACT runs.
        monkeypatch.setattr(CoatPolicy, "allocate", _refuse)
        assert runner.main(["fig456", "fig7", "--jobs", "2"]) == 1
        out, err = capsys.readouterr()
        assert "FAILED COAT after 2 attempt(s)" in out
        assert "FAILED COAT-OPT after 2 attempt(s)" in out
        for static_w in (5, 15, 25, 35, 45):
            assert f"FAILED {static_w} after 2 attempt(s)" in out
        assert "RuntimeError: allocator offline" in out
        assert "Fig. 4" not in out
        assert "savings decrease" not in out
        assert "7 run(s) FAILED after retry" in err

    def test_failed_hyperscale_region_prints_failed_line(self):
        """The fleet totals need every region, so a failed (policy,
        region) run prints its FAILED line in place of the table and
        counts towards the exit code."""
        from repro.experiments import hyperscale
        from repro.shard import GeoRunResult

        failure = FailedRun(key=("EPACT", "r1"), error="boom", attempts=2)
        run = (
            hyperscale.PROFILES["tiny"],
            GeoRunResult(results={"EPACT": {"r1": failure}}, routes={"r1": 3}),
        )
        text = hyperscale.render(run)
        assert "FAILED ('EPACT', 'r1') after 2 attempt(s)" in text
        assert "energy [MJ]" not in text
        assert count_failures(run) == 1
