"""Pool retry path, failure counting, and the CLI's exit code.

Complements the hardened-pool tests in ``test_fault_equivalence.py``:
those prove failures are *isolated*; these prove the retry actually
*recovers* transient failures (fail once, succeed on the fresh-pool
retry), that a persistent timeout burns both attempts, that failures
carry their cost (elapsed seconds, attempt count) into the FAILED
summary line, that the pool emits task lifecycle events when traced,
and that any surviving :class:`FailedRun` anywhere in an experiment
result makes ``repro-experiments`` exit non-zero.
"""

import time

from repro.experiments import runner
from repro.experiments.pool import (
    FailedRun,
    count_failures,
    failed_line,
    run_tasks,
    split_failures,
)


def _fail_once(sentinel_path):
    # Transient failure: the first attempt plants the sentinel and
    # crashes; the fresh-pool retry sees it and succeeds.  The sentinel
    # lives on disk because the retry runs in a different process.
    import os

    if os.path.exists(sentinel_path):
        return "recovered"
    with open(sentinel_path, "w") as fh:
        fh.write("tried")
    raise RuntimeError("transient telemetry hiccup")


def _sleep_forever(x):
    time.sleep(2.0)
    return x


class TestRetryPath:
    def test_transient_failure_recovers_on_retry(self, tmp_path):
        sentinel = str(tmp_path / "attempted")
        results = run_tasks(
            _fail_once, [("flaky", (sentinel,))], jobs=1
        )
        assert results["flaky"] == "recovered"
        ok, failed = split_failures(results)
        assert not failed

    def test_double_timeout_reports_both_attempts(self):
        results = run_tasks(
            _sleep_forever, [("t", (1,))], jobs=1, timeout_s=0.3
        )
        failed = results["t"]
        assert isinstance(failed, FailedRun)
        assert failed.attempts == 2
        assert "timed out" in failed.error
        assert "retry:" in failed.error
        # Both attempts burned at least their timeouts; the failure
        # carries the submit-to-final-failure wall time.
        assert failed.elapsed_s >= 0.6

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
        results = run_tasks(
            _double,
            [("a", (1,)), ("b", (2,))],
            jobs=1,
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
        results = run_tasks(_double, [("a", (3,))], jobs=1)
        assert results == {"a": 6}


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
