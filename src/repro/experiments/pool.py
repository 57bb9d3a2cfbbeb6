"""Hardened process-pool runner for experiment sweeps.

The experiment drivers fan (scenario, policy) pairs out over a
``ProcessPoolExecutor``.  The naive pattern — ``future.result()`` with
no timeout inside a ``with`` block — has two failure modes that kill a
whole sweep:

* a single wedged worker (e.g. a BLAS deadlock after fork) blocks the
  sweep forever;
* one crashed task raises mid-collection and throws away every other
  finished result.

:func:`run_tasks` fixes both: every task gets a per-wait timeout and
one bounded retry in a fresh single-worker pool, and tasks that still
fail come back as :data:`FailedRun` markers *in* the result mapping —
the sweep completes and reports what it could compute.  Use
:func:`split_failures` to separate the survivors from the failures.

Every task is also timed: successes wall-clock their own execution in
the worker, failures accumulate submit-to-final-failure time in the
parent, and :class:`FailedRun` carries both the elapsed seconds and
the attempt count so a FAILED summary line (:func:`failed_line`) says
how much was burned before giving up.  With a tracer, task lifecycle
events (``task_start`` / ``task_done`` / ``task_retry`` /
``task_failed``) land on the event channel and per-task wall times on
the timing channel.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Sequence, Tuple


@dataclass(frozen=True)
class FailedRun:
    """Marker for a task that failed after its retry.

    Attributes:
        key: the task's key as passed to :func:`run_tasks`.
        error: a one-line description of the final failure.
        attempts: how many times the task was actually tried (2 for
            the pooled run plus its retry; 1 when the retry could not
            even be submitted).
        elapsed_s: wall-clock seconds from first submission to the
            final failure, timeouts and retry included.
    """

    key: Hashable
    error: str
    attempts: int
    elapsed_s: float = 0.0


def failed_line(key: Hashable, failure: FailedRun) -> str:
    """The house FAILED summary line for one :class:`FailedRun`.

    Shared by the experiment renderers so every report surfaces the
    same facts: what failed, how often it was tried, how long it
    burned, and the final error.
    """
    return (
        f"  FAILED {key} after {failure.attempts} attempt(s) in "
        f"{failure.elapsed_s:.1f}s: {failure.error}"
    )


def _timed_call(fn: Callable, *args) -> Tuple[float, Any]:
    """Worker-side wrapper: ``(own wall seconds, fn(*args))``.

    Timing inside the worker excludes queueing, so a successful task's
    ``elapsed_s`` measures the task, not the pool's backlog.
    Module-level so it pickles.
    """
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_tasks(
    fn: Callable,
    tasks: Sequence[Tuple[Hashable, Tuple]],
    jobs: int,
    timeout_s: float = 900.0,
    tracer=None,
) -> Dict[Hashable, Any]:
    """Run ``fn(*args)`` for every ``(key, args)`` task over a pool.

    Results come back keyed and in task order; a task that times out or
    raises is retried once in a fresh single-worker pool (a fresh
    interpreter sidesteps wedged-worker state), and if the retry also
    fails its slot holds a :class:`FailedRun` instead of raising.

    Args:
        fn: a picklable callable (module-level function).
        tasks: ``(key, args)`` pairs; keys must be unique.
        jobs: worker processes for the shared pool.
        timeout_s: per-wait timeout; generous by default so only a
            genuinely wedged worker trips it.
        tracer: optional :class:`~repro.obs.tracer.RunTracer`; emits
            task lifecycle events in the parent (tracers never cross
            the pickle boundary into workers) plus per-task wall times
            on the timing channel.

    Returns:
        ``{key: result-or-FailedRun}`` in task insertion order.
    """
    keys = [key for key, _ in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("run_tasks keys must be unique")
    traced = tracer is not None and getattr(tracer, "enabled", False)
    results: Dict[Hashable, Any] = {}
    elapsed: Dict[Hashable, float] = {}
    retried: set = set()
    retry: Dict[Hashable, Tuple[Tuple, str]] = {}
    submitted_at: Dict[Hashable, float] = {}

    pool = ProcessPoolExecutor(max_workers=max(1, int(jobs)))
    try:
        futures = {}
        for key, args in tasks:
            if traced:
                tracer.emit("task_start", key=str(key))
            submitted_at[key] = time.perf_counter()
            futures[key] = pool.submit(_timed_call, fn, *args)
        for key, args in tasks:
            try:
                elapsed[key], results[key] = futures[key].result(
                    timeout=timeout_s
                )
            except TimeoutError:
                futures[key].cancel()
                retry[key] = (args, f"timed out after {timeout_s:.0f}s")
                results[key] = None  # placeholder, keeps insertion order
            except Exception as exc:  # worker died or task raised
                retry[key] = (args, f"{type(exc).__name__}: {exc}")
                results[key] = None
    finally:
        # A wedged worker would make a waiting shutdown hang forever;
        # only wait when every task came back clean.
        pool.shutdown(wait=not retry, cancel_futures=bool(retry))

    for key, (args, first_error) in retry.items():
        retried.add(key)
        if traced:
            tracer.emit("task_retry", key=str(key), error=first_error)
        attempts = 1
        try:
            solo = ProcessPoolExecutor(max_workers=1)
            try:
                attempts = 2
                elapsed[key], results[key] = solo.submit(
                    _timed_call, fn, *args
                ).result(timeout=timeout_s)
            finally:
                solo.shutdown(wait=False, cancel_futures=True)
        except Exception as exc:
            # Failures never report a clean in-worker time; what they
            # cost the sweep is everything since first submission.
            burn = time.perf_counter() - submitted_at[key]
            results[key] = FailedRun(
                key=key,
                error=(
                    f"first attempt: {first_error}; "
                    f"retry: {type(exc).__name__}: {exc}"
                ),
                attempts=attempts,
                elapsed_s=burn,
            )

    if not traced:
        return results
    for key, _ in tasks:
        value = results[key]
        failed = isinstance(value, FailedRun)
        if failed:
            tracer.emit(
                "task_failed",
                key=str(key),
                error=value.error,
                attempts=value.attempts,
            )
        else:
            tracer.emit(
                "task_done", key=str(key), retried=key in retried
            )
        tracer.timing(
            "task_time",
            key=str(key),
            elapsed_s=value.elapsed_s if failed else elapsed[key],
            attempts=(
                value.attempts
                if failed
                else (2 if key in retried else 1)
            ),
            failed=failed,
        )
    return results


def split_failures(
    results: Dict[Hashable, Any]
) -> Tuple[Dict[Hashable, Any], Dict[Hashable, FailedRun]]:
    """Partition a :func:`run_tasks` mapping into (ok, failed)."""
    ok = {
        key: value
        for key, value in results.items()
        if not isinstance(value, FailedRun)
    }
    failed = {
        key: value
        for key, value in results.items()
        if isinstance(value, FailedRun)
    }
    return ok, failed


def count_failures(value: Any) -> int:
    """Count :class:`FailedRun` markers anywhere inside a result.

    Experiment drivers return nested containers (dicts of dicts,
    dataclasses holding result mappings); this walks dicts, lists,
    tuples and dataclass fields so the CLI can turn "any run failed
    after retry" into a non-zero exit code without each driver growing
    its own traversal.
    """
    if isinstance(value, FailedRun):
        return 1
    if isinstance(value, dict):
        return sum(count_failures(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(count_failures(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            count_failures(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return 0
