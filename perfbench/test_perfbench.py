"""Tests for the benchmark's own helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import math
import signal
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import probe
from perfbench.calibrate import REFERENCE_UNIT_S, Calibrator
from perfbench.run import END_TO_END_UNITS, layer_unit, per_layer
from perfbench.stats import percentile, samples_beyond, summary, tail_supported
from perfbench.worker import iterate, slot_decisions, window_gaps

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


# -- percentile rule ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert tail_supported(100, 90)
    assert not tail_supported(99, 90)
    assert tail_supported(216, 95)  # 10.8 beyond: p95 is the highest
    assert not tail_supported(216, 96)
    assert not tail_supported(32, 90)  # a hyperscale-20k run's 4-slot pool


def test_percentile_matches_numpy_and_summary_quartiles():
    rng = np.random.default_rng(3)
    values = list(rng.lognormal(size=57))
    for q in (0, 10, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    s = summary([1.0, 2.0, 3.0, 4.0])
    assert (s["median"], s["n"]) == (2.5, 4)
    assert summary([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}


def test_window_gaps_cover_the_run():
    starts = [1.0, 1.5, 2.25, 4.0]
    gaps = window_gaps(starts, 0.5, 5.0)
    assert len(gaps) == len(starts)
    assert math.fsum(gaps) == pytest.approx(1e3 * 4.5)
    assert gaps[0] == pytest.approx(1e3 * 1.0)  # run start -> 2nd window


def test_slot_decisions_add_runs_and_split_long_windows():
    # run 1: four 1-slot windows; run 2: one 4-slot window
    windows = [(1, 1.0), (1, 2.0), (1, 3.0), (1, 4.0), (4, 8.0)]
    assert slot_decisions(windows, 4) == [3.0, 4.0, 5.0, 6.0]
    # the same runs on two fleets stay apart
    assert slot_decisions(windows, 4, n_fleets=2) == [
        1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 2.0, 2.0,
    ]
    with pytest.raises(ValueError, match="whole runs"):
        slot_decisions(windows[:3], 4)
    with pytest.raises(ValueError, match="whole runs"):
        slot_decisions(windows, 4, n_fleets=3)


# -- wrappers and proxies are transparent ------------------------------------


def test_wrapper_passes_arguments_results_and_exceptions_through():
    rec = probe.Recorder()

    def f(a, b=2, *rest, **kw):
        if a is None:
            raise KeyError("boom")
        return (a, b, rest, kw)

    wrapped = rec.wrap(f, "f", info=lambda args, result: len(args))
    payload = object()
    assert wrapped(payload, 3, 4, x=5) == (payload, 3, (4,), {"x": 5})
    assert wrapped.__name__ == "f" and wrapped.__wrapped__ is f
    with pytest.raises(KeyError, match="boom"):
        wrapped(None)
    assert [s[probe.NAME] for s in rec.spans] == ["f", "f"]
    assert rec.spans[0][probe.INFO] == 3
    assert all(s[probe.END] >= s[probe.START] for s in rec.spans)
    assert rec._open == []  # the failed call's span was closed


def test_patched_restores_module_and_class_attributes():
    module = types.SimpleNamespace(double=lambda x: 2 * x)

    class Policy:
        def allocate(self, ctx):
            return ("plan", ctx)

    class Sub(Policy):
        pass

    original_fn = module.double
    original_method = Policy.__dict__["allocate"]
    rec = probe.Recorder()
    targets = [
        (module, "double", "mod.double", None),
        (Policy, "allocate", lambda args: type(args[0]).__name__, None),
    ]
    with probe.patched(rec, targets):
        assert module.double(21) == 42
        ctx = object()
        assert Sub().allocate(ctx) == ("plan", ctx)
    assert module.double is original_fn
    assert Policy.__dict__["allocate"] is original_method
    assert [s[probe.NAME] for s in rec.spans] == ["mod.double", "Sub"]
    with pytest.raises(AttributeError, match="inherited"):
        with probe.patched(rec, [(Sub, "allocate", "x", None)]):
            pass
    assert "allocate" not in vars(Sub)


def test_nested_spans_self_time_and_busy():
    ticks = iter(range(100))
    rec = probe.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    inner = rec.wrap(leaf, "layer")

    def outer_fn():
        return inner() + inner()

    outer = rec.wrap(outer_fn, "layer")
    assert outer() == 2
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert probe.self_times(rec.spans) == [3.0, 1.0, 1.0]
    busy_s, calls = probe.busy(rec.spans, lambda n: n == "layer")
    assert (busy_s, calls) == (5.0, 3)  # nested calls count once in time
    assert probe.roots(rec.spans, lambda n: n == "layer") == [rec.spans[0]]


# -- calibration -------------------------------------------------------------


def test_virtual_clock_skips_bursts():
    ticks = iter(range(1000))
    calib = Calibrator(clock=lambda: float(next(ticks)))
    calib.burst(0.5)  # start 0, one unit [1, 2], ends at 2
    assert calib.bursts == [(0.0, 2.0, 1, 1.0)]
    assert calib.virtual(0.0) == 0.0
    assert calib.virtual(1.0) == 0.0  # inside the burst: clock stands still
    assert calib.virtual(2.0) == 0.0
    assert calib.virtual(7.0) == 5.0
    calib.burst(0.5)  # [3, 5]
    assert calib.virtual(9.0) == 5.0
    assert calib.speed() == pytest.approx(REFERENCE_UNIT_S)
    assert calib.speed(2.5, 9.0) == pytest.approx(REFERENCE_UNIT_S)


def test_sampling_interrupts_and_restores_the_timer():
    calib = Calibrator(every_s=0.02, burst_s=0.002)
    previous = signal.getsignal(signal.SIGALRM)
    with calib.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.15:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(calib.bursts) >= 2
    paused = sum(b - a for a, b, _, _ in calib.bursts if a >= t0 and b <= t1)
    assert calib.virtual(t1) - calib.virtual(t0) == pytest.approx(
        t1 - t0 - paused, abs=0.01
    )
    assert calib.speed() > 0.0


# -- workloads: digests are stable and tracing leaves them unchanged ---------


@pytest.mark.parametrize(
    "workload", ["paper-week", "hyperscale-20k", "serve-lossy-churn"]
)
def test_digest_stable_and_traced_run_transparent(workload, tmp_path):
    plain = iterate(workload, 5, traced=False, workdir=str(tmp_path), small=True)
    again = iterate(workload, 5, traced=False, workdir=str(tmp_path), small=True)
    traced = iterate(workload, 5, traced=True, workdir=str(tmp_path), small=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == again["digest"] == traced["digest"]
    assert traced["self_sum_s"] <= traced["run_s"]
    assert math.fsum(plain["decision_ms_raw"]) == pytest.approx(
        1e3 * plain["run_s"]
    )
    assert math.fsum(plain["decision_ms"]) == pytest.approx(
        1e3 * plain["run_s_cal"]
    )
    other = iterate(workload, 6, traced=False, workdir=str(tmp_path), small=True)
    assert other["digest"] != plain["digest"]

    layers = per_layer([plain], [traced])
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert layer_unit(m["name"]) == m["unit"]
    assert layers["dcsim.self_s"] >= 0.0
    assert layers["policy.busy_s"] > 0.0


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        END_TO_END_UNITS
    )
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
