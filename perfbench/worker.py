"""One benchmark iteration in a fresh process.

Usage (from the checkout root; ``run.py`` drives this)::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        [--spans-out FILE]

Sets the workload up ``SETUP_REPS`` times (keeping the last), runs it
once, and prints one JSON object: set-up and run times, the decision
gaps, peak RSS, the output digest, the output check's problems and,
with ``--trace 1``, the per-layer split.  Without tracing only the
policy calls that start a decision are wrapped, to time the gaps
between decisions; with tracing every layer boundary in
:func:`perfbench.workloads.layer_targets` is.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import probe  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    clock,
    digest,
    is_forecast,
    is_policy,
    layer_targets,
)

RUNGS = ("fresh", "stale", "persistence", "reactive-only")
#: Set-ups per iteration; the median of all of them is ``setup_s``.
SETUP_REPS = 3
#: Bursts this close (s) to a decision window calibrate its time.
LOCAL_S = 0.1
#: Where iterations write (the serve workload's checkpoint file).
WORKDIR = ROOT / "perfbench" / "out"


def window_gaps(
    starts: Sequence[float], run_start: float, run_end: float
) -> List[float]:
    """Gaps (ms) between consecutive allocation windows.

    ``starts`` are the times each window's decision started — the
    first window's gap starts at ``run_start`` instead, and the last one
    ends at ``run_end``, so the gaps sum to the run time.
    """
    points = [run_start, *starts[1:], run_end]
    return [1e3 * (b - a) for a, b in zip(points, points[1:])]


def slot_decisions(
    windows: Sequence[Tuple[int, float]], n_slots: int, n_fleets: int = 1
) -> List[float]:
    """Per evaluated slot and fleet, the time (ms) spent deciding it.

    ``windows`` holds ``(slots in the window, gap ms)`` in run order;
    each run (one policy on one fleet) covers the same ``n_slots``
    evaluated slots, and the runs of one fleet come one after another.
    A window's gap is split evenly over its slots, and the shares of
    every run on a fleet add up: on one fleet, a slot's decision time
    is what all the compared policies spent on it.

    Raises:
        ValueError: when the windows do not tile whole runs per fleet.
    """
    sizes = [n for n, _ in windows]
    n_runs, rest = divmod(sum(sizes), n_slots)
    if rest or n_runs % n_fleets:
        raise ValueError(
            f"windows cover {sum(sizes)} slots, not whole runs of "
            f"{n_slots} on {n_fleets} fleet(s)"
        )
    per_fleet = n_runs // n_fleets
    out = [0.0] * (n_fleets * n_slots)
    slot = 0
    for n_window, gap in windows:
        for k in range(n_window):
            run, offset = divmod(slot + k, n_slots)
            out[(run // per_fleet) * n_slots + offset] += gap / n_window
        slot += n_window
    return out


def serve_windows(decisions, gaps_ms: Sequence[float]) -> Dict[str, float]:
    """``serve.*`` metrics classified from the decisions and their gaps."""
    from repro.units import SLOTS_PER_DAY

    refit, ckpt, plain = [], [], []
    prev_day = None
    for decision, gap in zip(decisions, gaps_ms):
        day = decision.slot // SLOTS_PER_DAY
        if day != prev_day:
            refit.append(gap)
        elif decision.checkpointed:
            ckpt.append(gap)
        else:
            plain.append(gap)
        prev_day = day
    out = {
        "serve.refit_window_ms.p50": percentile(refit, 50) if refit else 0.0,
        "serve.checkpoint_window_ms.p50": (
            percentile(ckpt, 50) if ckpt else 0.0
        ),
        "serve.plain_window_ms.p50": percentile(plain, 50) if plain else 0.0,
        "serve.checkpoints": sum(d.checkpointed for d in decisions),
        "serve.imputed_samples": sum(d.imputed_samples for d in decisions),
        "serve.blind_windows": sum(d.blind for d in decisions),
    }
    for rung in RUNGS:
        out[f"serve.rung.{rung}"] = sum(d.rung == rung for d in decisions)
    return out


def layer_metrics(
    spans: Sequence[probe.Span], run_s: float
) -> Dict[str, float]:
    """The per-layer split of one traced run, from its spans."""

    def named(target):
        return lambda name: name == target

    out: Dict[str, float] = {}
    forecast_s, out["forecast.calls"] = probe.busy(spans, is_forecast)
    out["forecast.busy_s"] = forecast_s
    out["core.size_slot.busy_s"], _ = probe.busy(spans, named("core.size_slot"))
    placed = forced = 0
    alloc_s = 0.0
    for which in ("allocate_1d", "allocate_2d"):
        name = f"core.{which}"
        busy_s, calls = probe.busy(spans, named(name))
        out[f"{name}.busy_s"], out[f"{name}.calls"] = busy_s, calls
        alloc_s += busy_s
        for span in spans:
            if span[probe.NAME] == name and span[probe.INFO] is not None:
                placed += span[probe.INFO][0]
                forced += span[probe.INFO][1]
    out["core.vms_placed"] = placed
    out["core.placements_per_s"] = placed / alloc_s if alloc_s > 0 else 0.0
    out["core.forced_frac"] = forced / placed if placed else 0.0
    for name in ("baselines.coat", "baselines.coat_opt", "shard.cluster_vms"):
        out[f"{name}.busy_s"], out[f"{name}.calls"] = probe.busy(
            spans, named(name)
        )
    policy_s, _ = probe.busy(spans, is_policy)
    out["policy.busy_s"] = policy_s
    out["policy.share"] = policy_s / run_s
    out["dcsim.self_s"] = run_s - forecast_s - policy_s
    out["dcsim.share"] = out["dcsim.self_s"] / run_s
    return out


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def iterate(
    workload: str,
    seed: int,
    traced: bool,
    setup_reps: int = 1,
    workdir: str = ".",
    small: bool = False,
    spans_out: str = None,
) -> Dict:
    """Set up, run and check one workload once (in this process)."""
    wl = WORKLOADS[workload]
    calib = Calibrator()
    recorder = probe.Recorder()
    targets = layer_targets() if traced else wl.decision_targets()
    setups = []
    state = None
    with calib.sampling():
        for _ in range(max(1, setup_reps)):
            state = None
            gc.collect()
            t0 = clock()
            state, parts = wl.setup(seed, workdir, small)
            setups.append(dict(parts, start=t0, end=clock()))
        gc.collect()
        with probe.patched(recorder, targets):
            t0 = clock()
            outputs, extras = wl.run(state)
            t1 = clock()

    # Every timing below runs on the clock that skips calibration bursts.
    v = calib.virtual
    for s in setups:
        for part in ("traces", "telemetry"):
            s[part] = sum(v(b) - v(a) for a, b in s[part])
        start, end = s.pop("start"), s.pop("end")
        s["total"] = v(end) - v(start)
        s["engine"] = s["total"] - s["traces"] - s["telemetry"]
        s["speed"] = calib.speed(start, end)
    spans = recorder.spans
    if wl.decision_policies:
        roots = probe.roots(spans, is_policy)
        starts = [span[probe.START] for span in roots]
        sizes = [span[probe.INFO] for span in roots]
    else:
        starts = [t0, *extras["yields"][:-1]]
        sizes = [d.n_window for d in extras["decisions"]]
    # Each window is calibrated by the bursts around it: host speed
    # changes within seconds, and a slow moment should not read as a
    # slow decision.
    raw = [t0, *starts[1:], t1]
    speeds = [
        calib.speed(a - LOCAL_S, b + LOCAL_S) for a, b in zip(raw, raw[1:])
    ]
    for span in spans:
        span[probe.START] = v(span[probe.START])
        span[probe.END] = v(span[probe.END])
    gaps = window_gaps([v(t) for t in starts], v(t0), v(t1))
    calibrated = [g * k for g, k in zip(gaps, speeds)]
    n_slots = len(next(iter(outputs.values())))
    fleets = extras.get("fleets", 1)

    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup": setups,
        "run_s": v(t1) - v(t0),
        "run_s_cal": sum(calibrated) / 1e3,
        "speed": calib.speed(t0, t1),
        "calibration_bursts": len(calib.bursts),
        "decision_ms": slot_decisions(
            list(zip(sizes, calibrated)), n_slots, fleets
        ),
        "decision_ms_raw": slot_decisions(
            list(zip(sizes, gaps)), n_slots, fleets
        ),
        "digest": digest(outputs),
        "problems": wl.check(state, outputs, extras),
    }
    if "decisions" in extras:
        out["serve"] = serve_windows(extras["decisions"], gaps)
        out["serve"]["serve.checkpoint_bytes"] = extras["checkpoint_bytes"]
    if traced:
        run_spans = [s for s in spans if s[probe.START] >= v(t0)]
        out["layers"] = layer_metrics(run_spans, out["run_s"])
        out["self_sum_s"] = sum(probe.self_times(run_spans))
        if spans_out:
            with open(spans_out, "w", encoding="utf-8") as fh:
                json.dump(probe.dump(spans), fh)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        out = iterate(
            args.workload,
            args.seed,
            bool(args.trace),
            setup_reps=SETUP_REPS,
            workdir=str(WORKDIR),
            spans_out=args.spans_out,
        )
    except Exception:  # the parent counts this iteration as failed
        out = {"error": traceback.format_exc()}
    out["wall_s"] = time.perf_counter() - started
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
