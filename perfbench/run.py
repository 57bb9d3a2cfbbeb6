"""The repository's benchmark of record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-week --seed 2018 \
        --seconds 40 --trace 0

Runs the workload in fresh worker processes (``perfbench/worker.py``),
one after another, for about ``--seconds`` seconds, checks every
iteration's simulated output, prints each metric by name with its unit
(median, quartiles and sample count) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, in host seconds scaled to
a reference host speed measured during each iteration (see
``perfbench/calibrate.py``).  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer split of the traced ones,
plus the tracing overhead.  Every result, with the machine fingerprint
and the raw host seconds, is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from perfbench.stats import (  # noqa: E402
    percentile,
    summary,
    tail_supported,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

#: A whole run must end well inside this many seconds.
HARD_LIMIT_S = 170.0
#: Single-threaded BLAS: the load is one process on one core, so a
#: second BLAS thread cannot contend with the interpreter for the box.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decision_p50_ms": "ms",
    "decision_p90_ms": "ms",
}

SERVE_KEYS = (
    "serve.refit_window_ms.p50",
    "serve.checkpoint_window_ms.p50",
    "serve.plain_window_ms.p50",
    "serve.checkpoints",
    "serve.checkpoint_bytes",
    "serve.imputed_samples",
    "serve.blind_windows",
    "serve.rung.fresh",
    "serve.rung.stale",
    "serve.rung.persistence",
    "serve.rung.reactive-only",
)


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith((".share", "_frac")):
        return "ratio"
    return "count"


def _load_digests() -> Dict[str, Dict[str, str]]:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _run_child(args, traced: bool, index: int, timeout: float) -> Dict:
    """One worker iteration; a crash or timeout is a failed iteration."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
    ]
    if traced:
        cmd += [
            "--spans-out",
            str(OUT / f"spans-{args.workload}-seed{args.seed}-{index}.json"),
        ]
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - started}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"worker exited {proc.returncode}: "
               f"{proc.stderr.strip()[-2000:]}"}
    out["wall_s"] = time.perf_counter() - started
    return out


def _iteration_problems(it: Dict, reference: str, stored) -> List[str]:
    if "error" in it:
        return [it["error"].strip().splitlines()[-1]]
    problems = list(it["problems"])
    if it["digest"] != reference:
        problems.append("digest differs from this run's first iteration")
    if stored is not None and it["digest"] != stored:
        problems.append("digest differs from the stored digest for this seed")
    if it.get("traced") and it["self_sum_s"] > it["run_s"]:
        problems.append(
            f"layer self times sum to {it['self_sum_s']:.4f} s, more than "
            f"run_s {it['run_s']:.4f} s"
        )
    return problems


def _median(values):
    return summary(values)["median"]


def end_to_end(ok: List[Dict], calibrated: bool = True) -> Dict[str, Dict]:
    """End-to-end metric summaries over the untraced iterations.

    Timings are scaled to the reference host speed by the calibration
    measured around them (see :mod:`perfbench.calibrate`);
    ``calibrated=False`` gives the raw host seconds.
    """
    run, decisions = (
        ("run_s_cal", "decision_ms") if calibrated else ("run_s", "decision_ms_raw")
    )
    gaps = [g for it in ok for g in it[decisions]]
    out = {
        "run_s": summary([it[run] for it in ok]),
        "setup_s": summary(
            [
                s["total"] * (s["speed"] if calibrated else 1.0)
                for it in ok
                for s in it["setup"]
            ]
        ),
        "peak_rss_mb": summary([it["peak_rss_mb"] for it in ok]),
    }
    for q in (50, 90):
        out[f"decision_p{q}_ms"] = {
            "median": percentile(gaps, q),
            "n": len(gaps),
            "tail_supported": tail_supported(len(gaps), q),
        }
    return out


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced iterations."""
    keys = list(traced[0]["layers"])
    out = {k: _median([it["layers"][k] for it in traced]) for k in keys}
    serve = [it.get("serve") for it in traced]
    for k in SERVE_KEYS:
        out[k] = _median([s[k] for s in serve]) if serve[0] else 0
    out["serve.policy.busy_s"] = out["policy.busy_s"] if serve[0] else 0.0
    out["serve.other_s"] = (
        _median([it["run_s"] for it in traced]) - out["policy.busy_s"]
        if serve[0]
        else 0.0
    )
    both = untraced + traced
    for part in ("traces", "telemetry", "engine"):
        out[f"setup.{part}_s"] = _median(
            [s[part] for it in both for s in it["setup"]]
        )
    # Calibrated run times, so a host-speed change is not read as overhead.
    base = _median([it["run_s_cal"] for it in untraced])
    out["trace.overhead_pct"] = 100.0 * (
        _median([it["run_s_cal"] for it in traced]) / base - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digest",
        action="store_true",
        help="store this run's output digest for the seed in digests.json",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program under test at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    OUT.mkdir(exist_ok=True)
    from perfbench.fingerprint import fingerprint

    stored = _load_digests().get(args.workload, {}).get(str(args.seed))
    started = time.perf_counter()
    iterations: List[Dict] = []
    walls: Dict[bool, float] = {}
    traced_next = False
    while True:
        elapsed = time.perf_counter() - started
        traced = bool(args.trace) and traced_next
        needed = 2 if args.trace else 1
        if len(iterations) >= needed:
            estimate = walls.get(traced, max(walls.values()))
            if elapsed + estimate > args.seconds:
                break
        remaining = HARD_LIMIT_S - elapsed
        if remaining < 5.0:
            break
        it = _run_child(args, traced, len(iterations), remaining)
        it.setdefault("traced", traced)
        walls[traced] = max(walls.get(traced, 0.0), it["wall_s"])
        iterations.append(it)
        if args.trace:
            traced_next = not traced_next

    reference = next((it["digest"] for it in iterations if "digest" in it), None)
    for it in iterations:
        it["problems"] = _iteration_problems(it, reference, stored)
    ok = [it for it in iterations if not it["problems"]]
    untraced = [it for it in ok if not it["traced"]]
    traced_ok = [it for it in ok if it["traced"]]
    attempted, failed = len(iterations), len(iterations) - len(ok)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} iterations, {failed} failed")
    for i, it in enumerate(iterations):
        for problem in it["problems"]:
            print(f"  iteration {i}: FAILED: {problem}")
    fp = fingerprint(ROOT)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if stored is None:
        print(f"digest {reference}: no stored digest for seed {args.seed}; "
              "checked against the invariants and across iterations")
    else:
        print(f"digest {reference}: stored digest for seed {args.seed} "
              + ("matches" if reference == stored else "DIFFERS"))

    if not untraced or (args.trace and not traced_ok):
        print("no successful iteration to measure", file=sys.stderr)
        return 1
    e2e = end_to_end(untraced)
    raw = end_to_end(untraced, calibrated=False)
    speeds = summary([it["speed"] for it in untraced])
    print(f"host speed vs reference: median {speeds['median']:.3f} "
          f"(q1 {speeds['q1']:.3f}, q3 {speeds['q3']:.3f}); timings below "
          "are reference-speed seconds, raw host seconds in brackets")
    metrics: Dict[str, Dict] = {}
    if args.trace:
        for name, value in per_layer(untraced, traced_ok).items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            print(f"  {name:34s} {value:>14.6g} {layer_unit(name)}")
    else:
        for name, s in e2e.items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": s["median"], "unit": unit}
            if "q1" in s:
                detail = f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
            else:
                detail = f"n {s['n']}"
                if not s["tail_supported"]:
                    detail += "  (fewer than 10 samples beyond it)"
            print(f"  {name:18s} {s['median']:>12.6g} {unit:3s} "
                  f"[{raw[name]['median']:.6g}]  {detail}")

    if args.record_digest and failed == 0:
        digests = _load_digests()
        digests.setdefault(args.workload, {})[str(args.seed)] = reference
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fp,
        "child_env": CHILD_ENV,
        "digest": reference,
        "stored_digest": stored,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "speed": speeds,
        "metrics": metrics,
        "iterations": iterations,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
