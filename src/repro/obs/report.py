"""The ``repro-experiments report <run-dir>`` audit renderer.

Reads a run directory written by ``repro-experiments --out DIR`` or
``repro-serve --out DIR`` (manifest, JSONL trace channels,
per-experiment summaries) and renders an energy-audit-style scored
report:

* a provenance header from the manifest (git rev, config hash, seed,
  library versions) so every number is traceable to an exact run;
* scored comparison tables per experiment group — energy and SLA debt
  graded A+..F relative to the best policy of the same group
  (:func:`repro.dcsim.reporting.score_letter`);
* degradation tables (imputed samples, stale/blind windows, fault
  migrations) wherever a group actually degraded;
* the event mix and the migration total of the allocation windows
  (event channel);
* a phase-time breakdown (forecast / policy / prepare / account, and
  checkpoint for a checkpointing streaming run) from the timing
  channel's ``phase_time`` events;
* per-pool attribution (mean active servers per fleet pool, from the
  allocation events) and the sweep tasks' elapsed-time summary and
  slowest tasks (timing channel).

Every event in both JSONL channels is validated against
:data:`repro.obs.tracer.EVENT_SCHEMAS` first; a violation fails the
report with a non-zero exit code — CI runs this command against a
freshly traced smoke run, so schema drift cannot land silently.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .manifest import MANIFEST_FILENAME, load_manifest
from .tracer import (
    TIMING_FILENAME,
    TRACE_FILENAME,
    TraceSchemaError,
    iter_trace_file,
    validate_event,
)

SUMMARY_FILENAME = "summary.json"

#: SlaSummary keys that mark a leaf policy-summary dict.
_SUMMARY_MARKER = "total_energy_mj"

#: Degradation columns: (summary key, table header).
_DEGRADATION_COLS = (
    ("imputed_samples", "imputed smp."),
    ("stale_forecast_windows", "stale wins."),
    ("blind_windows", "blind wins."),
    ("collector_downtime_minutes", "coll. down-min"),
    ("shed_vm_minutes", "shed VM-min"),
    ("fault_migrations", "fault migr."),
    ("capped_samples", "capped smp."),
)


def _load_summary(run_dir) -> Optional[dict]:
    path = os.path.join(run_dir, SUMMARY_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _validate_channels(run_dir, out: List[str]) -> Tuple[list, list]:
    """Validate both JSONL channels; return their decoded events."""
    events: list = []
    timing: list = []
    for filename, channel, store in (
        (TRACE_FILENAME, "event", events),
        (TIMING_FILENAME, "timing", timing),
    ):
        path = os.path.join(run_dir, filename)
        if not os.path.exists(path):
            continue
        for event in iter_trace_file(path):
            validate_event(event, channel=channel)
            store.append(event)
        out.append(
            f"  {filename}: {len(store)} event(s), schema OK"
        )
    return events, timing


def _policy_groups(
    node, path: Tuple[str, ...] = ()
) -> List[Tuple[Tuple[str, ...], Dict[str, dict]]]:
    """Find ``{policy: summary-dict}`` groups anywhere in the summary.

    A group is a dict whose values are leaf summary dicts (identified
    by the :data:`_SUMMARY_MARKER` key) or failure markers; the path of
    dict keys above it labels the table.
    """
    if not isinstance(node, dict):
        return []
    values = [v for v in node.values() if isinstance(v, dict)]
    if values and all(
        _SUMMARY_MARKER in v or v.get("failed") for v in values
    ):
        return [(path, node)]
    groups = []
    for key, child in node.items():
        groups.extend(_policy_groups(child, path + (str(key),)))
    return groups


def _scored_group_tables(label: str, group: Dict[str, dict]) -> List[str]:
    """Scored energy/SLA table (plus degradation table) for one group."""
    from ..dcsim.reporting import format_table, score_letter

    lines = [f"-- {label}"]
    ok = {
        name: s
        for name, s in group.items()
        if isinstance(s, dict) and _SUMMARY_MARKER in s
    }
    failed = {
        name: s
        for name, s in group.items()
        if isinstance(s, dict) and s.get("failed")
    }
    if ok:
        energies = [s["total_energy_mj"] for s in ok.values()]
        debts = [s.get("shed_vm_minutes", 0.0) for s in ok.values()]
        finite_e = [e for e in energies if e == e]
        finite_d = [d for d in debts if d == d]
        best_e = min(finite_e) if finite_e else float("nan")
        best_d = min(finite_d) if finite_d else float("nan")
        rows = []
        for name, s in ok.items():
            debt = s.get("shed_vm_minutes", 0.0)
            rows.append(
                [
                    name,
                    f"{s['total_energy_mj']:.1f}",
                    score_letter(s["total_energy_mj"], best_e),
                    s["total_violations"],
                    f"{s['violation_rate']:.4f}",
                    f"{debt:.0f}",
                    score_letter(debt, best_d),
                    s["total_migrations"],
                    f"{s['mean_active_servers']:.1f}",
                ]
            )
        lines.append(
            format_table(
                [
                    "policy",
                    "energy (MJ)",
                    "grade",
                    "viol.",
                    "viol. rate",
                    "SLA debt (VM-min)",
                    "grade",
                    "migr.",
                    "servers",
                ],
                rows,
            )
        )
        degraded_cols = [
            (key, header)
            for key, header in _DEGRADATION_COLS
            if any(s.get(key, 0) for s in ok.values())
        ]
        if degraded_cols:
            rows = [
                [name]
                + [
                    (
                        f"{s.get(key, 0):.0f}"
                        if isinstance(s.get(key, 0), float)
                        else s.get(key, 0)
                    )
                    for key, _ in degraded_cols
                ]
                for name, s in ok.items()
            ]
            lines.append("degradation:")
            lines.append(
                format_table(
                    ["policy"] + [h for _, h in degraded_cols], rows
                )
            )
    for name, s in failed.items():
        lines.append(
            f"  FAILED {name} after {s.get('attempts', '?')} attempt(s) "
            f"in {s.get('elapsed_s', 0.0):.1f}s: {s.get('error', '?')}"
        )
    return lines


def _phase_section(timing: list) -> List[str]:
    """Phase-time breakdown from the ``phase_time`` timing events."""
    from ..dcsim.reporting import format_table

    phases = [e for e in timing if e["event"] == "phase_time"]
    if not phases:
        return []
    total = sum(p["total_s"] for p in phases)
    rows = [
        [
            p["phase"],
            p["calls"],
            f"{p['total_s']:.3f}",
            f"{(p['total_s'] / total * 100.0) if total else 0.0:.1f}%",
            f"{p.get('max_s', 0.0) * 1.0e3:.1f}",
        ]
        for p in phases
    ]
    return [
        "phase-time breakdown:",
        format_table(
            ["phase", "calls", "total (s)", "share", "max (ms)"], rows
        ),
    ]


def _pool_attribution(events: list) -> List[str]:
    """Mean active servers per fleet pool, per traced policy run."""
    from ..dcsim.reporting import format_table

    per_policy: Dict[str, List[List[int]]] = {}
    current = "?"
    for event in events:
        kind = event["event"]
        if kind == "run_start":
            current = event.get("policy", "?")
        elif kind == "allocation_window" and "pool_active" in event:
            per_policy.setdefault(current, []).append(
                event["pool_active"]
            )
    if not per_policy:
        return []
    n_pools = max(
        len(sample) for rows in per_policy.values() for sample in rows
    )
    rows = []
    for policy, samples in per_policy.items():
        means = [0.0] * n_pools
        for sample in samples:
            for i, value in enumerate(sample):
                means[i] += value
        rows.append(
            [policy]
            + [f"{m / len(samples):.1f}" for m in means]
            + [len(samples)]
        )
    headers = (
        ["policy"]
        + [f"pool {i} (mean srv)" for i in range(n_pools)]
        + ["windows"]
    )
    return [
        "per-pool attribution (mean active servers per window):",
        format_table(headers, rows),
    ]


def _task_section(timing: list, top: int = 15) -> List[str]:
    from ..dcsim.reporting import format_table

    tasks = [e for e in timing if e["event"] == "task_time"]
    if not tasks:
        return []
    elapsed = [e["elapsed_s"] for e in tasks]
    lines = [
        f"task_elapsed_s: n={len(elapsed)} "
        f"mean={sum(elapsed) / len(elapsed):.3f} "
        f"min={min(elapsed):.3f} max={max(elapsed):.3f}"
    ]
    tasks.sort(key=lambda e: -e["elapsed_s"])
    rows = [
        [
            e["key"],
            f"{e['elapsed_s']:.2f}",
            e.get("attempts", 1),
            "yes" if e.get("failed") else "",
        ]
        for e in tasks[:top]
    ]
    lines.append(f"slowest sweep tasks (top {min(top, len(tasks))}):")
    lines.append(
        format_table(["task", "elapsed (s)", "attempts", "failed"], rows)
    )
    return lines


def render_report(run_dir) -> str:
    """Render the audit report for one run directory.

    Raises:
        TraceSchemaError: a trace file exists but contains an invalid
            or unknown event (the CLI turns this into exit code 1).
        FileNotFoundError: the directory does not exist.
    """
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    lines: List[str] = [f"audit report: {run_dir}", "=" * 72]

    manifest = load_manifest(run_dir)
    if manifest is not None:
        config = manifest.get("config", {})
        lines.append(
            f"rev {manifest.get('git_rev', '?')} · config "
            f"{manifest.get('config_hash', '?')} · seed "
            f"{manifest.get('seed', '?')} · python "
            f"{manifest.get('python', '?')} · numpy "
            f"{manifest.get('numpy', '?')}"
        )
        lines.append(
            f"created {manifest.get('created_utc', '?')} · experiments: "
            f"{', '.join(config.get('experiments', []) or ['?'])}"
            + (" · full scale" if config.get("full") else " · quick scale")
        )
    else:
        lines.append(f"(no {MANIFEST_FILENAME}: provenance unknown)")

    lines.append("")
    lines.append("trace validation:")
    events, timing = _validate_channels(run_dir, lines)
    if events:
        counts: Dict[str, int] = {}
        for event in events:
            counts[event["event"]] = counts.get(event["event"], 0) + 1
        lines.append(
            "  event mix: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        windows = [e for e in events if e["event"] == "allocation_window"]
        if windows:
            lines.append(
                f"  migrations: "
                f"{sum(e['migrations'] for e in windows)} over "
                f"{len(windows)} allocation window(s)"
            )

    summary = _load_summary(run_dir)
    if summary:
        for name, node in summary.items():
            groups = _policy_groups(node)
            if not groups:
                continue
            lines.append("")
            lines.append(f"experiment {name}:")
            for path, group in groups:
                label = " / ".join(path) if path else name
                lines.extend(_scored_group_tables(label, group))

    phase_lines = _phase_section(timing)
    if phase_lines:
        lines.append("")
        lines.extend(phase_lines)

    pool_lines = _pool_attribution(events)
    if pool_lines:
        lines.append("")
        lines.extend(pool_lines)

    task_lines = _task_section(timing)
    if task_lines:
        lines.append("")
        lines.extend(task_lines)

    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``repro-experiments report``."""
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print(
            "usage: repro-experiments report <run-dir>\n\n"
            "Render a scored audit report from a run directory written "
            "by `repro-experiments --out DIR` (validates every traced "
            "event against its schema; exits 1 on violation).",
            file=sys.stderr,
        )
        return 0 if args and args[0] in ("-h", "--help") else 2
    try:
        print(render_report(args[0]))
    except (TraceSchemaError, FileNotFoundError) as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
