"""Plain-text rendering of tables and series for experiment output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output readable in a terminal
without any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

_SPARK_LEVELS = " .:-=+*#%@"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        str_rows.append([_fmt(cell) for cell in row])
    widths = [
        max(len(r[col]) for r in str_rows)
        for col in range(len(str_rows[0]))
    ]
    lines = []
    for i, row in enumerate(str_rows):
        line = "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
        lines.append(line.rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def failed_line(key: object, failure) -> str:
    """The report line of one :class:`~repro.dcsim.engine.FailedRun`.

    Every experiment report gives the same facts for a failed run: what
    failed, how often it was tried, how long it burned and the error.
    """
    return (
        f"  FAILED {key} after {failure.attempts} attempt(s) in "
        f"{failure.elapsed_s:.1f}s: {failure.error}"
    )


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Downsample a series into a character sparkline of ``width``.

    Uses block-average downsampling and a 10-level character ramp; good
    enough to eyeball the weekly shape of Figs. 4-6 in a terminal.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    if arr.size > width:
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array(
            [arr[lo:hi].mean() for lo, hi in zip(edges[:-1], edges[1:])]
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1.0e-12:
        return _SPARK_LEVELS[1] * arr.size
    scaled = (arr - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[int(round(s))] for s in scaled)


def series_block(
    name: str, values: Sequence[float], width: int = 60, unit: str = ""
) -> str:
    """A labelled sparkline with min/mean/max annotations."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return f"{name}: (empty)"
    stats = (
        f"min={arr.min():.1f} mean={arr.mean():.1f} max={arr.max():.1f}"
        f"{(' ' + unit) if unit else ''}"
    )
    return f"{name:<12} |{sparkline(arr, width)}| {stats}"


#: Grade bins for :func:`score_letter`, as (max ratio-to-best, grade).
#: Anything beyond the last bin is an "F".
_SCORE_BINS = (
    (1.02, "A+"),
    (1.05, "A"),
    (1.15, "B"),
    (1.35, "C"),
    (1.75, "D"),
)


def score_letter(value: float, best: float) -> str:
    """Grade a lower-is-better metric relative to the best in its group.

    The audit report scores each policy's energy/SLA-debt against the
    best policy of the same table: within 2% of best is an "A+", out to
    75% over best for a "D", beyond that "F".  Degenerate cases: a NaN
    scores "?", and when the best value is 0 only an exact 0 keeps the
    "A+" (any positive value against a zero best is an "F").
    """
    value = float(value)
    best = float(best)
    if np.isnan(value) or np.isnan(best):
        return "?"
    if best == 0.0:
        return "A+" if value == 0.0 else "F"
    ratio = value / best
    for bound, grade in _SCORE_BINS:
        if ratio <= bound:
            return grade
    return "F"


def scored_rows(
    names: Sequence[str], values: Sequence[float]
) -> List[List[object]]:
    """Pair each (name, value) with its :func:`score_letter` grade.

    Grades are relative to the group's best (minimum non-NaN) value;
    an all-NaN group grades every row "?".
    """
    arr = np.asarray(list(values), dtype=float)
    finite = arr[~np.isnan(arr)]
    best = float(finite.min()) if finite.size else float("nan")
    return [
        [name, float(value), score_letter(value, best)]
        for name, value in zip(names, arr)
    ]


def comparison_table(results) -> str:
    """Summary table over a ``{name: SimulationResult}`` mapping.

    One row per policy: total energy, violations, mean active servers,
    migrations and mean operating frequency — the at-a-glance comparison
    behind Figs. 4-6.
    """
    headers = [
        "policy",
        "energy (MJ)",
        "violations",
        "servers (mean)",
        "migrations",
        "mean f (GHz)",
    ]
    rows = []
    for name, result in results.items():
        freqs = [r.mean_freq_ghz for r in result.records]
        mean_freq = sum(freqs) / len(freqs) if freqs else 0.0
        rows.append(
            [
                name,
                f"{result.total_energy_mj:.1f}",
                result.total_violations,
                f"{result.mean_active_servers:.1f}",
                result.total_migrations,
                f"{mean_freq:.2f}",
            ]
        )
    return format_table(headers, rows)
