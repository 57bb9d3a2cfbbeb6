"""Order statistics for benchmark timings.

Every timing is reported as a median with its quartiles and sample
count.  A tail percentile is only *supported* when at least
``MIN_BEYOND`` samples lie beyond it: with fewer, the value is one or
two unlucky samples, not a tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie beyond a tail percentile for it to count.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie beyond the ``q``-th percentile."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def tail_supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples support the ``q``-th percentile."""
    return samples_beyond(n, q) >= min_beyond


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = float(values[0])
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": float(statistics.median(values)),
        "q1": float(q1),
        "q3": float(q3),
        "n": len(values),
    }

