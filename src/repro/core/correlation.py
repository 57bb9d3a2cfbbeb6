"""Pearson correlation and complementary load patterns.

Both EPACT and the COAT baseline reason about the *shape* of utilization
patterns over the samples of a slot:

* EPACT looks for VMs whose pattern is **similar to the complementary
  pattern** of a server (``max(Patt) - Patt``): such a VM peaks where the
  server's current load dips, flattening the aggregate (Algorithm 1 line
  8-12, Algorithm 2 lines 5-6);
* COAT looks for servers whose current pattern has **low correlation**
  with the VM, separating CPU-load-correlated VMs.

Degenerate patterns (constant vectors) have undefined Pearson correlation;
we define it as 0 ("no shape information"), which leaves the policies'
tie-breaking to their secondary criteria.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError

_EPS = 1.0e-12


def complementary_pattern(pattern: np.ndarray) -> np.ndarray:
    """The paper's ``PattCom = max(Patt) - Patt`` (per-sample headroom).

    Raises:
        DomainError: for empty or non-1-D input.
    """
    p = np.asarray(pattern, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("pattern must be a non-empty 1-D array")
    return p.max() - p


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two equal-length vectors.

    Returns 0.0 when either vector is constant (undefined correlation).

    Raises:
        DomainError: on shape mismatch or empty input.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise DomainError("inputs must be equal-length non-empty 1-D arrays")
    a_centered = a - a.mean()
    b_centered = b - b.mean()
    denom = np.linalg.norm(a_centered) * np.linalg.norm(b_centered)
    if denom < _EPS:
        return 0.0
    return float(np.dot(a_centered, b_centered) / denom)


def pearson_many(candidates: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row of ``candidates`` against ``target``.

    Vectorized form used in the allocation inner loops; rows (or a
    constant target) with zero variance yield correlation 0.

    Args:
        candidates: array of shape ``(n, k)``.
        target: vector of length ``k``.

    Returns:
        Array of ``n`` correlations in ``[-1, 1]``.
    """
    c = np.asarray(candidates, dtype=float)
    t = np.asarray(target, dtype=float)
    if c.ndim != 2 or t.ndim != 1 or c.shape[1] != t.shape[0]:
        raise DomainError(
            f"expected (n, k) candidates and (k,) target, got "
            f"{c.shape} and {t.shape}"
        )
    # ``mean`` and ``np.linalg.norm`` written out as the arithmetic NumPy
    # runs for them (a sum over the count; sqrt of a dot product or of a
    # row sum of squares): the same bits without their per-call overhead.
    n = t.shape[0]
    t_centered = t - np.add.reduce(t) / n
    t_norm = np.sqrt(t_centered @ t_centered)
    if t_norm < _EPS:
        return np.zeros(c.shape[0])
    c_centered = c - np.add.reduce(c, axis=1, keepdims=True) / n
    c_norms = np.sqrt(np.add.reduce(c_centered * c_centered, axis=1))
    flat = c_norms < _EPS
    if not flat.any():
        return (c_centered @ t_centered) / (c_norms * t_norm)
    safe = np.where(flat, 1.0, c_norms)
    corr = (c_centered @ t_centered) / (safe * t_norm)
    corr[flat] = 0.0
    return corr


def euclidean_distance_many(
    candidates: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Euclidean distance of each row of ``candidates`` from ``target``.

    The ``Dist`` term of the paper's Eq. 2: how close a VM's pattern is to
    a server's remaining-capacity pattern.
    """
    c = np.asarray(candidates, dtype=float)
    t = np.asarray(target, dtype=float)
    if c.ndim != 2 or t.ndim != 1 or c.shape[1] != t.shape[0]:
        raise DomainError(
            f"expected (n, k) candidates and (k,) target, got "
            f"{c.shape} and {t.shape}"
        )
    return np.linalg.norm(c - t[None, :], axis=1)
