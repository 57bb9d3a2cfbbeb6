"""Shared precomputation for the allocation fast paths.

Algorithms 1 and 2 both reason about the same per-VM quantities over and
over: centered patterns (for Pearson correlations), centered norms,
peaks/minima (for feasibility pruning) and raw sums/squared norms (for
Euclidean distances).  The seed implementations recomputed all of them
from scratch on every greedy pick, which made the inner loops quadratic
with a large constant.  :class:`AllocationWorkspace` computes them once
per call — O(n_vms * n_samples) total — so the per-pick work collapses to
O(n_candidates) dot-product bookkeeping.

Two identities make the incremental bookkeeping exact enough to reproduce
the seed plans:

* ``pearson(x, max(S) - S) == -pearson(x, S)``: the complementary pattern
  only negates the centered server aggregate, so the fast paths never
  materialize ``PattCom``;
* ``dot(S - mean(S), x - mean(x)) == dot(S, x - mean(x))``: the centered
  VM pattern sums to ~0, so server aggregates never need re-centering.

The workspace is stateless and read-only after construction.  Each
``allocate_1d``/``allocate_2d`` call builds its own from the predictions
it packs, so the statistics always describe those predictions.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def validate_vm_order(sequence: np.ndarray, n_vms: int) -> None:
    """Check that ``sequence`` is a permutation of ``0..n_vms-1``.

    Replaces the seed's ``sorted(sequence.tolist()) != list(range(n))``
    check — which materialized Python lists and sorted them on every
    allocation call — with an O(n) ``np.bincount`` validation.

    Raises:
        DomainError: if the sequence is not a permutation of all VM ids.
    """
    if sequence.ndim != 1 or sequence.shape[0] != n_vms:
        raise DomainError("order must be a permutation of all VM ids")
    if n_vms == 0:
        return
    if int(sequence.min()) < 0 or int(sequence.max()) >= n_vms:
        raise DomainError("order must be a permutation of all VM ids")
    if not np.all(np.bincount(sequence, minlength=n_vms) == 1):
        raise DomainError("order must be a permutation of all VM ids")


class AllocationWorkspace:
    """Per-VM precomputed quantities shared by Algorithms 1 and 2.

    Attributes:
        cpu, mem: the prediction matrices, C-contiguous float64,
            shape ``(n_vms, n_samples)``.
        cpu_centered, mem_centered: row-centered patterns.
        cpu_cnorm, mem_cnorm: L2 norms of the centered rows (the Pearson
            denominators).
        cpu_cnorm2, mem_cnorm2: squared centered norms (for incremental
            server-aggregate norm updates).
        cpu_peak, mem_peak, cpu_min, mem_min: per-row extrema (feasibility
            pruning bounds).
        cpu_mean, mem_mean, cpu_sum, mem_sum: per-row means and sums.
        cpu_sq, mem_sq: squared L2 norms of the raw rows (for incremental
            Euclidean distances).
    """

    #: Statistic groups resolved lazily on first access: Algorithm 1 only
    #: touches the CPU correlation stats, so the memory stats and the
    #: extrema/sum stats (Algorithm 2's feasibility bounds) are not
    #: computed until an allocator actually reads them.
    _LAZY_GROUPS = {
        "cpu_extrema": (
            "cpu_peak",
            "cpu_min",
            "cpu_sum",
            "cpu_sq",
        ),
        "mem_corr": (
            "mem_mean",
            "mem_centered",
            "mem_cnorm",
            "mem_cnorm2",
        ),
        "mem_extrema": (
            "mem_peak",
            "mem_min",
            "mem_sum",
            "mem_sq",
        ),
    }

    def __init__(self, pred_cpu: np.ndarray, pred_mem: np.ndarray):
        cpu = np.ascontiguousarray(np.asarray(pred_cpu, dtype=float))
        mem = np.ascontiguousarray(np.asarray(pred_mem, dtype=float))
        if cpu.ndim != 2 or cpu.shape != mem.shape:
            raise DomainError(
                "pred_cpu and pred_mem must be equal-shape 2-D arrays"
            )
        self.cpu = cpu
        self.mem = mem
        self.n_vms, self.n_samples = cpu.shape

        mean = cpu.mean(axis=1)
        centered = cpu - mean[:, None]
        cnorm = np.linalg.norm(centered, axis=1)
        self.cpu_mean = mean
        self.cpu_centered = centered
        self.cpu_cnorm = cnorm
        self.cpu_cnorm2 = cnorm * cnorm

    def shard(self, rows: np.ndarray) -> "AllocationWorkspace":
        """A workspace restricted to ``rows`` (the sharding seam).

        Every statistic is row-local (mean/centered/norm/extrema of one
        VM's own pattern), so slicing the parent's arrays is bitwise
        identical to rebuilding a workspace on the sliced predictions —
        which is what makes per-shard allocation an exact decomposition.
        Eager statistics and any lazy group the parent has already
        materialized are sliced; untouched groups stay lazy in the
        child.

        Raises:
            DomainError: if ``rows`` contains out-of-range indices.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or (
            rows.size > 0
            and (int(rows.min()) < 0 or int(rows.max()) >= self.n_vms)
        ):
            raise DomainError("rows must be a 1-D array of valid VM ids")
        child = object.__new__(AllocationWorkspace)
        child.cpu = np.ascontiguousarray(self.cpu[rows])
        child.mem = np.ascontiguousarray(self.mem[rows])
        child.n_vms, child.n_samples = child.cpu.shape
        sliced = ["cpu_mean", "cpu_centered", "cpu_cnorm", "cpu_cnorm2"]
        for attrs in AllocationWorkspace._LAZY_GROUPS.values():
            if attrs[0] in self.__dict__:
                sliced.extend(attrs)
        for name in sliced:
            setattr(child, name, self.__dict__[name][rows])
        return child

    def __getattr__(self, name: str):
        for group, attrs in AllocationWorkspace._LAZY_GROUPS.items():
            if name in attrs:
                self._fill_lazy(group)
                return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _fill_lazy(self, group: str) -> None:
        """Compute one lazy statistic group (same values as the seed)."""
        prefix, kind = group.split("_")
        patt = self.cpu if prefix == "cpu" else self.mem
        if kind == "corr":
            mean = patt.mean(axis=1)
            centered = patt - mean[:, None]
            cnorm = np.linalg.norm(centered, axis=1)
            setattr(self, f"{prefix}_mean", mean)
            setattr(self, f"{prefix}_centered", centered)
            setattr(self, f"{prefix}_cnorm", cnorm)
            setattr(self, f"{prefix}_cnorm2", cnorm * cnorm)
        else:
            setattr(self, f"{prefix}_peak", patt.max(axis=1))
            setattr(self, f"{prefix}_min", patt.min(axis=1))
            setattr(self, f"{prefix}_sum", patt.sum(axis=1))
            setattr(self, f"{prefix}_sq", np.einsum("ij,ij->i", patt, patt))
