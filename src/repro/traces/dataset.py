"""Trace dataset container and statistics.

A :class:`TraceDataset` bundles the per-VM specs with two matrices of
shape ``(n_vms, n_samples)`` — CPU and memory utilization per 5-minute
sample — plus slicing helpers aligned to the paper's slot/day time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, DomainError
from ..perf.workload import MemoryClass
from ..units import SAMPLES_PER_DAY, SAMPLES_PER_SLOT
from .vm import VmSpec, VmTrace


@dataclass(frozen=True)
class TraceDataset:
    """Utilization traces for a fleet of VMs.

    Attributes:
        specs: per-VM static descriptions, index-aligned with the rows of
            the utilization matrices.
        cpu_pct: CPU utilization, shape ``(n_vms, n_samples)``, percent of
            one server's ``Fmax`` capacity.
        mem_pct: memory utilization, shape ``(n_vms, n_samples)``, percent
            of one server's DRAM capacity.
    """

    specs: Tuple[VmSpec, ...]
    cpu_pct: np.ndarray
    mem_pct: np.ndarray

    def __post_init__(self) -> None:
        if self.cpu_pct.ndim != 2 or self.mem_pct.ndim != 2:
            raise ConfigurationError("utilization matrices must be 2-D")
        if self.cpu_pct.shape != self.mem_pct.shape:
            raise ConfigurationError("CPU and memory shapes must match")
        if len(self.specs) != self.cpu_pct.shape[0]:
            raise ConfigurationError(
                f"{len(self.specs)} specs but "
                f"{self.cpu_pct.shape[0]} trace rows"
            )
        if np.any(self.cpu_pct < 0.0) or np.any(self.mem_pct < 0.0):
            raise ConfigurationError("utilization cannot be negative")

    # -- shape ---------------------------------------------------------------

    @property
    def n_vms(self) -> int:
        """Number of VMs."""
        return self.cpu_pct.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of 5-minute samples per VM."""
        return self.cpu_pct.shape[1]

    @property
    def n_days(self) -> int:
        """Whole days covered by the traces."""
        return self.n_samples // SAMPLES_PER_DAY

    @property
    def n_slots(self) -> int:
        """Whole 1-hour allocation slots covered by the traces."""
        return self.n_samples // SAMPLES_PER_SLOT

    # -- access ---------------------------------------------------------------

    def vm(self, vm_id: int) -> VmTrace:
        """Full trace of one VM."""
        if not (0 <= vm_id < self.n_vms):
            raise DomainError(f"vm_id {vm_id} out of range")
        return VmTrace(
            spec=self.specs[vm_id],
            cpu_pct=self.cpu_pct[vm_id],
            mem_pct=self.mem_pct[vm_id],
        )

    def mem_classes(self) -> List[MemoryClass]:
        """Per-VM workload classes, index-aligned with trace rows."""
        return [spec.mem_class for spec in self.specs]

    def slot_slice(self, slot_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """CPU and memory matrices for one 1-hour slot (12 samples).

        Raises:
            DomainError: if the slot is outside the dataset.
        """
        if not (0 <= slot_index < self.n_slots):
            raise DomainError(
                f"slot {slot_index} out of range [0, {self.n_slots})"
            )
        lo = slot_index * SAMPLES_PER_SLOT
        hi = lo + SAMPLES_PER_SLOT
        return self.cpu_pct[:, lo:hi], self.mem_pct[:, lo:hi]

    def day_slice(self, day_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """CPU and memory matrices for one day (288 samples)."""
        if not (0 <= day_index < self.n_days):
            raise DomainError(
                f"day {day_index} out of range [0, {self.n_days})"
            )
        lo = day_index * SAMPLES_PER_DAY
        hi = lo + SAMPLES_PER_DAY
        return self.cpu_pct[:, lo:hi], self.mem_pct[:, lo:hi]

    def subset(self, vm_ids: Sequence[int]) -> "TraceDataset":
        """Dataset restricted to a subset of VMs (re-indexed)."""
        ids = list(vm_ids)
        specs = []
        for new_id, old_id in enumerate(ids):
            old = self.specs[old_id]
            specs.append(
                VmSpec(
                    vm_id=new_id,
                    mem_class=old.mem_class,
                    cpu_base_pct=old.cpu_base_pct,
                    mem_base_pct=old.mem_base_pct,
                    group=old.group,
                )
            )
        return TraceDataset(
            specs=tuple(specs),
            # Fancy indexing already gathers a new array.
            cpu_pct=self.cpu_pct[ids],
            mem_pct=self.mem_pct[ids],
        )

    # -- statistics -------------------------------------------------------------

    def aggregate_cpu_pct(self) -> np.ndarray:
        """Sum of CPU utilization over VMs, per sample.

        In units of "percent of one server": 100 means one fully loaded
        server at ``Fmax``.
        """
        return self.cpu_pct.sum(axis=0)

    def aggregate_mem_pct(self) -> np.ndarray:
        """Sum of memory utilization over VMs, per sample."""
        return self.mem_pct.sum(axis=0)

    def peak_server_equivalents(self) -> float:
        """Peak aggregate CPU demand in fully-loaded-server equivalents."""
        return float(self.aggregate_cpu_pct().max() / 100.0)

    def mean_cpu_correlation_within_groups(self) -> float:
        """Average pairwise CPU correlation of VMs sharing a group.

        The statistic the correlation-aware policies exploit; tests assert
        it is materially higher than across groups.
        """
        return self._mean_correlation(same_group=True)

    def mean_cpu_correlation_across_groups(self) -> float:
        """Average pairwise CPU correlation of VMs in different groups."""
        return self._mean_correlation(same_group=False)

    def _mean_correlation(self, same_group: bool) -> float:
        rows = self.cpu_pct - self.cpu_pct.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(rows, axis=1)
        norms[norms == 0.0] = 1.0
        normalized = rows / norms[:, None]
        corr = normalized @ normalized.T
        groups = np.array([spec.group for spec in self.specs])
        same = groups[:, None] == groups[None, :]
        off_diagonal = ~np.eye(self.n_vms, dtype=bool)
        mask = (same if same_group else ~same) & off_diagonal
        if not mask.any():
            return 0.0
        return float(corr[mask].mean())
