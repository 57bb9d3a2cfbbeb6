"""VM descriptors and per-VM utilization traces.

The paper's evaluation drives ~600 VMs whose CPU and memory utilization is
sampled every 5 minutes from the Google Cluster traces (Section III-B).
A :class:`VmSpec` describes one VM's static properties; a :class:`VmTrace`
couples a spec with its utilization time series.

Utilization units follow :mod:`repro.units`: CPU percent is relative to
one server's full capacity at ``Fmax``; memory percent is relative to one
server's DRAM capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..perf.workload import MemoryClass


@dataclass(frozen=True)
class VmSpec:
    """Static description of one VM.

    Attributes:
        vm_id: index of the VM in its dataset.
        mem_class: the workload class (drives QoS floor, stall behaviour
            and DRAM traffic intensity).
        cpu_base_pct: long-run mean CPU utilization in percent.
        mem_base_pct: long-run mean memory utilization in percent.
        group: correlation-group index (VMs in a group share load shape;
            the structure correlation-aware policies exploit).
    """

    vm_id: int
    mem_class: MemoryClass
    cpu_base_pct: float
    mem_base_pct: float
    group: int

    def __post_init__(self) -> None:
        if self.vm_id < 0:
            raise ConfigurationError("vm_id must be non-negative")
        if not (0.0 < self.cpu_base_pct <= 100.0):
            raise ConfigurationError(
                f"VM {self.vm_id}: cpu base must be in (0, 100]"
            )
        if not (0.0 < self.mem_base_pct <= 100.0):
            raise ConfigurationError(
                f"VM {self.vm_id}: mem base must be in (0, 100]"
            )
        if self.group < 0:
            raise ConfigurationError("group must be non-negative")


@dataclass(frozen=True)
class VmTrace:
    """One VM's utilization time series.

    Attributes:
        spec: the VM's static description.
        cpu_pct: CPU utilization per sample (1-D array, percent).
        mem_pct: memory utilization per sample (1-D array, percent).
    """

    spec: VmSpec
    cpu_pct: np.ndarray
    mem_pct: np.ndarray

    def __post_init__(self) -> None:
        if self.cpu_pct.ndim != 1 or self.mem_pct.ndim != 1:
            raise ConfigurationError("traces must be 1-D arrays")
        if self.cpu_pct.shape != self.mem_pct.shape:
            raise ConfigurationError(
                "CPU and memory traces must have equal length"
            )
        if np.any(self.cpu_pct < 0.0) or np.any(self.mem_pct < 0.0):
            raise ConfigurationError("utilization cannot be negative")

    @property
    def n_samples(self) -> int:
        """Number of 5-minute samples in the trace."""
        return int(self.cpu_pct.shape[0])

    def peak_cpu_pct(self) -> float:
        """Maximum CPU utilization over the trace."""
        return float(self.cpu_pct.max())

    def mean_cpu_pct(self) -> float:
        """Mean CPU utilization over the trace."""
        return float(self.cpu_pct.mean())

    def peak_mem_pct(self) -> float:
        """Maximum memory utilization over the trace."""
        return float(self.mem_pct.max())
