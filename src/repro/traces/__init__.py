"""Workload-trace substrate: synthetic Google-cluster-like traces.

Provides the VM descriptors, temporal pattern primitives, the trace
generator and the :class:`TraceDataset` container the data-center
simulation consumes.
"""

from .dataset import TraceDataset
from .generator import (
    ClusterTraceGenerator,
    GeneratorConfig,
    default_dataset,
    memory_heavy_dataset,
)
from .lifecycle import (
    ChurnConfig,
    LifecycleSchedule,
    fixed_schedule,
    generate_lifecycle,
)
from .patterns import ar1_noise, burst_events, diurnal_profile, weekly_modulation
from .vm import VmSpec, VmTrace

__all__ = [
    "ChurnConfig",
    "ClusterTraceGenerator",
    "GeneratorConfig",
    "LifecycleSchedule",
    "TraceDataset",
    "VmSpec",
    "VmTrace",
    "ar1_noise",
    "burst_events",
    "default_dataset",
    "diurnal_profile",
    "fixed_schedule",
    "generate_lifecycle",
    "memory_heavy_dataset",
    "weekly_modulation",
]
