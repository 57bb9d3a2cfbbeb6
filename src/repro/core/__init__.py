"""The paper's primary contribution: the EPACT allocation framework.

Contains the shared policy types (one :class:`AllocationContext`, which
always carries a fleet), the correlation machinery, the Eq. 1 sizing
step, Algorithms 1 and 2, the fleet demand split, the per-sample DVFS
governor, and the :class:`EpactPolicy` that ties them together on any
fleet.
"""

from .alloc1d import allocate_1d, ffd_order
from .alloc2d import allocate_2d, merit_scores
from .correlation import (
    complementary_pattern,
    euclidean_distance_many,
    pearson,
    pearson_many,
)
from .epact import EpactPolicy
from .fleet import split_fleet_vms
from .governor import DvfsGovernor
from .online import OnlinePolicy
from .sizing import (
    SizingResult,
    n_servers_cpu,
    n_servers_mem,
    peak_aggregate_pct,
    size_slot,
)
from .types import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    FleetSpec,
    PoolSpec,
    ServerPlan,
    force_place_remaining,
)
from .workspace import AllocationWorkspace, validate_vm_order

__all__ = [
    "Allocation",
    "AllocationContext",
    "AllocationPolicy",
    "AllocationWorkspace",
    "validate_vm_order",
    "DvfsGovernor",
    "EpactPolicy",
    "FleetSpec",
    "OnlinePolicy",
    "PoolSpec",
    "ServerPlan",
    "SizingResult",
    "allocate_1d",
    "allocate_2d",
    "complementary_pattern",
    "euclidean_distance_many",
    "ffd_order",
    "force_place_remaining",
    "merit_scores",
    "n_servers_cpu",
    "n_servers_mem",
    "pearson",
    "pearson_many",
    "peak_aggregate_pct",
    "size_slot",
    "split_fleet_vms",
]
