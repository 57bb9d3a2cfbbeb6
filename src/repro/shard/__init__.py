"""Sharded, multi-datacenter simulation layer.

Opens the hyperscale rung of the roadmap: VM fleets are clustered into
*shards* by utilization-pattern similarity (:mod:`repro.shard.cluster`),
each shard is allocated independently and the per-shard plans
concatenate exactly like per-pool plans already do
(:mod:`repro.shard.policy`).  On top sits a geo layer
(:mod:`repro.shard.geo`): a :class:`~repro.shard.geo.GeoFleetSpec` of
regional :class:`~repro.core.types.FleetSpec`\\ s with a deterministic
router splitting the VM population across sites — a fleet of fleets.
Its runner fans independent (policy, region) runs out over worker
processes through :func:`~repro.dcsim.engine.fan_out`.

House conventions hold throughout: ``shards=1`` is bit-identical to the
unsharded engine, and ``jobs=N`` equals the serial run exactly.
"""

from .cluster import cluster_vms, shard_server_budgets
from .geo import (
    GeoFleetSpec,
    GeoRunResult,
    RegionSpec,
    route_vms,
    run_geo_policies,
)
from .policy import ShardedPolicy

__all__ = [
    "GeoFleetSpec",
    "GeoRunResult",
    "RegionSpec",
    "ShardedPolicy",
    "cluster_vms",
    "route_vms",
    "run_geo_policies",
    "shard_server_budgets",
]
