"""Multi-datacenter layer: regional fleets and a deterministic router.

A :class:`GeoFleetSpec` is a *fleet of fleets*: each
:class:`RegionSpec` names a site and its
:class:`~repro.core.types.FleetSpec`.  :func:`route_vms` splits the VM
population across regions — proportionally to the regions' routing
weights (server counts by default) via the same largest-remainder rule
the shard layer uses, with the VM identities drawn from one seeded
permutation, so the same seed always produces the identical regional
split.  :func:`run_geo_policies` then runs each region as an independent
:class:`~repro.dcsim.DataCenterSimulation` over its routed sub-fleet,
optionally sharding within the region (:class:`~repro.shard.policy
.ShardedPolicy`), and returns the per-(policy, region) results.

Regions are independent by design — the paper's consolidation question
is answered per site; what the geo layer adds is the scale axis (how
many sites, how load splits across them), not cross-site migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.types import AllocationPolicy, FleetSpec
from ..errors import ConfigurationError
from .cluster import shard_server_budgets
from .policy import ShardedPolicy


@dataclass(frozen=True)
class RegionSpec:
    """One datacenter site of a geo fleet.

    Attributes:
        name: site label (unique within a :class:`GeoFleetSpec`).
        fleet: the site's server fleet.
        weight: routing weight; defaults to the fleet's total server
            count, so load splits proportionally to capacity.
    """

    name: str
    fleet: FleetSpec
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("region name must be non-empty")
        if self.weight is not None and self.weight <= 0.0:
            raise ConfigurationError(
                f"region {self.name!r} weight must be positive"
            )

    @property
    def routing_weight(self) -> float:
        """The effective routing weight (capacity-proportional default)."""
        if self.weight is not None:
            return float(self.weight)
        return float(self.fleet.total_servers)


@dataclass(frozen=True)
class GeoFleetSpec:
    """An ordered tuple of regional fleets.

    Attributes:
        regions: the sites, in declaration order.
    """

    regions: Tuple[RegionSpec, ...]

    def __post_init__(self) -> None:
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        if not regions:
            raise ConfigurationError("a geo fleet needs at least one region")
        names = [region.name for region in regions]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"region names must be unique, got {names}"
            )

    @property
    def n_regions(self) -> int:
        """Number of sites."""
        return len(self.regions)

    @property
    def total_servers(self) -> int:
        """Physical servers across all sites."""
        return sum(r.fleet.total_servers for r in self.regions)


def route_vms(
    n_vms: int, geo: GeoFleetSpec, seed: int = 2018
) -> List[np.ndarray]:
    """Deterministically split ``n_vms`` VMs across the geo regions.

    Region loads follow the largest-remainder split of the routing
    weights (every region gets at least one VM); *which* VMs land where
    comes from one seeded permutation, chunked contiguously per region.
    Same seed, same geo spec, same population ⇒ identical splits.

    Returns:
        One ascending VM-index array per region, partitioning
        ``range(n_vms)``.

    Raises:
        ConfigurationError: if ``n_vms`` is smaller than the region
            count.
    """
    if n_vms < geo.n_regions:
        raise ConfigurationError(
            f"cannot route {n_vms} VMs across {geo.n_regions} regions — "
            "every region needs at least one VM"
        )
    weights = np.array([r.routing_weight for r in geo.regions])
    counts = shard_server_budgets(weights, n_vms)
    permutation = np.random.default_rng(seed).permutation(n_vms)
    routes: List[np.ndarray] = []
    offset = 0
    for count in counts:
        routes.append(np.sort(permutation[offset : offset + count]))
        offset += count
    return routes


@dataclass
class GeoRunResult:
    """Results of a multi-region, multi-policy run.

    Attributes:
        results: ``{policy_name: {region_name: SimulationResult}}``.
        routes: ``{region_name: vm_count}`` — how the router split the
            population.
        seed: the routing seed.
    """

    results: Dict[str, Dict[str, object]]
    routes: Dict[str, int] = field(default_factory=dict)
    seed: int = 2018

    def total_energy_j(self, policy_name: str) -> float:
        """Fleet-wide energy of one policy, summed over regions."""
        return sum(
            sum(record.energy_j for record in result.records)
            for result in self.results[policy_name].values()
        )


def _run_one_geo_region(
    dataset,
    rows,
    predictor_factory,
    policy,
    fleet: FleetSpec,
    shards: int,
    kwargs: Dict,
) -> object:
    """One (policy, region) run (a picklable task body)."""
    from ..dcsim.engine import DataCenterSimulation

    sub_dataset = dataset.subset(rows)
    if shards > 1:
        policy = ShardedPolicy(
            policy, shards=shards, tracer=kwargs.get("tracer")
        )
    return DataCenterSimulation(
        sub_dataset,
        predictor_factory(sub_dataset),
        policy,
        fleet=fleet,
        **kwargs,
    ).run()


def run_geo_policies(
    dataset,
    predictor_factory,
    policies,
    geo: GeoFleetSpec,
    seed: int = 2018,
    shards: int = 1,
    jobs: int = 1,
    tracer=None,
    **kwargs,
) -> GeoRunResult:
    """Run several policies over a routed multi-region fleet.

    Shares the common runner surface (``jobs`` / ``tracer``) with the
    other multi-policy runners in :mod:`repro.dcsim`: ``jobs`` fans the
    independent (policy, region)
    runs over processes (:func:`~repro.dcsim.engine.fan_out`) — each
    worker receives the traces once and each task carries its region's
    rows, so parallel equals serial exactly.  Shards within a region run
    in-process.  Serial runs thread ``tracer`` into every engine;
    parallel fans give it to :func:`~repro.dcsim.engine.fan_out` for
    task events (``region_route`` events are part of the deterministic
    preamble and are emitted serially either way).

    Args:
        dataset: the full VM population's traces.
        predictor_factory: ``factory(sub_dataset) -> predictor`` built
            per region (regions predict over their own sub-population;
            predictor classes like
            :class:`~repro.forecast.predictor.PerfectPredictor` work
            directly).  Must be picklable when ``jobs > 1``.
        policies: the policies to compare (each runs in every region).
        geo: the regional fleets.
        seed: routing seed (see :func:`route_vms`).
        shards: per-region shard count (``1`` = unsharded engine).
        jobs: worker processes for the (policy, region) fan.
        tracer: optional tracer; each region emits a ``region_route``
            event, and (serial) sharded windows emit ``shard_window``
            events.
        **kwargs: forwarded to every
            :class:`~repro.dcsim.DataCenterSimulation` (horizon bounds,
            migration energy, ...).

    Returns:
        A :class:`GeoRunResult`; under ``jobs > 1`` a (policy, region)
        run that failed twice holds a
        :class:`~repro.dcsim.engine.FailedRun`.
    """
    from ..dcsim.engine import _fans_out, fan_out

    policy_list: List[AllocationPolicy] = list(policies)
    routes = route_vms(dataset.n_vms, geo, seed)
    results: Dict[str, Dict[str, object]] = {
        policy.name: {} for policy in policy_list
    }
    route_sizes: Dict[str, int] = {}
    for region, rows in zip(geo.regions, routes):
        route_sizes[region.name] = int(rows.size)
        if tracer is not None:
            tracer.emit(
                "region_route",
                region=region.name,
                n_vms=int(rows.size),
                n_servers=int(region.fleet.total_servers),
                seed=int(seed),
                weight=float(region.routing_weight),
            )

    pairs = [
        (region, rows, policy)
        for region, rows in zip(geo.regions, routes)
        for policy in policy_list
    ]
    if not _fans_out(jobs, len(pairs)):
        kwargs = dict(kwargs, tracer=tracer)
    runs = fan_out(
        _run_one_geo_region,
        (dataset,),
        [
            (
                (policy.name, region.name),
                (rows, predictor_factory, policy, region.fleet, shards, kwargs),
            )
            for region, rows, policy in pairs
        ],
        jobs,
        tracer=tracer,
    )
    for (policy, region), run in runs.items():
        results[policy][region] = run
    return GeoRunResult(results=results, routes=route_sizes, seed=seed)
