"""Experiment: hyperscale sharded multi-datacenter simulation.

The paper's consolidation-vs-proportionality question at cloud scale:
tens of thousands of VMs routed across regional NTC fleets
(:mod:`repro.shard.geo`), each region allocated shard by shard
(:mod:`repro.shard.policy`), with the independent (policy, region) runs
optionally spread over worker processes.  The profile ladder follows
the energy-audit exemplar's ``small_startup`` → ``large_hyperscale``
rungs:

========  ========  ===========  ==============  ======  =======
profile   regions   VMs/region   servers/region  shards  slots
========  ========  ===========  ==============  ======  =======
tiny      2         300          120             4       2
quick     2         25 000       5 000           16      2
full      4         25 000       5 000           32      4
========  ========  ===========  ==============  ======  =======

``quick`` (the default) is the 50k-VM, 2-region, 10k-server
``large_hyperscale`` rung; ``tiny`` is the CI smoke profile; ``full``
is the 100k-VM, 4-region version.  The traces are synthetic
(vectorized sinusoid + seeded noise — the cluster-trace generator's
per-VM loop is too slow at this scale) and the predictor is the oracle
:class:`~repro.forecast.predictor.PerfectPredictor`, so the experiment
measures the *scale* machinery, not forecast quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.epact import EpactPolicy
from ..core.types import FleetSpec, PoolSpec
from ..dcsim.engine import FailedRun
from ..errors import ConfigurationError
from ..forecast.predictor import PerfectPredictor
from ..perf.workload import ALL_MEMORY_CLASSES
from ..power.server_power import ntc_server_power_model
from ..shard import GeoFleetSpec, GeoRunResult, RegionSpec, run_geo_policies
from ..traces.dataset import TraceDataset
from ..traces.vm import VmSpec
from ..units import SAMPLES_PER_DAY
from ..dcsim.reporting import failed_line, format_table

#: Default routing seed (the repo-wide experiment seed).
SEED = 2018


@dataclass(frozen=True)
class HyperscaleProfile:
    """One rung of the hyperscale profile ladder."""

    name: str
    n_regions: int
    vms_per_region: int
    servers_per_region: int
    shards: int
    n_slots: int


PROFILES: Dict[str, HyperscaleProfile] = {
    profile.name: profile
    for profile in (
        HyperscaleProfile("tiny", 2, 300, 120, 4, 2),
        HyperscaleProfile("quick", 2, 25_000, 5_000, 16, 2),
        HyperscaleProfile("full", 4, 25_000, 5_000, 32, 4),
    )
}


def synthetic_dataset(
    n_vms: int, n_days: int = 1, seed: int = SEED
) -> TraceDataset:
    """A fully vectorized synthetic fleet trace.

    Diurnal sinusoids with per-VM base load, amplitude and phase plus
    seeded Gaussian noise; memory follows its own base with a mild CPU
    coupling.  All array math — no per-VM Python loop — so 100k VMs
    build in well under a second.
    """
    if n_vms < 1 or n_days < 1:
        raise ConfigurationError("n_vms and n_days must be >= 1")
    gen = np.random.default_rng(seed)
    n_samples = n_days * SAMPLES_PER_DAY
    t = np.arange(n_samples) * (2.0 * np.pi / SAMPLES_PER_DAY)
    cpu_base = gen.uniform(3.0, 12.0, n_vms)
    amplitude = gen.uniform(0.2, 0.5, n_vms)
    phase = gen.uniform(0.0, 2.0 * np.pi, n_vms)
    cpu = cpu_base[:, None] * (
        1.0 + amplitude[:, None] * np.sin(t[None, :] + phase[:, None])
    )
    cpu += gen.normal(0.0, 0.3, (n_vms, n_samples))
    np.clip(cpu, 0.05, 100.0, out=cpu)
    mem_base = gen.uniform(5.0, 20.0, n_vms)
    mem = mem_base[:, None] + 0.3 * (cpu - cpu_base[:, None])
    np.clip(mem, 0.1, 100.0, out=mem)
    classes = ALL_MEMORY_CLASSES
    specs = tuple(
        VmSpec(
            vm_id=i,
            mem_class=classes[i % len(classes)],
            cpu_base_pct=float(cpu_base[i]),
            mem_base_pct=float(mem_base[i]),
            group=i % 32,
        )
        for i in range(n_vms)
    )
    return TraceDataset(specs=specs, cpu_pct=cpu, mem_pct=mem)


def build_geo(profile: HyperscaleProfile) -> GeoFleetSpec:
    """The profile's regional fleets: one NTC pool per region."""
    return GeoFleetSpec(
        regions=tuple(
            RegionSpec(
                name=f"region-{i}",
                fleet=FleetSpec(
                    pools=(
                        PoolSpec(
                            name="ntc",
                            power_model=ntc_server_power_model(),
                            n_servers=profile.servers_per_region,
                        ),
                    )
                ),
            )
            for i in range(profile.n_regions)
        )
    )


def run_hyperscale(
    profile: str = "quick",
    jobs: int = 1,
    seed: int = SEED,
    tracer=None,
) -> Tuple[HyperscaleProfile, GeoRunResult]:
    """Run the sharded multi-region EPACT comparison for one profile.

    Raises:
        ConfigurationError: for an unknown profile name.
    """
    spec = PROFILES.get(profile)
    if spec is None:
        raise ConfigurationError(
            f"unknown hyperscale profile {profile!r}; "
            f"choose from {sorted(PROFILES)}"
        )
    dataset = synthetic_dataset(
        spec.n_regions * spec.vms_per_region, n_days=1, seed=seed
    )
    result = run_geo_policies(
        dataset,
        PerfectPredictor,
        [EpactPolicy()],
        build_geo(spec),
        seed=seed,
        shards=spec.shards,
        jobs=jobs,
        tracer=tracer,
        n_slots=spec.n_slots,
    )
    return spec, result


def render(run: Tuple[HyperscaleProfile, GeoRunResult]) -> str:
    """Per-region energy/server/migration table plus fleet totals.

    The totals need every region: if a (policy, region) run failed,
    its ``FAILED`` line stands in place of the table.
    """
    spec, result = run
    lines: List[str] = [
        f"Hyperscale profile {spec.name!r}: "
        f"{spec.n_regions} regions x {spec.vms_per_region} VMs, "
        f"{spec.servers_per_region} servers/region, "
        f"shards={spec.shards}, n_slots={spec.n_slots}",
    ]
    failed = [
        failed_line(sim.key, sim)
        for regions in result.results.values()
        for sim in regions.values()
        if isinstance(sim, FailedRun)
    ]
    if failed:
        return "\n".join(lines + failed)
    lines.append("")
    rows = []
    for policy_name, regions in result.results.items():
        for region_name, sim in regions.items():
            energy = sum(r.energy_j for r in sim.records)
            servers = max(r.n_active_servers for r in sim.records)
            migrations = sum(r.migrations for r in sim.records)
            rows.append(
                (
                    policy_name,
                    region_name,
                    result.routes[region_name],
                    servers,
                    f"{energy / 1e6:.2f}",
                    migrations,
                )
            )
        rows.append(
            (
                policy_name,
                "TOTAL",
                sum(result.routes.values()),
                "",
                f"{result.total_energy_j(policy_name) / 1e6:.2f}",
                "",
            )
        )
    lines.append(
        format_table(
            (
                "policy",
                "region",
                "vms",
                "peak active servers",
                "energy [MJ]",
                "migrations",
            ),
            rows,
        )
    )
    return "\n".join(lines)
