"""Heterogeneous-fleet demand split.

The paper answers "Consolidating or Not?" *per platform*: consolidate on
conventional big-core servers, spread on NTC.  A mixed fleet has to do
both at once.  :func:`split_fleet_vms` partitions a slot's VMs across
the fleet's pools — greedy fill of the most power-efficient platform
first (by :meth:`~repro.core.types.PoolSpec.watts_per_capacity_pct`),
each pool bounded by its capacity at the platform's energy-optimal
frequency, with physical-capacity spill and a least-loaded fallback so
every VM lands somewhere.  :class:`~repro.core.epact.EpactPolicy` then
runs the paper's EPACT *within* each pool.

With a single-pool fleet the split is the identity, so EPACT on the
one-pool fleet is the paper's homogeneous EPACT — the bit-identity
`tests/test_hetero_equivalence.py` asserts.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import DomainError
from .alloc1d import ffd_order
from .types import FleetSpec


def split_fleet_vms(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    fleet: FleetSpec,
    cap_mem_pct: float = 100.0,
) -> List[np.ndarray]:
    """Partition VMs across pools, most efficient platform first.

    VMs are visited in FFD order (decreasing peak predicted CPU, the
    order the per-pool allocators also use) and assigned greedily:

    1. the first pool — in :meth:`FleetSpec.efficiency_order` — whose
       *optimal-frequency* CPU capacity (``n_servers * 100 * F_opt /
       Fmax``) and memory capacity still hold the VM's peaks takes it;
    2. failing that, the first pool with *physical* CPU headroom
       (``n_servers * 100``) and memory headroom takes it (the platform
       rides above its sweet spot rather than displacing demand);
    3. failing even that, the pool with the most remaining physical CPU
       headroom takes it (mirrors the allocators' forced placement).

    Pool loads are tracked as sums of per-VM peaks — an upper bound of
    the true aggregate peak, so the split never *over*-fills a pool the
    per-pool sizing could not serve.  Returns one ascending VM index
    array per pool (disjoint, covering every VM); with a single pool
    this is exactly ``arange(n_vms)``.
    """
    if pred_cpu.ndim != 2 or pred_cpu.shape != pred_mem.shape:
        raise DomainError(
            "pred_cpu and pred_mem must be equal-shape 2-D arrays"
        )
    n_vms = pred_cpu.shape[0]
    if fleet.single_pool:
        return [np.arange(n_vms, dtype=int)]

    order = fleet.efficiency_order()
    cap_opt = np.array(
        [
            pool.n_servers
            * 100.0
            * pool.power_model.optimal_frequency_ghz()
            / pool.f_max_ghz
            for pool in fleet.pools
        ]
    )
    cap_full = np.array(
        [pool.n_servers * 100.0 for pool in fleet.pools]
    )
    cap_mem = np.array(
        [pool.n_servers * cap_mem_pct for pool in fleet.pools]
    )

    cpu_peaks = pred_cpu.max(axis=1)
    mem_peaks = pred_mem.max(axis=1)
    used_cpu = np.zeros(fleet.n_pools)
    used_mem = np.zeros(fleet.n_pools)
    pool_of = np.empty(n_vms, dtype=int)
    for vm in ffd_order(pred_cpu):
        vm = int(vm)
        cpu, mem = cpu_peaks[vm], mem_peaks[vm]
        target = -1
        for m in order:
            if (
                used_cpu[m] + cpu <= cap_opt[m]
                and used_mem[m] + mem <= cap_mem[m]
            ):
                target = m
                break
        if target < 0:
            for m in order:
                if (
                    used_cpu[m] + cpu <= cap_full[m]
                    and used_mem[m] + mem <= cap_mem[m]
                ):
                    target = m
                    break
        if target < 0:
            headroom = cap_full - used_cpu
            target = int(np.argmax(headroom))
        pool_of[vm] = target
        used_cpu[target] += cpu
        used_mem[target] += mem
    return [
        np.flatnonzero(pool_of == m) for m in range(fleet.n_pools)
    ]
