"""Heterogeneous-fleet allocation: demand split + per-pool EPACT.

The paper answers "Consolidating or Not?" *per platform*: consolidate on
conventional big-core servers, spread on NTC.  A mixed fleet has to do
both at once.  This module adds the placement layer for that regime:

1. :func:`split_fleet_vms` partitions the slot's VMs across pools —
   greedy fill of the most power-efficient platform first (by
   :meth:`~repro.core.types.PoolSpec.watts_per_capacity_pct`), each pool
   bounded by its capacity at the platform's energy-optimal frequency,
   with physical-capacity spill and a least-loaded fallback so every VM
   lands somewhere;
2. :class:`FleetEpactPolicy` runs the paper's EPACT *within* each pool
   (per-pool Eq. 1 sizing against the pool's own cached power tables,
   then Algorithm 1 or 2 under the pool's caps) and concatenates the
   pool plans pool-major, tagging each server row with its pool index
   (:attr:`~repro.core.types.Allocation.server_pools`).

With a single-pool fleet the split is the identity and the policy
reduces *exactly* to :class:`~repro.core.epact.EpactPolicy` — the
bit-identity `tests/test_hetero_equivalence.py` asserts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, DomainError
from .alloc1d import allocate_1d, ffd_order, run_allocator_pools
from .alloc2d import allocate_2d
from .sizing import FleetSizingResult, size_fleet_slot
from .types import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    FleetSpec,
)


def split_fleet_vms(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    fleet: FleetSpec,
    f_opt_ghz: Optional[Sequence[Optional[float]]] = None,
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
    f_opts = [
        (
            f_opt_ghz[m]
            if f_opt_ghz is not None and f_opt_ghz[m] is not None
            else pool.power_model.optimal_frequency_ghz()
        )
        for m, pool in enumerate(fleet.pools)
    ]
    cap_opt = np.array(
        [
            pool.n_servers * 100.0 * f_opts[m] / pool.f_max_ghz
            for m, pool in enumerate(fleet.pools)
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


def allocate_fleet_slot(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    fleet: FleetSpec,
    sizing: FleetSizingResult,
) -> Tuple[List, np.ndarray, int]:
    """Pack each pool's VM subset with the pool's own EPACT branch.

    Per pool, the sizing's case picks Algorithm 1 (CPU-dominant) or
    Algorithm 2 (memory-dominant) under the pool's caps and server
    bound; the resulting plans carry *global* VM ids and the pool's
    planned frequency.  Returns ``(plans, server_pools, forced)`` with
    plans concatenated pool-major.  The shared
    :func:`~repro.core.alloc1d.run_allocator_pools` loop owns the
    global-id remap and pool-major bookkeeping, and every pool is a
    standalone allocator call — so the result is bit-identical to a
    per-pool reference by construction.
    """
    def run_pool(m: int, idx: np.ndarray):
        pool_sizing = sizing.pool_sizings[m]
        pool = fleet.pools[m]
        if pool_sizing.case == "cpu":
            plans, forced = allocate_1d(
                pred_cpu[idx],
                pred_mem[idx],
                cap_cpu_pct=pool_sizing.cap_cpu_pct,
                cap_mem_pct=pool_sizing.cap_mem_pct,
                max_servers=pool.n_servers,
            )
        else:
            plans, forced = allocate_2d(
                pred_cpu[idx],
                pred_mem[idx],
                n_servers=pool_sizing.n_servers,
                cap_cpu_pct=pool_sizing.cap_cpu_pct,
                cap_mem_pct=pool_sizing.cap_mem_pct,
                max_servers=pool.n_servers,
            )
        for plan in plans:
            plan.planned_freq_ghz = pool_sizing.f_opt_ghz
        return plans, forced

    # run_allocator_pools skips empty pools, which is exactly the set
    # size_fleet_slot left unsized (pool_sizings[m] is None iff the
    # assignment is empty), and owns the global-id remap and pool-major
    # bookkeeping for every pool-dimension caller.
    return run_allocator_pools(run_pool, sizing.assignments)


class FleetEpactPolicy(AllocationPolicy):
    """EPACT over a heterogeneous fleet (see module docstring).

    Args:
        f_opt_ghz: optional per-pool energy-optimal frequency overrides
            (``None`` entries are computed from the pool's power model
            and cached).
        mem_headroom_pct: memory headroom kept per server, as in
            :class:`~repro.core.epact.EpactPolicy`.
    """

    name = "EPACT-FLEET"

    def __init__(
        self,
        f_opt_ghz: Optional[Sequence[Optional[float]]] = None,
        mem_headroom_pct: float = 10.0,
    ):
        if not (0.0 <= mem_headroom_pct < 100.0):
            raise ConfigurationError(
                "mem_headroom_pct must be in [0, 100)"
            )
        self._f_opt_override = (
            list(f_opt_ghz) if f_opt_ghz is not None else None
        )
        self._mem_cap_pct = 100.0 - mem_headroom_pct
        # One-entry cache keyed by the fleet object itself (holding the
        # reference keeps ids stable): F_opt per pool is a ~n_opps-long
        # scalar power sweep, not per-slot work.
        self._cached_f_opts: Optional[
            Tuple[FleetSpec, List[float]]
        ] = None

    def _pool_f_opts(self, fleet: FleetSpec) -> List[float]:
        """Per-pool F_opt, computed once per fleet instance."""
        if (
            self._cached_f_opts is not None
            and self._cached_f_opts[0] is fleet
        ):
            return self._cached_f_opts[1]
        if self._f_opt_override is not None:
            if len(self._f_opt_override) != fleet.n_pools:
                raise ConfigurationError(
                    "f_opt_ghz must have one entry per pool"
                )
            f_opts = [
                (
                    override
                    if override is not None
                    else pool.power_model.optimal_frequency_ghz()
                )
                for override, pool in zip(
                    self._f_opt_override, fleet.pools
                )
            ]
        else:
            f_opts = [
                pool.power_model.optimal_frequency_ghz()
                for pool in fleet.pools
            ]
        self._cached_f_opts = (fleet, f_opts)
        return f_opts

    def allocate(self, ctx: AllocationContext) -> Allocation:
        """Split, size and pack one slot across the fleet's pools."""
        fleet = ctx.fleet
        if fleet is None:
            raise ConfigurationError(
                "FleetEpactPolicy needs a fleet context; pass "
                "fleet=FleetSpec(...) to the simulation (or use "
                "EpactPolicy on a homogeneous data center)"
            )
        f_opts = self._pool_f_opts(fleet)
        assignments = split_fleet_vms(
            ctx.pred_cpu,
            ctx.pred_mem,
            fleet,
            f_opt_ghz=f_opts,
            cap_mem_pct=self._mem_cap_pct,
        )
        sizing = size_fleet_slot(
            ctx.pred_cpu,
            ctx.pred_mem,
            fleet,
            assignments,
            f_opt_ghz=f_opts,
            cap_mem_pct=self._mem_cap_pct,
        )
        plans, server_pools, forced = allocate_fleet_slot(
            ctx.pred_cpu, ctx.pred_mem, fleet, sizing
        )
        occupied = [
            s for s in sizing.pool_sizings if s is not None
        ]
        f_opt = occupied[0].f_opt_ghz if len(occupied) == 1 else None
        return Allocation(
            policy_name=self.name,
            plans=plans,
            dynamic_governor=True,
            violation_cap_pct=100.0,
            case=sizing.case,
            f_opt_ghz=f_opt,
            forced_placements=forced,
            server_pools=server_pools,
        )
