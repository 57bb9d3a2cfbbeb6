"""Sharded allocation: any policy, shard by shard.

:class:`ShardedPolicy` wraps an ordinary
:class:`~repro.core.types.AllocationPolicy` and splits each allocation
window into pattern-similar VM shards (:func:`repro.shard.cluster
.cluster_vms`), runs the wrapped policy on each shard against a
sub-fleet (every pool of the window's fleet split by the shard loads),
and concatenates the per-shard plans shard-major through the same
:func:`~repro.core.alloc1d.run_allocator_pools` seam EPACT's pool loop
uses — shards compose exactly like pools.

Shards run in-process, in shard order.  ``shards=1`` bypasses the whole
layer (``allocate`` delegates straight to the wrapped policy) and is
therefore **bit-identical** to the unsharded engine.  Process-level
parallelism lives one level up: :func:`~repro.shard.geo.run_geo_policies`
fans independent (policy, region) runs out over worker processes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np

from ..core.alloc1d import run_allocator_pools
from ..core.online import OnlinePolicy
from ..core.types import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    FleetSpec,
)
from ..core.workspace import AllocationWorkspace
from ..errors import ConfigurationError
from .cluster import cluster_vms, shard_server_budgets

_WEIGHT_FLOOR = 1.0e-9


def _shard_context(
    ctx: AllocationContext, rows: np.ndarray, pool_servers: np.ndarray
) -> AllocationContext:
    """The window context restricted to one shard's VMs and its share
    (``pool_servers[p]`` servers) of every pool of the fleet."""
    fleet = FleetSpec(
        pools=tuple(
            replace(pool, n_servers=int(n))
            for pool, n in zip(ctx.fleet.pools, pool_servers)
        )
    )
    return AllocationContext(
        pred_cpu=np.ascontiguousarray(ctx.pred_cpu[rows]),
        pred_mem=np.ascontiguousarray(ctx.pred_mem[rows]),
        power_model=ctx.power_model,
        max_servers=fleet.total_servers,
        qos_floor_ghz=ctx.qos_floor_ghz[rows],
        fleet=fleet,
    )


class ShardedPolicy(AllocationPolicy):
    """Run a wrapped policy shard by shard (see module docstring).

    The wrapper is transparent in reports and records: it advertises the
    wrapped policy's ``name`` and ``reallocation_period_slots``.

    Args:
        policy: the policy to run per shard.
        shards: requested shard count (clamped to the window's VM
            count); ``1`` delegates straight to the wrapped policy.
        tracer: optional :class:`~repro.obs.tracer.RunTracer`; when set,
            every sharded window emits a ``shard_window`` event.

    Raises:
        ConfigurationError: for ``shards < 1``, or an
            :class:`~repro.core.online.OnlinePolicy` with ``shards > 1``
            (its placement state spans the whole population).
    """

    def __init__(
        self,
        policy: AllocationPolicy,
        shards: int = 1,
        tracer=None,
    ):
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if shards > 1 and isinstance(policy, OnlinePolicy):
            raise ConfigurationError(
                f"online policy {policy.name!r} keeps its placement "
                "across windows by VM id over the whole population, so "
                "it cannot run shard by shard — use shards=1"
            )
        self._inner = policy
        self._shards = int(shards)
        self._tracer = tracer
        self.name = policy.name
        self.reallocation_period_slots = policy.reallocation_period_slots

    # The tracer (open file handles) never crosses a pickle boundary.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_tracer"] = None
        return state

    def reset(self) -> None:
        """Reset the wrapped policy (start of a fresh run)."""
        self._inner.reset()

    def state(self) -> Dict[str, object]:
        """The wrapped policy's checkpoint state."""
        return self._inner.state()

    def restore(self, state: Dict[str, object]) -> None:
        """Restore the wrapped policy's checkpoint state."""
        self._inner.restore(state)

    def allocate(self, ctx: AllocationContext) -> Allocation:
        """Cluster, split the budget, allocate per shard, concatenate."""
        if self._shards <= 1:
            return self._inner.allocate(ctx)
        if ctx.faults is not None:
            raise ConfigurationError(
                "sharded allocation does not compose with the fault "
                "layer yet — run faulted scenarios with shards=1"
            )
        workspace = AllocationWorkspace(ctx.pred_cpu, ctx.pred_mem)
        shard_rows = cluster_vms(ctx.pred_cpu, self._shards, workspace)
        if len(shard_rows) <= 1:
            return self._inner.allocate(ctx)

        # Per-shard load weights: the sum of predicted CPU peaks, with a
        # tiny floor so even an all-idle (but non-empty) shard draws a
        # server; empty shards weigh nothing and get nothing.
        peaks = workspace.cpu_peak
        weights = np.array(
            [
                max(float(peaks[rows].sum()), _WEIGHT_FLOOR)
                if rows.size
                else 0.0
                for rows in shard_rows
            ]
        )
        # Every pool is split by the shard weights: pool order is
        # preserved and every positive-weight shard gets at least one
        # server of every pool, so a shard allocation's server_pools
        # indices are parent-fleet pool indices.
        budgets = np.stack(
            [
                shard_server_budgets(weights, pool.n_servers)
                for pool in ctx.fleet.pools
            ],
            axis=1,
        )
        occupied = [s for s, rows in enumerate(shard_rows) if rows.size]
        allocations = {
            s: self._inner.allocate(
                _shard_context(ctx, shard_rows[s], budgets[s])
            )
            for s in occupied
        }

        def reuse(m: int, idx: np.ndarray):
            allocation = allocations[m]
            return allocation.plans, allocation.forced_placements

        plans, _, forced = run_allocator_pools(reuse, shard_rows)
        server_pools = None
        if ctx.fleet.n_pools > 1:
            parts = [allocations[s].server_pools for s in occupied]
            if any(part is None for part in parts):
                raise ConfigurationError(
                    f"policy {self._inner.name!r} left server_pools "
                    "unset on a multi-pool fleet — wrap a fleet-aware "
                    "policy (e.g. EpactPolicy) instead"
                )
            server_pools = np.concatenate(parts)
        shed: List[int] = []
        for s in occupied:
            shed.extend(
                int(shard_rows[s][v]) for v in allocations[s].shed_vm_ids
            )
        first = allocations[occupied[0]]
        cases = {allocations[s].case for s in occupied}
        f_opts = {allocations[s].f_opt_ghz for s in occupied}
        if self._tracer is not None:
            self._tracer.emit(
                "shard_window",
                n_shards=len(shard_rows),
                n_vms=ctx.n_vms,
                shard_sizes=[int(rows.size) for rows in shard_rows],
                server_budgets=[int(b) for b in budgets.sum(axis=1)],
                forced=int(forced),
            )
        return Allocation(
            policy_name=self.name,
            plans=plans,
            dynamic_governor=first.dynamic_governor,
            violation_cap_pct=first.violation_cap_pct,
            case=cases.pop() if len(cases) == 1 else "mixed",
            f_opt_ghz=f_opts.pop() if len(f_opts) == 1 else None,
            forced_placements=forced,
            server_pools=server_pools,
            shed_vm_ids=shed,
        )
