"""EPACT: Energy Proportionality-Aware dynamiC allocaTion (the paper's
primary contribution, Section V-B).

Per slot, EPACT:

1. predicts per-VM CPU/memory patterns (done upstream, shared with the
   baselines);
2. sizes the fleet from both the CPU and the memory perspective (Eq. 1)
   and picks the case:

   * **case 1 (CPU-dominant, N_cpu > N_mem)** — exhaustively explores the
     server counts between the two, picks the ``(N, F_opt)`` with minimum
     worst-case power, and packs VMs with the 1D correlation-aware FFD of
     Algorithm 1 under the cap ``100 * F_opt / Fmax``;
   * **case 2 (memory-dominant)** — turns on ``N_mem`` servers and places
     each VM by the 2D merit function of Algorithm 2 (Eq. 2);

3. leaves frequency to the online per-sample governor during the slot:
   unlike the fixed-cap baselines, EPACT servers can ride up to ``Fmax``
   to absorb mispredictions — which is why its violation cap is the full
   100% capacity.

On a fleet of several server pools the slot's VMs are first split
across the pools (:func:`~repro.core.fleet.split_fleet_vms`), and steps
2–3 run within each non-empty pool under its own power model and server
count.  The pool plans are concatenated pool-major and tagged with
:attr:`~repro.core.types.Allocation.server_pools`.  The paper's
homogeneous data center is the one-pool fleet, where the split is the
identity.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from .alloc1d import allocate_1d, run_allocator_pools
from .alloc2d import allocate_2d
from .fleet import split_fleet_vms
from .sizing import size_slot
from .types import Allocation, AllocationContext, AllocationPolicy


class EpactPolicy(AllocationPolicy):
    """The EPACT allocation policy.

    Args:
        f_ntc_opt_ghz: the platform's energy-optimal frequency used by the
            Eq. 1 CPU sizing.  Taken from the power model (minimum of
            worst-case power per GHz) when omitted — ≈1.9 GHz for the NTC
            server.  Only a one-pool fleet accepts it: every pool of a
            larger fleet uses its own platform's value.
        mem_headroom_pct: memory headroom kept per server.  CPU
            mispredictions are absorbed by raising frequency; memory has
            no such lever, so EPACT's "we do not fill up the servers to
            their maximum capacity" is realized by packing memory only to
            ``100 - mem_headroom_pct`` percent.
    """

    name = "EPACT"

    def __init__(
        self,
        f_ntc_opt_ghz: Optional[float] = None,
        mem_headroom_pct: float = 10.0,
    ):
        if not (0.0 <= mem_headroom_pct < 100.0):
            raise ValueError("mem_headroom_pct must be in [0, 100)")
        self._f_ntc_opt = f_ntc_opt_ghz
        self._mem_cap_pct = 100.0 - mem_headroom_pct

    def _pack_pool(self, pool, pred_cpu, pred_mem):
        """Eq. 1 sizing, then Algorithm 1 or 2, within one pool."""
        sizing = size_slot(
            pred_cpu,
            pred_mem,
            pool.power_model,
            max_servers=pool.n_servers,
            f_ntc_opt_ghz=self._f_ntc_opt,
            cap_mem_pct=self._mem_cap_pct,
        )
        if sizing.case == "cpu":
            plans, forced = allocate_1d(
                pred_cpu,
                pred_mem,
                cap_cpu_pct=sizing.cap_cpu_pct,
                cap_mem_pct=sizing.cap_mem_pct,
                max_servers=pool.n_servers,
            )
        else:
            plans, forced = allocate_2d(
                pred_cpu,
                pred_mem,
                n_servers=sizing.n_servers,
                cap_cpu_pct=sizing.cap_cpu_pct,
                cap_mem_pct=sizing.cap_mem_pct,
                max_servers=pool.n_servers,
            )
        for plan in plans:
            plan.planned_freq_ghz = sizing.f_opt_ghz
        return sizing, plans, forced

    def allocate(self, ctx: AllocationContext) -> Allocation:
        """Split, size, branch and pack one slot (see module docstring)."""
        fleet = ctx.fleet
        server_pools = None
        if fleet.single_pool:
            # The split is the identity: pack the context's own
            # matrices, and the plans keep its row ids.
            sizing, plans, forced = self._pack_pool(
                fleet.pools[0], ctx.pred_cpu, ctx.pred_mem
            )
            sizings = [sizing]
        else:
            if self._f_ntc_opt is not None:
                raise ConfigurationError(
                    "f_ntc_opt_ghz applies to a one-pool fleet; on "
                    f"{fleet.n_pools} pools each pool's platform sets "
                    "its own optimal frequency"
                )
            sizings = []

            def run_pool(m, idx):
                sizing, plans, forced = self._pack_pool(
                    fleet.pools[m], ctx.pred_cpu[idx], ctx.pred_mem[idx]
                )
                sizings.append(sizing)
                return plans, forced

            plans, server_pools, forced = run_allocator_pools(
                run_pool,
                split_fleet_vms(
                    ctx.pred_cpu,
                    ctx.pred_mem,
                    fleet,
                    cap_mem_pct=self._mem_cap_pct,
                ),
            )
        return Allocation(
            policy_name=self.name,
            plans=plans,
            dynamic_governor=True,
            violation_cap_pct=100.0,
            case="+".join(sizing.case for sizing in sizings),
            f_opt_ghz=sizings[0].f_opt_ghz if len(sizings) == 1 else None,
            forced_placements=forced,
            server_pools=server_pools,
        )
