"""COAT: COnsolidation-Aware allocaTion (baseline, the paper's Ref. [17]).

Kim et al.'s correlation-aware consolidation, as the paper uses it for
comparison:

* VMs are consolidated onto as few servers as possible (first-fit
  decreasing against the *full* capacity cap at ``Fmax``);
* among the servers with room, the VM goes to the one whose current load
  pattern has the **lowest** Pearson correlation with the VM — separating
  CPU-load-correlated VMs so their peaks do not coincide;
* active servers run at the cap's frequency (``Fmax`` for the standard
  COAT): consolidation "minimizes the amount of active servers and runs
  them at the highest frequency possible" (paper Section V-A).

Because servers are packed to their cap with no slack, any
under-prediction overflows the cap immediately — the violation behaviour
of the paper's Fig. 4.

The ``dynamic_governor`` flag is an *ablation* beyond the paper: it lets
COAT's servers use EPACT's per-sample governor, quantifying how much of
EPACT's advantage comes from allocation versus frequency control.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.alloc1d import ffd_order
from ..core.correlation import pearson_many
from ..core.types import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    ServerPlan,
    force_place_remaining,
)

_EPS = 1.0e-9


class CoatPolicy(AllocationPolicy):
    """Correlation-aware consolidation with a fixed capacity cap.

    Args:
        cap_cpu_pct: CPU packing cap in percent of ``Fmax`` capacity
            (100 = standard COAT).
        cap_mem_pct: memory packing cap (100 = physical capacity).
        correlation_aware: pick the least-correlated fitting server
            (``True``, Kim et al.) or plain first-fit (``False``).
        dynamic_governor: ablation switch; ``False`` (paper behaviour)
            pins active servers at the cap frequency.
        name: report name override.
    """

    name = "COAT"
    reallocation_period_slots = 1

    def __init__(
        self,
        cap_cpu_pct: float = 100.0,
        cap_mem_pct: float = 100.0,
        correlation_aware: bool = True,
        dynamic_governor: bool = False,
        name: Optional[str] = None,
        reallocation_period_slots: int = 1,
    ):
        if not (0.0 < cap_cpu_pct <= 100.0):
            raise ValueError("cap_cpu_pct must be in (0, 100]")
        if not (0.0 < cap_mem_pct <= 100.0):
            raise ValueError("cap_mem_pct must be in (0, 100]")
        self._cap_cpu = cap_cpu_pct
        self._cap_mem = cap_mem_pct
        self._correlation_aware = correlation_aware
        self._dynamic_governor = dynamic_governor
        if name is not None:
            self.name = name
        if reallocation_period_slots < 1:
            raise ValueError("reallocation_period_slots must be >= 1")
        self.reallocation_period_slots = reallocation_period_slots

    # -- cap / frequency semantics ----------------------------------------

    def cap_frequency_ghz(self, ctx: AllocationContext) -> float:
        """Fixed operating frequency implied by the CPU cap.

        The smallest OPP covering the cap: ``Fmax`` for a 100% cap.
        """
        target = self._cap_cpu * ctx.f_max_ghz / 100.0
        if target <= ctx.opps.f_min_ghz:
            return ctx.opps.f_min_ghz
        return ctx.opps.ceil(min(target, ctx.f_max_ghz)).freq_ghz

    # -- allocation ---------------------------------------------------------

    def allocate(self, ctx: AllocationContext) -> Allocation:
        """FFD consolidation with correlation-aware server choice.

        Open servers' CPU and memory patterns are rows of two
        preallocated float64 matrices, updated in place.  The float
        additions happen in the same order as in
        :func:`_allocate_reference`, so the plans are bit-identical.
        """
        freq = self.cap_frequency_ghz(ctx)
        # One float64 cast reproduces the reference's arithmetic: its
        # float64 patterns upcast every VM row exactly, and pearson_many
        # casts the target to float64 before centering it.
        cpu = np.asarray(ctx.pred_cpu, dtype=float)
        mem = np.asarray(ctx.pred_mem, dtype=float)
        n_vms, n_samples = cpu.shape
        # Each open server holds at least one VM.
        rows = min(ctx.max_servers, n_vms)
        patt_cpu = np.empty((rows, n_samples))
        patt_mem = np.empty((rows, n_samples))
        agg = np.empty((rows, n_samples))
        cap_cpu = self._cap_cpu + _EPS
        cap_mem = self._cap_mem + _EPS

        peak = np.maximum.reduce  # ndarray.max without its Python wrapper
        plans: List[ServerPlan] = []
        unplaced: List[int] = []
        for vm_id in ffd_order(ctx.pred_cpu).tolist():
            n_open = len(plans)
            row_cpu, row_mem = cpu[vm_id], mem[vm_id]
            np.add(patt_cpu[:n_open], row_cpu, out=agg[:n_open])
            candidates = (peak(agg[:n_open], axis=1) <= cap_cpu).nonzero()[0]
            if candidates.size:
                # The memory test only has to run where the CPU fits.
                candidates = candidates[
                    peak(patt_mem[candidates] + row_mem, axis=1) <= cap_mem
                ]
            if candidates.size:
                chosen = int(candidates[0])
                if self._correlation_aware and candidates.size > 1:
                    corr = pearson_many(patt_cpu[candidates], row_cpu)
                    chosen = int(candidates[np.argmin(corr)])
                plans[chosen].vm_ids.append(vm_id)
                patt_cpu[chosen] += row_cpu
                patt_mem[chosen] += row_mem
            elif n_open < rows:
                plans.append(
                    ServerPlan(
                        vm_ids=[vm_id],
                        cap_cpu_pct=self._cap_cpu,
                        cap_mem_pct=self._cap_mem,
                        planned_freq_ghz=freq,
                    )
                )
                patt_cpu[n_open] = row_cpu
                patt_mem[n_open] = row_mem
            else:
                unplaced.append(vm_id)

        forced = force_place_remaining(plans, unplaced, ctx.pred_cpu)
        return self._allocation(plans, forced, freq)

    def _allocation(
        self, plans: List[ServerPlan], forced: int, freq: float
    ) -> Allocation:
        """The allocation for packed ``plans`` (shared with the oracle)."""
        for plan in plans:
            plan.planned_freq_ghz = freq
        return Allocation(
            policy_name=self.name,
            plans=plans,
            dynamic_governor=self._dynamic_governor,
            violation_cap_pct=100.0
            if self._dynamic_governor
            else self._cap_cpu,
            f_opt_ghz=freq,
            forced_placements=forced,
        )


def _allocate_reference(policy: CoatPolicy, ctx: AllocationContext) -> Allocation:
    """The seed packing loop, kept as :meth:`CoatPolicy.allocate`'s oracle.

    It rebuilds every open server's pattern with ``np.stack`` over Python
    lists for each VM.  ``policy`` may be any :class:`CoatPolicy`
    (COAT-OPT and FFD included); its caps are read as in the seed.
    """
    pred_cpu, pred_mem = ctx.pred_cpu, ctx.pred_mem
    order = ffd_order(pred_cpu)

    plans: List[ServerPlan] = []
    patt_cpu: List[np.ndarray] = []
    patt_mem: List[np.ndarray] = []
    unplaced: List[int] = []
    freq = policy.cap_frequency_ghz(ctx)

    for vm_id in (int(v) for v in order):
        placed = False
        if plans:
            agg_cpu = np.stack(patt_cpu) + pred_cpu[vm_id][None, :]
            agg_mem = np.stack(patt_mem) + pred_mem[vm_id][None, :]
            fits = (agg_cpu.max(axis=1) <= policy._cap_cpu + _EPS) & (
                agg_mem.max(axis=1) <= policy._cap_mem + _EPS
            )
            candidate_ids = np.flatnonzero(fits)
            if candidate_ids.size:
                if policy._correlation_aware:
                    corr = pearson_many(
                        np.stack(patt_cpu)[candidate_ids],
                        pred_cpu[vm_id],
                    )
                    chosen = int(candidate_ids[int(np.argmin(corr))])
                else:
                    chosen = int(candidate_ids[0])
                plans[chosen].vm_ids.append(vm_id)
                patt_cpu[chosen] = patt_cpu[chosen] + pred_cpu[vm_id]
                patt_mem[chosen] = patt_mem[chosen] + pred_mem[vm_id]
                placed = True
        if not placed:
            if len(plans) < ctx.max_servers:
                plans.append(
                    ServerPlan(
                        cap_cpu_pct=policy._cap_cpu,
                        cap_mem_pct=policy._cap_mem,
                        planned_freq_ghz=freq,
                    )
                )
                patt_cpu.append(pred_cpu[vm_id].astype(float).copy())
                patt_mem.append(pred_mem[vm_id].astype(float).copy())
                plans[-1].vm_ids.append(vm_id)
            else:
                unplaced.append(vm_id)

    forced = force_place_remaining(plans, unplaced, pred_cpu)
    return policy._allocation(plans, forced, freq)
