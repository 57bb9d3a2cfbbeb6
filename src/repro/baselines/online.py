"""Online cloud policies: placement-on-arrival and reactive consolidation.

The taxonomy of Beloglazov et al. (and the revisited evaluations that
followed) splits online consolidation into three mechanisms:

1. **placement on arrival** — each arriving VM is packed against the
   *current* load, instead of re-packing the whole fleet.  Arrivals go
   in decreasing-peak order, each to the fitting server left with the
   highest peak (best fit; reactive moves pick targets the same way);
2. **overload detection** — servers whose (predicted or observed)
   aggregate exceeds an upper threshold shed their largest VMs;
3. **underload detection** — servers riding below a lower threshold are
   drained entirely (all-or-nothing) so they can be switched off.

:class:`OnlineBestFitPolicy` implements mechanism 1;
:class:`OnlineReactivePolicy` adds 2 and 3.  Both keep their placement
*between* slots (the engine's migration counter then sees exactly the
VMs they chose to move) and run the per-sample DVFS governor like EPACT,
so the three-way comparison against the paper's day-ahead policies
isolates the allocation strategy.

The detection/placement **signal** is selectable: ``"forecast"`` uses
the shared day-ahead predictions (forecast-assisted operation),
``"reactive"`` uses the utilization actually observed during the
previous slot, falling back to the forecast for VMs without history
(fresh arrivals).

Both policies carry a **pool dimension**
(:class:`~repro.core.types.FleetSpec`, which every context carries):
placement state is one server table *per pool*, arrivals try pools in
platform-efficiency order (fit into an existing server, else open one,
before falling through to the next pool), and reactive
re-consolidation stays *within* a pool — heterogeneous platforms (ARM
NTC vs x86) cannot live-migrate a VM across ISAs, so cross-pool moves
are not offered.  The paper's homogeneous data center is the one-pool
fleet, whose allocations leave ``server_pools`` unset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.online import OnlinePolicy
from ..core.types import Allocation, AllocationContext, ServerPlan
from ..errors import ConfigurationError

_EPS = 1.0e-9


class _ServerTable:
    """Mutable per-call server state: ids, aggregates, membership.

    Aggregates live in preallocated (capacity, n_samples) arrays so the
    placement loop's whole-table reads are views, not per-call stacks.
    """

    def __init__(self, n_samples: int, capacity: int = 16):
        self.sids: List[int] = []
        self.vms: List[List[int]] = []  # global ids, insertion order
        self._cpu = np.zeros((capacity, n_samples))
        self._mem = np.zeros((capacity, n_samples))
        self._next_sid = 0

    @property
    def n_servers(self) -> int:
        return len(self.sids)

    def agg_cpu(self) -> np.ndarray:
        return self._cpu[: len(self.sids)]

    def agg_mem(self) -> np.ndarray:
        return self._mem[: len(self.sids)]

    def row_cpu(self, pos: int) -> np.ndarray:
        """One server's aggregate CPU pattern (the per-move hot read)."""
        return self._cpu[pos]

    def _append_row(self) -> int:
        if len(self.sids) == self._cpu.shape[0]:
            grown = np.zeros((2 * self._cpu.shape[0], self._cpu.shape[1]))
            grown[: self._cpu.shape[0]] = self._cpu
            self._cpu = grown
            grown = np.zeros((2 * self._mem.shape[0], self._mem.shape[1]))
            grown[: self._mem.shape[0]] = self._mem
            self._mem = grown
        self.vms.append([])
        return len(self.vms) - 1

    def open(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        pos = self._append_row()
        self.sids.append(sid)
        return pos

    def seed_server(self, sid: int) -> int:
        """Register a server id carried over from the previous slot."""
        pos = self._append_row()
        self.sids.append(sid)
        self._next_sid = max(self._next_sid, sid + 1)
        return pos

    def add(self, pos: int, vm: int, cpu: np.ndarray, mem: np.ndarray):
        self.vms[pos].append(vm)
        self._cpu[pos] += cpu
        self._mem[pos] += mem

    def bulk_add(
        self,
        positions: np.ndarray,
        vms: List[int],
        cpu_rows: np.ndarray,
        mem_rows: np.ndarray,
    ):
        """Scatter many VMs onto their servers in one pass (the slot-
        entry rebuild of carried-over state)."""
        for pos, vm in zip(positions, vms):
            self.vms[pos].append(vm)
        np.add.at(self._cpu, positions, cpu_rows)
        np.add.at(self._mem, positions, mem_rows)

    def remove(self, pos: int, vm: int, cpu: np.ndarray, mem: np.ndarray):
        self.vms[pos].remove(vm)
        self._cpu[pos] -= cpu
        self._mem[pos] -= mem

    def drop_empty(self) -> None:
        keep = [i for i, hosted in enumerate(self.vms) if hosted]
        if len(keep) != len(self.sids):
            rows = np.asarray(keep, dtype=int)
            self._cpu[: rows.size] = self._cpu[rows]
            self._mem[: rows.size] = self._mem[rows]
            self._cpu[rows.size : len(self.sids)] = 0.0
            self._mem[rows.size : len(self.sids)] = 0.0
            self.sids = [self.sids[i] for i in keep]
            self.vms = [self.vms[i] for i in keep]

    def drop_positions(self, positions: np.ndarray) -> None:
        """Drop whole server rows (emergency eviction of failed or
        capped-out servers), hosted VMs included — callers re-place
        the victims themselves."""
        if positions.size == 0:
            return
        dropped = {int(p) for p in positions}
        keep = [i for i in range(len(self.sids)) if i not in dropped]
        rows = np.asarray(keep, dtype=int)
        n_prev = len(self.sids)
        self._cpu[: rows.size] = self._cpu[rows]
        self._mem[: rows.size] = self._mem[rows]
        self._cpu[rows.size : n_prev] = 0.0
        self._mem[rows.size : n_prev] = 0.0
        self.sids = [self.sids[i] for i in keep]
        self.vms = [self.vms[i] for i in keep]


class OnlineBestFitPolicy(OnlinePolicy):
    """Placement-on-arrival against the current load (no rebalancing).

    Args:
        cap_cpu_pct: per-server CPU packing cap (percent of ``Fmax``
            capacity); kept below 100 to leave reaction headroom.
        cap_mem_pct: per-server memory packing cap.
        signal: ``"forecast"`` (day-ahead predictions) or ``"reactive"``
            (previous slot's observed utilization, forecast fallback).
        name: report-name override.
    """

    name = "ONLINE-BF"

    #: Under a fleet power cap, consolidate onto a proportionally
    #: reduced server budget (reactive subclass behaviour).
    _cap_consolidate = False
    #: Under an active fault window, shed VMs that no surviving server
    #: can physically host (the least-loaded fallback target would
    #: exceed 100% CPU) into SLA debt instead of force-placing them
    #: (reactive subclass behaviour).
    _shed_on_insufficient = False

    def __init__(
        self,
        cap_cpu_pct: float = 90.0,
        cap_mem_pct: float = 90.0,
        signal: str = "forecast",
        name: Optional[str] = None,
    ):
        if not (0.0 < cap_cpu_pct <= 100.0):
            raise ConfigurationError("cap_cpu_pct must be in (0, 100]")
        if not (0.0 < cap_mem_pct <= 100.0):
            raise ConfigurationError("cap_mem_pct must be in (0, 100]")
        if signal not in ("forecast", "reactive"):
            raise ConfigurationError(
                "signal must be 'forecast' or 'reactive'"
            )
        self._cap_cpu = cap_cpu_pct
        self._cap_mem = cap_mem_pct
        self._signal_kind = signal
        # Only the reactive signal reads the previous slot's utilization.
        self.reads_last_observed = signal == "reactive"
        if name is not None:
            self.name = name
        # global vm id -> (pool index, server id); pool is always 0
        # outside heterogeneous fleets.
        self._assign: Dict[int, Tuple[int, int]] = {}

    # -- OnlinePolicy -------------------------------------------------------

    def reset(self) -> None:
        """Forget every placement (fresh simulation)."""
        self._assign = {}

    def state(self) -> Dict[str, object]:
        """The placement carried between windows, as ``[vm id, pool,
        server id]`` rows."""
        return {
            "assign": [[g, m, sid] for g, (m, sid) in self._assign.items()]
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Load a :meth:`state` snapshot."""
        self._assign = {
            int(g): (int(m), int(sid)) for g, m, sid in state["assign"]
        }

    def allocate(self, ctx: AllocationContext) -> Allocation:
        """One online step: prune, place arrivals, optionally rebalance."""
        fleet = ctx.fleet
        ids = ctx.vm_ids
        id_set = {int(g) for g in ids}
        pos_of = {int(g): i for i, g in enumerate(ids)}
        sig_cpu, sig_mem = self._signal(ctx)

        # The pool dimension: per-pool capacities and the order pools
        # are offered demand in (most efficient platform first).
        pool_caps = [pool.n_servers for pool in fleet.pools]
        order = fleet.efficiency_order()
        n_pools = len(pool_caps)

        # Departures: drop state for VMs no longer in the population.
        self._assign = {
            g: s for g, s in self._assign.items() if g in id_set
        }

        # Seed carried-over servers per pool in ascending sid order so
        # table position order equals server-id order (newly opened
        # servers always take higher sids): best fit's argmax and the
        # force-place argmin take the lowest position among equal
        # values, so ties go to the lowest server id.  Aggregates are
        # rebuilt in one scatter per pool; per-bin accumulation order
        # (ascending global id) matches the per-VM loop it replaces.
        tables = [_ServerTable(sig_cpu.shape[1]) for _ in range(n_pools)]
        pos_of_sid: List[Dict[int, int]] = []
        for m in range(n_pools):
            sids = sorted(
                {sid for pm, sid in self._assign.values() if pm == m}
            )
            pos_of_sid.append(
                {sid: tables[m].seed_server(sid) for sid in sids}
            )
        if self._assign:
            for m in range(n_pools):
                carried = sorted(
                    g for g, (pm, _) in self._assign.items() if pm == m
                )
                if not carried:
                    continue
                positions = np.array(
                    [
                        pos_of_sid[m][self._assign[g][1]]
                        for g in carried
                    ],
                    dtype=np.intp,
                )
                rows = np.array(
                    [pos_of[g] for g in carried], dtype=np.intp
                )
                tables[m].bulk_add(
                    positions, carried, sig_cpu[rows], sig_mem[rows]
                )

        # Fault layer: the engine already reduced the visible capacity
        # (pool_caps reflect the surviving servers); carried state may
        # exceed it, and a power cap may ask for an even tighter
        # consolidation budget.  Evict the overflow servers (highest
        # ids — deterministically "the failed ones"), re-place their
        # VMs home-pool-first, and optionally shed what nothing can
        # physically host.
        forced = 0
        shed_global: List[int] = []
        faults = ctx.faults
        shed_allowed = False
        budget_caps = pool_caps
        if faults is not None:
            shed_allowed = self._shed_on_insufficient
            if self._cap_consolidate and faults.cap_frac < 1.0:
                budget_caps = [
                    max(1, int(cap * faults.cap_frac))
                    for cap in pool_caps
                ]
            victims: List[Tuple[int, int]] = []  # (home pool, vm id)
            for m in range(n_pools):
                excess = tables[m].n_servers - budget_caps[m]
                if excess <= 0:
                    continue
                sid_arr = np.asarray(tables[m].sids, dtype=int)
                drop = np.sort(
                    np.argsort(sid_arr, kind="stable")[-excess:]
                )
                for pos in drop:
                    victims.extend(
                        (m, g) for g in sorted(tables[m].vms[int(pos)])
                    )
                tables[m].drop_positions(drop)
            if victims:
                peaks = sig_cpu[[pos_of[g] for _, g in victims]].max(
                    axis=1
                )
                for k in np.argsort(-peaks, kind="stable"):
                    m_home, g = victims[int(k)]
                    code = self._place(
                        tables,
                        g,
                        sig_cpu[pos_of[g]],
                        sig_mem[pos_of[g]],
                        budget_caps,
                        order,
                        prefer=m_home,
                        allow_shed=shed_allowed,
                    )
                    if code == 2:
                        shed_global.append(g)
                    else:
                        forced += code

        # Arrivals in FFD order (decreasing signal peak, stable ties).
        new_ids = np.array(
            [g for g in map(int, ids) if g not in self._assign], dtype=int
        )
        if new_ids.size:
            peaks = sig_cpu[[pos_of[g] for g in new_ids]].max(axis=1)
            for g in new_ids[np.argsort(-peaks, kind="stable")]:
                g = int(g)
                code = self._place(
                    tables,
                    g,
                    sig_cpu[pos_of[g]],
                    sig_mem[pos_of[g]],
                    budget_caps,
                    order,
                    allow_shed=shed_allowed,
                )
                if code == 2:
                    shed_global.append(g)
                else:
                    forced += code

        self._rebalance(
            tables, sig_cpu, sig_mem, pos_of, budget_caps, order
        )
        for table in tables:
            table.drop_empty()
        self._assign = {
            g: (m, tables[m].sids[i])
            for m in range(n_pools)
            for i, hosted in enumerate(tables[m].vms)
            for g in hosted
        }
        return self._build_allocation(
            tables, pos_of, forced, fleet, shed_global
        )

    # -- internals ----------------------------------------------------------

    def _signal(
        self, ctx: AllocationContext
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The (n_vms, n_samples) detection/placement patterns."""
        if self._signal_kind == "forecast" or ctx.last_cpu is None:
            return ctx.pred_cpu, ctx.pred_mem
        have = ~np.isnan(ctx.last_cpu).any(axis=1)
        sig_cpu = np.where(
            have[:, None], np.nan_to_num(ctx.last_cpu), ctx.pred_cpu
        )
        sig_mem = np.where(
            have[:, None], np.nan_to_num(ctx.last_mem), ctx.pred_mem
        )
        return sig_cpu, sig_mem

    def _fitting(
        self,
        table: _ServerTable,
        cpu: np.ndarray,
        mem: np.ndarray,
        exclude: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fitting server positions and their resulting CPU peaks."""
        if table.n_servers == 0:
            return np.empty(0, dtype=int), np.empty(0)
        peaks_cpu = (table.agg_cpu() + cpu[None, :]).max(axis=1)
        peaks_mem = (table.agg_mem() + mem[None, :]).max(axis=1)
        fits = (peaks_cpu <= self._cap_cpu + _EPS) & (
            peaks_mem <= self._cap_mem + _EPS
        )
        if exclude is not None:
            fits[exclude] = False
        cand = np.flatnonzero(fits)
        return cand, peaks_cpu[cand]

    @staticmethod
    def _choose(cand: np.ndarray, peaks: np.ndarray) -> int:
        """Best fit: the candidate left with the tightest peak."""
        return int(cand[int(np.argmax(peaks))])

    def _place(
        self,
        tables: List[_ServerTable],
        vm: int,
        cpu: np.ndarray,
        mem: np.ndarray,
        pool_caps: List[int],
        order: List[int],
        prefer: Optional[int] = None,
        allow_shed: bool = False,
    ) -> int:
        """Place one VM; returns 0 (placed), 1 (force-placed) or 2
        (shed).

        Pools are tried in platform-efficiency order — fit into an
        existing server of the pool, else open a new one under the
        pool's capacity — before falling through to the next pool.
        ``prefer`` front-runs one pool (emergency re-placement stays
        within the failed server's own pool when it can).  Only when
        every pool is exhausted does the VM get force-placed on the
        least-loaded server fleet-wide (the day-ahead policies' safety
        valve) — unless ``allow_shed`` and even that target would
        exceed physical CPU capacity, in which case the VM is shed
        (degraded operation: SLA debt instead of an impossible
        placement).
        """
        pools = (
            order
            if prefer is None
            else [prefer] + [m for m in order if m != prefer]
        )
        for m in pools:
            table = tables[m]
            cand, peaks = self._fitting(table, cpu, mem)
            if cand.size:
                table.add(self._choose(cand, peaks), vm, cpu, mem)
                return 0
            if table.n_servers < pool_caps[m]:
                table.add(table.open(), vm, cpu, mem)
                return 0
        best = None
        for m, table in enumerate(tables):
            if table.n_servers == 0:
                continue
            loads = table.agg_cpu().max(axis=1)
            pos = int(np.argmin(loads))
            if best is None or loads[pos] < best[0]:
                best = (float(loads[pos]), m, pos)
        if allow_shed and (
            best is None or best[0] + float(cpu.max()) > 100.0 + _EPS
        ):
            return 2
        if best is None:  # unreachable: pool capacities are >= 1
            raise ConfigurationError("no pool can open a server")
        tables[best[1]].add(best[2], vm, cpu, mem)
        return 1

    def _rebalance(
        self,
        tables: List[_ServerTable],
        sig_cpu: np.ndarray,
        sig_mem: np.ndarray,
        pos_of: Dict[int, int],
        pool_caps: List[int],
        order: List[int],
    ) -> None:
        """Hook for reactive subclasses; placement-only does nothing."""

    def _build_allocation(
        self,
        tables: List[_ServerTable],
        pos_of: Dict[int, int],
        forced: int,
        fleet,
        shed: Optional[List[int]] = None,
    ) -> Allocation:
        plans: List[ServerPlan] = []
        pools_of: List[int] = []
        for m, table in enumerate(tables):
            sid_order = np.argsort(
                np.asarray(table.sids, dtype=int), kind="stable"
            )
            plans.extend(
                ServerPlan(
                    vm_ids=[pos_of[g] for g in sorted(table.vms[i])],
                    cap_cpu_pct=self._cap_cpu,
                    cap_mem_pct=self._cap_mem,
                )
                for i in sid_order
            )
            pools_of.extend([m] * len(sid_order))
        return Allocation(
            policy_name=self.name,
            plans=plans,
            dynamic_governor=True,
            violation_cap_pct=100.0,
            forced_placements=forced,
            server_pools=(
                np.asarray(pools_of, dtype=int)
                if fleet.n_pools > 1
                else None
            ),
            shed_vm_ids=(
                [pos_of[g] for g in sorted(shed)] if shed else []
            ),
        )


class OnlineReactivePolicy(OnlineBestFitPolicy):
    """Placement-on-arrival plus threshold-driven re-consolidation.

    Args:
        overload_pct: servers whose signal aggregate peak exceeds this
            shed their largest VMs until back under (or stuck).
        underload_pct: servers riding below this are drained whole (all
            VMs re-placed elsewhere) so they can be switched off.
        max_migrations_per_slot: optional budget bounding reactive moves
            per slot (arrival placements are not migrations and are
            never limited).
        Other arguments as in :class:`OnlineBestFitPolicy`.

    Under faults it sheds unplaceable VMs into SLA debt instead of
    force-packing them onto overloaded survivors: the reactive policy is
    the degraded-operation baseline.
    """

    name = "ONLINE-REACTIVE"
    # Under a power-cap window the reactive policy runs forced
    # consolidation: the per-pool server budget shrinks with cap_frac.
    _cap_consolidate = True
    _shed_on_insufficient = True

    def __init__(
        self,
        cap_cpu_pct: float = 90.0,
        cap_mem_pct: float = 90.0,
        overload_pct: float = 90.0,
        underload_pct: float = 25.0,
        max_migrations_per_slot: Optional[int] = None,
        signal: str = "reactive",
        name: Optional[str] = None,
    ):
        super().__init__(
            cap_cpu_pct=cap_cpu_pct,
            cap_mem_pct=cap_mem_pct,
            signal=signal,
            name=name,
        )
        if not (0.0 < overload_pct <= 100.0):
            raise ConfigurationError("overload_pct must be in (0, 100]")
        if not (0.0 <= underload_pct < overload_pct):
            raise ConfigurationError(
                "underload_pct must be in [0, overload_pct)"
            )
        if (
            max_migrations_per_slot is not None
            and max_migrations_per_slot < 0
        ):
            raise ConfigurationError(
                "max_migrations_per_slot must be >= 0"
            )
        self._over = overload_pct
        self._under = underload_pct
        self._budget = max_migrations_per_slot

    def _rebalance(
        self,
        tables: List[_ServerTable],
        sig_cpu: np.ndarray,
        sig_mem: np.ndarray,
        pos_of: Dict[int, int],
        pool_caps: List[int],
        order: List[int],
    ) -> None:
        """Re-consolidate each pool, sharing one migration budget.

        Reactive moves stay *within* a pool (heterogeneous platforms
        cannot live-migrate across ISAs); pools are visited in the same
        efficiency order placement uses, so the budget favors the
        platform hosting the preferred share of the demand.
        """
        moves = 0
        budget = self._budget if self._budget is not None else np.inf
        for m in order:
            moves = self._rebalance_pool(
                tables[m], sig_cpu, sig_mem, pos_of, pool_caps[m],
                moves, budget,
            )

    def _rebalance_pool(
        self,
        table: _ServerTable,
        sig_cpu: np.ndarray,
        sig_mem: np.ndarray,
        pos_of: Dict[int, int],
        max_servers: int,
        moves: int,
        budget,
    ) -> int:

        # -- overload: shed largest VMs from the hottest servers --------
        peaks = table.agg_cpu().max(axis=1)
        for pos in np.argsort(-peaks, kind="stable"):
            pos = int(pos)
            while (
                moves < budget
                and len(table.vms[pos]) > 1
                and table.row_cpu(pos).max() > self._over + _EPS
            ):
                hosted = sorted(table.vms[pos])
                vm_peaks = sig_cpu[[pos_of[g] for g in hosted]].max(axis=1)
                victim = hosted[int(np.argmax(vm_peaks))]
                cpu = sig_cpu[pos_of[victim]]
                mem = sig_mem[pos_of[victim]]
                cand, cand_peaks = self._fitting(
                    table, cpu, mem, exclude=pos
                )
                if cand.size:
                    target = self._choose(cand, cand_peaks)
                elif table.n_servers < max_servers:
                    target = table.open()
                else:
                    break  # nowhere to shed to
                table.remove(pos, victim, cpu, mem)
                table.add(target, victim, cpu, mem)
                moves += 1

        # -- underload: drain the coldest servers whole -----------------
        agg = table.agg_cpu()
        entry_peaks = agg.max(axis=1) if agg.shape[0] else np.empty(0)
        for pos in np.argsort(entry_peaks, kind="stable"):
            pos = int(pos)
            hosted = sorted(table.vms[pos])
            if not hosted or moves + len(hosted) > budget:
                continue
            # Re-check against the *current* load: a cold server that
            # absorbed another drain (or shed VMs) is judged as it now is.
            if table.row_cpu(pos).max() >= self._under - _EPS:
                continue
            staged = []
            ok = True
            for g in sorted(
                hosted,
                key=lambda g: -float(sig_cpu[pos_of[g]].max()),
            ):
                cpu = sig_cpu[pos_of[g]]
                mem = sig_mem[pos_of[g]]
                cand, cand_peaks = self._fitting(
                    table, cpu, mem, exclude=pos
                )
                # Draining into an empty server would just move the
                # underload; only already-loaded targets count.
                nonempty = np.fromiter(
                    (len(table.vms[int(c)]) > 0 for c in cand),
                    dtype=bool,
                    count=cand.size,
                )
                cand, cand_peaks = cand[nonempty], cand_peaks[nonempty]
                if cand.size == 0:
                    ok = False
                    break
                target = self._choose(cand, cand_peaks)
                table.remove(pos, g, cpu, mem)
                table.add(target, g, cpu, mem)
                staged.append((target, g, cpu, mem))
            if ok:
                moves += len(staged)
            else:
                # All-or-nothing: undo the partial drain.
                for target, g, cpu, mem in reversed(staged):
                    table.remove(target, g, cpu, mem)
                    table.add(pos, g, cpu, mem)
        return moves
