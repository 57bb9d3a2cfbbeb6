"""Shared allocation types: request context, server plans, policy ABC.

Every allocation policy (EPACT and the baselines) consumes an
:class:`AllocationContext` — the predicted per-VM utilization patterns for
the upcoming slot plus the platform models — and produces an
:class:`Allocation`: which VMs go on which servers, under which capacity
cap, and how frequency is driven during the slot (fixed vs. per-sample
governor).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointError, ConfigurationError
from ..power.server_power import ServerPowerModel
from ..technology.opp import OppTable

#: Per-pool frequency-selection policies a :class:`PoolSpec` can request.
OPP_POLICIES = ("governor", "fixed-opt")


@dataclass(frozen=True)
class PoolSpec:
    """One homogeneous server pool of a heterogeneous fleet.

    Utilization percentages are **capacity-normalized** (the standard
    cloud-trace convention): a VM at 10% CPU occupies 10% of whichever
    server hosts it, relative to that server's own ``Fmax`` capacity, and
    likewise for memory against the host's DRAM.  That keeps a single
    trace dataset meaningful across platforms; the platforms differ in
    how much *power* a percent costs, which is exactly the axis the
    heterogeneous-fleet experiments sweep.

    Attributes:
        name: pool label (unique within a fleet; used in reports).
        power_model: the pool's per-server power model (provides the
            spec, OPP table and worst-case power evaluations).
        n_servers: physical servers in the pool (placement capacity).
        qos_floor_ghz: optional extra per-pool QoS frequency floor; the
            effective per-VM floor on this pool's servers is the maximum
            of the class floor (from the pool's OPP table) and this.
        opp_policy: ``"governor"`` runs the per-sample DVFS governor on
            this pool's servers (EPACT's mode); ``"fixed-opt"`` pins
            them to the allocation's planned frequency (quantized to
            this pool's OPP grid) for the whole slot.
        perf_platform: calibration key for stall/traffic curves
            (``"ntc"``, ``"thunderx"`` or ``"x86"``; see
            :class:`~repro.perf.simulator.PerformanceSimulator`).
    """

    name: str
    power_model: ServerPowerModel
    n_servers: int
    qos_floor_ghz: Optional[float] = None
    opp_policy: str = "governor"
    perf_platform: str = "ntc"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("pool name must be non-empty")
        if not isinstance(self.n_servers, (int, np.integer)):
            raise ConfigurationError(
                f"pool n_servers must be an integer server count, got "
                f"{self.n_servers!r}"
            )
        if self.n_servers < 1:
            raise ConfigurationError(
                f"pool {self.name!r} needs n_servers >= 1, got "
                f"{self.n_servers}"
            )
        if self.opp_policy not in OPP_POLICIES:
            raise ConfigurationError(
                f"opp_policy must be one of {OPP_POLICIES}, "
                f"got {self.opp_policy!r}"
            )
        if self.qos_floor_ghz is not None:
            if self.qos_floor_ghz <= 0.0:
                raise ConfigurationError("qos_floor_ghz must be positive")
            if self.qos_floor_ghz > self.f_max_ghz:
                raise ConfigurationError(
                    f"pool {self.name!r} qos_floor_ghz "
                    f"{self.qos_floor_ghz} GHz exceeds the platform's "
                    f"f_max {self.f_max_ghz} GHz — the floor can never "
                    f"be met; lower it or pick a faster platform"
                )

    @property
    def spec(self):
        """The pool's :class:`~repro.arch.server_spec.ServerSpec`."""
        return self.power_model.spec

    @property
    def opps(self) -> OppTable:
        """The pool's DVFS table."""
        return self.power_model.spec.opps

    @property
    def f_max_ghz(self) -> float:
        """The pool's maximum frequency."""
        return self.power_model.spec.f_max_ghz

    def watts_per_capacity_pct(self) -> float:
        """Worst-case power per percent of capacity at ``F_opt``.

        The fleet's platform-efficiency metric: a pool serving demand at
        its energy-optimal frequency delivers ``100 * F_opt / Fmax``
        percent of capacity per fully loaded server; dividing the
        full-load power by that yields W per served percent — the
        quantity the greedy fleet split orders pools by.
        """
        f_opt = self.power_model.optimal_frequency_ghz()
        capacity_pct = 100.0 * f_opt / self.f_max_ghz
        return self.power_model.full_load_power_w(f_opt) / capacity_pct


@dataclass(frozen=True)
class FleetSpec:
    """A heterogeneous data-center fleet: an ordered tuple of pools.

    Server rows of a fleet allocation are laid out pool-major (all of
    pool 0's planned servers first, then pool 1's, ...); the engine
    reads the actual per-server pool from
    :attr:`Allocation.server_pools`, so pools only bound *capacity*, not
    row positions.

    Attributes:
        pools: the constituent pools, in declaration order.
    """

    pools: Tuple[PoolSpec, ...]

    def __post_init__(self) -> None:
        pools = tuple(self.pools)
        object.__setattr__(self, "pools", pools)
        if not pools:
            raise ConfigurationError("a fleet needs at least one pool")
        for i, pool in enumerate(pools):
            if not isinstance(pool, PoolSpec):
                raise ConfigurationError(
                    f"fleet pools[{i}] is {type(pool).__name__!r}, "
                    "expected a PoolSpec — build pools with "
                    "PoolSpec(name=..., platform=..., n_servers=...)"
                )
        names = [pool.name for pool in pools]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"pool names must be unique, got {names}"
            )

    @property
    def n_pools(self) -> int:
        """Number of pools."""
        return len(self.pools)

    @property
    def total_servers(self) -> int:
        """Physical servers across all pools."""
        return sum(pool.n_servers for pool in self.pools)

    @property
    def single_pool(self) -> bool:
        """True for the degenerate homogeneous fleet."""
        return len(self.pools) == 1

    def efficiency_order(self) -> List[int]:
        """Pool indices, most efficient platform first.

        Pools are ranked by :meth:`PoolSpec.watts_per_capacity_pct`
        (ties keep declaration order) — the order the greedy fleet
        split and the online placement-on-arrival policies fill pools
        in.  The ranking is a pure function of the immutable fleet but
        costs one scalar power sweep per pool, and the callers need it
        once per allocation slot — so it is computed once and cached
        on the instance (``object.__setattr__`` around the frozen
        dataclass; a fresh list is returned each call).
        """
        cached = self.__dict__.get("_efficiency_order")
        if cached is None:
            costs = [
                pool.watts_per_capacity_pct() for pool in self.pools
            ]
            cached = sorted(
                range(len(self.pools)), key=lambda m: (costs[m], m)
            )
            object.__setattr__(self, "_efficiency_order", cached)
        return list(cached)


def homogeneous_fleet(
    power_model: ServerPowerModel, n_servers: int
) -> FleetSpec:
    """The paper's homogeneous data center as a one-pool fleet.

    The pool is named after the platform.  The engine accounts a
    data center built from ``power_model``/``max_servers`` as this
    fleet, and an :class:`AllocationContext` without a fleet carries
    it.
    """
    return FleetSpec(
        pools=(PoolSpec(power_model.spec.name, power_model, n_servers),)
    )


@dataclass(frozen=True)
class FaultWindow:
    """Fault state the fleet is in for one allocation window.

    A window never straddles a fault-state change: the engines cut
    allocation windows at every :class:`~repro.cloud.faults.FaultSchedule`
    change slot, so one ``FaultWindow`` describes the whole window.

    Attributes:
        available_servers: servers still up (fleet-wide).
        n_failed: servers currently down.
        cap_frac: fleet power budget as a fraction of nominal full-load
            power (1.0 = no cap active).
        pool_available: per-pool up-server counts for heterogeneous
            fleets (tuple so windows compare by value), or ``None``.
    """

    available_servers: int
    n_failed: int = 0
    cap_frac: float = 1.0
    pool_available: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.available_servers < 1:
            raise ConfigurationError(
                "a fault window must leave at least one server "
                "available (the schedule's survivor rule guarantees "
                "this; explicit schedules must respect it too)"
            )
        if self.n_failed < 0:
            raise ConfigurationError("n_failed must be >= 0")
        if not 0.0 < self.cap_frac <= 1.0:
            raise ConfigurationError(
                f"cap_frac must be in (0, 1], got {self.cap_frac}"
            )
        if self.pool_available is not None:
            object.__setattr__(
                self,
                "pool_available",
                tuple(int(a) for a in self.pool_available),
            )


@dataclass(frozen=True)
class AllocationContext:
    """Inputs a policy sees at the beginning of an allocation window.

    The prediction matrices cover only the VMs active during the
    window, row-aligned with ``vm_ids``.  An :class:`Allocation`
    produced from this context uses *local* row indices (``0 ..
    n_vms - 1``); the engine maps them back to global ids.

    Attributes:
        pred_cpu: predicted CPU utilization, shape ``(n_vms, n_samples)``,
            percent of one server's ``Fmax`` capacity.
        pred_mem: predicted memory utilization, same shape, percent of one
            server's DRAM capacity.
        power_model: the per-server power model (provides the spec, OPPs
            and the worst-case power evaluations EPACT's sizing needs).
        max_servers: number of physical servers available.
        qos_floor_ghz: per-VM minimum frequency meeting QoS (from the VM's
            workload class), length ``n_vms``.  For heterogeneous fleets
            these are the reference pool's floors; pool-aware policies
            and the engine derive the per-pool floors from ``fleet``.
        fleet: the server pools.  ``None`` stands for the paper's
            homogeneous data center, the one-pool :class:`FleetSpec` of
            ``power_model`` and ``max_servers``, which is stored here in
            its place.  On a fleet ``power_model`` is the reference
            (first) pool's model and ``max_servers`` the total server
            count; policies must respect the per-pool capacities and,
            on two or more pools, tag their allocation with
            :attr:`Allocation.server_pools`.
        faults: the fault state for this window, or ``None`` when no
            fault layer is active.  ``max_servers`` and ``fleet`` are
            already reduced to the available capacity; policies that
            want to react beyond capacity reduction (power-cap
            consolidation, shedding) read the details here.
        vm_ids: sorted global dataset ids of the active VMs (the
            identity online policies key their placement on);
            ``arange(n_vms)`` when omitted.
        last_cpu: CPU utilization observed during the previous slot
            (``(n_vms, 12)``), rows ``NaN`` for VMs without history
            (fresh arrivals, or the first simulated slot); ``None`` when
            no history is supplied at all, as for every policy that
            does not declare
            :attr:`AllocationPolicy.reads_last_observed`.
        last_mem: memory counterpart of ``last_cpu``.
    """

    pred_cpu: np.ndarray
    pred_mem: np.ndarray
    power_model: ServerPowerModel
    max_servers: int
    qos_floor_ghz: np.ndarray
    fleet: Optional[FleetSpec] = None
    faults: Optional[FaultWindow] = None
    vm_ids: Optional[np.ndarray] = None
    last_cpu: Optional[np.ndarray] = None
    last_mem: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.pred_cpu.ndim != 2 or self.pred_cpu.shape != self.pred_mem.shape:
            raise ConfigurationError(
                "pred_cpu and pred_mem must be equal-shape 2-D arrays"
            )
        if self.qos_floor_ghz.shape != (self.pred_cpu.shape[0],):
            raise ConfigurationError(
                "qos_floor_ghz must have one entry per VM"
            )
        if self.max_servers < 1:
            raise ConfigurationError("max_servers must be >= 1")
        if self.vm_ids is None:
            object.__setattr__(
                self, "vm_ids", np.arange(self.pred_cpu.shape[0])
            )
        elif self.vm_ids.shape != (self.pred_cpu.shape[0],):
            raise ConfigurationError(
                "vm_ids must carry one global id per context row"
            )
        if self.fleet is None:
            object.__setattr__(
                self,
                "fleet",
                homogeneous_fleet(self.power_model, self.max_servers),
            )

    @property
    def n_vms(self) -> int:
        """Number of VMs to place."""
        return self.pred_cpu.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per slot (the paper uses 12: one hour of 5-min samples)."""
        return self.pred_cpu.shape[1]

    @property
    def opps(self) -> OppTable:
        """The platform's DVFS table."""
        return self.power_model.spec.opps

    @property
    def f_max_ghz(self) -> float:
        """The platform's maximum frequency."""
        return self.power_model.spec.f_max_ghz


@dataclass
class ServerPlan:
    """One server's share of an allocation.

    Attributes:
        vm_ids: indices of the VMs placed on this server.
        cap_cpu_pct: CPU capacity cap used while packing (percent).
        cap_mem_pct: memory capacity cap used while packing (percent).
        planned_freq_ghz: the frequency a fixed-frequency policy runs this
            server at (ignored by dynamic-governor policies).
    """

    vm_ids: List[int] = field(default_factory=list)
    cap_cpu_pct: float = 100.0
    cap_mem_pct: float = 100.0
    planned_freq_ghz: float = 0.0


@dataclass
class Allocation:
    """A policy's decision for one slot.

    Attributes:
        policy_name: who produced this allocation.
        plans: per-active-server placement plans.
        dynamic_governor: ``True`` if frequency follows the per-sample
            governor (EPACT); ``False`` if servers run at their plan's
            fixed frequency while hosting VMs.
        violation_cap_pct: CPU utilization above which a server counts as
            overutilized for SLA accounting (the policy's effective cap:
            100 for policies that can compensate up to ``Fmax``, the fixed
            cap for fixed-frequency policies).
        case: EPACT's branch for the slot (``"cpu"`` or ``"mem"``; on a
            multi-pool fleet the occupied pools' branches joined
            pool-major, e.g. ``"cpu+mem"``), empty for other policies.
        f_opt_ghz: the slot-optimal frequency chosen by the policy, if any.
        forced_placements: VMs that did not fit under the policy's caps and
            were force-placed on the least-loaded server.
        server_pools: per-plan fleet pool index (``plans[i]`` is a server
            of pool ``server_pools[i]``), or ``None`` on a one-pool
            fleet.  The engine requires it whenever the fleet has more
            than one pool.
        shed_vm_ids: context-row indices of VMs the policy shed for this
            window (degraded operation under faults: no surviving server
            could physically host them).  Shed VMs appear in no plan;
            the engine accounts them as SLA debt instead of raising.
    """

    policy_name: str
    plans: List[ServerPlan]
    dynamic_governor: bool
    violation_cap_pct: float
    case: str = ""
    f_opt_ghz: Optional[float] = None
    forced_placements: int = 0
    server_pools: Optional[np.ndarray] = None
    shed_vm_ids: List[int] = field(default_factory=list)

    @property
    def n_servers(self) -> int:
        """Number of active (non-empty) servers."""
        return sum(1 for plan in self.plans if plan.vm_ids)

    def vm_to_server(self, n_vms: int, missing_ok: bool = False) -> np.ndarray:
        """Dense VM -> server index map (vectorized scatter).

        With ``missing_ok`` unplaced VMs keep ``-1`` (shed VMs under
        degraded operation); otherwise every VM must be placed.

        Raises:
            ConfigurationError: if any VM is placed twice, or unplaced
                while ``missing_ok`` is false.
        """
        mapping = np.full(n_vms, -1, dtype=int)
        if self.plans:
            lengths = [len(plan.vm_ids) for plan in self.plans]
            all_ids = np.fromiter(
                (vm for plan in self.plans for vm in plan.vm_ids),
                dtype=int,
                count=sum(lengths),
            )
            if all_ids.size:
                counts = np.bincount(all_ids, minlength=n_vms)
                if counts.max(initial=0) > 1:
                    dup = int(np.argmax(counts > 1))
                    raise ConfigurationError(
                        f"VM {dup} placed on two servers"
                    )
                servers = np.repeat(np.arange(len(self.plans)), lengths)
                mapping[all_ids] = servers
        if not missing_ok and np.any(mapping < 0):
            missing = int(np.sum(mapping < 0))
            raise ConfigurationError(f"{missing} VMs were not placed")
        return mapping


class AllocationPolicy(ABC):
    """Interface of a periodic VM allocation policy."""

    #: Human-readable policy name used in reports and figures.
    name: str = "policy"

    #: How often the policy re-allocates, in 1-hour slots.  EPACT is
    #: *dynamic* (every slot, the paper's T); the consolidation baselines
    #: follow their original papers' day-ahead protocol (24 slots) —
    #: consolidation implies migration, which is not an hourly operation.
    reallocation_period_slots: int = 1

    #: Whether :meth:`allocate` reads ``ctx.last_cpu``/``ctx.last_mem``,
    #: the utilization observed during the previous slot.  The engine
    #: builds that signal only for a policy that reads it; every other
    #: policy gets ``None``.
    reads_last_observed: bool = False

    @abstractmethod
    def allocate(self, ctx: AllocationContext) -> Allocation:
        """Place all VMs for the upcoming allocation window.

        ``ctx`` carries the predicted patterns for the whole window (12
        samples for per-slot policies, 288 for day-ahead policies).
        Implementations must place *every* VM (force-placing when their
        caps run out, recorded in ``forced_placements``) so the simulation
        can always account power and violations.
        """

    def reset(self) -> None:
        """Drop the state of a previous run (the engine calls this at
        the start of every run).

        A policy that plans each window from its context alone keeps
        none; policies that carry decisions across windows override
        this, and wrappers delegate it.
        """

    def state(self) -> Dict[str, object]:
        """The JSON-able state a resumed run needs (checkpoint/resume).

        A policy that plans each window from its context alone keeps
        none.  Policies that carry decisions across windows override
        this and :meth:`restore`.
        """
        return {}

    def restore(self, state: Dict[str, object]) -> None:
        """Load a :meth:`state` snapshot.

        Raises:
            CheckpointError: if the snapshot carries state this policy
                does not keep.
        """
        if state:
            raise CheckpointError(
                f"policy {self.name} keeps no checkpoint state, but the "
                f"snapshot carries {sorted(state)}"
            )


def force_place_remaining(
    plans: Sequence[ServerPlan],
    vm_ids: Sequence[int],
    pred_cpu: np.ndarray,
) -> int:
    """Place leftover VMs on the currently least-loaded servers.

    A safety valve for exhausted capacity: real data centers cannot refuse
    VMs, so policies fall back to the least-loaded server and report the
    count.  Returns the number of forced placements.

    Per remaining VM this is one ``np.argmin`` over the load vector plus
    an O(1) update; ties pick the lowest server index, exactly like the
    seed's Python scan over a dict in insertion order, and the peak-load
    arithmetic is unchanged — placements are bit-identical.
    """
    if not vm_ids:
        return 0
    if not plans:
        raise ConfigurationError("cannot force-place without servers")
    loads = np.array(
        [
            float(pred_cpu[plan.vm_ids].sum(axis=0).max())
            if plan.vm_ids
            else 0.0
            for plan in plans
        ]
    )
    ids = np.asarray(list(vm_ids), dtype=int)
    peaks = pred_cpu[ids].max(axis=1)
    for vm_id, peak in zip(ids, peaks):
        target = int(np.argmin(loads))
        plans[target].vm_ids.append(int(vm_id))
        loads[target] += peak
    return len(ids)
