"""Slot/sample data-center simulation engine (paper Section VI-C protocol).

One window loop, :meth:`DataCenterSimulation.windows`, runs every
engine.  Per allocation window it

1. cuts the window at the policy's reallocation period (every slot for
   EPACT, every 24 slots for the day-ahead consolidation baselines),
   at midnight, at every VM arrival, departure or resize and at every
   fault-state change;
2. hands the policy an :class:`~repro.core.types.AllocationContext`
   over the window's active VMs (their day-ahead predictions, global
   ids and the previous slot's observed utilization) and the fleet,
   and takes its allocation;
3. counts migrations over the VMs placed on both sides of the window
   boundary;
4. accounts each of the window's slots: for every 5-minute sample it
   aggregates the *real* utilization per server, chooses frequencies
   (per-sample governor or the policy's fixed frequency), prices power
   through the vectorized Section-IV model (plus the optional PSU
   transform and fault-layer power cap), and counts SLA violations
   (server-samples whose real aggregate CPU exceeds the policy's cap,
   or whose memory exceeds physical capacity).

A fixed population is the zero-churn
:func:`~repro.traces.lifecycle.fixed_schedule`; a churning population
is the same engine given a real lifecycle ``schedule=``, and the
streaming engine
(:class:`~repro.cloud.streaming.StreamingCloudSimulation`) hooks
telemetry ingest, the forecast ladder, blind-window freezes and
checkpoints into the same loop.

A homogeneous data center is the one-pool
:class:`~repro.core.types.FleetSpec` of its power model and
``max_servers``: accounting prices it on the one fleet path, and its
policies read that fleet on their context.

Servers hosting no VM are powered off (0 W) — the server turn-off
assumption shared by all compared policies.

Everything that depends only on the allocation (VM->server map, active
set, QoS floors, fixed OPP indices, scatter indices) is hoisted into a
per-allocation :class:`_AllocationAccounting` and reused across the
allocation's slots, and aggregation runs through ``np.bincount`` —
bit-identical to the seed's ``np.add.at`` scatter (both accumulate in
input order) but a single C loop instead of the buffered ufunc.
``count_migrations`` finds the non-zero overlap pairs with one sort of
the VMs' (old, new) pair codes; ``_count_migrations_reference``
preserves the seed's dense pair loop as the equivalence oracle.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dc_fields, replace as dc_replace
from functools import lru_cache
from operator import attrgetter
from typing import Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.governor import DvfsGovernor
from ..core.types import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    FaultWindow,
    FleetSpec,
    ServerPlan,
    homogeneous_fleet,
)
from ..errors import ConfigurationError
from ..forecast.predictor import PrecomputedPredictor
from ..obs.tracer import NULL_TRACER
from ..perf.simulator import PerformanceSimulator, traffic_coefficients
from ..perf.workload import ALL_MEMORY_CLASSES
from ..power.server_power import ServerPowerModel, ntc_server_power_model
from ..traces.dataset import TraceDataset
from ..traces.lifecycle import LifecycleSchedule, fixed_schedule
from ..units import SAMPLE_PERIOD_S, SAMPLES_PER_SLOT, SLOTS_PER_DAY
from .metrics import SimulationResult, SlotRecord
from .power_tables import VectorizedServerPower, cached_tables

_EPS = 1.0e-9


@lru_cache(maxsize=1)
def _default_perf() -> PerformanceSimulator:
    """Shared default performance simulator.

    Calibration is deterministic and the simulator is read-only after
    construction, so every engine instance can share one copy instead of
    re-running the calibration per simulation.
    """
    return PerformanceSimulator()


class _Platform(NamedTuple):
    """What prices one server model: governor, tables and curves."""

    governor: DvfsGovernor
    tables: VectorizedServerPower
    f_max: float
    stall_tab: np.ndarray
    traffic_coeff: np.ndarray


@dataclass(frozen=True)
class _AllocationAccounting:
    """Invariants of one allocation, shared by all slots it covers.

    Attributes:
        vm2srv: dense VM -> server map (over the covered VMs).
        n_srv: number of planned servers.
        active: per-server "hosts at least one VM" mask.
        floors: per-server QoS frequency floor (max over hosted VMs).
        fixed_opp: per-server pinned OPP index into that server's own
            table (``-1`` = per-sample governor), or ``None`` when every
            server follows the governor.  Fixed-frequency allocations
            pin every server; ``"fixed-opt"`` pools of heterogeneous
            fleets pin theirs.
        flat_idx: flattened (server, sample) bin index per (VM, sample)
            cell, for the bincount scatter.
        class_idx: flattened (memory class, server, sample) bin index
            per (VM, sample) cell, for the per-class scatter.
        vm_rows: global dataset row per covered VM; all accounting
            reads/aggregates only those trace rows.
        pool_idx: per-server pool index (all zeros on a homogeneous
            data center, the one-pool fleet).
        scale_cpu: per-covered-VM CPU utilization factor (resizes), or
            ``None`` for unscaled traces.
        scale_mem: per-covered-VM memory utilization factor, or ``None``.
        n_failed: servers down during this window (fault layer).
        cap_frac: fleet power budget fraction for this window (1.0 =
            uncapped; accounting throttles samples whose fleet power
            exceeds ``cap_frac`` times the nominal full-load power).
        shed_vms: VMs the policy shed for this window (degraded
            operation; excluded from the covered VM set).
        fault_boundary: this window starts at a fault-state change, so
            its boundary migrations are fault-forced.
    """

    vm2srv: np.ndarray
    n_srv: int
    active: np.ndarray
    floors: np.ndarray
    fixed_opp: Optional[np.ndarray]
    flat_idx: np.ndarray
    class_idx: np.ndarray
    vm_rows: np.ndarray
    pool_idx: np.ndarray
    scale_cpu: Optional[np.ndarray] = None
    scale_mem: Optional[np.ndarray] = None
    n_failed: int = 0
    cap_frac: float = 1.0
    shed_vms: int = 0
    fault_boundary: bool = False


@dataclass(frozen=True)
class _SlotPricing:
    """One slot priced per (server, sample), aligned with the plans.

    Attributes:
        util: real aggregate CPU utilization.
        mem_util: real aggregate memory utilization.
        freqs: operating frequency.
        power: server power after the PSU transform and the power cap
            (0 for off servers).
        violated: SLA violation mask (active servers only).
        capped_samples: samples the fleet power cap throttled.
    """

    util: np.ndarray
    mem_util: np.ndarray
    freqs: np.ndarray
    power: np.ndarray
    violated: np.ndarray
    capped_samples: int


@dataclass(frozen=True)
class WindowDecision:
    """One allocation window's decision, as seen by an operator.

    Yielded by :meth:`DataCenterSimulation.windows` after the window
    has been planned *and* accounted — every field is final.  This is
    the payload the ``repro.serve`` service loop turns into
    ``decision_*`` tracer events.

    Attributes:
        slot: first slot of the window.
        n_window: window length in slots.
        case: the engine case chosen (``"blind-freeze"`` on the
            reactive-only rung; ``""`` for an empty cloud).
        rung: the forecast ladder rung this window planned from
            (``None`` without a telemetry layer or for an empty cloud
            — no ladder consultation happened).
        blind: the window froze the previous placement.
        stale: the window planned from an aged forecast.
        n_active_vms: VMs active in the window.
        arrivals: VMs that arrived at the window boundary.
        departures: VMs that departed at the window boundary.
        migrations: VM moves relative to the previous placement.
        active_servers: servers powered on.
        forced_placements: placements that violated the policy's
            preferred packing (capacity pressure).
        collectors_down: collectors dark at the window's first slot.
        imputed_samples: imputed samples in the last observed slot.
        energy_j: total energy accounted to the window.
        violations: SLA violation count accounted to the window.
        checkpointed: the streaming engine checkpointed the run at
            this boundary; its checkpoint file resumes from here until
            the next one (copy the file now to keep this boundary).
    """

    slot: int
    n_window: int
    case: str
    rung: Optional[str]
    blind: bool
    stale: bool
    n_active_vms: int
    arrivals: int
    departures: int
    migrations: int
    active_servers: int
    forced_placements: int
    collectors_down: int
    imputed_samples: int
    energy_j: float
    violations: int
    checkpointed: bool


@dataclass(frozen=True)
class _Observation:
    """What a window's decision saw of the telemetry stream.

    The batch engines observe nothing (the defaults); the streaming
    engine fills it in before the decision.

    Attributes:
        rung: forecast ladder rung planned from, or ``None``.
        blind: the previous placement is frozen (reactive-only rung).
        stale: the decision re-used an aged forecast.
        imputed: imputed samples in the last observed slot.
        down: collectors down per slot of the window (empty = none).
    """

    rung: Optional[str] = None
    blind: bool = False
    stale: bool = False
    imputed: int = 0
    down: Tuple[int, ...] = ()


_NO_OBSERVATION = _Observation()


def _take_rows(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``arr[rows]`` for sorted unique ``rows`` — ``arr`` itself (no
    copy) when ``rows`` is every row, as for a fixed population."""
    return arr if rows.shape[0] == arr.shape[0] else arr[rows]


def _copy_array(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
    return None if arr is None else arr.copy()


#: The loop state's index arrays (``None`` until a window sets them).
_LOOP_ARRAYS = ("prev_rows", "prev_map", "prev_pools", "prev_active")

#: A record's field values, in :class:`SlotRecord` order.
_record_values = attrgetter(*(f.name for f in dc_fields(SlotRecord)))


@dataclass
class _LoopState:
    """What the window loop carries from one window to the next.

    Attributes:
        slot: first slot of the next window.
        records: per-slot records accounted so far.
        prev_rows: dataset rows placed by the previous window (shed VMs
            excluded; empty after an empty-cloud window).
        prev_map: their server indices.
        prev_pools: per-server pool indices of the previous allocation
            (``None`` unless the caller passed a fleet).
        prev_fw: the previous window's fault state.
        prev_active: VMs active in the previous window.
        prev_alloc: the previous window's allocation (``None`` after an
            empty-cloud window).
    """

    slot: int
    records: List[SlotRecord] = field(default_factory=list)
    prev_rows: Optional[np.ndarray] = None
    prev_map: Optional[np.ndarray] = None
    prev_pools: Optional[np.ndarray] = None
    prev_fw: Optional[FaultWindow] = None
    prev_active: Optional[np.ndarray] = None
    prev_alloc: Optional[Allocation] = None

    def state(self) -> Dict[str, object]:
        """Checkpoint form: JSON-able values plus index arrays.

        Records are field tuples in :class:`SlotRecord` order; the
        previous allocation's plans are flattened into ``alloc_vm_ids``
        cut by ``alloc_plan_sizes``.  :meth:`from_state` inverts it.
        """
        state: Dict[str, object] = {
            "slot": self.slot,
            "records": [_record_values(record) for record in self.records],
            "prev_fw": None if self.prev_fw is None else asdict(self.prev_fw),
            "prev_alloc": None,
        }
        for name in _LOOP_ARRAYS:
            value = getattr(self, name)
            if value is not None:
                state[name] = value.copy()
        alloc = self.prev_alloc
        if alloc is not None:
            state["prev_alloc"] = {
                "policy_name": alloc.policy_name,
                "dynamic_governor": alloc.dynamic_governor,
                "violation_cap_pct": alloc.violation_cap_pct,
                "case": alloc.case,
                "f_opt_ghz": alloc.f_opt_ghz,
                "forced_placements": alloc.forced_placements,
                "shed_vm_ids": list(alloc.shed_vm_ids),
                "plan_caps": [
                    [plan.cap_cpu_pct, plan.cap_mem_pct, plan.planned_freq_ghz]
                    for plan in alloc.plans
                ],
            }
            state["alloc_vm_ids"] = np.array(
                [vm for plan in alloc.plans for vm in plan.vm_ids],
                dtype=np.int64,
            )
            state["alloc_plan_sizes"] = np.array(
                [len(plan.vm_ids) for plan in alloc.plans], dtype=np.int64
            )
            if alloc.server_pools is not None:
                state["alloc_server_pools"] = np.array(alloc.server_pools)
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "_LoopState":
        """The loop state a :meth:`state` snapshot describes."""
        loop = cls(
            slot=int(state["slot"]),
            records=[SlotRecord(*row) for row in state["records"]],
            prev_fw=(
                None
                if state["prev_fw"] is None
                else FaultWindow(**state["prev_fw"])
            ),
            **{
                name: _copy_array(state.get(name))
                for name in _LOOP_ARRAYS
            },
        )
        meta = state["prev_alloc"]
        if meta is not None:
            ids = state["alloc_vm_ids"].tolist()
            ends = np.cumsum(state["alloc_plan_sizes"]).tolist()
            starts = [0] + ends[:-1]
            loop.prev_alloc = Allocation(
                policy_name=meta["policy_name"],
                plans=[
                    ServerPlan(ids[a:b], cap_cpu, cap_mem, freq)
                    for a, b, (cap_cpu, cap_mem, freq) in zip(
                        starts, ends, meta["plan_caps"]
                    )
                ],
                dynamic_governor=meta["dynamic_governor"],
                violation_cap_pct=meta["violation_cap_pct"],
                case=meta["case"],
                f_opt_ghz=meta["f_opt_ghz"],
                forced_placements=meta["forced_placements"],
                server_pools=_copy_array(state.get("alloc_server_pools")),
                shed_vm_ids=list(meta["shed_vm_ids"]),
            )
        return loop


class DataCenterSimulation:
    """Simulates one policy over a trace dataset.

    Args:
        dataset: the VM utilization traces.
        predictor: day-ahead predictor shared across policies (must expose
            ``predicted_slot`` and ``first_predictable_day``).
        policy: the allocation policy under test.
        power_model: per-server power model; defaults to the NTC server.
        perf: performance simulator supplying per-class stall curves,
            QoS floors and DRAM traffic coefficients.
        max_servers: fleet size (default 600, the paper's data center),
            validated as the one pool's server count (an integer of at
            least 1); mutually exclusive with ``fleet``, whose pool
            sizes define the total.
        start_slot: first simulated slot; defaults to the first slot with
            a full prediction window.
        n_slots: number of slots to simulate; defaults to the rest of the
            dataset (one week for the default 14-day traces).
        migration_energy_j: energy charged per VM migration at
            reallocation boundaries.  The paper ignores migration cost
            (default 0); setting e.g. 50-500 J/migration quantifies how
            much churn a dynamic policy can afford.
        psu: optional per-server power-supply model; when given, energy
            is accounted at the wall plug (DC power plus conversion
            losses) instead of the DC side the paper models.
        fleet: heterogeneous fleet specification.  When given (mutually
            exclusive with ``power_model`` and ``max_servers``), the
            fleet's pool sizes define the total server count, every
            server row carries a pool
            (model) index, and accounting evaluates each pool through
            its own cached :class:`VectorizedServerPower` tables,
            governor, QoS floors and stall/traffic curves — one
            evaluation per (slot, model).  Without it the data center
            is the one-pool fleet of ``power_model`` and
            ``max_servers``, for accounting and for the policy's
            context, so a single-pool fleet reproduces the homogeneous
            engine bit-identically (``tests/test_hetero_equivalence.py``).
        faults: optional :class:`~repro.cloud.faults.FaultSchedule`
            covering the simulated horizon.  Allocation windows are cut
            at every fault-state change, policies see the reduced
            available capacity (``max_servers`` / per-pool sizes) plus
            a :class:`~repro.core.types.FaultWindow` in their context,
            and accounting throttles fleet power to the active cap
            budget.  A zero-event schedule is bit-identical to
            ``faults=None`` (``tests/test_fault_equivalence.py``).
        schedule: the VM lifecycle
            (:class:`~repro.traces.lifecycle.LifecycleSchedule`:
            arrivals, departures, resizes); ``None`` is the fixed
            population.  It must cover the dataset's VMs and the
            simulated horizon.  Windows are cut at every membership or
            resize change, the policy sees only the window's active
            VMs, accounting reads only their rows, and migrations are
            counted over the VMs placed on both sides of a boundary
            (arrivals and departures are not migrations).  A zero-churn
            :func:`~repro.traces.lifecycle.fixed_schedule` is
            bit-identical to ``None``.
        tracer: optional :class:`~repro.obs.tracer.RunTracer` receiving
            structured run/window/fault events and timing the
            ``forecast`` / ``policy`` / ``prepare`` / ``account``
            phases.  The default is the no-op ``NULL_TRACER``; tracers
            only observe, so results are bit-identical with tracing on
            or off (``tests/test_obs_equivalence.py``).
    """

    def __init__(
        self,
        dataset: TraceDataset,
        predictor,
        policy: AllocationPolicy,
        power_model: Optional[ServerPowerModel] = None,
        perf: Optional[PerformanceSimulator] = None,
        max_servers: Optional[int] = None,
        start_slot: Optional[int] = None,
        n_slots: Optional[int] = None,
        migration_energy_j: float = 0.0,
        psu=None,
        fleet: Optional[FleetSpec] = None,
        faults=None,
        schedule: Optional[LifecycleSchedule] = None,
        tracer=None,
    ):
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if migration_energy_j < 0.0:
            raise ConfigurationError(
                "migration_energy_j must be non-negative"
            )
        self._migration_energy_j = migration_energy_j
        self._psu = psu
        self._dataset = dataset
        self._predictor = predictor
        self._policy = policy
        self._fleet = fleet
        self._result: Optional[SimulationResult] = None
        if fleet is not None:
            if power_model is not None:
                raise ConfigurationError(
                    "pass either power_model or fleet, not both"
                )
            if max_servers is not None:
                raise ConfigurationError(
                    "max_servers is derived from the fleet's pool "
                    "sizes; size the pools instead of passing it"
                )
            self._servers = fleet
        else:
            # A homogeneous data center is the one-pool fleet of its
            # power model, for accounting and policies alike.
            self._servers = homogeneous_fleet(
                power_model
                if power_model is not None
                else ntc_server_power_model(),
                600 if max_servers is None else max_servers,
            )
        self._power = self._servers.pools[0].power_model
        self._max_servers = self._servers.total_servers
        self._perf = perf if perf is not None else _default_perf()

        first = predictor.first_predictable_day * SLOTS_PER_DAY
        self._start_slot = start_slot if start_slot is not None else first
        if self._start_slot < first:
            raise ConfigurationError(
                f"start_slot {self._start_slot} precedes the first "
                f"predictable slot {first}"
            )
        available = dataset.n_slots - self._start_slot
        self._n_slots = n_slots if n_slots is not None else available
        if self._n_slots < 1 or self._n_slots > available:
            raise ConfigurationError(
                f"n_slots must be in [1, {available}], got {self._n_slots}"
            )
        self._engine_name = "fixed" if schedule is None else "cloud"
        if schedule is None:
            # A fixed population is the zero-churn lifecycle.
            schedule = fixed_schedule(
                dataset.n_vms,
                self._start_slot,
                self._start_slot + self._n_slots,
            )
        else:
            if schedule.n_vms != dataset.n_vms:
                raise ConfigurationError(
                    f"lifecycle schedule covers {schedule.n_vms} VMs, "
                    f"dataset has {dataset.n_vms}"
                )
            self._check_covers("lifecycle schedule", schedule)
        self._schedule = schedule

        self._faults = faults
        self._reduced_fleets: Dict[tuple, FleetSpec] = {}
        self._nominal_power_w = 0.0
        if faults is not None:
            if faults.n_servers != self._max_servers:
                raise ConfigurationError(
                    f"fault schedule covers {faults.n_servers} servers "
                    f"but the fleet has {self._max_servers}"
                )
            self._check_covers("fault schedule", faults)
            if fleet is not None and not fleet.single_pool:
                expected = tuple(p.n_servers for p in fleet.pools)
                if faults.pool_sizes != expected:
                    raise ConfigurationError(
                        f"fault schedule pool_sizes {faults.pool_sizes} "
                        f"do not match the fleet's pool sizes "
                        f"{expected}; build the schedule with the "
                        f"fleet's per-pool server counts"
                    )
            self._nominal_power_w = self._compute_nominal_power()

        self._vm_class = self._build_vm_classes()
        self._build_pool_models()

    def _check_covers(self, what: str, schedule) -> None:
        """Refuse a schedule whose horizon misses a simulated slot."""
        start = self._start_slot
        end = start + self._n_slots
        if schedule.horizon_start > start or schedule.horizon_end < end:
            raise ConfigurationError(
                f"{what} covers [{schedule.horizon_start}, "
                f"{schedule.horizon_end}) but the simulation runs "
                f"[{start}, {end})"
            )

    # -- precomputation -----------------------------------------------------

    def _build_vm_classes(self) -> np.ndarray:
        """Per-VM memory-class index into ``ALL_MEMORY_CLASSES``."""
        return np.array(
            [ALL_MEMORY_CLASSES.index(c) for c in self._dataset.mem_classes()],
            dtype=np.int64,
        )

    def _vm_floors_for(self, opps, qos_floor_ghz) -> np.ndarray:
        """Per-VM QoS frequency floor against one OPP table."""
        floors = self._perf.qos.qos_floors(opps)
        classes = self._dataset.mem_classes()
        arr = np.array([floors[c] for c in classes], dtype=float)
        if qos_floor_ghz is not None:
            arr = np.maximum(arr, qos_floor_ghz)
        return arr

    def _stall_tables_for(self, opps, platform: str) -> np.ndarray:
        """Per-(class, OPP) stall fractions for one platform's curves."""
        freqs = opps.frequencies_ghz
        table = np.zeros((len(ALL_MEMORY_CLASSES), len(freqs)))
        for ci, mc in enumerate(ALL_MEMORY_CLASSES):
            timing = self._perf.timing(mc, platform)
            for fi, freq in enumerate(freqs):
                table[ci, fi] = timing.stall_fraction(freq)
        return table

    def _build_pool_models(self) -> None:
        """Per-pool platforms, floors and pinning policy.

        Every pool gets its own cached :class:`VectorizedServerPower`
        coefficients, :class:`DvfsGovernor` and stall/traffic curves;
        the reference per-VM floors (``self._vm_floor_ghz``, what the
        allocation context reports) are pool 0's row, so a single-pool
        fleet presents policies the arrays a homogeneous data center
        of its model does.
        """
        fleet = self._servers
        self._pool_platforms = []
        for pool in fleet.pools:
            coeffs = traffic_coefficients(self._perf, pool.perf_platform)
            self._pool_platforms.append(
                _Platform(
                    DvfsGovernor(pool.opps, pool.f_max_ghz),
                    cached_tables(pool.power_model),
                    pool.f_max_ghz,
                    self._stall_tables_for(pool.opps, pool.perf_platform),
                    np.array([coeffs[mc] for mc in ALL_MEMORY_CLASSES]),
                )
            )
        self._pool_fmin = np.array(
            [pool.opps.f_min_ghz for pool in fleet.pools]
        )
        self._pool_fixed_policy = np.array(
            [pool.opp_policy == "fixed-opt" for pool in fleet.pools]
        )
        # Fallback pin frequency of "fixed-opt" pools when the policy
        # supplies no planned frequency (online policies): the pool's
        # energy-optimal OPP, the frequency the policy name promises.
        self._pool_f_opt = np.array(
            [
                pool.power_model.optimal_frequency_ghz()
                if pool.opp_policy == "fixed-opt"
                else 0.0
                for pool in fleet.pools
            ]
        )
        self._vm_floor_by_pool = np.stack(
            [
                self._vm_floors_for(pool.opps, pool.qos_floor_ghz)
                for pool in fleet.pools
            ]
        )
        self._vm_floor_ghz = self._vm_floor_by_pool[0]

    def _compute_nominal_power(self) -> float:
        """Fleet nominal full-load power (the cap budget reference).

        Every server at full load at its pool's ``Fmax``, run through
        the PSU transform when wall-plug accounting is on — the same
        per-server arithmetic accounting applies, so a cap of 1.0 can
        never throttle a physically realizable fleet.
        """
        total = 0.0
        for pool in self._servers.pools:
            p = pool.power_model.full_load_power_w(pool.f_max_ghz)
            if self._psu is not None:
                p = (
                    p
                    + self._psu.loss_fixed_w
                    + self._psu.loss_prop * p
                    + self._psu.loss_sq_per_w * p**2
                )
            total += pool.n_servers * p
        return total

    def _fault_window(self, slot: int) -> Optional[FaultWindow]:
        """The fault state of the window starting at ``slot``.

        ``None`` both without a schedule and in all-up, uncapped
        windows — the zero-event path stays on the exact no-fault code.
        """
        faults = self._faults
        if faults is None:
            return None
        n_failed = faults.n_failed(slot)
        cap = faults.cap_frac(slot)
        if n_failed == 0 and cap >= 1.0:
            return None
        pool_available = None
        if self._fleet is not None:
            failed = faults.pool_failed(slot)
            pool_available = tuple(
                pool.n_servers - down
                for pool, down in zip(self._fleet.pools, failed)
            )
        return FaultWindow(
            available_servers=self._max_servers - n_failed,
            n_failed=n_failed,
            cap_frac=cap,
            pool_available=pool_available,
        )

    def _reduced_fleet(self, fault: FaultWindow) -> FleetSpec:
        """The fleet with per-pool capacity reduced to the up servers.

        A homogeneous data center's window carries no per-pool counts;
        its one pool keeps ``available_servers``.  Cached per
        availability tuple so repeated windows of one outage hand
        policies the *same* fleet object, whose
        :meth:`~repro.core.types.FleetSpec.efficiency_order` is then
        computed once.
        """
        up = fault.pool_available
        if up is None:
            up = (fault.available_servers,)
        cached = self._reduced_fleets.get(up)
        if cached is None:
            cached = FleetSpec(
                pools=tuple(
                    dc_replace(pool, n_servers=int(n))
                    for pool, n in zip(self._servers.pools, up)
                )
            )
            self._reduced_fleets[up] = cached
        return cached

    # -- public API ---------------------------------------------------------

    @property
    def start_slot(self) -> int:
        """First simulated slot index."""
        return self._start_slot

    @property
    def n_slots(self) -> int:
        """Number of simulated slots."""
        return self._n_slots

    @property
    def result(self) -> SimulationResult:
        """The last completed run's result.

        Available after :meth:`run` returns or after a :meth:`windows`
        generator has been exhausted.
        """
        if self._result is None:
            raise ConfigurationError(
                "no completed run: the result is available after run() "
                "returns or the windows() generator is exhausted"
            )
        return self._result

    def run(self) -> SimulationResult:
        """Simulate all slots and return the per-slot records."""
        for _ in self.windows():
            pass
        return self.result

    def windows(self) -> Iterator[WindowDecision]:
        """Simulate the horizon one allocation window at a time.

        Yields a final (planned *and* accounted) :class:`WindowDecision`
        per window — the operator-facing form of the loop :meth:`run`
        drains.  When the generator is exhausted the full
        :class:`SimulationResult` is available on :attr:`result`.
        """
        state = self._begin_run()
        self._result = None
        self._trace_run_start()
        period = max(1, int(self._policy.reallocation_period_slots))
        end = self._start_slot + self._n_slots
        while state.slot < end:
            slot = state.slot
            active, scale = self._window_rows(slot)
            n_window = self._window_length(slot, period)
            fw = self._fault_window(slot)
            fault_boundary = fw != state.prev_fw
            if fault_boundary:
                # The transition opens the window it applies to.
                self._trace_fault_transition(slot, fw)
            n_active = int(active.size)
            arrivals = departures = 0
            if state.prev_rows is not None and not np.array_equal(
                active, state.prev_rows
            ):
                arrivals = int(
                    np.setdiff1d(
                        active, state.prev_rows, assume_unique=True
                    ).size
                )
                departures = int(
                    np.setdiff1d(
                        state.prev_rows, active, assume_unique=True
                    ).size
                )
            obs = self._observe(slot, n_window, active, state)
            first = dict(
                arrivals=arrivals,
                departures=departures,
                imputed_samples=obs.imputed,
                stale_forecast=int(obs.stale),
                blind_window=int(obs.blind),
            )
            fields = [
                dict(
                    n_active_vms=n_active,
                    collectors_down=obs.down[i] if obs.down else 0,
                    **(first if i == 0 else {}),
                )
                for i in range(n_window)
            ]
            migrations = 0
            if n_active:
                allocation = self._decide(
                    slot, n_window, active, scale, fw, obs, state
                )
                with self._tracer.phase("prepare"):
                    acct = self._prepare_allocation(
                        allocation,
                        active,
                        scale,
                        fw,
                        fault_boundary=fault_boundary,
                    )
                migrations = self._boundary_migrations(state, acct)
                self._trace_window(
                    slot,
                    n_window,
                    allocation,
                    acct,
                    migrations,
                    n_active_vms=n_active,
                    arrivals=arrivals,
                    departures=departures,
                )
                with self._tracer.phase("account"):
                    records = [
                        self._account_slot(
                            slot + i,
                            allocation,
                            acct,
                            migrations if i == 0 else 0,
                            **fields[i],
                        )
                        for i in range(n_window)
                    ]
                state.prev_rows = acct.vm_rows
                state.prev_map = acct.vm2srv
                if self._fleet is not None:
                    state.prev_pools = acct.pool_idx
                state.prev_alloc = allocation
            else:
                # Empty cloud: every server off, nothing to place.
                records = [
                    SlotRecord(
                        slot_index=slot + i,
                        case="",
                        n_active_servers=0,
                        violations=0,
                        forced_placements=0,
                        energy_j=0.0,
                        mean_freq_ghz=0.0,
                        f_opt_ghz=0.0,
                        n_failed_servers=fw.n_failed if fw else 0,
                        **fields[i],
                    )
                    for i in range(n_window)
                ]
                state.prev_rows = active
                state.prev_map = np.empty(0, dtype=int)
                state.prev_pools = None
                state.prev_alloc = None
            state.prev_active = active
            state.prev_fw = fw
            state.records.extend(records)
            state.slot = slot + n_window
            checkpointed = self._after_window(state)
            yield WindowDecision(
                slot=slot,
                n_window=n_window,
                case=records[0].case,
                rung=obs.rung,
                blind=obs.blind,
                stale=obs.stale,
                n_active_vms=n_active,
                arrivals=arrivals,
                departures=departures,
                migrations=migrations,
                active_servers=records[0].n_active_servers,
                forced_placements=records[0].forced_placements,
                collectors_down=obs.down[0] if obs.down else 0,
                imputed_samples=obs.imputed,
                energy_j=float(sum(r.energy_j for r in records)),
                violations=int(sum(r.violations for r in records)),
                checkpointed=checkpointed,
            )
        result = SimulationResult(policy_name=self._policy.name)
        result.records.extend(state.records)
        self._result = result
        self._trace_run_end(result)

    @staticmethod
    def _boundary_migrations(state: _LoopState, acct) -> int:
        """Migrations at a window boundary.

        Only VMs placed on both sides can migrate: arrivals, departures
        and VMs shed on either side (absent from the placed rows)
        cannot.  Pool indices restrict matching to same-pool server
        pairs on heterogeneous fleets (a VM block landing on another
        platform migrated).
        """
        if state.prev_rows is None or not state.prev_rows.size:
            return 0
        if np.array_equal(state.prev_rows, acct.vm_rows):
            # The same placed VMs on both sides (no churn, nothing
            # shed): the intersection is every row, in order.
            return count_migrations(
                state.prev_map,
                acct.vm2srv,
                previous_pools=state.prev_pools,
                new_pools=acct.pool_idx,
            )
        common, ia, ib = np.intersect1d(
            state.prev_rows,
            acct.vm_rows,
            assume_unique=True,
            return_indices=True,
        )
        if not common.size:
            return 0
        return count_migrations(
            state.prev_map[ia],
            acct.vm2srv[ib],
            previous_pools=state.prev_pools,
            new_pools=acct.pool_idx,
        )

    # -- loop hooks ---------------------------------------------------------
    #
    # The streaming engine overrides these; the batch engines observe no
    # telemetry, always ask the policy and never checkpoint.

    def _begin_run(self) -> _LoopState:
        """The loop state a run starts from."""
        self._policy.reset()
        return _LoopState(slot=self._start_slot)

    def _observe(
        self, slot: int, n_window: int, active: np.ndarray, state
    ) -> _Observation:
        """What the window's decision sees of the telemetry stream."""
        return _NO_OBSERVATION

    def _decide(
        self, slot, n_window, active, scale, fault, obs, state
    ) -> Allocation:
        """The window's allocation."""
        return self._allocate_window(slot, n_window, active, scale, fault)

    def _after_window(self, state: _LoopState) -> bool:
        """Run after every window; returns whether it checkpointed."""
        return False

    # -- tracing ------------------------------------------------------------
    #
    # Tracers only observe: every emitted field is computed from state
    # the run produces anyway, so results are bit-identical with
    # tracing on or off, and same-seed event streams are byte-identical
    # (asserted by tests/test_obs_equivalence.py).

    def _trace_run_start(self) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        tracer.emit(
            "run_start",
            policy=self._policy.name,
            engine=self._engine_name,
            start_slot=self._start_slot,
            n_slots=self._n_slots,
            n_servers=self._max_servers,
            n_vms=self._dataset.n_vms,
            n_pools=self._servers.n_pools,
        )
        if self._faults is not None:
            self._faults.trace_events(tracer)

    def _trace_window(
        self, slot, n_window, allocation, acct, migrations, **extra
    ) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        fields = dict(
            slot=slot,
            n_window=n_window,
            case=allocation.case,
            n_servers=acct.n_srv,
            active_servers=int(np.count_nonzero(acct.active)),
            migrations=migrations,
            forced_placements=allocation.forced_placements,
            **extra,
        )
        if self._faults is not None:
            fields["fault_migrations"] = (
                migrations if acct.fault_boundary else 0
            )
            fields["shed_vms"] = acct.shed_vms
        if self._fleet is not None:
            fields["pool_active"] = np.bincount(
                acct.pool_idx[acct.active], minlength=self._fleet.n_pools
            )
        tracer.emit("allocation_window", **fields)

    def _trace_fault_transition(self, slot: int, fw) -> None:
        tracer = self._tracer
        if not tracer.enabled or self._faults is None:
            return
        if fw is None:
            tracer.emit(
                "fault_transition",
                slot=slot,
                n_failed=0,
                cap_frac=1.0,
                available_servers=self._max_servers,
            )
        else:
            tracer.emit(
                "fault_transition",
                slot=slot,
                n_failed=fw.n_failed,
                cap_frac=fw.cap_frac,
                available_servers=fw.available_servers,
            )

    def _trace_run_end(self, result: SimulationResult) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        tracer.emit(
            "run_end",
            policy=self._policy.name,
            n_records=len(result.records),
            energy_mj=result.total_energy_mj,
            violations=result.total_violations,
            migrations=result.total_migrations,
        )

    # -- internals ----------------------------------------------------------

    def _window_predictions(
        self,
        slot: int,
        end: int,
        vm_rows: np.ndarray,
        scale: Optional[tuple] = None,
    ):
        """The window's predicted patterns over ``vm_rows``, hstacked."""
        cpu_parts, mem_parts = [], []
        for s in range(slot, end):
            pred_cpu, pred_mem = self._predictor.predicted_slot(s)
            cpu_parts.append(_take_rows(pred_cpu, vm_rows))
            mem_parts.append(_take_rows(pred_mem, vm_rows))
        pred_cpu = (
            np.hstack(cpu_parts) if len(cpu_parts) > 1 else cpu_parts[0]
        )
        pred_mem = (
            np.hstack(mem_parts) if len(mem_parts) > 1 else mem_parts[0]
        )
        if scale is not None:
            pred_cpu = pred_cpu * scale[0][:, None]
            pred_mem = pred_mem * scale[1][:, None]
        return pred_cpu, pred_mem

    def _window_length(self, slot: int, period: int) -> int:
        """Slots in the window starting at ``slot``.

        The policy's reallocation period, cut short at the horizon end,
        at midnight and at the next membership, resize or fault-state
        change.  The midnight cut keeps every decision causal: a window
        reaching into day ``d + 1`` would plan those slots from
        ``forecast_day(d + 1)``, whose fit reads all of day ``d``,
        including the slots after the decision.
        """
        end = self._start_slot + self._n_slots
        n_window = min(
            period,
            end - slot,
            SLOTS_PER_DAY - slot % SLOTS_PER_DAY,
            max(1, self._schedule.next_change(slot) - slot),
        )
        if self._faults is not None:
            n_window = min(
                n_window, max(1, self._faults.next_change(slot) - slot)
            )
        return n_window

    def _window_rows(self, slot: int):
        """The VMs active at ``slot`` and their (cpu, mem) resize factors."""
        active = self._schedule.active_ids(slot)
        scale = self._schedule.scale_at(slot)
        if scale is not None:
            scale = (scale[0][active], scale[1][active])
        return active, scale

    def _allocate_window(
        self,
        slot: int,
        n_window: int,
        active: np.ndarray,
        scale: Optional[tuple] = None,
        fault: Optional[FaultWindow] = None,
    ) -> Allocation:
        """Ask the policy to pack the window's active VMs.

        The context covers only ``active`` (global ids kept, previous
        slot's observed utilization attached).  Under a fault window
        the policy sees the *available* capacity — reduced
        ``max_servers`` and, on heterogeneous fleets, a reduced
        per-pool fleet — so every policy's existing packing (including
        ``force_place_remaining``) becomes its emergency re-placement:
        VMs of failed servers simply have nowhere else to go.
        """
        with self._tracer.phase("forecast"):
            pred_cpu, pred_mem = self._window_predictions(
                slot, slot + n_window, active, scale
            )
        last_cpu, last_mem = self._last_observed(slot, active)
        max_servers = self._max_servers
        fleet = self._servers
        if fault is not None:
            max_servers = fault.available_servers
            fleet = self._reduced_fleet(fault)
        ctx = AllocationContext(
            pred_cpu=pred_cpu,
            pred_mem=pred_mem,
            power_model=self._power,
            max_servers=max_servers,
            qos_floor_ghz=_take_rows(self._vm_floor_ghz, active),
            fleet=fleet,
            vm_ids=active,
            last_cpu=last_cpu,
            last_mem=last_mem,
            faults=fault,
        )
        with self._tracer.phase("policy"):
            return self._policy.allocate(ctx)

    def _last_observed(self, slot: int, active: np.ndarray):
        """Previous slot's actual utilization; NaN rows without history.

        Scaled with the resize factors in force *during* that slot —
        what a monitoring system would actually have recorded — not the
        current window's factors.
        """
        prev = slot - 1
        if prev < 0:
            return None, None
        lo = prev * SAMPLES_PER_SLOT
        hi = lo + SAMPLES_PER_SLOT
        last_cpu = _take_rows(self._dataset.cpu_pct[:, lo:hi], active).copy()
        last_mem = _take_rows(self._dataset.mem_pct[:, lo:hi], active).copy()
        scale_prev = self._schedule.scale_at(prev)
        if scale_prev is not None:
            last_cpu *= scale_prev[0][active][:, None]
            last_mem *= scale_prev[1][active][:, None]
        ran = self._schedule.active_mask(prev)[active]
        last_cpu[~ran] = np.nan
        last_mem[~ran] = np.nan
        return last_cpu, last_mem

    def _prepare_allocation(
        self,
        allocation: Allocation,
        vm_rows: Optional[np.ndarray] = None,
        scale: Optional[tuple] = None,
        fault: Optional[FaultWindow] = None,
        fault_boundary: bool = False,
    ) -> "_AllocationAccounting":
        """Hoist allocation-dependent invariants out of the slot loop.

        Args:
            allocation: the policy's placement for the window.
            vm_rows: global dataset rows covered by the allocation (the
                window's active VMs, in the order the allocation's
                local ids index); ``None`` means every dataset row.
            scale: optional ``(cpu, mem)`` per-covered-VM utilization
                factors (resize events).
            fault: the window's fault state (``None`` = no active
                fault), recorded on the accounting for the cap term and
                the per-slot fault metrics.
            fault_boundary: the window starts at a fault-state change.
        """
        if vm_rows is None:
            vm_rows = np.arange(self._dataset.n_vms)
        vm2srv = None
        shed_vms = 0
        if allocation.shed_vm_ids:
            # Degraded operation: the policy shed VMs it could not
            # place on the surviving capacity.  Accounting covers only
            # the placed VMs; shed VMs accrue SLA debt via the per-slot
            # shed count.
            shed = np.unique(
                np.asarray(allocation.shed_vm_ids, dtype=int)
            )
            mapping = allocation.vm_to_server(
                int(vm_rows.shape[0]), missing_ok=True
            )
            unplaced = np.flatnonzero(mapping < 0)
            if unplaced.shape != shed.shape or np.any(unplaced != shed):
                raise ConfigurationError(
                    "shed_vm_ids must list exactly the unplaced VMs "
                    f"(shed {shed.tolist()}, unplaced "
                    f"{unplaced.tolist()})"
                )
            placed = mapping >= 0
            vm2srv = mapping[placed]
            vm_rows = vm_rows[placed]
            if scale is not None:
                scale = (scale[0][placed], scale[1][placed])
            shed_vms = int(shed.size)
        n_vms = int(vm_rows.shape[0])
        n_samples = SAMPLES_PER_SLOT
        if vm2srv is None:
            vm2srv = allocation.vm_to_server(n_vms)
        n_srv = len(allocation.plans)

        active = np.array(
            [bool(plan.vm_ids) for plan in allocation.plans], dtype=bool
        )
        planned = np.array(
            [plan.planned_freq_ghz for plan in allocation.plans]
        )

        pool_idx = self._resolve_pool_idx(allocation, n_srv)
        # Per-server QoS floor = max floor of hosted VMs, against the
        # *host pool's* table: each VM's floor is looked up in its
        # server's pool row.
        floors = self._pool_fmin[pool_idx].copy()
        if n_vms:
            np.maximum.at(
                floors,
                vm2srv,
                self._vm_floor_by_pool[pool_idx[vm2srv], vm_rows],
            )
        # Servers pinned to a fixed frequency: fixed-cap allocations pin
        # every server, "fixed-opt" pools pin theirs even under
        # dynamic-governor policies.  Indices are quantized against each
        # server's own pool table.  Fixed-cap allocations pin the plan
        # frequency with no floor (COAT-style policies own their caps);
        # pool-policy pins fall back to the pool's F_opt when the policy
        # left no planned frequency (online policies) and are raised to
        # the server's QoS floor — the pin is the *pool's* choice, so it
        # must not undercut the hosted workloads.
        pinned = (
            np.ones(n_srv, dtype=bool)
            if not allocation.dynamic_governor
            else self._pool_fixed_policy[pool_idx]
        )
        fixed_opp = None
        if pinned.any():
            fixed_opp = np.full(n_srv, -1, dtype=int)
            for m, platform in enumerate(self._pool_platforms):
                rows = np.flatnonzero((pool_idx == m) & pinned)
                if rows.size:
                    freqs_m = platform.governor.frequencies_ghz
                    pin_freq = planned[rows]
                    if allocation.dynamic_governor:
                        pin_freq = np.where(
                            pin_freq > 0.0, pin_freq, self._pool_f_opt[m]
                        )
                    idx = np.clip(
                        np.searchsorted(
                            freqs_m, pin_freq - _EPS, side="left"
                        ),
                        0,
                        len(freqs_m) - 1,
                    )
                    if allocation.dynamic_governor:
                        idx = np.maximum(
                            idx,
                            platform.governor.floor_indices(floors[rows]),
                        )
                    fixed_opp[rows] = idx

        # Flattened (server, sample) bin per (VM, sample) cell: one
        # np.bincount scatter per slot replaces the much slower
        # buffered np.add.at.
        flat_idx = (
            vm2srv[:, None] * n_samples + np.arange(n_samples)[None, :]
        ).ravel()
        # The same cells binned per (memory class, server, sample): each
        # bin still accumulates its VMs in row order.
        class_idx = (
            (_take_rows(self._vm_class, vm_rows) * (n_srv * n_samples))[
                :, None
            ]
            + flat_idx.reshape(n_vms, n_samples)
        ).ravel()
        scale_cpu, scale_mem = scale if scale is not None else (None, None)
        return _AllocationAccounting(
            vm2srv=vm2srv,
            n_srv=n_srv,
            active=active,
            floors=floors,
            fixed_opp=fixed_opp,
            flat_idx=flat_idx,
            class_idx=class_idx,
            vm_rows=vm_rows,
            pool_idx=pool_idx,
            scale_cpu=scale_cpu,
            scale_mem=scale_mem,
            n_failed=fault.n_failed if fault is not None else 0,
            cap_frac=fault.cap_frac if fault is not None else 1.0,
            shed_vms=shed_vms,
            fault_boundary=fault_boundary,
        )

    def _resolve_pool_idx(
        self, allocation: Allocation, n_srv: int
    ) -> np.ndarray:
        """Validated per-server pool indices of an allocation."""
        fleet = self._servers
        if allocation.server_pools is not None:
            pool_idx = np.asarray(allocation.server_pools, dtype=int)
            if pool_idx.shape != (n_srv,):
                raise ConfigurationError(
                    f"server_pools must tag all {n_srv} plans, got "
                    f"shape {pool_idx.shape}"
                )
        elif fleet.single_pool:
            pool_idx = np.zeros(n_srv, dtype=int)
        else:
            raise ConfigurationError(
                "allocations on a multi-pool fleet must set "
                "Allocation.server_pools"
            )
        if pool_idx.size and (
            pool_idx.min() < 0 or pool_idx.max() >= fleet.n_pools
        ):
            raise ConfigurationError("server_pools index out of range")
        counts = np.bincount(pool_idx, minlength=fleet.n_pools)
        for m, pool in enumerate(fleet.pools):
            if counts[m] > pool.n_servers:
                raise ConfigurationError(
                    f"pool {pool.name!r} capacity exceeded: "
                    f"{int(counts[m])} > {pool.n_servers} servers"
                )
        return pool_idx

    def _eval_pools(
        self,
        util: np.ndarray,
        util_by_class: np.ndarray,
        floors: np.ndarray,
        pool_map: np.ndarray,
        fixed_opp: Optional[np.ndarray] = None,
    ) -> tuple:
        """Per-model governor + power evaluation of one slot's servers.

        ``util`` has shape ``(n_servers, n_samples)``;
        ``pool_map``/``floors``/``fixed_opp`` are per server.  Each
        fleet pool's rows run through *that pool's* platform in one
        call — one evaluation per (slot, model), never per server.  A
        slot whose servers all sit in one pool — every slot of a
        homogeneous data center — evaluates the whole matrix without
        the boolean-index copies.

        Returns:
            ``(freqs_ghz, power_w)`` arrays shaped like ``util``.
        """
        freqs = np.empty_like(util)
        power = np.empty_like(util)
        for m, platform in enumerate(self._pool_platforms):
            sel = pool_map == m
            if sel.all():
                return self._eval_platform(
                    platform, util, floors, fixed_opp, util_by_class
                )
            if not sel.any():
                continue
            f, p = self._eval_platform(
                platform,
                util[sel],
                floors[sel],
                fixed_opp[sel] if fixed_opp is not None else None,
                util_by_class[:, sel],
            )
            freqs[sel] = f
            power[sel] = p
        return freqs, power

    @staticmethod
    def _eval_platform(
        platform: _Platform,
        u: np.ndarray,
        fl: np.ndarray,
        fx: Optional[np.ndarray],
        ubc: np.ndarray,
    ) -> tuple:
        """One platform's governor + power kernel over ``(rows, samples)``.

        ``fx`` pins rows to an OPP index (``-1`` = governor); ``None``
        leaves every row to the per-sample governor.
        """
        # Pinned rows never read the governor's choice, so a fully
        # pinned selection (fixed-cap allocations) skips the whole
        # demand-quantization pass; broadcast indices are read-only
        # but only ever used for table lookups below.
        pinned = fx >= 0 if fx is not None else None
        if pinned is not None and pinned.all():
            idx = np.broadcast_to(fx[:, None], u.shape)
        else:
            idx = platform.governor.opp_indices(u, fl)
            if pinned is not None and pinned.any():
                idx[pinned] = fx[pinned][:, None]
        tables = platform.tables
        f = tables.freqs_ghz[idx]
        # Work-conserving busy fraction: may exceed 1 when a fixed-cap
        # policy is overrun; the excess is deferred work whose dynamic
        # energy is still charged (see VectorizedServerPower.power_w).
        busy = u * platform.f_max / (100.0 * f)
        stall_num = np.zeros_like(u)
        for ci in range(ubc.shape[0]):
            stall_num += ubc[ci] * platform.stall_tab[ci][idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            stall = np.where(
                u > _EPS, stall_num / np.maximum(u, _EPS), 0.0
            )
        traffic = np.tensordot(
            platform.traffic_coeff, ubc, axes=([0], [0])
        )
        return f, tables.power_w(idx, busy, stall, traffic)

    def _price_slot(
        self, slot: int, allocation: Allocation, acct: "_AllocationAccounting"
    ) -> _SlotPricing:
        """Price one slot per (server, sample): the accounting kernel."""
        n_srv = acct.n_srv
        lo = slot * SAMPLES_PER_SLOT
        hi = lo + SAMPLES_PER_SLOT
        real_cpu = _take_rows(self._dataset.cpu_pct[:, lo:hi], acct.vm_rows)
        real_mem = _take_rows(self._dataset.mem_pct[:, lo:hi], acct.vm_rows)
        if acct.scale_cpu is not None:
            real_cpu = real_cpu * acct.scale_cpu[:, None]
            real_mem = real_mem * acct.scale_mem[:, None]
        n_samples = SAMPLES_PER_SLOT
        n_bins = n_srv * n_samples

        # np.bincount accumulates in input order, exactly like np.add.at,
        # but through a single C loop instead of the buffered ufunc.
        cpu = real_cpu.ravel()
        util = np.bincount(
            acct.flat_idx, weights=cpu, minlength=n_bins
        ).reshape(n_srv, n_samples)
        mem_util = np.bincount(
            acct.flat_idx, weights=real_mem.ravel(), minlength=n_bins
        ).reshape(n_srv, n_samples)
        n_classes = len(ALL_MEMORY_CLASSES)
        util_by_class = np.bincount(
            acct.class_idx, weights=cpu, minlength=n_classes * n_bins
        ).reshape(n_classes, n_srv, n_samples)

        active = acct.active
        freqs, power = self._eval_pools(
            util, util_by_class, acct.floors, acct.pool_idx, acct.fixed_opp
        )
        power = power * active[:, None]
        if self._psu is not None:
            # Vectorized quadratic PSU loss; fixed loss only for servers
            # that are actually powered.
            power = (
                power
                + self._psu.loss_fixed_w * active[:, None]
                + self._psu.loss_prop * power
                + self._psu.loss_sq_per_w * power**2
            )
        capped_samples = 0
        if acct.cap_frac < 1.0:
            # Fleet power cap: samples whose aggregate draw exceeds the
            # budget are throttled proportionally (rack-level power
            # capping clamps every server's limit by the same factor).
            budget = self._nominal_power_w * acct.cap_frac
            fleet_w = power.sum(axis=0)
            scale_cap = np.minimum(
                1.0, budget / np.maximum(fleet_w, _EPS)
            )
            capped_samples = int((scale_cap < 1.0).sum())
            power = power * scale_cap[None, :]

        cap = allocation.violation_cap_pct
        overutilized = (util > cap + _EPS) | (mem_util > 100.0 + _EPS)
        return _SlotPricing(
            util=util,
            mem_util=mem_util,
            freqs=freqs,
            power=power,
            violated=overutilized & active[:, None],
            capped_samples=capped_samples,
        )

    def _account_slot(
        self,
        slot: int,
        allocation: Allocation,
        acct: "_AllocationAccounting",
        migrations: int = 0,
        **fields,
    ) -> SlotRecord:
        """One slot's :class:`SlotRecord` (``fields``: churn/telemetry)."""
        priced = self._price_slot(slot, allocation, acct)
        energy_j = float(priced.power.sum() * SAMPLE_PERIOD_S)
        energy_j += migrations * self._migration_energy_j
        active = acct.active
        # Selecting active rows directly is bit-identical to the seed's
        # dense (server, sample) mask — both flatten the same elements in
        # row-major order — without materializing the mask.
        mean_freq = (
            float(priced.freqs[active].mean()) if active.any() else 0.0
        )
        return SlotRecord(
            slot_index=slot,
            case=allocation.case,
            n_active_servers=int(active.sum()),
            violations=int(priced.violated.sum()),
            forced_placements=allocation.forced_placements,
            energy_j=energy_j,
            mean_freq_ghz=mean_freq,
            f_opt_ghz=allocation.f_opt_ghz or 0.0,
            migrations=migrations,
            shed_vms=acct.shed_vms,
            n_failed_servers=acct.n_failed,
            capped_samples=priced.capped_samples,
            fault_migrations=(
                migrations if acct.fault_boundary else 0
            ),
            **fields,
        )


def count_migrations(
    previous_map: np.ndarray,
    new_map: np.ndarray,
    previous_pools: Optional[np.ndarray] = None,
    new_pools: Optional[np.ndarray] = None,
) -> int:
    """Minimum-ish VM migrations between two assignments.

    Server indices are arbitrary per allocation, so a raw comparison of
    maps over-counts wildly.  Instead, old and new servers are matched
    one-to-one by greedy maximum VM overlap (each matched pair is "the
    same physical server keeping its VMs"); every VM outside a matched
    overlap must have moved.  Greedy matching on sorted overlaps is the
    standard first-order estimate of reallocation churn.

    On heterogeneous fleets a server can only be "the same physical
    server" within its own pool — a block of VMs landing on a server of
    a *different* platform genuinely moved (across ISAs, no less) — so
    when per-server pool indices are supplied, cross-pool (old, new)
    pairs are excluded from the matching.  Single-pool fleets filter
    nothing, preserving the homogeneous counts exactly.

    The non-zero overlaps (at most one per VM) come from one sort of the
    flattened (old, new) pair codes, so time and memory scale with the
    VM count — the seed's Python double loop over the dense
    ``n_old x n_new`` matrix made every reallocation quadratic in the
    fleet size, and a dense histogram of the codes would still allocate
    ``n_old x n_new`` counters.  ``_count_migrations_reference``
    preserves the seed implementation as the equivalence oracle.
    """
    if previous_map.shape != new_map.shape:
        raise ConfigurationError("assignment maps must cover the same VMs")
    n_vms = previous_map.shape[0]
    if n_vms == 0:
        return 0
    n_new = int(new_map.max()) + 1
    codes, overlap = np.unique(
        previous_map * n_new + new_map, return_counts=True
    )
    old_ids = codes // n_new
    new_ids = codes % n_new
    if previous_pools is not None and new_pools is not None:
        same = previous_pools[old_ids] == new_pools[new_ids]
        overlap = overlap[same]
        old_ids = old_ids[same]
        new_ids = new_ids[same]
    return n_vms - _greedy_kept(overlap, old_ids, new_ids)


def _greedy_kept(
    overlap: np.ndarray, old_ids: np.ndarray, new_ids: np.ndarray
) -> int:
    """VMs kept in place by greedy (old, new) server matching.

    Pairs are visited by the reference sort key ``(-count, old, new)``;
    each old and new server is matched at most once.
    """
    order = np.lexsort((new_ids, old_ids, -overlap))
    used_old = set()
    used_new = set()
    kept = 0
    # Plain-int lists keep the greedy scan free of NumPy scalar
    # boxing/unboxing — the loop runs once per reallocation on up to
    # one pair per server, so constant factors matter here.
    for o, nw, cnt in zip(
        old_ids[order].tolist(),
        new_ids[order].tolist(),
        overlap[order].tolist(),
    ):
        if o not in used_old and nw not in used_new:
            used_old.add(o)
            used_new.add(nw)
            kept += cnt
    return kept


def _count_migrations_reference(
    previous_map: np.ndarray, new_map: np.ndarray
) -> int:
    """The seed implementation of :func:`count_migrations` (oracle)."""
    if previous_map.shape != new_map.shape:
        raise ConfigurationError("assignment maps must cover the same VMs")
    n_vms = previous_map.shape[0]
    if n_vms == 0:
        return 0
    n_old = int(previous_map.max()) + 1
    n_new = int(new_map.max()) + 1
    overlap = np.zeros((n_old, n_new), dtype=int)
    np.add.at(overlap, (previous_map, new_map), 1)

    pairs = [
        (int(overlap[i, j]), i, j)
        for i in range(n_old)
        for j in range(n_new)
        if overlap[i, j] > 0
    ]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_old = np.zeros(n_old, dtype=bool)
    used_new = np.zeros(n_new, dtype=bool)
    kept = 0
    for count, old, new in pairs:
        if not used_old[old] and not used_new[new]:
            used_old[old] = True
            used_new[new] = True
            kept += count
    return n_vms - kept


def _prediction_days(
    dataset: TraceDataset,
    predictor,
    start_slot: Optional[int],
    n_slots: Optional[int],
) -> range:
    """The day indices a simulation horizon touches.

    Mirrors :class:`DataCenterSimulation`'s horizon derivation, so
    freezing exactly these days reproduces what the engine would have
    requested live.

    Raises:
        ConfigurationError: if the derived horizon is empty.
    """
    first = predictor.first_predictable_day * SLOTS_PER_DAY
    start = start_slot if start_slot is not None else first
    count = n_slots if n_slots is not None else dataset.n_slots - start
    if count < 1:
        raise ConfigurationError("horizon must cover at least one slot")
    return range(
        start // SLOTS_PER_DAY, (start + count - 1) // SLOTS_PER_DAY + 1
    )


def shared_predictions(
    dataset: TraceDataset,
    predictor,
    start_slot: Optional[int] = None,
    n_slots: Optional[int] = None,
) -> PrecomputedPredictor:
    """Freeze the predictions a simulation horizon needs into arrays.

    Computes (once) every day-ahead forecast the horizon touches.  The
    defaults mirror :class:`DataCenterSimulation`'s horizon derivation.
    The result is a :class:`~repro.forecast.predictor.PrecomputedPredictor`
    of plain per-day arrays, which :func:`fan_out` hands to each worker
    process once, so no worker re-fits the forecaster.
    """
    return PrecomputedPredictor.from_predictor(
        predictor, _prediction_days(dataset, predictor, start_slot, n_slots)
    )


def _fans_out(jobs: Optional[int], n_tasks: int) -> bool:
    """Whether :func:`fan_out` runs ``n_tasks`` tasks over processes."""
    return jobs is not None and jobs > 1 and n_tasks > 1


#: Seconds :func:`fan_out` waits for a pooled task, and again for its
#: retry: generous, so that only a wedged worker trips it.
FAN_WAIT_S = 900.0


@dataclass(frozen=True)
class FailedRun:
    """What :func:`fan_out` returns for a task that failed twice.

    Attributes:
        key: the task's key.
        error: both failures, on one line.
        attempts: how often the task was tried: 2, or 1 when no retry
            pool could be started.
        elapsed_s: wall-clock seconds from the first submission to the
            final failure, waits included.
    """

    key: Hashable
    error: str
    attempts: int
    elapsed_s: float = 0.0


#: A :func:`fan_out` worker's ``(fn, shared)``, set by its initializer.
_WORKER: Tuple = ()


def _shared_arrays(item) -> Iterator[np.ndarray]:
    """The trace matrices and frozen forecasts inside a shared input."""
    if isinstance(item, TraceDataset):
        yield item.cpu_pct
        yield item.mem_pct
    elif isinstance(item, PrecomputedPredictor):
        for day in item._days.values():
            yield from day
    elif isinstance(item, (list, tuple, dict)):
        values = item.values() if isinstance(item, dict) else item
        for value in values:
            yield from _shared_arrays(value)


def _init_worker(fn, *shared) -> None:
    """Pool initializer: keep ``fn`` and ``shared`` for every task.

    A worker reuses ``shared`` across its tasks, so the trace matrices
    and frozen forecasts in it (nested in lists, tuples and dicts too)
    are made read-only: a stray write raises instead of leaking from
    one task into the next.  The parent's objects stay writable.
    """
    global _WORKER
    for array in _shared_arrays(shared):
        array.flags.writeable = False
    _WORKER = (fn, shared)


def _run_task(args: Tuple) -> Tuple[float, object]:
    """Worker entry point: one task's own wall seconds and result."""
    fn, shared = _WORKER
    start = time.perf_counter()
    result = fn(*shared, *args)
    return time.perf_counter() - start, result


def _pool(fn, shared: Tuple, workers: int):
    """A process pool whose workers receive ``fn`` and ``shared`` once."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, *shared)
    )


def _failure(exc: BaseException) -> str:
    """One attempt's failure, on one line."""
    from concurrent.futures import TimeoutError as WaitTimeout

    if isinstance(exc, WaitTimeout):
        return f"timed out after {FAN_WAIT_S:g}s"
    return f"{type(exc).__name__}: {exc}"


def fan_out(
    fn,
    shared: Tuple,
    tasks: Iterable[Tuple[Hashable, Tuple]],
    jobs: Optional[int],
    tracer=None,
) -> Dict[Hashable, object]:
    """``{key: fn(*shared, *args)}`` for ``(key, args)`` tasks, in task order.

    With ``jobs <= 1`` (or ``None``) or a single task this runs
    in-process, and a task's exception propagates.  Otherwise one
    ``ProcessPoolExecutor`` of ``min(jobs, len(tasks))`` workers
    receives ``fn`` and ``shared`` once per worker, through its
    initializer; only each task's own small arguments travel with the
    task.  What a worker gets of ``shared`` depends on the start method:

    * ``fork`` (the Linux default through Python 3.13): the worker
      inherits the parent's objects; nothing is copied or pickled.
    * ``spawn`` (the macOS default) and ``forkserver`` (the Linux
      default from Python 3.14): ``shared`` is pickled once per worker,
      not once per task.

    Under ``spawn`` the calling script needs the ``if __name__ ==
    "__main__":`` guard multiprocessing asks for: a worker that dies
    while re-importing the main module never reads its copy of
    ``shared``, and the parent then blocks writing it instead of
    raising ``BrokenProcessPool``.

    In a worker, the trace matrices of every shared
    :class:`~repro.traces.dataset.TraceDataset` and the arrays of every
    :class:`~repro.forecast.predictor.PrecomputedPredictor` are
    read-only, also inside lists, tuples and dicts.

    A pooled task that raises, or whose result takes longer than
    :data:`FAN_WAIT_S`, is retried once in a fresh single-worker pool
    built the same way; if the retry fails too, its slot holds a
    :class:`FailedRun` and the other tasks' results are kept.  With a
    tracer, the pooled path emits ``task_start`` / ``task_retry`` /
    ``task_done`` / ``task_failed`` events and one ``task_time`` timing
    per task, all from the parent (tracers never cross into workers).

    Args:
        fn: a module-level (picklable) function.
        shared: the arguments every task shares, passed first.
        tasks: ``(key, args)`` pairs; ``args`` is passed after
            ``shared``.
        jobs: worker processes.
        tracer: optional :class:`~repro.obs.tracer.RunTracer` for the
            pooled path's task events.

    Raises:
        ValueError: if two tasks share a key.
    """
    tasks = list(tasks)
    keys = [key for key, _ in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("fan_out task keys must be unique")
    if not _fans_out(jobs, len(tasks)):
        return {key: fn(*shared, *args) for key, args in tasks}
    traced = tracer is not None and tracer.enabled
    results: Dict[Hashable, object] = {}
    elapsed: Dict[Hashable, float] = {}
    first_error: Dict[Hashable, str] = {}
    submitted: Dict[Hashable, float] = {}

    pool = _pool(fn, shared, min(jobs, len(tasks)))
    try:
        futures = {}
        for key, args in tasks:
            if traced:
                tracer.emit("task_start", key=str(key))
            submitted[key] = time.perf_counter()
            futures[key] = pool.submit(_run_task, args)
        for key, _ in tasks:
            results[key] = None  # keeps task order through the retries
            try:
                elapsed[key], results[key] = futures[key].result(
                    timeout=FAN_WAIT_S
                )
            except Exception as exc:  # the task raised or its worker died
                futures[key].cancel()
                first_error[key] = _failure(exc)
    finally:
        # A wedged worker would hang a waiting shutdown; wait only when
        # every task came back.
        pool.shutdown(wait=not first_error, cancel_futures=bool(first_error))

    task_args = dict(tasks)
    for key, error in first_error.items():
        if traced:
            tracer.emit("task_retry", key=str(key), error=error)
        attempts = 1
        try:
            solo = _pool(fn, shared, 1)
            try:
                attempts = 2
                elapsed[key], results[key] = solo.submit(
                    _run_task, task_args[key]
                ).result(timeout=FAN_WAIT_S)
            finally:
                solo.shutdown(wait=False, cancel_futures=True)
        except Exception as exc:
            results[key] = FailedRun(
                key=key,
                error=f"first attempt: {error}; retry: {_failure(exc)}",
                attempts=attempts,
                elapsed_s=time.perf_counter() - submitted[key],
            )

    if traced:
        for key in keys:
            value = results[key]
            if isinstance(value, FailedRun):
                tracer.emit(
                    "task_failed",
                    key=str(key),
                    error=value.error,
                    attempts=value.attempts,
                )
                seconds, attempts = value.elapsed_s, value.attempts
            else:
                tracer.emit(
                    "task_done", key=str(key), retried=key in first_error
                )
                seconds, attempts = elapsed[key], 1 + (key in first_error)
            tracer.timing(
                "task_time",
                key=str(key),
                elapsed_s=seconds,
                attempts=attempts,
                failed=isinstance(value, FailedRun),
            )
    return results


def _run_one_policy(
    dataset: TraceDataset,
    predictor,
    policy: AllocationPolicy,
    kwargs: Dict,
) -> SimulationResult:
    """One policy's full simulation (a picklable task body)."""
    return DataCenterSimulation(dataset, predictor, policy, **kwargs).run()


def run_policies(
    dataset: TraceDataset,
    predictor,
    policies: Iterable[AllocationPolicy],
    jobs: int = 1,
    tracer=None,
    **kwargs,
) -> Dict[str, SimulationResult]:
    """Run several policies over the same traces and predictions.

    Sharing the predictor across policies both matches the paper's
    protocol and amortizes the ARIMA fitting cost.  A churning
    population is ``schedule=`` in ``kwargs``: every policy runs over
    the same lifecycle.  This is the common runner surface —
    :func:`~repro.shard.geo.run_geo_policies` takes the same
    ``jobs`` / ``tracer`` keywords.

    Args:
        dataset: the VM utilization traces.
        predictor: shared day-ahead predictor.
        policies: the policies to compare.
        jobs: number of worker processes.  With ``jobs > 1`` the
            policies fan out over processes (:func:`fan_out`): the
            horizon's day-ahead predictions are frozen once
            (:func:`shared_predictions`) and handed with the traces to
            each worker once, so no worker re-fits the forecaster.
            Results are identical to the serial run (online policies
            are reset per run); a policy whose run fails twice gets a
            :class:`FailedRun`.
        tracer: optional :class:`~repro.obs.tracer.RunTracer`.  Serial
            runs thread it into every engine; parallel fans give it to
            :func:`fan_out` for task events instead (open file handles
            don't cross pickle boundaries).
        **kwargs: forwarded to :class:`DataCenterSimulation`.

    Returns:
        The runs keyed by policy name, in policy order.
    """
    policy_list = list(policies)
    if _fans_out(jobs, len(policy_list)):
        predictor = shared_predictions(
            dataset, predictor, kwargs.get("start_slot"), kwargs.get("n_slots")
        )
    else:
        kwargs = dict(kwargs, tracer=tracer)
    return fan_out(
        _run_one_policy,
        (dataset, predictor),
        [(policy.name, (policy, kwargs)) for policy in policy_list],
        jobs,
        tracer=tracer,
    )
