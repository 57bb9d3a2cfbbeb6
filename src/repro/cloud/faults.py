"""Seeded fault injection: server/rack outages and power-cap windows.

The robustness layer of the scenario registry: a
:class:`FaultSchedule` is a deterministic, pre-materialized event
timeline — which servers are down at which slots, and what fraction of
the fleet's nominal power budget is available — that both engines
consume by cutting allocation windows at every fault-state change and
reducing the capacity policies see.

Everything is derived from a seed: :func:`generate_faults` draws
outage and cap events from Poisson/MTBF parameters with a single
``numpy`` generator in slot order, so the same seed always produces
the identical schedule (the house determinism convention).  A
zero-event schedule is exact: engines gate every fault branch on
``has_events``, keeping no-fault runs bit-identical to runs without a
schedule at all.

Survivor rule: generated outages are truncated so at least one server
per pool (and fleet-wide) stays up at every slot — a fully-dark fleet
has no defined allocation.  Explicitly constructed schedules violating
this raise at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

#: (server_id, start_slot, end_slot) — down for slots [start, end).
OutageEvent = Tuple[int, int, int]

#: (start_slot, end_slot, cap_frac) — fleet power capped to
#: ``cap_frac`` of nominal full-load power for slots [start, end).
CapEvent = Tuple[int, int, float]


@dataclass(frozen=True)
class FaultConfig:
    """Stochastic parameters for :func:`generate_faults`.

    All rates are per 1-hour slot; MTBFs are in slots.  A zero rate or
    MTBF disables that event class, so the default config generates no
    events at all.

    Attributes:
        server_mtbf_slots: mean slots between failures *per server*
            (0 disables independent server outages).
        outage_duration_mean_slots: mean outage length (exponential,
            rounded, at least one slot).
        rack_size: servers per rack for rack-level outages (0 disables;
            server ids are grouped ``[0..rack_size)``, ...).
        rack_mtbf_slots: mean slots between failures *per rack*.
        cap_rate_per_slot: Poisson rate of power-cap window starts.
        cap_duration_mean_slots: mean cap-window length.
        cap_frac: fleet power budget during a cap window, as a fraction
            of nominal full-load power.
    """

    server_mtbf_slots: float = 0.0
    outage_duration_mean_slots: float = 6.0
    rack_size: int = 0
    rack_mtbf_slots: float = 0.0
    cap_rate_per_slot: float = 0.0
    cap_duration_mean_slots: float = 4.0
    cap_frac: float = 0.7

    def __post_init__(self) -> None:
        for name in (
            "server_mtbf_slots",
            "outage_duration_mean_slots",
            "rack_mtbf_slots",
            "cap_rate_per_slot",
            "cap_duration_mean_slots",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"FaultConfig.{name} must be >= 0, got {value}"
                )
        if self.rack_size < 0:
            raise ConfigurationError(
                f"FaultConfig.rack_size must be >= 0, got {self.rack_size}"
            )
        if self.rack_mtbf_slots > 0 and self.rack_size <= 0:
            raise ConfigurationError(
                "rack_mtbf_slots > 0 needs rack_size >= 1 to define racks"
            )
        if not 0.0 < self.cap_frac <= 1.0:
            raise ConfigurationError(
                f"FaultConfig.cap_frac must be in (0, 1], got "
                f"{self.cap_frac}"
            )


class FaultSchedule:
    """A materialized fault timeline over ``[horizon_start, horizon_end)``.

    Args:
        n_servers: fleet size the server ids refer to.
        horizon_start: first simulated slot the schedule covers.
        horizon_end: one past the last covered slot.
        server_outages: ``(server_id, start, end)`` down-intervals
            (half-open, clamped to the horizon; ids in
            ``[0, n_servers)``).
        cap_windows: ``(start, end, cap_frac)`` fleet power-cap windows
            (overlaps take the tightest cap).
        pool_sizes: per-pool server counts for heterogeneous fleets —
            server ids are pool-major (pool 0's servers first).  Needed
            so engines can reduce per-pool capacity; ``None`` treats
            the fleet as one pool.

    Raises:
        ConfigurationError: on out-of-range events, or if any pool
            (or the whole fleet) is left with zero up servers at any
            slot.
    """

    def __init__(
        self,
        n_servers: int,
        horizon_start: int,
        horizon_end: int,
        server_outages: Sequence[OutageEvent] = (),
        cap_windows: Sequence[CapEvent] = (),
        pool_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if horizon_end <= horizon_start:
            raise ConfigurationError(
                f"empty fault horizon [{horizon_start}, {horizon_end})"
            )
        self._n_servers = int(n_servers)
        self._start = int(horizon_start)
        self._end = int(horizon_end)
        horizon = self._end - self._start

        if pool_sizes is not None:
            sizes = tuple(int(s) for s in pool_sizes)
            if any(s < 1 for s in sizes):
                raise ConfigurationError(
                    f"pool_sizes must all be >= 1, got {sizes}"
                )
            if sum(sizes) != self._n_servers:
                raise ConfigurationError(
                    f"pool_sizes sum to {sum(sizes)} but n_servers is "
                    f"{self._n_servers}"
                )
        else:
            sizes = (self._n_servers,)
        self._pool_sizes = sizes
        pool_of = np.repeat(np.arange(len(sizes)), sizes)

        down = np.zeros((self._n_servers, horizon), dtype=bool)
        outages: List[OutageEvent] = []
        for sid, s0, s1 in server_outages:
            sid, s0, s1 = int(sid), int(s0), int(s1)
            if not 0 <= sid < self._n_servers:
                raise ConfigurationError(
                    f"outage server id {sid} out of range "
                    f"[0, {self._n_servers})"
                )
            if s1 <= s0:
                raise ConfigurationError(
                    f"outage interval [{s0}, {s1}) is empty"
                )
            lo = max(s0, self._start) - self._start
            hi = min(s1, self._end) - self._start
            if hi <= lo:
                continue  # entirely outside the horizon
            down[sid, lo:hi] = True
            outages.append((sid, lo + self._start, hi + self._start))
        self._server_outages = tuple(outages)

        # Per-slot, per-pool failed counts; survivor rule enforced.
        n_pools = len(sizes)
        failed = np.zeros((n_pools, horizon), dtype=np.int64)
        for m in range(n_pools):
            failed[m] = down[pool_of == m].sum(axis=0)
            if np.any(failed[m] >= sizes[m]):
                slot = int(np.argmax(failed[m] >= sizes[m])) + self._start
                raise ConfigurationError(
                    f"pool {m} has all {sizes[m]} servers down at slot "
                    f"{slot}; a schedule must leave at least one server "
                    f"per pool up (generated schedules truncate events "
                    f"to guarantee this)"
                )
        self._pool_failed = failed
        self._n_failed = failed.sum(axis=0)

        cap = np.ones(horizon, dtype=float)
        caps: List[CapEvent] = []
        for s0, s1, frac in cap_windows:
            s0, s1, frac = int(s0), int(s1), float(frac)
            if not 0.0 < frac <= 1.0:
                raise ConfigurationError(
                    f"cap_frac must be in (0, 1], got {frac}"
                )
            if s1 <= s0:
                raise ConfigurationError(
                    f"cap interval [{s0}, {s1}) is empty"
                )
            lo = max(s0, self._start) - self._start
            hi = min(s1, self._end) - self._start
            if hi <= lo:
                continue
            np.minimum(cap[lo:hi], frac, out=cap[lo:hi])
            caps.append((lo + self._start, hi + self._start, frac))
        self._cap = cap
        self._cap_windows = tuple(caps)

        # Slots where the fault state changes (first slot included when
        # it already differs from the implicit "all up" state before
        # the horizon): window cuts happen exactly here.
        state = np.vstack([self._pool_failed, cap[None, :]])
        before = np.zeros((state.shape[0], 1))
        before[-1, 0] = 1.0
        changed = np.any(np.diff(np.hstack([before, state]), axis=1) != 0, axis=0)
        self._change_slots = np.flatnonzero(changed) + self._start

        self._has_events = bool(
            self._n_failed.any() or np.any(cap < 1.0)
        )

    # -- introspection -------------------------------------------------

    @property
    def n_servers(self) -> int:
        """Fleet size the schedule describes."""
        return self._n_servers

    @property
    def horizon_start(self) -> int:
        """First covered slot."""
        return self._start

    @property
    def horizon_end(self) -> int:
        """One past the last covered slot."""
        return self._end

    @property
    def pool_sizes(self) -> Tuple[int, ...]:
        """Per-pool server counts (single entry when pool-less)."""
        return self._pool_sizes

    @property
    def has_events(self) -> bool:
        """False for an all-up, uncapped (zero-event) schedule."""
        return self._has_events

    @property
    def server_outages(self) -> Tuple[OutageEvent, ...]:
        """Horizon-clamped ``(server_id, start, end)`` outages."""
        return self._server_outages

    @property
    def cap_windows(self) -> Tuple[CapEvent, ...]:
        """Horizon-clamped ``(start, end, cap_frac)`` cap windows."""
        return self._cap_windows

    # -- observability --------------------------------------------------

    def trace_events(self, tracer) -> None:
        """Emit the schedule as ``fault_event`` preamble events.

        Outages sharing a ``(start, end)`` interval collapse into one
        event carrying the affected server count (a rack failure is one
        event, not 20); cap windows emit one event each.  Ordering is
        deterministic (sorted by interval), so same-seed schedules
        trace byte-identically.
        """
        if not getattr(tracer, "enabled", False):
            return
        grouped: Dict[Tuple[int, int], int] = {}
        for _sid, s0, s1 in self._server_outages:
            grouped[(s0, s1)] = grouped.get((s0, s1), 0) + 1
        for (s0, s1), count in sorted(grouped.items()):
            tracer.emit(
                "fault_event",
                kind="outage",
                start_slot=s0,
                end_slot=s1,
                n_servers=count,
            )
        for s0, s1, frac in sorted(self._cap_windows):
            tracer.emit(
                "fault_event",
                kind="cap",
                start_slot=s0,
                end_slot=s1,
                cap_frac=frac,
            )

    # -- per-slot queries ----------------------------------------------

    def _offset(self, slot: int) -> int:
        if not self._start <= slot < self._end:
            raise ConfigurationError(
                f"slot {slot} outside fault horizon "
                f"[{self._start}, {self._end})"
            )
        return slot - self._start

    def n_failed(self, slot: int) -> int:
        """Servers down at ``slot`` (fleet-wide)."""
        return int(self._n_failed[self._offset(slot)])

    def pool_failed(self, slot: int) -> Tuple[int, ...]:
        """Per-pool down-server counts at ``slot``."""
        return tuple(int(f) for f in self._pool_failed[:, self._offset(slot)])

    def cap_frac(self, slot: int) -> float:
        """Fleet power budget fraction at ``slot`` (1.0 = uncapped)."""
        return float(self._cap[self._offset(slot)])

    def next_change(self, slot: int) -> int:
        """First slot > ``slot`` where the fault state changes.

        Returns ``horizon_end`` when the state is constant for the rest
        of the horizon — the same contract as
        :meth:`~repro.traces.lifecycle.LifecycleSchedule.next_change`,
        so engines can cut windows with one ``min``.
        """
        self._offset(slot)  # bounds check
        idx = np.searchsorted(self._change_slots, slot, side="right")
        if idx >= self._change_slots.size:
            return self._end
        return int(self._change_slots[idx])


def zero_faults(
    n_servers: int,
    horizon_start: int,
    horizon_end: int,
    pool_sizes: Optional[Sequence[int]] = None,
) -> FaultSchedule:
    """An event-free schedule (the bit-identity control)."""
    return FaultSchedule(
        n_servers, horizon_start, horizon_end, pool_sizes=pool_sizes
    )


def generate_faults(
    n_servers: int,
    horizon_start: int,
    horizon_end: int,
    config: Optional[FaultConfig] = None,
    seed: int = 0,
    pool_sizes: Optional[Sequence[int]] = None,
) -> FaultSchedule:
    """Draw a seeded fault timeline from Poisson/MTBF parameters.

    One ``default_rng(seed)`` drives a single pass over the horizon in
    slot order (server outages, then rack outages, then cap windows per
    slot), so the same seed yields the identical schedule regardless of
    the consumer.  Outages that would darken a whole pool (or the
    fleet) are truncated at the offending slot — the survivor rule.
    """
    cfg = config or FaultConfig()
    if n_servers < 1:
        raise ConfigurationError("n_servers must be >= 1")
    if horizon_end <= horizon_start:
        raise ConfigurationError(
            f"empty fault horizon [{horizon_start}, {horizon_end})"
        )
    if pool_sizes is not None:
        sizes = tuple(int(s) for s in pool_sizes)
    else:
        sizes = (int(n_servers),)
    pool_of = np.repeat(np.arange(len(sizes)), sizes)
    up_in_pool = np.array(sizes, dtype=np.int64)

    rng = np.random.default_rng(seed)
    horizon = horizon_end - horizon_start
    down = np.zeros((n_servers, horizon), dtype=bool)
    pool_down = np.zeros((len(sizes), horizon), dtype=np.int64)
    outages: List[OutageEvent] = []
    caps: List[CapEvent] = []

    def try_fail(sid: int, lo: int, hi: int) -> None:
        """Mark ``sid`` down for [lo, hi) offsets, truncated to keep
        one server per pool up at every slot."""
        m = int(pool_of[sid])
        end = lo
        while end < hi:
            if down[sid, end]:
                end += 1  # already down: overlapping event, no change
                continue
            if pool_down[m, end] + 1 >= up_in_pool[m]:
                break  # would darken the pool: truncate here
            end += 1
        if end <= lo:
            return
        newly = ~down[sid, lo:end]
        down[sid, lo:end] = True
        pool_down[m, lo:end] += newly
        outages.append((sid, lo + horizon_start, end + horizon_start))

    server_rate = (
        n_servers / cfg.server_mtbf_slots
        if cfg.server_mtbf_slots > 0
        else 0.0
    )
    n_racks = (
        math.ceil(n_servers / cfg.rack_size) if cfg.rack_size > 0 else 0
    )
    rack_rate = (
        n_racks / cfg.rack_mtbf_slots if cfg.rack_mtbf_slots > 0 else 0.0
    )

    for off in range(horizon):
        if server_rate > 0.0:
            for _ in range(int(rng.poisson(server_rate))):
                sid = int(rng.integers(n_servers))
                dur = max(
                    1,
                    int(
                        round(
                            rng.exponential(
                                cfg.outage_duration_mean_slots
                            )
                        )
                    ),
                )
                try_fail(sid, off, min(off + dur, horizon))
        if rack_rate > 0.0:
            for _ in range(int(rng.poisson(rack_rate))):
                rack = int(rng.integers(n_racks))
                dur = max(
                    1,
                    int(
                        round(
                            rng.exponential(
                                cfg.outage_duration_mean_slots
                            )
                        )
                    ),
                )
                first = rack * cfg.rack_size
                last = min(first + cfg.rack_size, n_servers)
                for sid in range(first, last):
                    try_fail(sid, off, min(off + dur, horizon))
        if cfg.cap_rate_per_slot > 0.0:
            for _ in range(int(rng.poisson(cfg.cap_rate_per_slot))):
                dur = max(
                    1,
                    int(
                        round(
                            rng.exponential(cfg.cap_duration_mean_slots)
                        )
                    ),
                )
                caps.append(
                    (
                        off + horizon_start,
                        min(off + dur, horizon) + horizon_start,
                        cfg.cap_frac,
                    )
                )

    return FaultSchedule(
        n_servers,
        horizon_start,
        horizon_end,
        server_outages=outages,
        cap_windows=caps,
        pool_sizes=pool_sizes,
    )


@dataclass(frozen=True)
class FaultScenario:
    """A named fault regime of the registry.

    Attributes:
        name: registry key.
        description: one-line summary for reports.
        config: the stochastic parameters (``None`` = no events).
        seed_offset: added to the build seed so scenarios sharing a
            sweep seed still draw independent timelines.
    """

    name: str
    description: str
    config: Optional[FaultConfig] = None
    seed_offset: int = 0

    def build(
        self,
        n_servers: int,
        horizon_start: int,
        horizon_end: int,
        seed: int = 2018,
        pool_sizes: Optional[Sequence[int]] = None,
    ) -> FaultSchedule:
        """Materialize the schedule for one fleet and horizon."""
        if self.config is None:
            return zero_faults(
                n_servers, horizon_start, horizon_end, pool_sizes
            )
        return generate_faults(
            n_servers,
            horizon_start,
            horizon_end,
            config=self.config,
            seed=seed + self.seed_offset,
            pool_sizes=pool_sizes,
        )


FAULT_SCENARIOS: Dict[str, FaultScenario] = {
    scenario.name: scenario
    for scenario in (
        FaultScenario(
            name="none",
            description="no faults (bit-identity control)",
        ),
        FaultScenario(
            name="rare-outages",
            description="occasional single-server outages",
            config=FaultConfig(
                server_mtbf_slots=2000.0,
                outage_duration_mean_slots=8.0,
            ),
            seed_offset=1,
        ),
        FaultScenario(
            name="frequent-outages",
            description="unreliable hardware, frequent server outages",
            config=FaultConfig(
                server_mtbf_slots=500.0,
                outage_duration_mean_slots=6.0,
            ),
            seed_offset=2,
        ),
        FaultScenario(
            name="rack-outage",
            description="correlated rack-level outages (10-server racks)",
            config=FaultConfig(
                rack_size=10,
                rack_mtbf_slots=400.0,
                outage_duration_mean_slots=6.0,
            ),
            seed_offset=3,
        ),
        # Cap fractions are relative to *provisioned* full-load fleet
        # power (the breaker/contract view), and a consolidating
        # policy runs the fleet far below that: caps only bind when
        # they dip toward the consolidated operating point.  "Mild"
        # is chosen to throttle rarely, "severe" to force degraded
        # operation on a tightly-provisioned fleet.
        FaultScenario(
            name="power-cap-mild",
            description="mild fleet power caps (40% of nominal)",
            config=FaultConfig(
                cap_rate_per_slot=0.07,
                cap_duration_mean_slots=6.0,
                cap_frac=0.40,
            ),
            seed_offset=4,
        ),
        FaultScenario(
            name="power-cap-severe",
            description="severe fleet power caps (25% of nominal)",
            config=FaultConfig(
                cap_rate_per_slot=0.07,
                cap_duration_mean_slots=6.0,
                cap_frac=0.25,
            ),
            seed_offset=5,
        ),
        FaultScenario(
            name="cap-and-outages",
            description="server outages combined with 35% power caps",
            config=FaultConfig(
                server_mtbf_slots=800.0,
                outage_duration_mean_slots=6.0,
                cap_rate_per_slot=0.05,
                cap_duration_mean_slots=5.0,
                cap_frac=0.35,
            ),
            seed_offset=6,
        ),
    )
}


def get_fault_scenario(name: str) -> FaultScenario:
    """Look up a fault scenario by registry name."""
    try:
        return FAULT_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_SCENARIOS))
        raise ConfigurationError(
            f"unknown fault scenario {name!r}; known: {known}"
        ) from None
