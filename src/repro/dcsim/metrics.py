"""Simulation metrics: per-slot records, aggregates and comparisons.

The quantities of the paper's Figs. 4-6: SLA violations (overutilized
server-samples per slot), number of active servers per slot, and energy
per slot; plus the policy-vs-policy savings arithmetic of Fig. 6/7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import DomainError
from ..units import joules_to_megajoules


@dataclass(frozen=True)
class SlotRecord:
    """Metrics of one allocation slot for one policy.

    Attributes:
        slot_index: absolute slot index within the dataset.
        case: EPACT's branch for the slot ("" for other policies).
        n_active_servers: servers hosting at least one VM.
        violations: overutilized server-samples in the slot (a server
            counts once per 5-minute sample it exceeds the policy's cap,
            in CPU or memory).
        forced_placements: VMs force-placed outside the policy's caps.
        energy_j: data-center energy consumed during the slot, in joules.
        mean_freq_ghz: average operating frequency over active
            server-samples.
        f_opt_ghz: the policy's target frequency for the slot, if any.
        migrations: VMs whose server assignment changed at this slot's
            reallocation boundary (0 inside an allocation window).  The
            paper ignores migration cost; the engine counts it so the
            churn of dynamic policies is visible (and can optionally be
            charged, see ``DataCenterSimulation``).
        n_active_vms: VMs running during the slot.  Every engine fills
            it per window; a fixed-population run records its whole VM
            count (the fixed-population engine once left it 0).
        arrivals: VMs that arrived at this slot's window boundary (0
            inside a window and without churn).
        departures: VMs that departed at this slot's window boundary
            (0 inside a window and without churn).
        shed_vms: VMs shed into SLA debt this slot (degraded operation
            under faults: no surviving server could host them).
        n_failed_servers: servers down during this slot (fault layer).
        capped_samples: 5-minute samples whose fleet power was throttled
            by an active power-cap window.
        fault_migrations: migrations at this slot that were forced by a
            fault-state change (subset of ``migrations``).
        imputed_samples: degraded-telemetry samples the slot's window
            decision had to impute (streaming engine; counted on the
            window's first slot over the previous slot's active-VM
            readings, 0 elsewhere and without a telemetry layer).
        collectors_down: telemetry collectors inside a dropout window
            during this slot.
        stale_forecast: 1 on a window's first slot when the decision
            re-used an aged day-ahead forecast (the ladder's stale
            rung).
        blind_window: 1 on a window's first slot when telemetry was
            dark past the blind budget and the previous placement was
            frozen (the ladder's reactive-only rung).
    """

    slot_index: int
    case: str
    n_active_servers: int
    violations: int
    forced_placements: int
    energy_j: float
    mean_freq_ghz: float
    f_opt_ghz: float
    migrations: int = 0
    n_active_vms: int = 0
    arrivals: int = 0
    departures: int = 0
    shed_vms: int = 0
    n_failed_servers: int = 0
    capped_samples: int = 0
    fault_migrations: int = 0
    imputed_samples: int = 0
    collectors_down: int = 0
    stale_forecast: int = 0
    blind_window: int = 0

    @property
    def energy_mj(self) -> float:
        """Slot energy in megajoules (the unit of the paper's Fig. 6)."""
        return joules_to_megajoules(self.energy_j)


@dataclass
class SimulationResult:
    """All per-slot records of one policy's run, plus aggregates."""

    policy_name: str
    records: List[SlotRecord] = field(default_factory=list)

    # -- per-slot series ------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Number of simulated slots."""
        return len(self.records)

    @property
    def violations_per_slot(self) -> np.ndarray:
        """Fig. 4 series: violations per slot."""
        return np.array([r.violations for r in self.records], dtype=int)

    @property
    def active_servers_per_slot(self) -> np.ndarray:
        """Fig. 5 series: active servers per slot."""
        return np.array(
            [r.n_active_servers for r in self.records], dtype=int
        )

    @property
    def energy_mj_per_slot(self) -> np.ndarray:
        """Fig. 6 series: energy per slot in MJ."""
        return np.array([r.energy_mj for r in self.records], dtype=float)

    # -- aggregates -----------------------------------------------------------

    @property
    def total_energy_mj(self) -> float:
        """Total energy over the horizon in MJ."""
        return float(self.energy_mj_per_slot.sum())

    @property
    def total_violations(self) -> int:
        """Total violations over the horizon."""
        return int(self.violations_per_slot.sum())

    @property
    def mean_active_servers(self) -> float:
        """Average active servers over the horizon."""
        return float(self.active_servers_per_slot.mean())

    @property
    def total_forced_placements(self) -> int:
        """Total force-placed VMs over the horizon."""
        return int(sum(r.forced_placements for r in self.records))

    @property
    def total_migrations(self) -> int:
        """Total VM migrations over the horizon."""
        return int(sum(r.migrations for r in self.records))

    @property
    def migrations_per_slot(self) -> np.ndarray:
        """Migration counts per slot (non-zero at reallocation points)."""
        return np.array([r.migrations for r in self.records], dtype=int)

    @property
    def active_vms_per_slot(self) -> np.ndarray:
        """Running VMs per slot."""
        return np.array([r.n_active_vms for r in self.records], dtype=int)

    @property
    def total_arrivals(self) -> int:
        """Total VM arrivals over the horizon (cloud runs)."""
        return int(sum(r.arrivals for r in self.records))

    @property
    def total_departures(self) -> int:
        """Total VM departures over the horizon (cloud runs)."""
        return int(sum(r.departures for r in self.records))

    @property
    def shed_vms_per_slot(self) -> np.ndarray:
        """Shed VMs per slot (all zeros without a fault layer)."""
        return np.array([r.shed_vms for r in self.records], dtype=int)

    @property
    def total_shed_vm_slots(self) -> int:
        """Shed VM-slots over the horizon (each shed VM counts per slot)."""
        return int(sum(r.shed_vms for r in self.records))

    @property
    def total_failed_server_slots(self) -> int:
        """Down server-slots over the horizon (fault layer)."""
        return int(sum(r.n_failed_servers for r in self.records))

    @property
    def total_capped_samples(self) -> int:
        """Power-cap-throttled samples over the horizon."""
        return int(sum(r.capped_samples for r in self.records))

    @property
    def total_fault_migrations(self) -> int:
        """Migrations forced by fault-state changes over the horizon."""
        return int(sum(r.fault_migrations for r in self.records))

    @property
    def total_imputed_samples(self) -> int:
        """Imputed decision-input samples over the horizon (telemetry)."""
        return int(sum(r.imputed_samples for r in self.records))

    @property
    def total_collector_down_slots(self) -> int:
        """Collector-slots lost to dropout windows over the horizon."""
        return int(sum(r.collectors_down for r in self.records))

    @property
    def total_stale_forecast_windows(self) -> int:
        """Windows decided on an aged (stale-rung) forecast."""
        return int(sum(r.stale_forecast for r in self.records))

    @property
    def total_blind_windows(self) -> int:
        """Windows frozen because telemetry was dark (reactive-only)."""
        return int(sum(r.blind_window for r in self.records))

    def case_counts(self) -> dict:
        """How many slots used each EPACT case (empty for baselines)."""
        counts: dict = {}
        for record in self.records:
            if record.case:
                counts[record.case] = counts.get(record.case, 0) + 1
        return counts


def energy_savings_pct(
    ours: SimulationResult, baseline: SimulationResult
) -> np.ndarray:
    """Per-slot energy saving of ``ours`` relative to ``baseline`` (%).

    Positive values mean ``ours`` used less energy.  This is the Fig. 6
    comparison (and, summed, the Fig. 7 metric).

    Raises:
        DomainError: if the runs cover different numbers of slots.
    """
    a = ours.energy_mj_per_slot
    b = baseline.energy_mj_per_slot
    if a.shape != b.shape:
        raise DomainError(
            f"slot-count mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        savings = np.where(b > 0.0, (b - a) / b * 100.0, 0.0)
    return savings


def total_energy_savings_pct(
    ours: SimulationResult, baseline: SimulationResult
) -> float:
    """Whole-horizon energy saving of ``ours`` vs ``baseline`` (%)."""
    total_base = baseline.total_energy_mj
    if total_base <= 0.0:
        raise DomainError("baseline consumed no energy")
    return (total_base - ours.total_energy_mj) / total_base * 100.0


def active_server_reduction_pct(
    consolidating: SimulationResult, reference: SimulationResult
) -> float:
    """Mean active-server reduction of one policy vs another (%).

    The paper's Fig. 5 statistic: COAT reduces active servers by ~37% on
    average compared to EPACT.
    """
    ref = reference.mean_active_servers
    if ref <= 0.0:
        raise DomainError("reference run had no active servers")
    return (ref - consolidating.mean_active_servers) / ref * 100.0
