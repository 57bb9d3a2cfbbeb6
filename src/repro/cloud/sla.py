"""SLA and churn summary metrics for cloud simulation runs.

The fixed-population metrics count raw violations (overutilized
server-samples); under churn the *rates* matter, because the active
population and server pool vary over the horizon.  :func:`summarize`
condenses a run into the quantities the "Consolidating or Not?"
trade-off is judged on:

* **SLA violation rate** — overutilized server-samples as a fraction of
  the active server-samples (the SLATAH-style metric of the online
  consolidation literature);
* **migration churn** — total migrations and migrations per active
  VM-slot (consolidation aggressiveness);
* **energy per VM-slot** — energy normalized by delivered VM capacity,
  the energy-proportionality view that stays comparable across
  scenarios with different populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..dcsim.metrics import SimulationResult
from ..dcsim.reporting import format_table
from ..units import SAMPLES_PER_SLOT, SLOT_PERIOD_S


@dataclass(frozen=True)
class SlaSummary:
    """Aggregate SLA / churn / energy metrics of one cloud run.

    Attributes:
        policy_name: the policy the run belongs to.
        total_energy_mj: horizon energy in MJ.
        total_violations: overutilized server-samples.
        violation_rate: violations / active server-samples (0 when no
            server was ever on).
        total_migrations: VMs moved at reallocation boundaries.
        migrations_per_vm_slot: migrations / active VM-slots.
        mean_active_servers: average powered servers per slot.
        mean_active_vms: average running VMs per slot.
        energy_per_vm_slot_kj: energy / active VM-slots, in kJ.
        total_arrivals: VM arrivals over the horizon.
        total_departures: VM departures over the horizon.
        forced_placements: VMs placed outside the policy's caps.
        shed_vm_minutes: minutes of VM downtime accrued as SLA debt by
            degraded operation (shed VMs x slot length; 0 without a
            fault layer).
        downtime_server_minutes: server-minutes lost to outages.
        fault_migrations: migrations forced by fault-state changes.
        capped_samples: samples throttled by a fleet power cap.
        imputed_samples: degraded-telemetry decision-input samples the
            streaming engine had to impute (0 without a telemetry
            layer).
        stale_forecast_windows: windows decided on an aged day-ahead
            forecast (the fallback ladder's stale rung).
        collector_downtime_minutes: collector-minutes lost to dropout
            windows (each down collector counts separately).
        blind_windows: windows where telemetry was dark past the blind
            budget and the previous placement was frozen.
    """

    policy_name: str
    total_energy_mj: float
    total_violations: int
    violation_rate: float
    total_migrations: int
    migrations_per_vm_slot: float
    mean_active_servers: float
    mean_active_vms: float
    energy_per_vm_slot_kj: float
    total_arrivals: int
    total_departures: int
    forced_placements: int
    shed_vm_minutes: float = 0.0
    downtime_server_minutes: float = 0.0
    fault_migrations: int = 0
    capped_samples: int = 0
    imputed_samples: int = 0
    stale_forecast_windows: int = 0
    collector_downtime_minutes: float = 0.0
    blind_windows: int = 0


def summarize(result: SimulationResult) -> SlaSummary:
    """Condense a cloud run into an SLA summary.

    The per-VM-slot rates divide by the population series
    (``n_active_vms``, filled by every engine); records without one
    (every ``n_active_vms`` zero) report those fields as ``NaN`` —
    rendered as ``n/a`` by :func:`sla_table` — rather than a silently
    wrong 0.
    """
    server_samples = int(
        result.active_servers_per_slot.sum() * SAMPLES_PER_SLOT
    )
    vm_slots = int(result.active_vms_per_slot.sum())
    return SlaSummary(
        policy_name=result.policy_name,
        total_energy_mj=result.total_energy_mj,
        total_violations=result.total_violations,
        violation_rate=(
            result.total_violations / server_samples
            if server_samples
            else 0.0
        ),
        total_migrations=result.total_migrations,
        migrations_per_vm_slot=(
            result.total_migrations / vm_slots if vm_slots else float("nan")
        ),
        mean_active_servers=result.mean_active_servers,
        mean_active_vms=(
            float(result.active_vms_per_slot.mean())
            if result.n_slots
            else 0.0
        ),
        energy_per_vm_slot_kj=(
            result.total_energy_mj * 1.0e3 / vm_slots
            if vm_slots
            else float("nan")
        ),
        total_arrivals=result.total_arrivals,
        total_departures=result.total_departures,
        forced_placements=result.total_forced_placements,
        shed_vm_minutes=result.total_shed_vm_slots * SLOT_PERIOD_S / 60.0,
        downtime_server_minutes=(
            result.total_failed_server_slots * SLOT_PERIOD_S / 60.0
        ),
        fault_migrations=result.total_fault_migrations,
        capped_samples=result.total_capped_samples,
        imputed_samples=result.total_imputed_samples,
        stale_forecast_windows=result.total_stale_forecast_windows,
        collector_downtime_minutes=(
            result.total_collector_down_slots * SLOT_PERIOD_S / 60.0
        ),
        blind_windows=result.total_blind_windows,
    )


def sla_table(results: Dict[str, SimulationResult]) -> str:
    """ASCII comparison table of SLA summaries, one row per policy."""
    headers = [
        "policy",
        "energy (MJ)",
        "kJ/VM-slot",
        "viol.",
        "viol. rate",
        "migr.",
        "migr./VM-slot",
        "servers",
        "VMs",
        "forced",
    ]
    def fmt(value: float, spec: str) -> str:
        return "n/a" if value != value else format(value, spec)

    rows = []
    for name, result in results.items():
        s = summarize(result)
        rows.append(
            [
                name,
                f"{s.total_energy_mj:.1f}",
                fmt(s.energy_per_vm_slot_kj, ".2f"),
                s.total_violations,
                f"{s.violation_rate:.4f}",
                s.total_migrations,
                fmt(s.migrations_per_vm_slot, ".3f"),
                f"{s.mean_active_servers:.1f}",
                f"{s.mean_active_vms:.1f}",
                s.forced_placements,
            ]
        )
    return format_table(headers, rows)


def fault_table(results: Dict[str, SimulationResult]) -> str:
    """ASCII table of degraded-operation metrics, one row per policy.

    Complements :func:`sla_table` for runs with a fault layer: how much
    VM downtime (SLA debt) each policy accrued by shedding, the server
    downtime the schedule imposed (identical across policies of one
    scenario), fault-forced migrations, and power-cap throttling.
    """
    headers = [
        "policy",
        "shed VM-min",
        "server down-min",
        "fault migr.",
        "capped smp.",
        "forced",
        "energy (MJ)",
    ]
    rows = []
    for name, result in results.items():
        s = summarize(result)
        rows.append(
            [
                name,
                f"{s.shed_vm_minutes:.0f}",
                f"{s.downtime_server_minutes:.0f}",
                s.fault_migrations,
                s.capped_samples,
                s.forced_placements,
                f"{s.total_energy_mj:.1f}",
            ]
        )
    return format_table(headers, rows)


def telemetry_table(results: Dict[str, SimulationResult]) -> str:
    """ASCII table of degraded-telemetry metrics, one row per policy.

    Complements :func:`sla_table` for streaming runs: how much of each
    policy's decision input was imputed, how often the forecast ladder
    fell back to a stale forecast or to a frozen (blind) placement, and
    the collector downtime the schedule imposed (identical across
    policies of one scenario) — next to the energy bill those
    degradations produced.
    """
    headers = [
        "policy",
        "imputed smp.",
        "stale wins.",
        "blind wins.",
        "coll. down-min",
        "viol.",
        "energy (MJ)",
    ]
    rows = []
    for name, result in results.items():
        s = summarize(result)
        rows.append(
            [
                name,
                s.imputed_samples,
                s.stale_forecast_windows,
                s.blind_windows,
                f"{s.collector_downtime_minutes:.0f}",
                s.total_violations,
                f"{s.total_energy_mj:.1f}",
            ]
        )
    return format_table(headers, rows)
