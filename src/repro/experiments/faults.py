"""Experiment: degraded operation — outages and power caps.

Sweeps the registered fault scenarios (:mod:`repro.cloud.faults`) —
no faults, rare/frequent server outages, a rack-level outage regime,
mild/severe fleet power caps, and the combined regime — over the
zero-churn cloud workload, comparing the paper's day-ahead EPACT
against the reactive online policies head-to-head *under failures*:

* EPACT re-solves each window on the surviving capacity (its emergency
  response is the engine's forced re-placement);
* the reactive policy force-migrates VMs off failed servers within
  their home pool first, consolidates onto a reduced server budget
  under a power cap, and sheds lowest-priority VMs into SLA debt when
  the surviving capacity physically cannot host the population.

The report shows, per fault scenario, the SLA table plus the
degraded-operation table (shed VM-minutes, server downtime, fault
migrations, cap throttling).

With ``jobs > 1`` every (scenario, policy) pair fans out over
:func:`~repro.dcsim.engine.fan_out`, which hands each worker the traces,
the frozen day-ahead predictions and the schedules once; failures are
reported per pair instead of aborting the sweep, and results equal the
serial run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines import OnlineReactivePolicy
from ..cloud import fault_table, get_fault_scenario, get_scenario, sla_table
from ..cloud.faults import FaultSchedule
from ..core import EpactPolicy
from ..core.types import AllocationPolicy
from ..dcsim import SimulationResult
from ..dcsim.engine import (
    FailedRun,
    _fans_out,
    _run_one_policy,
    fan_out,
    shared_predictions,
)
from ..dcsim.reporting import failed_line
from ..forecast import DayAheadPredictor

DEFAULT_FAULT_SCENARIOS = (
    "none",
    "rare-outages",
    "frequent-outages",
    "rack-outage",
    "power-cap-mild",
    "power-cap-severe",
    "cap-and-outages",
)


def default_fault_policies() -> List[AllocationPolicy]:
    """Day-ahead EPACT vs the reactive online policies, under faults."""
    return [
        EpactPolicy(),
        OnlineReactivePolicy(),
        OnlineReactivePolicy(signal="forecast", name="ONLINE-REACTIVE-F"),
    ]


def _run_pair(
    dataset,
    predictor,
    fault_schedules: Dict,
    kwargs: Dict,
    name: str,
    policy,
):
    """One (fault scenario, policy) run (a picklable task body)."""
    return _run_one_policy(
        dataset, predictor, policy, dict(kwargs, faults=fault_schedules[name])
    )


@dataclass(frozen=True)
class FaultsResult:
    """Per-fault-scenario, per-policy runs plus the schedules used."""

    results: Dict[str, Dict[str, SimulationResult]]
    schedules: Dict[str, FaultSchedule]


def run_faults(
    quick: bool = False,
    jobs: int = 1,
    fault_names: Optional[Sequence[str]] = None,
    workload: str = "zero-churn",
    n_vms: int = 600,
    n_days: int = 14,
    n_slots: Optional[int] = None,
    seed: int = 2018,
    max_servers: int = 120,
    policies: Optional[Sequence[AllocationPolicy]] = None,
    tracer=None,
) -> FaultsResult:
    """Run the fault-scenario sweep (see module docstring).

    Args:
        quick: shrink to 120 VMs / 9 days / 2 evaluated days.
        jobs: worker processes; every (fault scenario, policy) pair is
            one task of a single :func:`~repro.dcsim.engine.fan_out`.
        fault_names: subset of the fault registry (default: all).
        workload: the cloud workload scenario the faults hit
            (zero-churn by default so fault effects are isolated from
            churn effects).
        n_vms / n_days / seed: workload build configuration.
        n_slots: evaluated slots (default: everything after training).
        max_servers: fleet bound (= the fault schedule's server count).
        policies: policies to compare (fresh instances are required for
            stateful online policies; the defaults are fresh).
        tracer: optional observability hook (:mod:`repro.obs`).
            Serial runs trace at engine level (fault preambles,
            transitions, windows); parallel sweeps emit task events
            only (tracers do not cross the pickle boundary).
            Results are identical.
    """
    if quick:
        # A deliberately tight fleet (vs the 120-server cloud quick
        # scale): nominal (provisioned full-load) power then sits close
        # enough to the consolidated operating point that the registry's
        # cap windows actually throttle, and outages actually squeeze
        # capacity.
        n_vms, n_days, max_servers = 120, 9, 24
        n_slots = 48 if n_slots is None else n_slots
    names = list(fault_names or DEFAULT_FAULT_SCENARIOS)
    policy_list = (
        list(policies) if policies is not None else default_fault_policies()
    )

    tasks = [
        ((name, policy.name), (name, policy))
        for name in names
        for policy in policy_list
    ]
    fans = _fans_out(jobs, len(tasks))
    dataset, schedule = get_scenario(workload).build(
        n_vms=n_vms, n_days=n_days, seed=seed, n_slots=n_slots
    )
    predictor = DayAheadPredictor(dataset)
    if fans:
        predictor = shared_predictions(dataset, predictor, n_slots=n_slots)
    # One schedule per fault scenario, covering the whole dataset
    # horizon (the engine checks coverage of the evaluated window).
    schedules = {
        name: get_fault_scenario(name).build(
            n_servers=max_servers,
            horizon_start=0,
            horizon_end=dataset.n_slots,
            seed=seed,
        )
        for name in names
    }
    kwargs = dict(n_slots=n_slots, max_servers=max_servers, schedule=schedule)
    if not fans:
        kwargs["tracer"] = tracer

    runs = fan_out(
        _run_pair,
        (dataset, predictor, schedules, kwargs),
        tasks,
        jobs,
        tracer=tracer,
    )
    results = {
        name: {
            policy.name: runs[(name, policy.name)] for policy in policy_list
        }
        for name in names
    }
    return FaultsResult(results=results, schedules=schedules)


def render(result: FaultsResult) -> str:
    """Per-fault-scenario SLA + degraded-operation tables."""
    lines = ["Degraded operation — outages and power caps"]
    for name, all_runs in result.results.items():
        runs = {
            k: v
            for k, v in all_runs.items()
            if not isinstance(v, FailedRun)
        }
        scenario = get_fault_scenario(name)
        fs = result.schedules[name]
        lines.append("")
        lines.append(
            f"faults {name}: {scenario.description} "
            f"({len(fs.server_outages)} outage(s), "
            f"{len(fs.cap_windows)} cap window(s))"
        )
        lines.append(sla_table(runs))
        if fs.has_events:
            lines.append(fault_table(runs))
        for k, v in all_runs.items():
            if isinstance(v, FailedRun):
                lines.append(failed_line(k, v))
    return "\n".join(lines)


def main() -> None:
    """Run and print the experiment (reduced scale for the CLI)."""
    print(render(run_faults(quick=True)))


if __name__ == "__main__":
    main()
