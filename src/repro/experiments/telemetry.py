"""Experiment: degraded telemetry — streaming decisions from a lossy feed.

Sweeps the registered telemetry scenarios
(:mod:`repro.cloud.telemetry`) — clean, 1%/10% sample loss, recurring
collector outages, late/out-of-order delivery bursts, and spike/NaN
corruption — over the zero-churn cloud workload, comparing the paper's
day-ahead EPACT against the reactive online policies when every policy
must decide from the *delivered* stream instead of the true traces:

* EPACT's day-ahead fits ride the forecast-staleness fallback ladder
  (fresh fit on imputed history → aged last-good forecast →
  persistence → frozen placement when the stream goes dark);
* the reactive policies read the imputed last-slot signal, so sample
  loss directly blunts their consolidation triggers.

Accounting always runs on the true traces, so the report prices what
each degradation regime *costs* (energy, violations, blind windows)
rather than what the degraded stream claims.  The clean scenario is
the control: it reproduces the batch engine bit-exactly.

With ``jobs > 1`` every (scenario, policy) pair fans out over
:func:`~repro.dcsim.engine.fan_out`, which hands each worker the traces,
the configured predictor and the schedules once.  No forecast is
frozen: every run re-fits deterministically on its own observed
stream, so results equal the serial run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines import OnlineReactivePolicy
from ..cloud import (
    get_scenario,
    get_telemetry_scenario,
    sla_table,
    telemetry_table,
)
from ..cloud.streaming import StreamingCloudSimulation
from ..cloud.telemetry import TELEMETRY_SCENARIOS, TelemetryFaultSchedule
from ..core import EpactPolicy
from ..core.types import AllocationPolicy
from ..dcsim import SimulationResult
from ..dcsim.engine import FailedRun, _fans_out, fan_out
from ..dcsim.reporting import failed_line
from ..forecast import DayAheadPredictor

DEFAULT_TELEMETRY_SCENARIOS = tuple(TELEMETRY_SCENARIOS)


def default_telemetry_policies() -> List[AllocationPolicy]:
    """Day-ahead EPACT vs the reactive online policies, on lossy feeds."""
    return [
        EpactPolicy(),
        OnlineReactivePolicy(),
        OnlineReactivePolicy(signal="forecast", name="ONLINE-REACTIVE-F"),
    ]


def _run_pair(
    dataset,
    predictor,
    schedule,
    telemetry_schedules: Dict,
    kwargs: Dict,
    name: str,
    policy,
):
    """One (telemetry scenario, policy) run (a picklable task body)."""
    return StreamingCloudSimulation(
        dataset,
        predictor,
        policy,
        schedule,
        telemetry=telemetry_schedules[name],
        **kwargs,
    ).run()


@dataclass(frozen=True)
class TelemetryResult:
    """Per-telemetry-scenario, per-policy runs plus the schedules used."""

    results: Dict[str, Dict[str, SimulationResult]]
    schedules: Dict[str, TelemetryFaultSchedule]


def run_telemetry(
    quick: bool = False,
    jobs: int = 1,
    scenario_names: Optional[Sequence[str]] = None,
    workload: str = "zero-churn",
    n_vms: int = 600,
    n_days: int = 14,
    n_slots: Optional[int] = None,
    seed: int = 2018,
    max_servers: int = 120,
    policies: Optional[Sequence[AllocationPolicy]] = None,
    tracer=None,
) -> TelemetryResult:
    """Run the telemetry-scenario sweep (see module docstring).

    Args:
        quick: shrink to 120 VMs / 9 days / 2 evaluated days.
        jobs: worker processes; every (telemetry scenario, policy) pair
            is one task of a single :func:`~repro.dcsim.engine.fan_out`.
        scenario_names: subset of the telemetry registry (default: all).
        workload: the cloud workload the degraded stream reports on
            (zero-churn by default so telemetry effects are isolated
            from churn effects).
        n_vms / n_days / seed: workload build configuration.
        n_slots: evaluated slots (default: everything after training).
        max_servers: fleet bound.
        policies: policies to compare (fresh instances are required for
            stateful online policies; the defaults are fresh).
        tracer: optional observability hook (:mod:`repro.obs`).
            Serial runs trace at engine level (windows, ladder rungs,
            degradations); parallel sweeps emit task events only,
            because tracers do not cross the pickle boundary.  Results
            are identical either way.
    """
    if quick:
        n_vms, n_days, max_servers = 120, 9, 24
        n_slots = 48 if n_slots is None else n_slots
    names = list(scenario_names or DEFAULT_TELEMETRY_SCENARIOS)
    policy_list = (
        list(policies)
        if policies is not None
        else default_telemetry_policies()
    )

    dataset, schedule = get_scenario(workload).build(
        n_vms=n_vms, n_days=n_days, seed=seed, n_slots=n_slots
    )
    predictor = DayAheadPredictor(dataset)
    # One degradation timeline per scenario, covering the whole trace
    # horizon (the streaming engine checks the forecaster's history
    # streams in from slot 0).
    schedules = {
        name: get_telemetry_scenario(name).build(
            n_vms=dataset.n_vms,
            horizon_start=0,
            horizon_end=dataset.n_slots,
            seed=seed,
        )
        for name in names
    }
    tasks = [
        ((name, policy.name), (name, policy))
        for name in names
        for policy in policy_list
    ]
    kwargs = dict(n_slots=n_slots, max_servers=max_servers)
    if not _fans_out(jobs, len(tasks)):
        kwargs["tracer"] = tracer

    runs = fan_out(
        _run_pair,
        (dataset, predictor, schedule, schedules, kwargs),
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
    return TelemetryResult(results=results, schedules=schedules)


def render(result: TelemetryResult) -> str:
    """Per-telemetry-scenario SLA + degradation tables."""
    lines = ["Degraded telemetry — streaming decisions from a lossy feed"]
    for name, all_runs in result.results.items():
        runs = {
            k: v
            for k, v in all_runs.items()
            if not isinstance(v, FailedRun)
        }
        scenario = get_telemetry_scenario(name)
        ts = result.schedules[name]
        lines.append("")
        lines.append(
            f"telemetry {name}: {scenario.description} "
            f"({ts.n_collectors} collector(s), "
            f"{len(ts.collector_outages)} outage window(s))"
        )
        lines.append(sla_table(runs))
        if ts.has_degradation:
            lines.append(telemetry_table(runs))
        for k, v in all_runs.items():
            if isinstance(v, FailedRun):
                lines.append(failed_line(k, v))
    return "\n".join(lines)


def main() -> None:
    """Run and print the experiment (reduced scale for the CLI)."""
    print(render(run_telemetry(quick=True)))


if __name__ == "__main__":
    main()
