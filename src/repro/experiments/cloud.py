"""Experiment: the online cloud — "Consolidating or Not?" under churn.

Runs every registered cloud workload scenario (zero-churn control,
steady trickle, diurnal bursts, flash crowds, batch+latency mix) under
the paper's day-ahead EPACT and the online policies (placement-only
best-fit, reactive threshold consolidation, forecast-assisted reactive),
and reports the SLA/energy/migration trade-off per scenario.

With ``jobs > 1`` every (scenario, policy) pair fans out over
:func:`~repro.dcsim.engine.fan_out`: the day-ahead predictions are
frozen once per scenario and handed to each worker once with the
traces, so results equal the serial run exactly; a pair that times
out or crashes is retried once and, failing that, reported as a failed
run in the output instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from ..cloud import get_scenario, sla_table, summarize
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

DEFAULT_SCENARIOS = (
    "zero-churn",
    "steady",
    "diurnal-burst",
    "flash-crowd",
    "batch-latency",
)


def default_cloud_policies() -> List[AllocationPolicy]:
    """The four-way comparison: day-ahead EPACT vs the online policies."""
    return [
        EpactPolicy(),
        OnlineBestFitPolicy(),
        OnlineReactivePolicy(),
        OnlineReactivePolicy(signal="forecast", name="ONLINE-REACTIVE-F"),
    ]


def _run_pair(prepared: Dict, kwargs: Dict, name: str, policy):
    """One (scenario, policy) run (a picklable task body)."""
    dataset, predictor, schedule = prepared[name]
    return _run_one_policy(
        dataset, predictor, policy, dict(kwargs, schedule=schedule)
    )


@dataclass(frozen=True)
class CloudResult:
    """Per-scenario, per-policy cloud simulation runs."""

    results: Dict[str, Dict[str, SimulationResult]]

    def scenario(self, name: str) -> Dict[str, SimulationResult]:
        """One scenario's policy runs."""
        return self.results[name]


def run_cloud(
    quick: bool = False,
    jobs: int = 1,
    scenario_names: Optional[Sequence[str]] = None,
    n_vms: int = 600,
    n_days: int = 14,
    n_slots: Optional[int] = None,
    seed: int = 2018,
    max_servers: int = 600,
    policies: Optional[Sequence[AllocationPolicy]] = None,
    tracer=None,
) -> CloudResult:
    """Run the cloud scenario fan (see module docstring).

    Args:
        quick: shrink to 120 VMs / 9 days / 2 evaluated days.
        jobs: worker processes; every (scenario, policy) pair is one
            task of a single :func:`~repro.dcsim.engine.fan_out`.
        scenario_names: subset of the registry (default: all).
        n_vms / n_days / seed: scenario build configuration.
        n_slots: evaluated slots (default: everything after training).
        max_servers: fleet bound.
        policies: policies to compare (fresh instances are required for
            stateful online policies; the defaults are fresh).
        tracer: optional observability hook (:mod:`repro.obs`).
            Serial runs trace at engine level; parallel sweeps emit
            task events only (tracers do not cross the pickle
            boundary).  Results are identical.
    """
    if quick:
        n_vms, n_days, max_servers = 120, 9, 120
        n_slots = 48 if n_slots is None else n_slots
    names = list(scenario_names or DEFAULT_SCENARIOS)
    policy_list = (
        list(policies) if policies is not None else default_cloud_policies()
    )
    tasks = [
        ((name, policy.name), (name, policy))
        for name in names
        for policy in policy_list
    ]
    fans = _fans_out(jobs, len(tasks))
    kwargs = dict(n_slots=n_slots, max_servers=max_servers)
    if not fans:
        kwargs["tracer"] = tracer
    prepared = {}
    for name in names:
        dataset, schedule = get_scenario(name).build(
            n_vms=n_vms, n_days=n_days, seed=seed, n_slots=n_slots
        )
        predictor = DayAheadPredictor(dataset)
        if fans:
            predictor = shared_predictions(dataset, predictor, n_slots=n_slots)
        prepared[name] = (dataset, predictor, schedule)

    runs = fan_out(_run_pair, (prepared, kwargs), tasks, jobs, tracer=tracer)
    return CloudResult(
        results={
            name: {
                policy.name: runs[(name, policy.name)]
                for policy in policy_list
            }
            for name in names
        }
    )


def render(result: CloudResult) -> str:
    """Per-scenario SLA tables plus the headline trade-off.

    (scenario, policy) pairs that failed in a parallel sweep are listed
    per scenario instead of aborting the report.
    """
    lines = ["Online cloud — consolidating or not, under churn"]
    for name, all_runs in result.results.items():
        runs = {
            k: v
            for k, v in all_runs.items()
            if not isinstance(v, FailedRun)
        }
        scenario = get_scenario(name)
        lines.append("")
        lines.append(f"scenario {name}: {scenario.description}")
        lines.append(sla_table(runs))
        for k, v in all_runs.items():
            if isinstance(v, FailedRun):
                lines.append(failed_line(k, v))
        if "EPACT" in runs and "ONLINE-REACTIVE" in runs:
            epact = summarize(runs["EPACT"])
            react = summarize(runs["ONLINE-REACTIVE"])
            if epact.total_energy_mj > 0.0:
                delta = (
                    (react.total_energy_mj - epact.total_energy_mj)
                    / epact.total_energy_mj
                    * 100.0
                )
                lines.append(
                    f"  reactive online uses {delta:+.1f}% energy vs "
                    f"day-ahead EPACT, with {react.total_migrations} vs "
                    f"{epact.total_migrations} migrations"
                )
    return "\n".join(lines)


def main() -> None:
    """Run and print the experiment (reduced scale for the CLI)."""
    print(render(run_cloud(quick=True)))


if __name__ == "__main__":
    main()
