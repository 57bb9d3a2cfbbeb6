"""Experiment: heterogeneous fleets — "Consolidating or Not?" per mix.

Sweeps the registered NTC/conventional fleet compositions
(:mod:`repro.cloud.fleets`) over the same traces and day-ahead
predictions, twice:

* **fixed population** — the paper's Section VI-C protocol with
  :class:`~repro.core.epact.EpactPolicy` splitting the demand across
  pools (spread on NTC, consolidate the spill on conventional
  servers);
* **under churn** — the online-cloud protocol on a churning scenario,
  comparing the fleet-aware day-ahead EPACT against the pool-aware
  reactive online policy.

The output answers the title question *across fleet compositions*:
energy, SLA violation rate and migrations per mix, plus the headline
all-NTC vs all-conventional delta.

With ``jobs > 1`` each protocol's (mix, policy) runs fan out over
:func:`~repro.dcsim.engine.fan_out`; the predictions are frozen once
and handed to each worker once with the traces, so results equal the
serial run exactly, and a run that times out or crashes is retried
once then reported as failed instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines import OnlineReactivePolicy
from ..cloud import get_fleet, get_scenario, list_fleets, sla_table
from ..core.epact import EpactPolicy
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

DEFAULT_MIXES = (
    "all-ntc",
    "ntc-heavy",
    "hybrid-50/50",
    "conventional-heavy",
    "all-conventional",
)


def default_hybrid_policies() -> List[AllocationPolicy]:
    """The churn-leg comparison: fleet-aware EPACT vs pool-aware online."""
    return [EpactPolicy(), OnlineReactivePolicy()]


def _run_mix(
    dataset, predictor, fleets: Dict, kwargs: Dict, name: str, policy
):
    """One (mix, policy) run of either protocol (a picklable task body)."""
    return _run_one_policy(
        dataset, predictor, policy, {**kwargs, "fleet": fleets[name]}
    )


@dataclass(frozen=True)
class HybridResult:
    """Per-mix runs of both protocols.

    Attributes:
        fixed: fixed-population :class:`SimulationResult` per mix.
        churn: per-mix, per-policy runs on the churn scenario.
        churn_scenario: the churn scenario the second leg used.
    """

    fixed: Dict[str, SimulationResult]
    churn: Dict[str, Dict[str, SimulationResult]]
    churn_scenario: str


def run_hybrid(
    quick: bool = False,
    jobs: int = 1,
    mix_names: Optional[Sequence[str]] = None,
    n_vms: int = 600,
    n_days: int = 14,
    n_slots: Optional[int] = None,
    seed: int = 2018,
    total_servers: int = 600,
    churn_scenario: str = "diurnal-burst",
    policies: Optional[Sequence[AllocationPolicy]] = None,
    tracer=None,
) -> HybridResult:
    """Run the fleet-composition sweep (see module docstring).

    Args:
        quick: shrink to 120 VMs / 9 days / 2 evaluated days.
        jobs: worker processes; every (mix, policy) run of a protocol
            is one task of that protocol's
            :func:`~repro.dcsim.engine.fan_out`.
        mix_names: subset of the fleet registry (default: all mixes).
        n_vms / n_days / seed: trace configuration.
        n_slots: evaluated slots (default: everything after training).
        total_servers: fleet size shared by every mix.
        churn_scenario: the cloud scenario of the churn leg.
        policies: churn-leg policies (fresh instances are required for
            stateful online policies; the defaults are fresh).
        tracer: optional observability hook (:mod:`repro.obs`).  A
            protocol whose runs are serial traces at engine level; a
            protocol fanned over processes emits task events only
            (tracers do not cross the pickle boundary).  Results are
            identical.
    """
    if quick:
        # A deliberately tight fleet (vs the 120-server cloud quick
        # scale): the NTC pool of the conventional-heavy mixes then
        # actually binds, so the composition axis is visible — demand
        # spills onto the conventional pool instead of every mix
        # collapsing onto an oversized NTC pool.
        n_vms, n_days, total_servers = 120, 9, 40
        n_slots = 48 if n_slots is None else n_slots
    names = list(mix_names or DEFAULT_MIXES)
    fleets = {name: get_fleet(name, total_servers) for name in names}
    policy_list = (
        list(policies)
        if policies is not None
        else default_hybrid_policies()
    )

    fixed_tasks = [(name, (name, EpactPolicy())) for name in names]
    churn_tasks = [
        ((name, policy.name), (name, policy))
        for name in names
        for policy in policy_list
    ]
    dataset, schedule = get_scenario(churn_scenario).build(
        n_vms=n_vms, n_days=n_days, seed=seed, n_slots=n_slots
    )
    predictor = DayAheadPredictor(dataset)
    if _fans_out(jobs, max(len(fixed_tasks), len(churn_tasks))):
        predictor = shared_predictions(dataset, predictor, n_slots=n_slots)

    def leg(tasks, kwargs):
        if not _fans_out(jobs, len(tasks)):
            kwargs = dict(kwargs, tracer=tracer)
        return fan_out(
            _run_mix,
            (dataset, predictor, fleets, kwargs),
            tasks,
            jobs,
            tracer=tracer,
        )

    fixed = leg(fixed_tasks, dict(n_slots=n_slots))
    churn_runs = leg(churn_tasks, dict(n_slots=n_slots, schedule=schedule))
    churn = {
        name: {
            policy.name: churn_runs[(name, policy.name)]
            for policy in policy_list
        }
        for name in names
    }
    return HybridResult(
        fixed=fixed, churn=churn, churn_scenario=churn_scenario
    )


def render(result: HybridResult) -> str:
    """Per-mix tables plus the headline composition trade-off.

    Runs that failed in a parallel sweep are listed in place of their
    table rows instead of aborting the report.
    """
    descriptions = list_fleets()
    lines = [
        "Heterogeneous fleets — consolidating or not, per composition"
    ]
    fixed_ok = {
        k: v
        for k, v in result.fixed.items()
        if not isinstance(v, FailedRun)
    }
    lines.append("")
    lines.append(
        "fixed population (day-ahead EPACT split across pools):"
    )
    lines.append(sla_table(fixed_ok))
    for name, res in result.fixed.items():
        if isinstance(res, FailedRun):
            lines.append(failed_line(name, res))
    for name in result.fixed:
        lines.append(f"  {name}: {descriptions.get(name, '')}")

    lines.append("")
    lines.append(
        f"under churn ({result.churn_scenario}), per mix:"
    )
    for name, all_runs in result.churn.items():
        runs = {
            k: v
            for k, v in all_runs.items()
            if not isinstance(v, FailedRun)
        }
        lines.append("")
        lines.append(f"fleet {name}:")
        lines.append(sla_table(runs))
        for k, v in all_runs.items():
            if isinstance(v, FailedRun):
                lines.append(failed_line(k, v))

    energies = {
        name: sum(r.energy_j for r in res.records)
        for name, res in fixed_ok.items()
    }
    if "all-ntc" in energies and "all-conventional" in energies:
        ntc = energies["all-ntc"]
        conv = energies["all-conventional"]
        if conv > 0.0:
            delta = (ntc - conv) / conv * 100.0
            lines.append("")
            lines.append(
                f"headline: the all-NTC fleet uses {delta:+.1f}% energy "
                f"vs all-conventional on the same traces; the mixed "
                f"fleets interpolate between spreading and "
                f"consolidation."
            )
    return "\n".join(lines)


def main() -> None:
    """Run and print the experiment (reduced scale for the CLI)."""
    print(render(run_hybrid(quick=True)))


if __name__ == "__main__":
    main()
