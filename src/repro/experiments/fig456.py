"""Experiment: Figs. 4-6 — the one-week data-center policy comparison.

Runs EPACT, COAT and COAT-OPT over the same synthetic cluster traces and
shared day-ahead forecasts, reproducing the paper's three weekly series:

* Fig. 4 — SLA violations per slot (EPACT drastically lower),
* Fig. 5 — active servers per slot (COAT substantially fewer than EPACT),
* Fig. 6 — energy per slot (EPACT saves up to ~45% vs COAT and ~10%
  overall vs COAT-OPT).

The full paper-scale configuration (600 VMs, one evaluated week) takes a
couple of minutes; ``quick=True`` runs a reduced configuration with the
same shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baselines import CoatOptPolicy, CoatPolicy
from ..core import EpactPolicy
from ..core.types import AllocationPolicy
from ..dcsim import (
    SimulationResult,
    active_server_reduction_pct,
    comparison_table,
    energy_savings_pct,
    run_policies,
    series_block,
    total_energy_savings_pct,
)
from ..dcsim.engine import FailedRun
from ..dcsim.reporting import failed_line
from ..forecast import DayAheadPredictor
from ..traces import TraceDataset, default_dataset


@dataclass(frozen=True)
class Fig456Result:
    """Policy runs plus the headline comparison statistics.

    Under ``jobs > 1`` a policy whose run failed twice holds a
    :class:`~repro.dcsim.engine.FailedRun` instead.
    """

    results: Dict[str, SimulationResult]

    @property
    def epact(self) -> SimulationResult:
        """EPACT's run."""
        return self.results["EPACT"]

    @property
    def coat(self) -> SimulationResult:
        """COAT's run."""
        return self.results["COAT"]

    @property
    def coat_opt(self) -> SimulationResult:
        """COAT-OPT's run."""
        return self.results["COAT-OPT"]

    def best_saving_vs_coat_pct(self) -> float:
        """Best per-slot energy saving vs COAT (paper: up to 45%)."""
        return float(energy_savings_pct(self.epact, self.coat).max())

    def total_saving_vs_coat_pct(self) -> float:
        """Whole-horizon saving vs COAT."""
        return total_energy_savings_pct(self.epact, self.coat)

    def total_saving_vs_coat_opt_pct(self) -> float:
        """Whole-horizon saving vs COAT-OPT (paper: ~10% worst case)."""
        return total_energy_savings_pct(self.epact, self.coat_opt)

    def server_reduction_coat_vs_epact_pct(self) -> float:
        """COAT's mean active-server reduction vs EPACT (paper: ~37%)."""
        return active_server_reduction_pct(self.coat, self.epact)

    def violation_ratio_epact_vs_coat(self) -> float:
        """EPACT violations as a fraction of COAT's (paper: near zero)."""
        coat_total = max(1, self.coat.total_violations)
        return self.epact.total_violations / coat_total


def run_fig456(
    dataset: Optional[TraceDataset] = None,
    n_vms: int = 600,
    n_days: int = 14,
    seed: int = 2018,
    max_servers: int = 600,
    n_slots: Optional[int] = None,
    quick: bool = False,
    extra_policies: Optional[List[AllocationPolicy]] = None,
    jobs: int = 1,
    tracer=None,
) -> Fig456Result:
    """Run the three-policy comparison.

    Args:
        dataset: traces to use; generated from the other knobs if omitted.
        n_vms / n_days / seed: generator configuration.
        max_servers: fleet size (paper: 600).
        n_slots: evaluated slots; defaults to everything after the
            training week (one week for 14-day traces).
        quick: shrink to 120 VMs / 9 days / 2 evaluated days.
        extra_policies: additional policies to run alongside the paper's
            three (e.g. fixed-cap variants for the Fig. 6 "other caps").
        jobs: worker processes for the policy runs (see
            :func:`repro.dcsim.run_policies`); 1 keeps the serial path.
        tracer: optional observability hook (:mod:`repro.obs`), as in
            :func:`repro.dcsim.run_policies`: serial runs trace at
            engine level, parallel runs emit task events only.
    """
    if quick:
        n_vms, n_days = 120, 9
        n_slots = 48 if n_slots is None else n_slots
    data = (
        dataset
        if dataset is not None
        else default_dataset(n_vms=n_vms, n_days=n_days, seed=seed)
    )
    predictor = DayAheadPredictor(data)
    policies: List[AllocationPolicy] = [
        EpactPolicy(),
        CoatPolicy(),
        CoatOptPolicy(),
    ]
    if extra_policies:
        policies.extend(extra_policies)
    results = run_policies(
        data,
        predictor,
        policies,
        jobs=jobs,
        tracer=tracer,
        max_servers=max_servers,
        n_slots=n_slots,
    )
    return Fig456Result(results=results)


def render(result: Fig456Result) -> str:
    """Weekly series sparklines plus the headline statistics.

    The headlines need every run: if one failed, its ``FAILED`` line
    stands in place of the figures.
    """
    lines = ["Figs. 4-6 — one-week policy comparison"]
    failed = [
        failed_line(name, run)
        for name, run in result.results.items()
        if isinstance(run, FailedRun)
    ]
    if failed:
        return "\n".join(lines + failed)
    lines.append("")
    lines.append(comparison_table(result.results))
    lines.append("\nFig. 4: violations per slot")
    for name, run in result.results.items():
        lines.append(series_block(name, run.violations_per_slot))
    lines.append("\nFig. 5: active servers per slot")
    for name, run in result.results.items():
        lines.append(series_block(name, run.active_servers_per_slot))
    lines.append("\nFig. 6: energy per slot (MJ)")
    for name, run in result.results.items():
        lines.append(series_block(name, run.energy_mj_per_slot, unit="MJ"))
    lines.append("")
    lines.append(
        f"EPACT vs COAT:     total saving "
        f"{result.total_saving_vs_coat_pct():.1f}%, best slot "
        f"{result.best_saving_vs_coat_pct():.1f}% (paper: up to 45%)"
    )
    lines.append(
        f"EPACT vs COAT-OPT: total saving "
        f"{result.total_saving_vs_coat_opt_pct():.1f}% (paper: ~10% worst)"
    )
    lines.append(
        f"COAT active servers vs EPACT: "
        f"-{result.server_reduction_coat_vs_epact_pct():.1f}% "
        f"(paper: -37%)"
    )
    lines.append(
        f"violations: EPACT {result.epact.total_violations}, COAT "
        f"{result.coat.total_violations}, COAT-OPT "
        f"{result.coat_opt.total_violations}"
    )
    return "\n".join(lines)


def main() -> None:
    """Run and print the experiment (reduced scale for the CLI)."""
    print(render(run_fig456(quick=True)))


if __name__ == "__main__":
    main()
