"""Experiment: Fig. 7 — EPACT vs. COAT under different static power.

Sweeps the per-server static (motherboard/fan/disk) power from an
efficient 5 W to a traditional 45 W and compares EPACT against COAT at
each point.  The paper's finding: EPACT's saving *shrinks* as static power
grows (high static power favors consolidation), so EPACT becomes even more
effective as future technologies cut static power further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..anchors import FIG7_STATIC_POWER_SWEEP_W
from ..baselines import CoatPolicy
from ..core import EpactPolicy
from ..dcsim import run_policies, shared_predictions
from ..dcsim.engine import FailedRun, _fans_out, fan_out
from ..dcsim.reporting import failed_line, format_table
from ..forecast import DayAheadPredictor
from ..power.server_power import ntc_server_power_model
from ..traces import TraceDataset, default_dataset


@dataclass(frozen=True)
class Fig7Point:
    """Result at one static-power setting."""

    static_w: float
    epact_energy_mj: float
    coat_energy_mj: float
    epact_optimal_freq_ghz: float

    @property
    def saving_pct(self) -> float:
        """EPACT's energy saving over COAT at this static power."""
        return (
            (self.coat_energy_mj - self.epact_energy_mj)
            / self.coat_energy_mj
            * 100.0
        )


@dataclass(frozen=True)
class Fig7Result:
    """The full static-power sweep.

    Under ``jobs > 1`` a point whose run failed twice is a
    :class:`~repro.dcsim.engine.FailedRun` instead.
    """

    points: List[Fig7Point]

    def savings(self) -> List[Tuple[float, float]]:
        """(static W, saving %) pairs in sweep order."""
        return [(p.static_w, p.saving_pct) for p in self.points]

    def is_monotonically_decreasing(self, tolerance_pct: float = 2.0) -> bool:
        """Whether savings decrease with static power (within tolerance)."""
        s = [p.saving_pct for p in self.points]
        return all(b <= a + tolerance_pct for a, b in zip(s, s[1:]))


def _run_fig7_point(
    data: TraceDataset,
    predictor,
    static_w: float,
    max_servers: int,
    n_slots: Optional[int],
    tracer=None,
) -> Fig7Point:
    """One static-power point of the sweep (picklable worker body)."""
    power = ntc_server_power_model().with_motherboard(float(static_w))
    results = run_policies(
        data,
        predictor,
        [EpactPolicy(), CoatPolicy()],
        tracer=tracer,
        power_model=power,
        max_servers=max_servers,
        n_slots=n_slots,
    )
    return Fig7Point(
        static_w=float(static_w),
        epact_energy_mj=results["EPACT"].total_energy_mj,
        coat_energy_mj=results["COAT"].total_energy_mj,
        epact_optimal_freq_ghz=power.optimal_frequency_ghz(),
    )


def run_fig7(
    dataset: Optional[TraceDataset] = None,
    static_sweep_w: Tuple[float, ...] = FIG7_STATIC_POWER_SWEEP_W,
    n_vms: int = 300,
    n_days: int = 9,
    seed: int = 2018,
    max_servers: int = 600,
    n_slots: Optional[int] = 48,
    quick: bool = False,
    jobs: int = 1,
    tracer=None,
) -> Fig7Result:
    """Run EPACT and COAT at each static-power point.

    The sweep replaces the motherboard/fan/disk component of the server
    power model (default 15 W) with each sweep value; everything else —
    traces, forecasts, policies — is held fixed.  The day-ahead
    predictions are computed once and shared by every point; with
    ``jobs > 1`` the points fan out over worker processes
    (:func:`~repro.dcsim.engine.fan_out`), keyed by static power.
    ``tracer`` traces the engines of a serial sweep; a parallel sweep
    emits task events only (tracers do not cross the pickle boundary).
    """
    if quick:
        n_vms, n_days, n_slots = 100, 9, 24
    data = (
        dataset
        if dataset is not None
        else default_dataset(n_vms=n_vms, n_days=n_days, seed=seed)
    )
    predictor = shared_predictions(
        data, DayAheadPredictor(data), n_slots=n_slots
    )
    engine_tracer = None if _fans_out(jobs, len(static_sweep_w)) else tracer
    points = fan_out(
        _run_fig7_point,
        (data, predictor),
        [
            (w, (w, max_servers, n_slots, engine_tracer))
            for w in static_sweep_w
        ],
        jobs,
        tracer=tracer,
    )
    return Fig7Result(points=list(points.values()))


def render(result: Fig7Result) -> str:
    """Savings-vs-static-power table.

    The trend needs every point: if one failed, its ``FAILED`` line
    stands in place of the table.
    """
    title = "Fig. 7 — EPACT vs COAT under different static power"
    failed = [
        failed_line(p.key, p) for p in result.points if isinstance(p, FailedRun)
    ]
    if failed:
        return "\n".join([title, *failed])
    headers = [
        "static (W)",
        "EPACT (MJ)",
        "COAT (MJ)",
        "saving (%)",
        "opt f (GHz)",
    ]
    body = [
        [
            f"{p.static_w:.0f}",
            f"{p.epact_energy_mj:.1f}",
            f"{p.coat_energy_mj:.1f}",
            f"{p.saving_pct:.1f}",
            f"{p.epact_optimal_freq_ghz:.1f}",
        ]
        for p in result.points
    ]
    return (
        f"{title}\n"
        f"{format_table(headers, body)}\n"
        f"savings decrease with static power: "
        f"{result.is_monotonically_decreasing()} "
        "(paper: yes — EPACT gains from low-static-power technology)"
    )


def main() -> None:
    """Run and print the experiment (reduced scale for the CLI)."""
    print(render(run_fig7(quick=True)))


if __name__ == "__main__":
    main()
