"""Operator service loop: windowed decisions as a structured stream.

This is the consolidation controller the paper's question implies —
monitor → forecast → place → migrate, once per allocation window —
packaged as a callable service.  :func:`serve` builds a
:class:`~repro.cloud.streaming.StreamingCloudSimulation` from a frozen
:class:`ServeConfig`, drives its :meth:`windows` generator, and turns
every :class:`~repro.dcsim.WindowDecision` into ``decision_*``
events on the run tracer (schemas in
:data:`repro.obs.tracer.EVENT_SCHEMAS`):

* ``decision_placement`` — the committed placement's shape (case,
  servers, churn, blind/checkpoint flags), once per window;
* ``decision_migration`` — only when the window moved VMs;
* ``decision_rung`` — the forecast-ladder rung planned from, with the
  degradation context (not for a window without active VMs);
* ``decision_sla`` — the window's accounted energy and SLA debt.

Replay mode re-plays a registered degradation scenario over the seeded
workload (the ``clean`` scenario is the batch-engine bit-identity
control); live mode plugs any
:class:`~repro.serve.adapters.CollectorAdapter` set into the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..core.types import AllocationPolicy
from ..errors import ConfigurationError

__all__ = [
    "POLICIES",
    "ServeConfig",
    "build_simulation",
    "emit_decision_events",
    "serve",
]


def _policy_registry() -> Dict[str, Callable[[], AllocationPolicy]]:
    from ..baselines import OnlineBestFitPolicy, OnlineReactivePolicy
    from ..core import EpactPolicy

    return {
        "epact": EpactPolicy,
        "reactive": OnlineReactivePolicy,
        "bestfit": OnlineBestFitPolicy,
    }


#: Policy names :class:`ServeConfig` accepts (fresh instance per run).
POLICIES = ("epact", "reactive", "bestfit")


@dataclass(frozen=True)
class ServeConfig:
    """Everything one service run needs, validated up front.

    Attributes:
        workload: cloud scenario name (:data:`repro.cloud.SCENARIOS`).
        telemetry_scenario: degradation scenario name
            (:data:`repro.cloud.TELEMETRY_SCENARIOS`) for replay mode;
            ignored when live collectors are passed to :func:`serve`.
        policy: policy name from :data:`POLICIES`.
        n_vms / n_days / seed: workload build configuration.
        n_slots: evaluated slots (``None`` = everything after the
            forecaster's training window).
        max_servers: fleet bound.
        checkpoint_every_slots: window-boundary checkpoint cadence
            (``None`` disables checkpointing; needs
            ``checkpoint_path``).
        checkpoint_path: the checkpoint file (a base plus appended
            records, :mod:`repro.cloud.streaming`); also the source of
            a ``resume=True`` run.
    """

    workload: str = "zero-churn"
    telemetry_scenario: str = "clean"
    policy: str = "epact"
    n_vms: int = 120
    n_days: int = 9
    seed: int = 2018
    n_slots: Optional[int] = None
    max_servers: int = 24
    checkpoint_every_slots: Optional[int] = None
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; pick one of "
                f"{', '.join(POLICIES)}"
            )
        if self.n_vms < 1:
            raise ConfigurationError("n_vms must be >= 1")
        if self.n_days < 8:
            raise ConfigurationError(
                f"n_days must be >= 8, got {self.n_days}: the day-ahead "
                f"forecaster's 7-day history plus at least one "
                f"evaluated day"
            )
        if self.n_slots is not None and self.n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        if self.max_servers < 1:
            raise ConfigurationError("max_servers must be >= 1")
        if self.checkpoint_every_slots is not None:
            if self.checkpoint_every_slots < 1:
                raise ConfigurationError(
                    f"checkpoint_every_slots must be >= 1, got "
                    f"{self.checkpoint_every_slots}"
                )
            if self.checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every_slots needs checkpoint_path "
                    "(--checkpoint-every needs --checkpoint): the "
                    "checkpoint file is the only checkpoint"
                )


def _build_workload(config: ServeConfig):
    """The seeded workload of ``config``: its ``(dataset, schedule)``."""
    from ..cloud import get_scenario

    return get_scenario(config.workload).build(
        n_vms=config.n_vms,
        n_days=config.n_days,
        seed=config.seed,
        n_slots=config.n_slots,
    )


def build_simulation(
    config: ServeConfig,
    collectors: Optional[Sequence] = None,
    tracer=None,
    workload=None,
):
    """The configured streaming engine behind one service run.

    With ``collectors`` the engine polls the live adapters; without
    them the configured degradation scenario is replayed over the
    seeded workload's file collectors.  ``workload`` is the
    :func:`_build_workload` result for ``config`` when the caller built
    it already (the demo feed serves the same traces); ``None`` builds
    it here.
    """
    from ..cloud import get_telemetry_scenario
    from ..cloud.streaming import StreamingCloudSimulation
    from ..forecast import DayAheadPredictor

    dataset, schedule = (
        _build_workload(config) if workload is None else workload
    )
    predictor = DayAheadPredictor(dataset)
    telemetry = None
    if collectors is None:
        telemetry = get_telemetry_scenario(config.telemetry_scenario).build(
            n_vms=dataset.n_vms,
            horizon_start=0,
            horizon_end=dataset.n_slots,
            seed=config.seed,
        )
    policy = _policy_registry()[config.policy]()
    return StreamingCloudSimulation(
        dataset,
        predictor,
        policy,
        schedule,
        telemetry=telemetry,
        collectors=collectors,
        checkpoint_every_slots=config.checkpoint_every_slots,
        checkpoint_path=config.checkpoint_path,
        n_slots=config.n_slots,
        max_servers=config.max_servers,
        tracer=tracer,
    )


def emit_decision_events(tracer, decision) -> None:
    """One window's :class:`WindowDecision` → ``decision_*`` events."""
    if tracer is None or not tracer.enabled:
        return
    tracer.emit(
        "decision_placement",
        slot=decision.slot,
        n_window=decision.n_window,
        case=decision.case,
        n_active_vms=decision.n_active_vms,
        active_servers=decision.active_servers,
        forced_placements=decision.forced_placements,
        arrivals=decision.arrivals,
        departures=decision.departures,
        blind=decision.blind,
        checkpointed=decision.checkpointed,
    )
    if decision.migrations:
        tracer.emit(
            "decision_migration",
            slot=decision.slot,
            migrations=decision.migrations,
        )
    if decision.rung is not None:
        tracer.emit(
            "decision_rung",
            slot=decision.slot,
            rung=decision.rung,
            stale=decision.stale,
            imputed_samples=decision.imputed_samples,
            collectors_down=decision.collectors_down,
        )
    tracer.emit(
        "decision_sla",
        slot=decision.slot,
        violations=decision.violations,
        energy_j=decision.energy_j,
    )


def serve(
    config: ServeConfig,
    collectors: Optional[Sequence] = None,
    tracer=None,
    resume: bool = False,
    on_decision=None,
    workload=None,
):
    """Run the service loop to the end of the horizon.

    Args:
        config: the frozen run configuration.
        collectors: live :class:`~repro.serve.adapters.CollectorAdapter`
            set (``None`` = replay the configured degradation
            scenario).
        tracer: optional :class:`~repro.obs.tracer.RunTracer`; receives
            the engine's streaming events *and* the ``decision_*``
            stream, and times the engine's phases.
        resume: restore the last intact boundary of
            ``config.checkpoint_path`` before streaming (bit-identical
            continuation).
        on_decision: optional callback invoked with every
            :class:`~repro.dcsim.WindowDecision` after its
            events are emitted (operator hooks, progress displays).
        workload: the already built ``(dataset, schedule)`` of
            ``config`` (:func:`_build_workload`); ``None`` builds it.

    Returns:
        The run's :class:`~repro.dcsim.SimulationResult` — identical to
        :meth:`StreamingCloudSimulation.run` with the same inputs.
    """
    sim = build_simulation(
        config, collectors=collectors, tracer=tracer, workload=workload
    )
    if resume:
        if config.checkpoint_path is None:
            raise ConfigurationError(
                "resume=True needs checkpoint_path set — there is no "
                "checkpoint to restore"
            )
        sim.restore(config.checkpoint_path)
    for decision in sim.windows():
        emit_decision_events(tracer, decision)
        if on_decision is not None:
            on_decision(decision)
    return sim.result
