"""Unified simulation configuration object.

:class:`~repro.dcsim.DataCenterSimulation`'s constructor takes eleven
keyword arguments spanning three concerns (platform, horizon,
observability).  A :class:`SimulationConfig` groups them into one
validated, frozen, reusable object:

>>> config = SimulationConfig(max_servers=80, n_slots=24)
>>> sim = DataCenterSimulation.from_config(dataset, predictor, policy,
...                                        config=config)

The old keyword surface keeps working — ``from_config`` is a thin
pass-through (``cls(dataset, predictor, policy, **config.kwargs())``),
so a config-built simulation is **bit-identical** to the equivalent
keyword call, and :class:`~repro.dcsim.CloudSimulation` (or any other
subclass taking extra positional arguments) inherits the factory
unchanged.

Validation follows the :mod:`repro.errors` convention: everything
checkable without the dataset fails at *construction* with
:class:`~repro.errors.ConfigurationError`; the dataset-dependent checks
(horizon bounds, fault coverage) stay in the engine, which sees the
same values either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.types import FleetSpec
from ..errors import ConfigurationError
from ..units import SLOTS_PER_DAY


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a simulation needs beyond (dataset, predictor, policy).

    Attributes:
        power_model: per-server power model for a homogeneous data
            center (mutually exclusive with ``fleet``; the engine
            defaults to the paper's NTC platform when both are absent).
        perf: optional performance simulator override.
        max_servers: homogeneous server count (mutually exclusive with
            ``fleet``; engine default 600).
        start_slot: first simulated slot (default: first predictable).
        n_slots: horizon length in slots (default: rest of the traces).
        migration_energy_j: energy charged per migration.
        psu: optional PSU efficiency model.
        fleet: heterogeneous fleet spec (mutually exclusive with
            ``power_model``/``max_servers``).
        faults: optional fault schedule.
        tracer: optional :class:`~repro.obs.tracer.RunTracer`.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    power_model: Optional[Any] = None
    perf: Optional[Any] = None
    max_servers: Optional[int] = None
    start_slot: Optional[int] = None
    n_slots: Optional[int] = None
    migration_energy_j: float = 0.0
    psu: Optional[Any] = None
    fleet: Optional[FleetSpec] = None
    faults: Optional[Any] = None
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.migration_energy_j < 0.0:
            raise ConfigurationError(
                "migration_energy_j must be non-negative"
            )
        if self.fleet is not None:
            if self.power_model is not None:
                raise ConfigurationError(
                    "pass either power_model or fleet, not both"
                )
            if self.max_servers is not None:
                raise ConfigurationError(
                    "max_servers is derived from the fleet's pool "
                    "sizes; size the pools instead of passing it"
                )
        if self.max_servers is not None and self.max_servers < 1:
            raise ConfigurationError("max_servers must be >= 1")
        if self.start_slot is not None and self.start_slot < 0:
            raise ConfigurationError("start_slot must be non-negative")
        if self.n_slots is not None and self.n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")

    def kwargs(self) -> Dict[str, Any]:
        """The constructor keyword dict this config stands for."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def replace(self, **changes) -> "SimulationConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class StreamingConfig(SimulationConfig):
    """:class:`SimulationConfig` plus the streaming/serve layer's knobs.

    Built for
    :meth:`~repro.cloud.streaming.StreamingCloudSimulation.from_config`
    (inherited from the engine base, so a config-built streaming run is
    bit-identical to the keyword call).  The ``sleep`` test hook stays a
    constructor-only argument.

    Attributes:
        telemetry: replay degradation timeline
            (:class:`~repro.cloud.telemetry.TelemetryFaultSchedule`);
            mutually exclusive with ``collectors``.
        collectors: live
            :class:`~repro.serve.adapters.CollectorAdapter` sequence.
        max_imputed_frac: fresh-fit threshold of the forecast ladder.
        staleness_budget_slots: stale-forecast re-use budget.
        blind_after_slots: dark-stream budget before placements freeze.
        cold_start_util_pct: assumed utilization for unseen VMs.
        poll_retries / poll_backoff_s: collector retry policy.
        checkpoint_every_slots / checkpoint_path: snapshot cadence and
            persistence target.
    """

    telemetry: Optional[Any] = None
    collectors: Optional[Any] = None
    max_imputed_frac: float = 0.25
    staleness_budget_slots: int = 3 * SLOTS_PER_DAY
    blind_after_slots: int = 2
    cold_start_util_pct: float = 50.0
    poll_retries: int = 2
    poll_backoff_s: float = 0.0
    checkpoint_every_slots: Optional[int] = None
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.max_imputed_frac <= 1.0:
            raise ConfigurationError(
                f"max_imputed_frac must be in [0, 1], got "
                f"{self.max_imputed_frac}"
            )
        if self.staleness_budget_slots < SLOTS_PER_DAY:
            raise ConfigurationError(
                f"staleness_budget_slots must be >= {SLOTS_PER_DAY} "
                f"(one day): a day-ahead forecast ages in whole days, "
                f"so a budget of {self.staleness_budget_slots} slots "
                f"makes the stale rung unreachable — raise the budget "
                f"or drop straight to persistence"
            )
        if self.blind_after_slots < 1:
            raise ConfigurationError(
                f"blind_after_slots must be >= 1, got "
                f"{self.blind_after_slots}"
                " — under normal operation the newest delivery is "
                "exactly one slot old"
            )
        if self.poll_retries < 0:
            raise ConfigurationError(
                f"poll_retries must be >= 0, got {self.poll_retries}"
            )
        if self.poll_backoff_s < 0:
            raise ConfigurationError(
                f"poll_backoff_s must be >= 0, got {self.poll_backoff_s}"
            )
        if (
            self.checkpoint_every_slots is not None
            and self.checkpoint_every_slots < 1
        ):
            raise ConfigurationError(
                f"checkpoint_every_slots must be >= 1, got "
                f"{self.checkpoint_every_slots}"
            )
        if self.telemetry is not None and self.collectors is not None:
            raise ConfigurationError(
                "telemetry= and collectors= are mutually exclusive: a "
                "replay degradation schedule builds its own "
                "TraceCollector set, a live feed brings its own "
                "adapters"
            )
