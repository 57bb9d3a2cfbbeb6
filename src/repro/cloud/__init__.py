"""repro.cloud — online cloud simulation over the Section VI-C engine.

The paper consolidates a *fixed* VM population; this subsystem asks the
"Consolidating or Not?" question in the regime production clouds live
in: VMs arrive, resize and depart continuously, and consolidation
decisions are made online under SLA pressure.  It ties together

* the lifecycle substrate (:mod:`repro.traces.lifecycle`) — seeded
  Poisson/heavy-tailed arrival, departure and resize schedules;
* the churn-aware engine — the one engine,
  :class:`~repro.dcsim.engine.DataCenterSimulation`, given a
  ``schedule=``: its window loop over time-varying active sets;
* the online policies (:mod:`repro.baselines.online`) — placement on
  arrival plus threshold-/forecast-driven reactive consolidation,
  comparable head-to-head with the paper's day-ahead EPACT;
* the scenario registry (:mod:`repro.cloud.scenarios`) and the SLA
  metrics layer (:mod:`repro.cloud.sla`);
* the degraded-telemetry streaming layer (:mod:`repro.cloud.telemetry`
  and :mod:`repro.cloud.streaming`) — seeded sample drop/corruption/
  late-delivery schedules, file-replay collectors with retry/backoff,
  imputation, the forecast-staleness fallback ladder, and the
  checkpoint/resume-capable :class:`StreamingCloudSimulation`.

Quick start::

    from repro.cloud import get_scenario, sla_table
    from repro.baselines import OnlineReactivePolicy
    from repro.core import EpactPolicy
    from repro.dcsim import run_policies
    from repro.forecast import DayAheadPredictor

    dataset, schedule = get_scenario("diurnal-burst").build(n_vms=120,
                                                           n_days=9,
                                                           n_slots=48)
    predictor = DayAheadPredictor(dataset)
    results = run_policies(
        dataset, predictor, [EpactPolicy(), OnlineReactivePolicy()],
        schedule=schedule, n_slots=48)
    print(sla_table(results))
"""

from ..baselines.online import OnlineBestFitPolicy, OnlineReactivePolicy
from ..core.online import OnlinePolicy
from ..dcsim.engine import WindowDecision
from ..serve.adapters import poll_with_retry
from ..traces.lifecycle import (
    ChurnConfig,
    LifecycleSchedule,
    fixed_schedule,
    generate_lifecycle,
)
from .faults import (
    FAULT_SCENARIOS,
    FaultConfig,
    FaultScenario,
    FaultSchedule,
    generate_faults,
    get_fault_scenario,
    zero_faults,
)
from .fleets import FLEETS, FleetMix, get_fleet, list_fleets
from .scenarios import (
    SCENARIOS,
    CloudScenario,
    get_scenario,
    list_scenarios,
)
from .sla import (
    SlaSummary,
    fault_table,
    sla_table,
    summarize,
    telemetry_table,
)
from .telemetry import (
    TELEMETRY_SCENARIOS,
    ForecastLadder,
    TelemetryFaultConfig,
    TelemetryFaultSchedule,
    TelemetryIngest,
    TelemetryScenario,
    TraceCollector,
    generate_telemetry_faults,
    get_telemetry_scenario,
    zero_telemetry_faults,
)
from .streaming import StreamingCloudSimulation

__all__ = [
    "FAULT_SCENARIOS",
    "FLEETS",
    "FaultConfig",
    "FaultScenario",
    "FaultSchedule",
    "FleetMix",
    "ForecastLadder",
    "SCENARIOS",
    "TELEMETRY_SCENARIOS",
    "ChurnConfig",
    "CloudScenario",
    "LifecycleSchedule",
    "OnlineBestFitPolicy",
    "OnlinePolicy",
    "OnlineReactivePolicy",
    "SlaSummary",
    "StreamingCloudSimulation",
    "TelemetryFaultConfig",
    "TelemetryFaultSchedule",
    "TelemetryIngest",
    "TelemetryScenario",
    "TraceCollector",
    "WindowDecision",
    "fault_table",
    "fixed_schedule",
    "generate_faults",
    "generate_lifecycle",
    "generate_telemetry_faults",
    "get_fault_scenario",
    "get_fleet",
    "get_scenario",
    "get_telemetry_scenario",
    "list_fleets",
    "list_scenarios",
    "poll_with_retry",
    "sla_table",
    "summarize",
    "telemetry_table",
    "zero_telemetry_faults",
    "zero_faults",
]
