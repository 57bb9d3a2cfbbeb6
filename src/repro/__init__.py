"""repro — reproduction of "Energy Proportionality in Near-Threshold
Computing Servers and Cloud Data Centers: Consolidating or Not?"
(Pahlevan et al., DATE 2018).

The package is organized by substrate:

* :mod:`repro.technology` — FD-SOI / bulk voltage-frequency and leakage
* :mod:`repro.arch` — server platforms (NTC, ThunderX, Intel references)
* :mod:`repro.perf` — analytic gem5 stand-in, calibrated to Table I
* :mod:`repro.power` — Section IV power models, Fig. 1 DC analysis
* :mod:`repro.traces` — synthetic Google-cluster-like workload traces
* :mod:`repro.forecast` — from-scratch ARIMA day-ahead prediction
* :mod:`repro.core` — EPACT (Algorithms 1-2, Eq. 1-2, DVFS governor)
* :mod:`repro.baselines` — COAT, COAT-OPT, FFD, load-balancing
* :mod:`repro.dcsim` — the slot/sample data-center simulator
* :mod:`repro.cloud` — online cloud simulation (VM churn, reactive
  consolidation, scenario registry, SLA metrics, degraded-telemetry
  streaming)
* :mod:`repro.serve` — live-operator service mode (collector
  adapters, the ``repro-serve`` decision stream)
* :mod:`repro.experiments` — one module per paper table/figure

``from repro import ...`` is the documented import path for the
supported surface below (engines, configs, policies, runners, serve
entry points).

Quick start::

    from repro import PerformanceSimulator, ntc_server_power_model
    from repro import EpactPolicy, CoatPolicy, run_policies
    from repro.traces import default_dataset
    from repro.forecast import DayAheadPredictor

    dataset = default_dataset(n_vms=120, n_days=9)
    predictor = DayAheadPredictor(dataset)
    results = run_policies(dataset, predictor,
                           [EpactPolicy(), CoatPolicy()], n_slots=48)
"""

from .baselines import (
    CoatOptPolicy,
    CoatPolicy,
    FfdPolicy,
    LoadBalancePolicy,
    OnlineBestFitPolicy,
    OnlineReactivePolicy,
)
from .core import (
    Allocation,
    AllocationContext,
    AllocationPolicy,
    DvfsGovernor,
    EpactPolicy,
    OnlinePolicy,
)
from .cloud.streaming import StreamingCloudSimulation
from .dcsim import (
    DataCenterSimulation,
    SimulationResult,
    WindowDecision,
    inspect_slot,
    run_geo_policies,
    run_policies,
    total_energy_savings_pct,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    DomainError,
    ForecastError,
    InfeasibleError,
    ReproError,
)
from .forecast import ArimaModel, ArimaOrder, DayAheadPredictor
from .perf import MemoryClass, PerformanceSimulator, QosModel
from .power import (
    DataCenterPowerAnalysis,
    PsuModel,
    ServerPowerModel,
    conventional_server_power_model,
    ntc_psu,
    ntc_server_power_model,
)
from .serve.service import ServeConfig, serve
from .traces import ClusterTraceGenerator, GeneratorConfig, TraceDataset
from .validation import validate_reproduction

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "AllocationContext",
    "AllocationPolicy",
    "ArimaModel",
    "ArimaOrder",
    "CalibrationError",
    "ClusterTraceGenerator",
    "CoatOptPolicy",
    "CoatPolicy",
    "ConfigurationError",
    "DataCenterPowerAnalysis",
    "DataCenterSimulation",
    "DayAheadPredictor",
    "DomainError",
    "DvfsGovernor",
    "EpactPolicy",
    "FfdPolicy",
    "ForecastError",
    "GeneratorConfig",
    "InfeasibleError",
    "LoadBalancePolicy",
    "MemoryClass",
    "OnlineBestFitPolicy",
    "OnlinePolicy",
    "OnlineReactivePolicy",
    "PerformanceSimulator",
    "PsuModel",
    "QosModel",
    "ReproError",
    "ServeConfig",
    "ServerPowerModel",
    "SimulationResult",
    "StreamingCloudSimulation",
    "TraceDataset",
    "WindowDecision",
    "conventional_server_power_model",
    "inspect_slot",
    "ntc_psu",
    "ntc_server_power_model",
    "run_geo_policies",
    "run_policies",
    "serve",
    "total_energy_savings_pct",
    "validate_reproduction",
]
