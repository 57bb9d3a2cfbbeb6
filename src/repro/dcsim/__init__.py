"""Data-center simulation: slot/sample engine, metrics, reporting.

Implements the paper's Section VI-C evaluation protocol over the trace,
forecast, policy and power substrates.

One engine, :class:`DataCenterSimulation`, runs every population and
fleet: a churning population is its ``schedule=`` argument and a
homogeneous data center is the one-pool fleet of its power model, for
accounting and for the policies' context alike.

This package is also the single entry point for the multi-policy
runners — :func:`run_policies` (fixed or churning population, the
latter with ``schedule=``) and :func:`run_geo_policies` (sharded
multi-region fleets) — which share one keyword surface: ``jobs`` and
``tracer``.  With ``jobs > 1`` each fans its independent runs out over
worker processes through :func:`~repro.dcsim.engine.fan_out`, the one
process fan (the experiment sweeps use it too), which hands the shared
traces and forecasts to each worker once and retries a failed run once
before reporting it as a :class:`~repro.dcsim.engine.FailedRun`.
"""

from .engine import (
    DataCenterSimulation,
    WindowDecision,
    count_migrations,
    run_policies,
    shared_predictions,
)
from .inspect import SlotDetail, inspect_slot
from .metrics import (
    SimulationResult,
    SlotRecord,
    active_server_reduction_pct,
    energy_savings_pct,
    total_energy_savings_pct,
)
from .power_tables import VectorizedServerPower
from .reporting import (
    comparison_table,
    format_table,
    series_block,
    sparkline,
)

# Imported last: repro.shard.geo itself imports the engine submodule
# above, which is complete by this point even while this package
# module is still initializing.
from ..shard.geo import run_geo_policies  # noqa: E402

__all__ = [
    "DataCenterSimulation",
    "SimulationResult",
    "run_geo_policies",
    "SlotDetail",
    "SlotRecord",
    "VectorizedServerPower",
    "WindowDecision",
    "inspect_slot",
    "active_server_reduction_pct",
    "comparison_table",
    "count_migrations",
    "energy_savings_pct",
    "format_table",
    "run_policies",
    "shared_predictions",
    "series_block",
    "sparkline",
    "total_energy_savings_pct",
]
