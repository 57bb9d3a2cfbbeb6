"""Online cloud simulation: time-varying VM populations under churn.

:class:`CloudSimulation` runs the Section VI-C engine over a cloud
where VMs arrive, resize and depart mid-horizon (see
:mod:`repro.traces.lifecycle`).  It only supplies the lifecycle
schedule; the window loop of
:meth:`~repro.dcsim.engine.DataCenterSimulation.windows` does the rest:

* allocation windows are **cut at membership/resize boundaries** — a
  day-ahead policy's 24-slot window ends early when the population
  changes, exactly when a real operator would have to react;
* the policy sees a :class:`~repro.core.online.CloudAllocationContext`
  covering only the window's active VMs (global ids attached, previous
  slot's observed utilization for reactive detectors), so the paper's
  day-ahead policies and the stateful online policies run head-to-head
  on identical information;
* accounting scatters only the window's active rows, scaled by the
  resize factors in force;
* migrations are counted only over VMs present on *both* sides of a
  boundary (arrivals and departures are not migrations) and can be
  charged via ``migration_energy_j`` as in the base engine.

With a zero-churn :func:`~repro.traces.lifecycle.fixed_schedule` the
simulation is exactly the fixed-population
:class:`~repro.dcsim.engine.DataCenterSimulation` — the schedule that
engine uses itself.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..core.types import AllocationPolicy
from ..errors import ConfigurationError
from ..traces.dataset import TraceDataset
from ..traces.lifecycle import LifecycleSchedule
from .engine import (
    DataCenterSimulation,
    _fans_out,
    fan_out,
    shared_predictions,
)
from .metrics import SimulationResult


class CloudSimulation(DataCenterSimulation):
    """Simulates one policy over churning traces (see module docstring).

    Args:
        dataset: utilization traces for the whole VM *pool* (rows for
            VMs that have not arrived yet are simply unused).
        predictor: shared day-ahead predictor (as in the base engine).
        policy: a day-ahead :class:`AllocationPolicy` or a stateful
            :class:`~repro.core.online.OnlinePolicy`.
        schedule: the VM lifecycle (arrivals/departures/resizes); must
            cover the dataset's VM pool and the simulated horizon.
        **kwargs: forwarded to :class:`DataCenterSimulation`.
    """

    _ENGINE_NAME = "cloud"

    def __init__(
        self,
        dataset: TraceDataset,
        predictor,
        policy: AllocationPolicy,
        schedule: LifecycleSchedule,
        **kwargs,
    ):
        super().__init__(dataset, predictor, policy, **kwargs)
        if schedule.n_vms != dataset.n_vms:
            raise ConfigurationError(
                f"schedule covers {schedule.n_vms} VMs, dataset has "
                f"{dataset.n_vms}"
            )
        end = self._start_slot + self._n_slots
        if (
            schedule.horizon_start > self._start_slot
            or schedule.horizon_end < end
        ):
            raise ConfigurationError(
                "lifecycle schedule does not cover the simulated horizon"
            )
        self._schedule = schedule


def _run_one_cloud_policy(
    dataset: TraceDataset,
    predictor,
    policy: AllocationPolicy,
    schedule: LifecycleSchedule,
    kwargs: Dict,
) -> SimulationResult:
    """One policy's full cloud run (a picklable task body)."""
    return CloudSimulation(
        dataset, predictor, policy, schedule, **kwargs
    ).run()


def run_cloud_policies(
    dataset: TraceDataset,
    predictor,
    policies: Iterable[AllocationPolicy],
    schedule: LifecycleSchedule,
    jobs: int = 1,
    tracer=None,
    **kwargs,
) -> Dict[str, SimulationResult]:
    """Run several policies over the same churning traces.

    The cloud counterpart of :func:`repro.dcsim.engine.run_policies`,
    with the same runner surface (``jobs`` / ``tracer``):
    with ``jobs > 1`` the policies fan out over processes
    (:func:`~repro.dcsim.engine.fan_out`), each worker receiving the
    traces and the frozen day-ahead predictions once, so workers re-fit
    nothing and results equal the serial run exactly (online policies
    are reset per run).  Serial runs thread ``tracer`` into every
    engine; parallel fans give it to :func:`~repro.dcsim.engine.fan_out`
    for task events, as in :func:`~repro.dcsim.engine.run_policies`.
    """
    policy_list = list(policies)
    if _fans_out(jobs, len(policy_list)):
        predictor = shared_predictions(
            dataset, predictor, kwargs.get("start_slot"), kwargs.get("n_slots")
        )
    else:
        kwargs = dict(kwargs, tracer=tracer)
    return fan_out(
        _run_one_cloud_policy,
        (dataset, predictor),
        [(policy.name, (policy, schedule, kwargs)) for policy in policy_list],
        jobs,
        tracer=tracer,
    )
