"""Online allocation types: cloud context and stateful policy ABC.

The fixed-population protocol hands every policy the *entire* fleet each
slot.  Under churn the population changes between slots, so online
policies additionally need:

* **identity** — which global VM each row of the context refers to, so
  placement state (who runs where) survives across calls even as the
  row order shifts with arrivals/departures;
* **history** — the utilization actually observed during the previous
  slot, the signal reactive threshold detectors trigger on (day-ahead
  forecasts remain available for forecast-assisted detection).

:class:`CloudAllocationContext` carries both on top of the standard
:class:`~repro.core.types.AllocationContext`; day-ahead policies ignore
the extras and keep working unchanged — that is what makes the paper's
EPACT directly comparable with the online policies in the cloud engine.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .types import Allocation, AllocationContext, AllocationPolicy


@dataclass(frozen=True)
class CloudAllocationContext(AllocationContext):
    """Per-window inputs of an online (churn-aware) allocation.

    The prediction matrices cover only the VMs active during the window,
    row-aligned with ``vm_ids``.  An :class:`Allocation` produced from
    this context uses *local* row indices (``0 .. len(vm_ids) - 1``);
    the cloud engine maps them back to global ids.

    Attributes:
        vm_ids: sorted global dataset ids of the active VMs.
        last_cpu: CPU utilization observed during the previous slot
            (``(n_vms, 12)``), rows ``NaN`` for VMs without history
            (fresh arrivals, or the first simulated slot); ``None`` when
            the engine supplies no history at all.
        last_mem: memory counterpart of ``last_cpu``.
    """

    vm_ids: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    last_cpu: Optional[np.ndarray] = None
    last_mem: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.vm_ids.shape != (self.pred_cpu.shape[0],):
            raise ConfigurationError(
                "vm_ids must carry one global id per context row"
            )


class OnlinePolicy(AllocationPolicy):
    """A stateful allocation policy driven by the online cloud engine.

    Online policies keep their placement between calls (the defining
    difference from the day-ahead policies, which re-pack from scratch):
    ``allocate`` is called once per window with a
    :class:`CloudAllocationContext` and must place every active VM.

    The engine calls :meth:`reset` at the start of every simulation so a
    policy instance can be reused across runs deterministically.
    """

    reallocation_period_slots = 1

    @abstractmethod
    def reset(self) -> None:
        """Drop all placement state (start of a fresh simulation)."""

    @abstractmethod
    def allocate(self, ctx: AllocationContext) -> Allocation:
        """Place every VM of the window (``ctx`` is a cloud context)."""

    @staticmethod
    def require_cloud_context(
        ctx: AllocationContext,
    ) -> CloudAllocationContext:
        """Narrow the context, with a helpful error for direct callers.

        Every engine passes a :class:`CloudAllocationContext`; only a
        caller invoking ``allocate`` by hand can pass a plain one.
        """
        if not isinstance(ctx, CloudAllocationContext):
            raise ConfigurationError(
                "online policies need a CloudAllocationContext (VM "
                "identity plus the previous slot's observations); the "
                "simulation engines build one per window — a plain "
                "AllocationContext carries neither"
            )
        return ctx
