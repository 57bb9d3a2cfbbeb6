"""Per-slot inspection: the detail behind one simulated hour.

The engine's :class:`~repro.dcsim.metrics.SlotRecord` aggregates each slot
to a handful of numbers.  When debugging a policy (why did *this* server
violate? which class mix drove that frequency?) you want the full
(server, sample) matrices.  :func:`inspect_slot` runs the engine's own
accounting kernel for one slot and returns them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.types import Allocation
from ..units import SAMPLE_PERIOD_S
from .engine import DataCenterSimulation


@dataclass(frozen=True)
class SlotDetail:
    """Full per-server, per-sample view of one simulated slot.

    All matrices have shape ``(n_servers, n_samples)`` and are aligned
    with ``allocation.plans``.

    Attributes:
        slot_index: the inspected slot.
        allocation: the policy's decision for the slot.
        cpu_util_pct: real aggregate CPU utilization per server-sample.
        mem_util_pct: real aggregate memory utilization per server-sample.
        freq_ghz: operating frequency per server-sample.
        power_w: server power per server-sample after the PSU transform
            and any fault-layer power cap (0 for off servers).
        violated: boolean violation mask per server-sample.
    """

    slot_index: int
    allocation: Allocation
    cpu_util_pct: np.ndarray
    mem_util_pct: np.ndarray
    freq_ghz: np.ndarray
    power_w: np.ndarray
    violated: np.ndarray

    @property
    def n_servers(self) -> int:
        """Number of planned servers (including empty/off ones)."""
        return self.cpu_util_pct.shape[0]

    @property
    def energy_j(self) -> float:
        """Slot energy implied by the power matrix.

        Equals the engine record's ``energy_j`` up to the per-migration
        charge (``migration_energy_j``), which is not a power draw.
        """
        return float(self.power_w.sum() * SAMPLE_PERIOD_S)

    @property
    def total_violations(self) -> int:
        """Violating server-samples in the slot."""
        return int(self.violated.sum())

    def hottest_servers(self, k: int = 5) -> List[int]:
        """Server indices with the highest peak CPU utilization."""
        peaks = self.cpu_util_pct.max(axis=1)
        order = np.argsort(-peaks, kind="stable")
        return [int(i) for i in order[:k]]

    def server_summary(self, server_id: int) -> dict:
        """One server's slot in plain numbers (for printing/logging)."""
        plan = self.allocation.plans[server_id]
        return {
            "server": server_id,
            "n_vms": len(plan.vm_ids),
            "peak_cpu_pct": float(self.cpu_util_pct[server_id].max()),
            "peak_mem_pct": float(self.mem_util_pct[server_id].max()),
            "mean_freq_ghz": float(self.freq_ghz[server_id].mean()),
            "mean_power_w": float(self.power_w[server_id].mean()),
            "violations": int(self.violated[server_id].sum()),
        }


def inspect_slot(
    simulation: DataCenterSimulation, slot_index: int
) -> SlotDetail:
    """Run one slot through the engine's accounting and keep the detail.

    Asks the policy for the window starting at ``slot_index`` — cut,
    like the engine's, at the policy period and at the next membership
    or fault change, over the slot's active VMs and fault state — then
    prices the slot with the engine's own kernel, so the returned
    matrices aggregate to exactly the record a run produces for this
    slot whenever the run also starts a window here (for day-ahead
    policies the allocation is recomputed for the window starting
    here).
    """
    sim = simulation
    period = max(1, int(sim._policy.reallocation_period_slots))
    active, scale = sim._window_rows(slot_index)
    fault = sim._fault_window(slot_index)
    allocation = sim._allocate_window(
        slot_index, sim._window_length(slot_index, period), active,
        scale, fault,
    )
    acct = sim._prepare_allocation(allocation, active, scale, fault)
    priced = sim._price_slot(slot_index, allocation, acct)
    return SlotDetail(
        slot_index=slot_index,
        allocation=allocation,
        cpu_util_pct=priced.util,
        mem_util_pct=priced.mem_util,
        freq_ghz=priced.freqs,
        power_w=priced.power,
        violated=priced.violated,
    )
