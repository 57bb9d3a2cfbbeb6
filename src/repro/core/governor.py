"""Per-sample DVFS governor (paper Section V-B, closing paragraph).

"After allocation, for both cases, based on the real VMs CPU utilization,
we online set the best frequency level for each server per sample to
guarantee QoS."

For each server and each 5-minute sample the governor picks the lowest OPP
that (a) covers the server's real aggregate CPU demand and (b) respects
the QoS frequency floor of the hosted workload classes (1.2 GHz for
low-mem, 1.8 GHz for mid/high-mem on the NTC server).  Demand beyond
``Fmax`` saturates at ``Fmax`` — the excess shows up as an SLA violation,
not as an impossible frequency.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..technology.opp import OppTable

_EPS = 1.0e-9


class DvfsGovernor:
    """Vectorized lowest-covering-OPP selection with QoS floors.

    Args:
        opps: the platform's DVFS table.
        f_max_ghz: the platform's maximum frequency (demand reference).
    """

    def __init__(self, opps: OppTable, f_max_ghz: float):
        if f_max_ghz <= 0.0:
            raise DomainError("f_max_ghz must be positive")
        self._freqs = np.asarray(opps.frequencies_ghz, dtype=float)
        self._f_max = f_max_ghz

    @property
    def frequencies_ghz(self) -> np.ndarray:
        """The OPP frequency grid (ascending)."""
        return self._freqs

    def floor_indices(self, floor_ghz: np.ndarray) -> np.ndarray:
        """OPP indices of per-server QoS floors (ceil quantization)."""
        floors = np.asarray(floor_ghz, dtype=float)
        idx = np.searchsorted(self._freqs, floors - _EPS, side="left")
        return np.clip(idx, 0, len(self._freqs) - 1)

    def opp_indices(
        self,
        cpu_util_pct: np.ndarray,
        floor_ghz: np.ndarray,
    ) -> np.ndarray:
        """Chosen OPP index per server-sample.

        Args:
            cpu_util_pct: real aggregate utilization, shape
                ``(n_servers, n_samples)``, percent of ``Fmax`` capacity.
            floor_ghz: per-server QoS frequency floor, shape
                ``(n_servers,)``.

        Returns:
            Integer OPP indices with the same shape as ``cpu_util_pct``.
        """
        util = np.asarray(cpu_util_pct, dtype=float)
        if util.ndim != 2:
            raise DomainError("cpu_util_pct must be 2-D")
        if np.asarray(floor_ghz).shape != (util.shape[0],):
            raise DomainError("floor_ghz must have one entry per server")
        floor_idx = self.floor_indices(np.asarray(floor_ghz))
        # Lowest OPP covering each sample's demand, raised to the floor.
        demand_ghz = util * self._f_max / 100.0
        idx = np.searchsorted(self._freqs, demand_ghz - _EPS, side="left")
        idx = np.clip(idx, 0, len(self._freqs) - 1)
        return np.maximum(idx, floor_idx[:, None])

    def fixed_indices(
        self, freq_ghz: float, shape: tuple[int, int]
    ) -> np.ndarray:
        """OPP indices for a fixed-frequency policy (ceil quantization)."""
        idx = int(
            np.clip(
                np.searchsorted(self._freqs, freq_ghz - _EPS, side="left"),
                0,
                len(self._freqs) - 1,
            )
        )
        return np.full(shape, idx, dtype=int)
