"""COAT-OPT: COAT with an OPTimal fixed cap (paper Section VI-C).

Identical to COAT except the capacity cap is placed at the *offline
optimal* server frequency — the minimum of the worst-case data-center
power curve (≈1.9 GHz for the NTC server, hence a ≈61% cap).  Active
servers run at that fixed frequency for the whole horizon.

COAT-OPT fixes COAT's biggest energy mistake (running at ``Fmax``) but
keeps its two structural weaknesses: the cap never adapts to the
time-varying demand, and a fixed-frequency server cannot ride DVFS upward
to absorb mispredictions — so violations stay high (Fig. 4) and energy
stays above EPACT (Fig. 6).
"""

from __future__ import annotations

from ..core.types import AllocationContext
from .coat import CoatPolicy


class CoatOptPolicy(CoatPolicy):
    """COAT with the cap fixed at the platform's optimal frequency.

    The cap follows the power model of each context it packs, so one
    instance serves any platform.

    Args:
        correlation_aware: as for :class:`CoatPolicy`.
        reallocation_period_slots: as for :class:`CoatPolicy`; the
            day-ahead cadence by default.
    """

    name = "COAT-OPT"

    def __init__(
        self,
        correlation_aware: bool = True,
        reallocation_period_slots: int = 24,
    ):
        # The optimal *fixed* cap is an offline configuration, so COAT-OPT
        # follows the day-ahead cadence of its consolidation lineage.
        super().__init__(
            cap_cpu_pct=100.0,
            cap_mem_pct=100.0,
            correlation_aware=correlation_aware,
            dynamic_governor=False,
            name=self.name,
            reallocation_period_slots=reallocation_period_slots,
        )

    def cap_frequency_ghz(self, ctx: AllocationContext) -> float:
        """The platform's optimal frequency, fixed for the whole horizon.

        Sets the CPU cap to ``100 * F_opt / Fmax`` of ``ctx``'s power
        model; the packing loops call this before they read the cap.
        """
        f_opt = ctx.power_model.optimal_frequency_ghz()
        self._cap_cpu = 100.0 * f_opt / ctx.f_max_ghz
        return f_opt
