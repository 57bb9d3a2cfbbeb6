"""Whole-server power model facade (paper Section IV).

Combines the four contributors the paper identifies — core region, LLC,
memory-controller/peripherals/IO/motherboard, DRAM — into one model that
answers "how many watts does this server draw at frequency ``f`` with this
load?".  Both the NTC server and the conventional (E5-2620-like) server are
instances of the same :class:`ServerPowerModel` with different components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..arch.platforms import intel_e5_2620, ntc_server
from ..arch.server_spec import ServerSpec
from ..errors import DomainError
from ..technology.leakage import bulk_core_leakage
from .core_power import CoreRegionPowerModel, ntc_core_power_model
from .dram_power import DramPowerModel
from .llc import LlcPowerModel, ntc_llc_power_model
from .uncore import (
    UncorePowerModel,
    conventional_uncore_power_model,
    ntc_uncore_power_model,
)


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power of one server at one operating point.

    All fields are in watts; ``freq_ghz``/``voltage_v`` record the
    operating point the breakdown was computed at.
    """

    freq_ghz: float
    voltage_v: float
    core_dynamic_w: float
    core_leakage_w: float
    llc_leakage_w: float
    llc_access_w: float
    uncore_constant_w: float
    uncore_proportional_w: float
    motherboard_w: float
    dram_background_w: float
    dram_access_w: float

    @property
    def total_w(self) -> float:
        """Total server power in watts."""
        return (
            self.core_dynamic_w
            + self.core_leakage_w
            + self.llc_leakage_w
            + self.llc_access_w
            + self.uncore_constant_w
            + self.uncore_proportional_w
            + self.motherboard_w
            + self.dram_background_w
            + self.dram_access_w
        )

    @property
    def static_w(self) -> float:
        """Load-independent power at this operating point.

        Leakage, constant uncore, motherboard and DRAM idle floor — what
        the server burns just for being on at this voltage.
        """
        return (
            self.core_leakage_w
            + self.llc_leakage_w
            + self.uncore_constant_w
            + self.motherboard_w
        )

    @property
    def dynamic_w(self) -> float:
        """Load-dependent power at this operating point."""
        return self.total_w - self.static_w - self.dram_background_w


@dataclass(frozen=True)
class ServerPowerModel:
    """Composable whole-server power model.

    Attributes:
        spec: the server's architectural specification (provides the
            voltage/frequency curve and DVFS bounds).
        core: core-region power model.
        uncore: uncore/platform power model.
        dram: DRAM power model.
        llc: LLC power model, or ``None`` when LLC power is folded into
            the uncore constant (conventional server).
        llc_traffic_multiplier: LLC accesses generated per DRAM byte of
            traffic is ``multiplier / 16``; the default of 3.0 models an
            LLC absorbing two thirds of the L2 miss traffic.
    """

    spec: ServerSpec
    core: CoreRegionPowerModel
    uncore: UncorePowerModel
    dram: DramPowerModel
    llc: Optional[LlcPowerModel] = None
    llc_traffic_multiplier: float = 3.0

    # -- operating-point helpers ----------------------------------------------

    def voltage_at(self, freq_ghz: float) -> float:
        """Supply voltage at ``freq_ghz`` from the platform's V/f curve."""
        return self.spec.voltage_at(freq_ghz)

    # -- main queries ---------------------------------------------------------

    def breakdown(
        self,
        freq_ghz: float,
        busy_fraction: float = 1.0,
        stall_fraction: float = 0.0,
        dram_bytes_per_s: float = 0.0,
        dram_active_fraction: Optional[float] = None,
    ) -> PowerBreakdown:
        """Full per-component power breakdown at an operating point.

        Args:
            freq_ghz: server clock frequency (must be a valid DVFS point
                range-wise; any in-range value is accepted).
            busy_fraction: fraction of aggregate core-time occupied.
            stall_fraction: within busy time, the wait-for-memory fraction.
            dram_bytes_per_s: DRAM traffic generated by the load.
            dram_active_fraction: bank-active fraction; defaults to the
                busy fraction (banks track CPU activity).
        """
        if not (0.0 <= busy_fraction <= 1.0):
            raise DomainError(
                f"busy_fraction must be in [0, 1], got {busy_fraction}"
            )
        voltage = self.voltage_at(freq_ghz)
        active = (
            busy_fraction
            if dram_active_fraction is None
            else dram_active_fraction
        )
        llc_leak = self.llc.leakage_w(voltage) if self.llc else 0.0
        llc_access = (
            self.llc.access_w_from_bytes(
                voltage, dram_bytes_per_s * self.llc_traffic_multiplier
            )
            if self.llc
            else 0.0
        )
        return PowerBreakdown(
            freq_ghz=freq_ghz,
            voltage_v=voltage,
            core_dynamic_w=self.core.dynamic_w(
                voltage, freq_ghz, busy_fraction, stall_fraction
            ),
            core_leakage_w=self.core.leakage_w(voltage),
            llc_leakage_w=llc_leak,
            llc_access_w=llc_access,
            uncore_constant_w=self.uncore.constant_w,
            uncore_proportional_w=self.uncore.proportional_w(
                voltage, freq_ghz
            ),
            motherboard_w=self.uncore.motherboard_w,
            dram_background_w=self.dram.background_w(active),
            dram_access_w=self.dram.access_w(dram_bytes_per_s),
        )

    def power_w(
        self,
        freq_ghz: float,
        busy_fraction: float = 1.0,
        stall_fraction: float = 0.0,
        dram_bytes_per_s: float = 0.0,
        dram_active_fraction: Optional[float] = None,
    ) -> float:
        """Total server power in watts (see :meth:`breakdown`)."""
        return self.breakdown(
            freq_ghz,
            busy_fraction,
            stall_fraction,
            dram_bytes_per_s,
            dram_active_fraction,
        ).total_w

    def full_load_power_w(self, freq_ghz: float) -> float:
        """Power of a fully busy, CPU-bound server at ``freq_ghz``.

        This is the Fig. 1 operating condition: every core busy, no dynamic
        memory power.
        """
        return self.power_w(freq_ghz, busy_fraction=1.0)

    def idle_power_w(self, freq_ghz: float) -> float:
        """Power of an idle (clock-gated but on) server at ``freq_ghz``."""
        return self.power_w(
            freq_ghz, busy_fraction=0.0, dram_active_fraction=0.0
        )

    # -- derived metrics ------------------------------------------------------

    def power_per_ghz(self, freq_ghz: float) -> float:
        """Worst-case power per unit of delivered compute (W/GHz).

        The quantity whose minimum defines the paper's ``F_NTC_opt``: with
        servers fully loaded, data-center power for a fixed total demand is
        proportional to ``P_full(f) / f``.
        """
        return self.full_load_power_w(freq_ghz) / freq_ghz

    def optimal_frequency_ghz(self) -> float:
        """DVFS frequency minimizing worst-case power per unit compute.

        For the NTC server this should land at the paper's ≈1.9 GHz; for
        the conventional server it lands at ``Fmax`` (consolidation wins).
        The sweep is a pure function of the immutable model, and EPACT's
        sizing, COAT-OPT's cap and the fleet split ask for it every
        slot, so it runs once and is cached on the instance
        (``object.__setattr__`` around the frozen dataclass).
        """
        cached = self.__dict__.get("_optimal_frequency_ghz")
        if cached is None:
            freqs = self.spec.opps.frequencies_ghz
            cached = min(freqs, key=self.power_per_ghz)
            object.__setattr__(self, "_optimal_frequency_ghz", cached)
        return cached

    # -- variants -------------------------------------------------------------

    def with_motherboard(self, motherboard_w: float) -> "ServerPowerModel":
        """Copy of this model with different motherboard/static power.

        Implements the Fig. 7 static-power sweep.
        """
        return replace(
            self, uncore=self.uncore.with_motherboard(motherboard_w)
        )


def ntc_server_power_model(
    spec: Optional[ServerSpec] = None,
) -> ServerPowerModel:
    """The proposed NTC server's full power model (paper Section IV)."""
    server_spec = spec if spec is not None else ntc_server()
    return ServerPowerModel(
        spec=server_spec,
        core=ntc_core_power_model(n_cores=server_spec.n_cores),
        uncore=ntc_uncore_power_model(),
        dram=DramPowerModel.from_dram_model(server_spec.dram),
        llc=ntc_llc_power_model(size_mb=server_spec.caches.llc.size_mb),
    )


def conventional_server_power_model(
    spec: Optional[ServerSpec] = None,
) -> ServerPowerModel:
    """Power model of the conventional (Intel E5-2620) server of Fig. 1(b).

    Heavier static power (bulk leakage, enterprise platform) and a narrow
    DVFS window; effective capacitance is set so the fully loaded server
    draws ≈140 W at its 2.4 GHz top operating point, consistent with the
    Fig. 1(b) magnitudes.  LLC power is folded into the uncore constant.
    """
    server_spec = spec if spec is not None else intel_e5_2620()
    core = CoreRegionPowerModel(
        ceff_nf=10.3 / 6.0 * server_spec.n_cores,
        leakage=bulk_core_leakage(cores=server_spec.n_cores),
    )
    return ServerPowerModel(
        spec=server_spec,
        core=core,
        uncore=conventional_uncore_power_model(),
        dram=DramPowerModel.from_dram_model(server_spec.dram),
        llc=None,
    )
