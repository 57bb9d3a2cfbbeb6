"""Technology-node scaling projections (the paper's future-work axis).

The paper's introduction tracks the FD-SOI roadmap — 28nm in mass
production, 20nm at GlobalFoundries, 12nm planned — and its conclusion
argues EPACT "will be even more effective in future technologies, where
static power is expected to decrease further".  This module provides
first-order projections of the 28nm models onto those nodes so that claim
can be explored quantitatively (see
``TestAblations.test_future_node_keeps_the_saving`` in
``tests/test_experiments.py``).

Scaling model (classic constant-field-flavoured first-order factors per
full node step; FD-SOI's back-bias keeps leakage in check, which is the
point of the technology):

* effective capacitance per core: x ``capacitance_factor``
* supply/threshold voltages: x ``voltage_factor``
* leakage power at the (scaled) reference voltage: x ``leakage_factor``
* platform static power (board/fan/disk): x ``platform_factor``
* maximum frequency: held — servers are power-limited, not fmax-limited.

These are projections, not measurements; they are deliberately
conservative and only feed trend-level experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .leakage import LeakageModel
from .voltage import VoltageFrequencyModel


@dataclass(frozen=True)
class NodeScaling:
    """First-order scaling factors from 28nm FD-SOI to a target node.

    Attributes:
        name: target node label, e.g. ``"20nm FD-SOI"``.
        capacitance_factor: effective-capacitance multiplier.
        voltage_factor: supply/threshold voltage multiplier.
        leakage_factor: leakage-power multiplier at the scaled reference.
        platform_factor: platform-static-power multiplier.
    """

    name: str
    capacitance_factor: float
    voltage_factor: float
    leakage_factor: float
    platform_factor: float

    def __post_init__(self) -> None:
        for field_name in (
            "capacitance_factor",
            "voltage_factor",
            "leakage_factor",
            "platform_factor",
        ):
            if getattr(self, field_name) <= 0.0:
                raise ConfigurationError(
                    f"{self.name}: {field_name} must be positive"
                )

    def scale_vf_model(
        self, base: VoltageFrequencyModel
    ) -> VoltageFrequencyModel:
        """Project a voltage/frequency curve onto the target node.

        Voltages shrink by ``voltage_factor``; the normalization constant
        is re-derived so the scaled curve reaches the same ``f_max`` at
        the scaled ``v_max`` (power-limited design point).
        """
        vth = base.vth_v * self.voltage_factor
        v_min = base.v_min * self.voltage_factor
        v_max = base.v_max * self.voltage_factor
        f_max = base.f_max_ghz
        k = f_max * v_max / math.pow(v_max - vth, base.alpha)
        return VoltageFrequencyModel(
            name=f"{base.name} -> {self.name}",
            vth_v=vth,
            alpha=base.alpha,
            v_min=v_min,
            v_max=v_max,
            k_ghz=k,
        )

    def scale_leakage(self, base: LeakageModel) -> LeakageModel:
        """Project a leakage model onto the target node."""
        return LeakageModel(
            name=f"{base.name} -> {self.name}",
            p_ref_w=base.p_ref_w * self.leakage_factor,
            v_ref=base.v_ref * self.voltage_factor,
            v_slope=base.v_slope * self.voltage_factor,
        )


def fdsoi20_scaling() -> NodeScaling:
    """28nm -> 20nm FD-SOI projection.

    Encodes the paper's premise that *static* power scales down faster
    than dynamic power on future FD-SOI nodes (back-bias leakage tuning,
    leaner platforms): capacitance x0.85, voltage x0.96, but leakage x0.6
    and platform static x0.65.
    """
    return NodeScaling(
        name="20nm FD-SOI",
        capacitance_factor=0.85,
        voltage_factor=0.96,
        leakage_factor=0.60,
        platform_factor=0.65,
    )


def fdsoi12_scaling() -> NodeScaling:
    """28nm -> 12nm FD-SOI projection.

    Same premise, one node further: capacitance x0.70, voltage x0.92,
    leakage x0.40, platform static x0.40 (integrated voltage regulators,
    NVMe-class storage, lean boards).
    """
    return NodeScaling(
        name="12nm FD-SOI",
        capacitance_factor=0.70,
        voltage_factor=0.92,
        leakage_factor=0.40,
        platform_factor=0.40,
    )


def scaled_ntc_power_model(scaling: NodeScaling):
    """NTC server power model projected onto a future node.

    Returns a :class:`~repro.power.server_power.ServerPowerModel` whose
    core capacitance, leakage, V/f curve and platform static power follow
    the scaling factors.  The architectural spec (cores, caches, DRAM) is
    unchanged — iso-architecture scaling.
    """
    from dataclasses import replace as dc_replace

    from ..arch.platforms import ntc_server
    from ..power.core_power import CoreRegionPowerModel
    from ..power.server_power import ntc_server_power_model
    from ..power.uncore import UncorePowerModel
    from ..technology.opp import ntc_opp_table

    base = ntc_server_power_model()
    spec = ntc_server()
    vf = scaling.scale_vf_model(spec.vf_model)
    scaled_spec = dc_replace(
        spec, vf_model=vf, opps=ntc_opp_table(vf_model=vf)
    )
    core = CoreRegionPowerModel(
        ceff_nf=base.core.ceff_nf * scaling.capacitance_factor,
        leakage=scaling.scale_leakage(base.core.leakage),
        wfm_reduction=base.core.wfm_reduction,
    )
    # The whole platform overhead (constant uncore, proportional uncore,
    # motherboard) scales: leaner chipsets and boards are exactly the
    # "static power expected to decrease further" of the paper.
    p = scaling.platform_factor
    uncore = UncorePowerModel(
        constant_w=base.uncore.constant_w * p,
        proportional_min_w=base.uncore.proportional_min_w * p,
        proportional_max_w=base.uncore.proportional_max_w * p,
        motherboard_w=base.uncore.motherboard_w * p,
        v_max=base.uncore.v_max * scaling.voltage_factor,
        f_max_ghz=base.uncore.f_max_ghz,
    )
    llc = base.llc
    if llc is not None:
        llc = dc_replace(
            llc, leakage=scaling.scale_leakage(llc.leakage)
        )
    return dc_replace(
        base, spec=scaled_spec, core=core, uncore=uncore, llc=llc
    )
