"""Voltage/frequency models for the process technologies in the paper.

The maximum clock frequency a CMOS circuit sustains at supply voltage ``V``
is modeled with the classic alpha-power law::

    f(V) = K * (V - Vth)^alpha / V

where ``Vth`` is the effective threshold voltage, ``alpha`` captures
velocity saturation (between 1 and 2 for modern nodes) and ``K`` normalizes
the curve so that the technology reaches its rated maximum frequency at its
maximum operating voltage.

Two concrete technologies are provided:

* :func:`fdsoi28` — the 28nm UTBB FD-SOI process of the paper's NTC server.
  Its distinguishing feature (Section I, Ref. [4] of the paper) is an
  ultra-wide operating voltage range extending deep into the near-threshold
  region, which is what makes the server energy proportional.
* :func:`bulk_planar` — a conventional bulk planar process standing in for
  the Intel E5-2620 server of Fig. 1(b), with the narrow voltage range
  typical of performance-tuned enterprise parts.

The inverse mapping (voltage required for a target frequency) has no closed
form and is computed by bisection; the curve is strictly increasing on the
valid voltage range so bisection is exact to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError, DomainError

_BISECTION_TOLERANCE_V = 1.0e-9
_BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class VoltageFrequencyModel:
    """Alpha-power-law voltage/frequency curve for one process technology.

    Attributes:
        name: human-readable technology name.
        vth_v: effective threshold voltage in volts.
        alpha: velocity-saturation exponent (dimensionless).
        v_min: minimum operating supply voltage in volts.
        v_max: maximum operating supply voltage in volts.
        k_ghz: normalization constant such that
            ``f(v_max) = k_ghz * (v_max - vth_v)^alpha / v_max``.
    """

    name: str
    vth_v: float
    alpha: float
    v_min: float
    v_max: float
    k_ghz: float

    def __post_init__(self) -> None:
        if self.v_min <= self.vth_v:
            raise ConfigurationError(
                f"{self.name}: v_min ({self.v_min} V) must exceed the "
                f"threshold voltage ({self.vth_v} V)"
            )
        if self.v_max <= self.v_min:
            raise ConfigurationError(
                f"{self.name}: v_max ({self.v_max} V) must exceed "
                f"v_min ({self.v_min} V)"
            )
        if self.alpha <= 0.0 or self.k_ghz <= 0.0:
            raise ConfigurationError(
                f"{self.name}: alpha and k_ghz must be positive"
            )

    # -- forward curve ----------------------------------------------------

    def frequency_ghz(self, voltage_v: float) -> float:
        """Maximum sustainable clock frequency (GHz) at ``voltage_v``.

        Raises:
            DomainError: if the voltage is outside ``[v_min, v_max]``.
        """
        if not (self.v_min <= voltage_v <= self.v_max):
            raise DomainError(
                f"{self.name}: voltage {voltage_v} V outside operating "
                f"range [{self.v_min}, {self.v_max}] V"
            )
        overdrive = voltage_v - self.vth_v
        return self.k_ghz * math.pow(overdrive, self.alpha) / voltage_v

    @property
    def f_min_ghz(self) -> float:
        """Frequency at the minimum operating voltage."""
        return self.frequency_ghz(self.v_min)

    @property
    def f_max_ghz(self) -> float:
        """Frequency at the maximum operating voltage."""
        return self.frequency_ghz(self.v_max)

    # -- inverse curve ----------------------------------------------------

    def voltage_for_frequency(self, freq_ghz: float) -> float:
        """Minimum supply voltage (V) sustaining ``freq_ghz``.

        Computed by bisection on the strictly increasing forward curve.

        Raises:
            DomainError: if the frequency is outside the technology's
                achievable range ``[f_min_ghz, f_max_ghz]``.
        """
        f_lo = self.f_min_ghz
        f_hi = self.f_max_ghz
        if not (f_lo <= freq_ghz <= f_hi):
            raise DomainError(
                f"{self.name}: frequency {freq_ghz} GHz outside achievable "
                f"range [{f_lo:.4f}, {f_hi:.4f}] GHz"
            )
        lo, hi = self.v_min, self.v_max
        for _ in range(_BISECTION_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if self.frequency_ghz(mid) < freq_ghz:
                lo = mid
            else:
                hi = mid
            if hi - lo < _BISECTION_TOLERANCE_V:
                break
        return hi

    # -- convenience ------------------------------------------------------

    def is_near_threshold(self, voltage_v: float, margin_v: float = 0.2) -> bool:
        """Whether ``voltage_v`` sits in the near-threshold region.

        The near-threshold region is conventionally defined as supply
        voltages within ``margin_v`` volts above the threshold voltage.
        """
        return self.vth_v < voltage_v <= self.vth_v + margin_v


def fdsoi28() -> VoltageFrequencyModel:
    """28nm UTBB FD-SOI voltage/frequency model (the paper's NTC process).

    Calibration choices:

    * ``v_max = 1.30 V`` reaching ``3.1 GHz``, the ``Fmax`` of the paper's
      Fig. 1(a) data-center analysis;
    * an ultra-wide range down to ``v_min = 0.27 V`` so the slowest
      operating point of Fig. 2 (100 MHz) is reachable in near-threshold;
    * ``alpha = 1.3`` (velocity-saturated short-channel behaviour), which
      makes supply voltage — and therefore dynamic energy per cycle — climb
      steeply toward ``Fmax``; this steepness is the physical origin of the
      ≈1.9 GHz energy-optimal point that the paper reports.
    """
    vth = 0.25
    alpha = 1.3
    v_max = 1.30
    f_max = 3.1
    k = f_max * v_max / math.pow(v_max - vth, alpha)
    return VoltageFrequencyModel(
        name="28nm UTBB FD-SOI",
        vth_v=vth,
        alpha=alpha,
        v_min=0.27,
        v_max=v_max,
        k_ghz=k,
    )


def bulk_planar() -> VoltageFrequencyModel:
    """Bulk planar process model for the conventional (non-NTC) server.

    Stands in for the 32nm parts of the Intel E5-2620 used in Fig. 1(b):
    a narrow 1.04-1.35 V window covering 1.2-2.4 GHz.  Voltage moves only
    ~0.24 V/GHz across the whole DVFS range, so lowering frequency buys
    almost no dynamic-energy reduction while static power amortizes worse —
    the reason consolidation at ``Fmax`` is optimal for these parts.
    """
    vth = 0.55
    alpha = 2.0
    v_max = 1.35
    f_max = 2.4
    k = f_max * v_max / math.pow(v_max - vth, alpha)
    return VoltageFrequencyModel(
        name="bulk planar (conventional server)",
        vth_v=vth,
        alpha=alpha,
        v_min=1.04,
        v_max=v_max,
        k_ghz=k,
    )
