"""Physical units, conversions and time-grid constants.

The library works internally in a small set of canonical units:

====================  ======================================
quantity              canonical unit
====================  ======================================
frequency             GHz
voltage               V
power                 W
energy                J
time                  s
capacitance           nF (so that ``nF * V^2 * GHz`` gives W)
memory size           GB
utilization           percent of one server at ``Fmax``
====================  ======================================

The module also defines the discrete time grid used throughout the paper's
evaluation: samples every 5 minutes, allocation slots of 1 hour, and a
one-week horizon.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Energy conversions
# --------------------------------------------------------------------------

JOULES_PER_MEGAJOULE = 1.0e6


def joules_to_megajoules(energy_j: float) -> float:
    """Convert joules to megajoules (the unit of the paper's Fig. 6)."""
    return energy_j / JOULES_PER_MEGAJOULE


# --------------------------------------------------------------------------
# Evaluation time grid (Section V-B of the paper)
# --------------------------------------------------------------------------

SAMPLE_PERIOD_S = 300.0
"""Utilization sampling period: one sample every 5 minutes."""

SAMPLES_PER_SLOT = 12
"""Samples per allocation slot (slot T = 1 hour)."""

SLOT_PERIOD_S = SAMPLE_PERIOD_S * SAMPLES_PER_SLOT
"""Allocation slot length in seconds (3600 s)."""

SLOTS_PER_DAY = 24
"""Allocation slots per day."""

SAMPLES_PER_DAY = SAMPLES_PER_SLOT * SLOTS_PER_DAY
"""Utilization samples per day (288)."""

SLOTS_PER_WEEK = SLOTS_PER_DAY * 7
"""Allocation slots per week (168, the x-axis of Figs. 4-6)."""

SAMPLES_PER_WEEK = SAMPLES_PER_DAY * 7
"""Utilization samples per week (2016)."""
