"""Every published number from the paper used for calibration/validation.

Centralizing the paper's figures here keeps calibration
(:mod:`repro.perf.calibration`) and validation (the tests, and README's
"Reproduction vs the paper" table) honest: models are tuned against
*these* values and nothing else, and every test that checks a reproduced
trend cites the anchor it validates.

All execution times are in seconds, frequencies in GHz, powers in watts.
"""

from __future__ import annotations

from types import MappingProxyType

# ---------------------------------------------------------------------------
# Table I — QoS analysis: execution times of the three workload classes
# ---------------------------------------------------------------------------

TABLE_I = MappingProxyType(
    {
        "low-mem": MappingProxyType(
            {
                "x86_2_66ghz_s": 0.437,
                "qos_limit_s": 0.873,
                "thunderx_2ghz_s": 0.733,
                "ntc_2ghz_s": 0.582,
            }
        ),
        "mid-mem": MappingProxyType(
            {
                "x86_2_66ghz_s": 1.564,
                "qos_limit_s": 3.127,
                "thunderx_2ghz_s": 5.035,
                "ntc_2ghz_s": 2.926,
            }
        ),
        "high-mem": MappingProxyType(
            {
                "x86_2_66ghz_s": 3.455,
                "qos_limit_s": 6.909,
                "thunderx_2ghz_s": 11.943,
                "ntc_2ghz_s": 6.765,
            }
        ),
    }
)
"""Paper Table I. The QoS limit is 2x the x86 execution time."""

QOS_DEGRADATION_LIMIT = 2.0
"""Maximum allowed execution-time degradation w.r.t. the x86 baseline."""

X86_REFERENCE_FREQ_GHZ = 2.66
"""Frequency of the Intel Xeon X5650 QoS-reference runs."""

COMPARISON_FREQ_GHZ = 2.0
"""Frequency at which ThunderX and the NTC server are compared in Table I."""

NTC_SPEEDUP_OVER_THUNDERX_RANGE = (1.25, 1.76)
"""Paper Section VI-A: NTC outperforms ThunderX by 1.25x-1.76x."""

THUNDERX_SLOWDOWN_VS_X86_RANGE = (1.35, 1.5)
"""Paper Section III-A: ThunderX was 1.35x-1.5x slower than x86."""

# ---------------------------------------------------------------------------
# Fig. 2 — QoS-compatible frequency floors (paper Section VI-B-1)
# ---------------------------------------------------------------------------

QOS_MIN_FREQ_GHZ = MappingProxyType(
    {
        "low-mem": 1.2,
        "mid-mem": 1.8,
        "high-mem": 1.8,
    }
)
"""Lowest frequency at which each class still meets the 2x QoS limit."""

FIG2_FREQ_SWEEP_GHZ = (0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5)
"""The frequency grid of the paper's Fig. 2 x-axis."""

# ---------------------------------------------------------------------------
# Fig. 3 — efficiency peaks (paper Section VI-B-2)
# ---------------------------------------------------------------------------

EFFICIENCY_PEAK_FREQ_GHZ = MappingProxyType(
    {
        "low-mem": 1.5,
        "mid-mem": 1.5,
        "high-mem": 1.2,
    }
)
"""Frequency of the maximum BUIPS/W point per class."""

EFFICIENCY_ORDER = ("low-mem", "mid-mem", "high-mem")
"""Fig. 3: efficiency decreases with increasing memory utilization."""

# ---------------------------------------------------------------------------
# Fig. 1 — data-center power vs. frequency
# ---------------------------------------------------------------------------

FIG1_N_SERVERS = 80
FIG1_NTC_FMAX_GHZ = 3.1
FIG1_NTC_FREQ_RANGE_GHZ = (0.3, 3.1)
FIG1_CONV_FREQ_RANGE_GHZ = (1.2, 2.4)
FIG1_UTILIZATIONS_PCT = (10, 20, 30, 40, 50, 60, 70, 80, 90)

NTC_OPTIMAL_FREQ_GHZ = 1.9
"""The paper's F_NTC_opt: optimal frequency of NTC servers (Fig. 1(a))."""

NTC_OPT_UTILIZATION_KNEE_PCT = 50.0
"""Above this utilization the optimum is the minimum feasible frequency."""

# ---------------------------------------------------------------------------
# Workload classes (paper Section III-B)
# ---------------------------------------------------------------------------

MEMORY_FOOTPRINT_MB = MappingProxyType(
    {
        "low-mem": 70.0,
        "mid-mem": 255.0,
        "high-mem": 435.0,
    }
)
"""Average per-VM memory usage of the three profiling categories."""

MEMORY_FOOTPRINT_PCT = MappingProxyType(
    {
        "low-mem": 7.0,
        "mid-mem": 25.0,
        "high-mem": 43.0,
    }
)
"""The paper's footprint percentages (relative to a 1GB VM allocation)."""

GOOGLE_TRACE_MEM_RANGE_PCT = (2.0, 32.0)
"""Per-VM memory utilization range observed in the Google Cluster traces."""

GOOGLE_TRACE_N_VMS = 600
"""Number of VMs in the evaluation traces."""

# ---------------------------------------------------------------------------
# Server power model constants (paper Section IV) — used verbatim
# ---------------------------------------------------------------------------

WFM_POWER_REDUCTION = 0.24
"""Core region consumes 24% less power in wait-for-memory state."""

UNCORE_CONSTANT_W = 11.84
"""Constant memory-controller/peripherals/IO overhead, all operating points."""

UNCORE_PROPORTIONAL_RANGE_W = (1.6, 9.0)
"""Operating-condition-proportional uncore component (min, max)."""

MOTHERBOARD_W = 15.0
"""Motherboard power at low fan speed with 1 SSD disk."""

DRAM_IDLE_MW_PER_GB = 15.5
DRAM_ACTIVE_MW_PER_GB = 155.0
DRAM_ACCESS_PJ_PER_BYTE = 800.0

# ---------------------------------------------------------------------------
# Data-center evaluation (paper Sections III-A, VI-C)
# ---------------------------------------------------------------------------

DATACENTER_N_SERVERS = 600
EVALUATION_HORIZON_SLOTS = 168
"""One week of 1-hour allocation slots (x-axis of Figs. 4-6)."""

COAT_ACTIVE_SERVER_REDUCTION_PCT = 37.0
"""Fig. 5: COAT uses 37% fewer active servers than EPACT on average."""

EPACT_BEST_SAVING_VS_COAT_PCT = 45.0
"""Fig. 6: best-case energy saving of EPACT vs. COAT."""

EPACT_WORST_SAVING_VS_COAT_OPT_PCT = 10.0
"""Fig. 6: worst-case energy saving of EPACT vs. COAT-OPT."""

FIG7_STATIC_POWER_SWEEP_W = (5, 15, 25, 35, 45)
"""Static-power sweep of Fig. 7 (motherboard/fan/disk component)."""
