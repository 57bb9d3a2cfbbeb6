"""Server-count sizing and optimal-frequency search (paper Eq. 1 + Sec V-B).

At the beginning of each slot EPACT determines, from the predicted
patterns, how many servers to turn on:

* from the **CPU** perspective, enough servers that each can run at the
  energy-optimal frequency ``F_NTC_opt``::

      N_cpu = ceil( max_n(sum_k U_cpu[k,n]) * Fmax / (F_opt * 100) )

* from the **memory** perspective, as few servers as capacity allows::

      N_mem = ceil( max_n(sum_k U_mem[k,n]) / 100 )

If ``N_cpu > N_mem`` (CPU-dominant), every server count between the two is
evaluated against the worst-case data-center power and the best
``(N, F_opt)`` pair wins (case 1, Algorithm 1).  Otherwise memory
dominates: ``N = N_mem`` and the frequency follows from spreading the CPU
demand over those servers (case 2, Algorithm 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..power.server_power import ServerPowerModel

_EPS = 1.0e-9


@dataclass(frozen=True)
class SizingResult:
    """Outcome of the per-slot sizing step.

    Attributes:
        case: ``"cpu"`` (case 1, CPU-dominant) or ``"mem"`` (case 2).
        n_servers: number of servers to turn on.
        f_opt_ghz: the slot's target frequency (an OPP).
        cap_cpu_pct: CPU packing cap, ``100 * f_opt / Fmax``.
        cap_mem_pct: memory packing cap (100%: pack until DRAM is full).
        n_cpu: the Eq. 1 CPU-perspective server count.
        n_mem: the Eq. 1 memory-perspective server count.
    """

    case: str
    n_servers: int
    f_opt_ghz: float
    cap_cpu_pct: float
    cap_mem_pct: float
    n_cpu: int
    n_mem: int


def peak_aggregate_pct(pred: np.ndarray) -> float:
    """``max_n(sum_k U[k, n])``: peak aggregate utilization in percent."""
    if pred.ndim != 2 or pred.size == 0:
        raise DomainError("predictions must be a non-empty 2-D array")
    return float(pred.sum(axis=0).max())


def n_servers_cpu(
    pred_cpu: np.ndarray,
    f_max_ghz: float,
    f_opt_ghz: float,
    peak_pct: float | None = None,
) -> int:
    """Eq. 1 left: CPU-perspective server count at the optimal frequency.

    ``peak_pct`` lets callers that already computed the peak aggregate
    (e.g. :func:`size_slot`, which also needs it for the demand) skip
    the second reduction.
    """
    if f_opt_ghz <= 0.0 or f_max_ghz <= 0.0:
        raise DomainError("frequencies must be positive")
    peak = (
        peak_pct if peak_pct is not None else peak_aggregate_pct(pred_cpu)
    )
    return max(1, math.ceil(peak * f_max_ghz / (f_opt_ghz * 100.0) - _EPS))


def n_servers_mem(pred_mem: np.ndarray, cap_mem_pct: float = 100.0) -> int:
    """Eq. 1 right: memory-perspective server count (consolidate to cap).

    ``cap_mem_pct`` below 100 leaves headroom against memory
    mispredictions — unlike CPU, memory has no DVFS-like compensation, so
    the paper's "we do not fill up the servers to their maximum capacity"
    applies directly here.
    """
    if not (0.0 < cap_mem_pct <= 100.0):
        raise DomainError("cap_mem_pct must be in (0, 100]")
    peak = peak_aggregate_pct(pred_mem)
    return max(1, math.ceil(peak / cap_mem_pct - _EPS))


def _worst_case_power_w(
    power_model: ServerPowerModel, n_servers: int, freq_ghz: float,
    demand_ghz: float,
) -> float:
    """Worst-case power of ``n_servers`` at ``freq_ghz`` serving a demand.

    All servers are on at the given frequency with the demand spread
    evenly (the aggregate dynamic power is demand-proportional, so even
    spreading equals any packing with the same server count).
    """
    busy = min(1.0, demand_ghz / (n_servers * freq_ghz))
    return n_servers * power_model.power_w(freq_ghz, busy_fraction=busy)


def size_slot(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    power_model: ServerPowerModel,
    max_servers: int,
    f_ntc_opt_ghz: float | None = None,
    cap_mem_pct: float = 100.0,
) -> SizingResult:
    """Full per-slot sizing: Eq. 1, case split, and the case-1 search.

    Args:
        pred_cpu: predicted CPU patterns, ``(n_vms, n_samples)`` percent.
        pred_mem: predicted memory patterns, same shape.
        power_model: per-server power model (provides OPPs and power).
        max_servers: physical fleet size (both counts are clamped to it).
        f_ntc_opt_ghz: the platform's energy-optimal frequency; computed
            from the power model when omitted.
        cap_mem_pct: memory packing cap (headroom below 100% protects
            against memory mispredictions).
    """
    spec = power_model.spec
    f_max = spec.f_max_ghz
    f_opt_platform = (
        f_ntc_opt_ghz
        if f_ntc_opt_ghz is not None
        else power_model.optimal_frequency_ghz()
    )
    peak_cpu = peak_aggregate_pct(pred_cpu)
    n_cpu = min(
        n_servers_cpu(pred_cpu, f_max, f_opt_platform, peak_pct=peak_cpu),
        max_servers,
    )
    n_mem = min(n_servers_mem(pred_mem, cap_mem_pct), max_servers)
    demand_ghz = peak_cpu * f_max / 100.0

    if n_cpu > n_mem:
        n_best, f_best = _search_case1(power_model, demand_ghz, n_mem, n_cpu)
        return SizingResult(
            case="cpu",
            n_servers=n_best,
            f_opt_ghz=f_best,
            cap_cpu_pct=100.0 * f_best / f_max,
            cap_mem_pct=cap_mem_pct,
            n_cpu=n_cpu,
            n_mem=n_mem,
        )

    # Case 2: memory dominates; spread CPU demand over the N_mem servers.
    f_required = demand_ghz / n_mem
    f_required = min(f_required, f_max)
    f_opt = (
        spec.opps.ceil(f_required).freq_ghz
        if f_required >= spec.opps.f_min_ghz
        else spec.opps.f_min_ghz
    )
    return SizingResult(
        case="mem",
        n_servers=n_mem,
        f_opt_ghz=f_opt,
        cap_cpu_pct=100.0 * f_opt / f_max,
        cap_mem_pct=cap_mem_pct,
        n_cpu=n_cpu,
        n_mem=n_mem,
    )


def _search_case1(
    power_model: ServerPowerModel,
    demand_ghz: float,
    n_mem: int,
    n_cpu: int,
) -> tuple[int, float]:
    """Exhaustive (N, F) exploration of case 1 (paper Section V-B-1).

    For each candidate server count between ``N_mem`` and ``N_cpu`` the
    frequency is the smallest OPP covering the spread demand; the pair with
    the lowest worst-case data-center power wins.

    The whole candidate sweep is one array expression against the
    per-OPP coefficient tables of
    :class:`~repro.dcsim.power_tables.VectorizedServerPower` (the same
    tables the engine accounts power with) instead of one scalar
    power-model call per candidate; :func:`_search_case1_reference`
    (same arguments) keeps the scalar loop as the oracle.  The
    epsilon-hysteresis winner rule is the same, so both pick the same
    ``(N, F)`` pair.
    """
    spec = power_model.spec
    freqs_tab = np.asarray(spec.opps.frequencies_ghz, dtype=float)
    f_max = spec.f_max_ghz
    ns = np.arange(max(1, n_mem), max(1, n_cpu) + 1, dtype=float)
    f_required = demand_ghz / ns
    valid = f_required <= f_max + _EPS
    if not valid.any():
        # Demand exceeds even Fmax packing on n_cpu servers; saturate.
        return max(1, n_cpu), f_max
    ns = ns[valid]
    f_required = f_required[valid]
    # Ceil quantization: bisect_left == searchsorted('left'); demands at
    # or below the table minimum land on index 0, like OppTable.ceil.
    idx = np.searchsorted(
        freqs_tab, np.minimum(f_required, f_max), side="left"
    )
    freqs = freqs_tab[idx]
    busy = np.minimum(1.0, demand_ghz / (ns * freqs))

    from ..dcsim.power_tables import cached_tables

    tables = cached_tables(power_model)
    powers = ns * tables.power_w(
        idx, busy, np.zeros_like(busy), np.zeros_like(busy)
    )
    win = _select_case1_winner(powers)
    return int(ns[win]), float(freqs[win])


def _select_case1_winner(powers: np.ndarray) -> int:
    """Index of the sweep winner under the epsilon-hysteresis rule.

    Mirrors the reference loop: a later candidate only displaces the
    incumbent when it improves the worst-case power by more than
    ``_EPS`` — near-ties keep the smaller server count.
    """
    best = 0
    for j in range(1, powers.shape[0]):
        if powers[j] < powers[best] - _EPS:
            best = j
    return best


def _search_case1_reference(
    power_model: ServerPowerModel,
    demand_ghz: float,
    n_mem: int,
    n_cpu: int,
) -> tuple[int, float]:
    """The seed implementation of :func:`_search_case1` (oracle)."""
    spec = power_model.spec
    opps = spec.opps
    best: tuple[float, int, float] | None = None
    for n in range(max(1, n_mem), max(1, n_cpu) + 1):
        f_required = demand_ghz / n
        if f_required > spec.f_max_ghz + _EPS:
            continue
        freq = (
            opps.ceil(min(f_required, spec.f_max_ghz)).freq_ghz
            if f_required >= opps.f_min_ghz
            else opps.f_min_ghz
        )
        power = _worst_case_power_w(power_model, n, freq, demand_ghz)
        if best is None or power < best[0] - _EPS:
            best = (power, n, freq)
    if best is None:
        # Demand exceeds even Fmax packing on n_cpu servers; saturate.
        return max(1, n_cpu), spec.f_max_ghz
    return best[1], best[2]
