"""EPACT's Algorithm 1: 1D correlation-aware first-fit-decreasing.

Used in the CPU-dominant case (Section V-B-1).  Servers are filled one at
a time:

* an empty server receives the first unallocated VM (FFD order: VMs
  sorted by decreasing peak predicted CPU);
* a non-empty server computes its complementary pattern
  ``PattCom = max(Patt) - Patt`` and receives, among the unallocated VMs
  that still fit under the frequency cap
  (``max(Patt + U) * Fmax / 100 <= F_opt``), the one whose CPU pattern has
  maximum Pearson correlation with ``PattCom`` — the VM that best fills
  the server's valleys;
* when no VM fits, the next server is opened.

Memory feasibility (aggregate <= 100% of DRAM) is enforced alongside the
CPU cap: physical memory cannot be oversubscribed regardless of policy.

Two implementations share this contract:

* the **fast path** (default) precomputes per-VM centered patterns and
  norms once (:class:`~repro.core.workspace.AllocationWorkspace`),
  maintains the server aggregate and its centered pattern incrementally,
  and ranks candidates by one GEMV of the norm-scaled centered patterns
  against that aggregate.  Capacity caps are verified lazily in
  decreasing-correlation order, with a cheap one-sided peak/min bound
  (``max(patt + u) >= max(patt) + min(u)``) rejecting provably-unfit
  candidates on two scalar compares before any dense check runs.  The
  asymptotic cost is still O(n_vms^2 * n_samples) — each pick costs one
  (n_vms, n_samples) GEMV — but the per-pick Python-level work drops
  from ~10 full candidate-matrix passes to O(1) bookkeeping plus that
  single BLAS call (measured 5-8x at fleet scale);
* the **reference path** (:func:`_allocate_1d_reference`, same
  arguments as the fast path) is the seed's direct loop, kept as the
  equivalence oracle the tests call.  The fast path reproduces its
  plans exactly on non-degenerate inputs; correlations are accumulated
  in a different order, so ties broken at float rounding granularity
  (~1e-15) may differ in principle — see
  ``tests/test_fast_path_equivalence.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError
from .correlation import complementary_pattern, pearson_many
from .types import ServerPlan, force_place_remaining
from .workspace import AllocationWorkspace, validate_vm_order

_EPS = 1.0e-9
# Matches repro.core.correlation._EPS: aggregates with centered norm below
# this are "shapeless" and yield zero correlation for every candidate.
_CORR_EPS = 1.0e-12
# Lazy fit checks per pick before falling back to a vectorized scan.
_LAZY_TRIES = 8


def ffd_order(pred_cpu: np.ndarray) -> np.ndarray:
    """First-fit-decreasing order: by decreasing peak predicted CPU."""
    if pred_cpu.ndim != 2:
        raise DomainError("pred_cpu must be 2-D")
    peaks = pred_cpu.max(axis=1)
    # Stable sort keeps ties in VM-id order for reproducibility.
    return np.argsort(-peaks, kind="stable")


def allocate_1d(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    cap_cpu_pct: float,
    cap_mem_pct: float = 100.0,
    max_servers: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
) -> Tuple[List[ServerPlan], int]:
    """Run Algorithm 1; returns the server plans and forced-placement count.

    Args:
        pred_cpu: predicted CPU patterns ``(n_vms, n_samples)``, percent.
        pred_mem: predicted memory patterns, same shape.
        cap_cpu_pct: the slot cap ``100 * F_opt / Fmax``.
        cap_mem_pct: memory cap (100% = physical capacity).
        max_servers: optional fleet-size bound; exhausted capacity falls
            back to least-loaded force placement.
        order: explicit allocation order (defaults to FFD).
    """
    if not (0.0 < cap_cpu_pct <= 100.0 + _EPS):
        raise DomainError(f"cap_cpu_pct must be in (0, 100], got {cap_cpu_pct}")
    if not (0.0 < cap_mem_pct <= 100.0 + _EPS):
        raise DomainError(f"cap_mem_pct must be in (0, 100], got {cap_mem_pct}")

    n_vms, _ = pred_cpu.shape
    sequence = (
        np.asarray(list(order), dtype=int)
        if order is not None
        else ffd_order(pred_cpu)
    )
    validate_vm_order(sequence, n_vms)
    return _allocate_1d_fast(
        pred_cpu, pred_mem, cap_cpu_pct, cap_mem_pct, max_servers, sequence
    )


def _allocate_1d_fast(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    cap_cpu_pct: float,
    cap_mem_pct: float,
    max_servers: Optional[int],
    sequence: np.ndarray,
) -> Tuple[List[ServerPlan], int]:
    """Incremental Algorithm 1 (see module docstring).

    All per-candidate state lives in arrays indexed by *visiting
    position* (the seed's ``remaining`` order): instead of shrinking an
    id array with ``np.delete`` and gathering ``dots``/``ninv`` per
    pick, placed positions carry a ``-inf`` penalty and every pick is a
    full-length multiply-add plus argmax.  Position order equals the
    seed's remaining order, so argmax tie-breaks (including the
    shapeless-aggregate zero-phi rounds) match the reference pick for
    pick.
    """
    ws = AllocationWorkspace(pred_cpu, pred_mem)
    cpu, mem = ws.cpu, ws.mem
    n_vms, n_samples = cpu.shape
    c_cent, c_norm, c_norm2 = ws.cpu_centered, ws.cpu_cnorm, ws.cpu_cnorm2
    # -1/|U - mean(U)| per VM (0 for shapeless patterns).  The aggregate's
    # centered norm is a *shared positive* factor of every candidate's
    # Pearson, so the greedy argmax can rank on dots * ninv directly —
    # shapeless candidates land at exactly 0, like the reference's phi.
    small = c_norm < _CORR_EPS
    ninv = np.where(small, 0.0, -1.0 / np.where(small, 1.0, c_norm))
    # CPU and memory patterns concatenated: one add + one reduction per
    # lazy cap check instead of two of each.
    cat = np.concatenate([cpu, mem], axis=1)

    sequence = sequence.astype(np.intp, copy=False)
    # Candidate state in visiting order: centered patterns pre-scaled by
    # -1/norm (so one GEMV against the aggregate gives phi directly) and
    # a penalty of -inf marking placed positions.
    cn_scaled_seq = c_cent[sequence] * ninv[sequence][:, None]
    penalty = np.zeros(n_vms)
    # Per-candidate extrema in visiting order, for the cheap one-sided
    # infeasibility check (``max(patt + u) >= max(patt) + min(u)``): a
    # provably-unfit candidate is rejected on two scalar compares
    # instead of a dense aggregate rebuild.
    cpu_min_seq = ws.cpu_min[sequence]
    mem_min_seq = ws.mem_min[sequence]
    cpu_peak_seq = ws.cpu_peak[sequence]
    mem_peak_seq = ws.mem_peak[sequence]
    head = 0  # first possibly-unplaced position
    n_left = n_vms
    plans: List[ServerPlan] = [
        ServerPlan(cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct)
    ]
    forced = 0

    # Current-server state, maintained incrementally:
    #   patt_cat   — aggregate patterns, CPU and memory concatenated
    #                (same accumulation order as seed);
    #   agg_cent   — the aggregate's centered pattern (sum of the placed
    #                VMs' centered rows; server aggregates never need
    #                re-centering because centered rows sum to ~0);
    #   patt_norm2 — squared centered norm of the aggregate.
    patt_cat = np.zeros(2 * n_samples)
    patt_cpu = patt_cat[:n_samples]
    patt_mem = patt_cat[n_samples:]
    agg_cent = np.zeros(n_samples)
    patt_norm2 = 0.0
    # Running aggregate peaks (plain floats; refreshed on every
    # placement) feeding the cheap infeasibility checks.
    peak_cpu_agg = 0.0
    peak_mem_agg = 0.0
    # Reusable buffers: probe2 views probe as (cpu, mem) rows; phi_buf
    # holds the per-round merit vector.
    probe = np.empty(2 * n_samples)
    probe2 = probe.reshape(2, n_samples)
    phi_buf = np.empty(n_vms)
    # The caps as one row over ``cat``'s columns, for the fallback scan.
    cap_row = np.repeat((cap_cpu_pct + _EPS, cap_mem_pct + _EPS), n_samples)
    peak = np.maximum.reduce  # ndarray.max without its Python wrapper

    def place(pos: int) -> None:
        nonlocal patt_norm2, n_left, agg_cent, patt_cat
        vm = int(sequence[pos])
        plans[-1].vm_ids.append(vm)
        patt_norm2 = max(
            patt_norm2 + 2.0 * float(c_cent[vm] @ agg_cent) + c_norm2[vm],
            0.0,
        )
        agg_cent += c_cent[vm]
        patt_cat += cat[vm]
        penalty[pos] = -np.inf
        n_left -= 1

    while n_left:
        if max_servers is not None and len(plans) > max_servers:
            plans.pop()
            forced += force_place_remaining(
                plans,
                [int(v) for v in sequence[penalty == 0.0]],
                pred_cpu,
            )
            break
        if not plans[-1].vm_ids:
            # Lines 4-6: empty server takes the first unallocated VM, even
            # when that VM alone exceeds the cap (it has to live somewhere).
            while penalty[head] == -np.inf:
                head += 1
            peak_cpu_agg = float(cpu_peak_seq[head])
            peak_mem_agg = float(mem_peak_seq[head])
            place(head)
            continue
        # Lines 8-12: correlation-guided pick under the caps.  phi equals
        # pearson(U, PattCom) == -pearson(U, Patt); candidates are probed
        # in decreasing phi order, so typically one O(n_samples) cap check
        # replaces the full (n_candidates, n_samples) aggregate rebuild.
        if patt_norm2 <= _CORR_EPS * _CORR_EPS:
            np.copyto(phi_buf, penalty)
        else:
            np.matmul(cn_scaled_seq, agg_cent, out=phi_buf)
            phi_buf += penalty
        phi = phi_buf

        found = -1
        refresh_peaks = False
        cpu_room = cap_cpu_pct + 2.0 * _EPS - peak_cpu_agg
        mem_room = cap_mem_pct + 2.0 * _EPS - peak_mem_agg
        for _ in range(_LAZY_TRIES):
            j = int(phi.argmax())
            if phi[j] == -np.inf:
                break  # every candidate probed; none fits
            if cpu_min_seq[j] > cpu_room or mem_min_seq[j] > mem_room:
                # Provably over the cap (with _EPS of one-sided slack):
                # max(patt + u) >= max(patt) + min(u) > cap + _EPS.
                phi[j] = -np.inf
                continue
            vm = int(sequence[j])
            np.add(patt_cat, cat[vm], out=probe)
            peaks = peak(probe2, axis=1)
            if (
                peaks[0] <= cap_cpu_pct + _EPS
                and peaks[1] <= cap_mem_pct + _EPS
            ):
                found = j
                peak_cpu_agg = float(peaks[0])
                peak_mem_agg = float(peaks[1])
                break
            phi[j] = -np.inf
        else:
            # The top candidates all collided with the caps — finish with
            # a vectorized scan over the unprobed rest.  A candidate can
            # only fit if even its *minimum* rides under the cap at the
            # aggregate's peak sample (``max(patt + u) >= max(patt) +
            # min(u)``), so provably-unfit candidates are masked out with
            # two vector compares; when a server is genuinely full this
            # skips the dense (candidates, samples) aggregate rebuild
            # entirely without ever changing the winner.
            # The extra _EPS of slack keeps the filter strictly one-sided
            # under floating-point rounding: a borderline candidate is
            # admitted to the exact check rather than dropped.
            open_mask = phi > -np.inf
            open_mask &= cpu_min_seq <= cpu_room
            open_mask &= mem_min_seq <= mem_room
            if open_mask.any():
                # Both resources in one pass: every sample of the sum
                # within the cap row exactly when both peaks are.
                fits = np.logical_and.reduce(
                    cat[sequence[open_mask]] + patt_cat <= cap_row, axis=1
                )
                if fits.any():
                    refresh_peaks = True
                    sub_phi = phi[open_mask]
                    sub_phi[~fits] = -np.inf
                    found = int(
                        np.flatnonzero(open_mask)[int(np.argmax(sub_phi))]
                    )

        if found < 0:
            plans.append(
                ServerPlan(cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct)
            )
            patt_cat[:] = 0.0
            agg_cent[:] = 0.0
            patt_norm2 = 0.0
            continue
        place(found)
        if refresh_peaks:
            # Fallback winners bypass the probe buffer; re-derive the
            # aggregate peaks (same floats the probe would have yielded).
            peak_cpu_agg = float(patt_cpu.max())
            peak_mem_agg = float(patt_mem.max())

    # Drop a trailing empty server if the loop ended right after opening.
    if plans and not plans[-1].vm_ids:
        plans.pop()
    return plans, forced


def _allocate_1d_reference(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    cap_cpu_pct: float,
    cap_mem_pct: float,
    max_servers: Optional[int],
    sequence: np.ndarray,
) -> Tuple[List[ServerPlan], int]:
    """The seed implementation, kept as the fast path's oracle."""
    n_vms, n_samples = pred_cpu.shape
    remaining: List[int] = list(int(v) for v in sequence)
    plans: List[ServerPlan] = []
    patt_cpu: List[np.ndarray] = []
    patt_mem: List[np.ndarray] = []
    forced = 0

    def open_server() -> int:
        plans.append(
            ServerPlan(cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct)
        )
        patt_cpu.append(np.zeros(n_samples))
        patt_mem.append(np.zeros(n_samples))
        return len(plans) - 1

    current = open_server()
    while remaining:
        if max_servers is not None and len(plans) > max_servers:
            # The over-opened empty server is retracted; force-place rest.
            plans.pop()
            patt_cpu.pop()
            patt_mem.pop()
            forced += force_place_remaining(plans, remaining, pred_cpu)
            break
        if not plans[current].vm_ids:
            vm_id = remaining.pop(0)
            plans[current].vm_ids.append(vm_id)
            patt_cpu[current] = patt_cpu[current] + pred_cpu[vm_id]
            patt_mem[current] = patt_mem[current] + pred_mem[vm_id]
            continue
        candidates = np.asarray(remaining, dtype=int)
        agg_cpu = patt_cpu[current][None, :] + pred_cpu[candidates]
        agg_mem = patt_mem[current][None, :] + pred_mem[candidates]
        fits = (agg_cpu.max(axis=1) <= cap_cpu_pct + _EPS) & (
            agg_mem.max(axis=1) <= cap_mem_pct + _EPS
        )
        if not np.any(fits):
            current = open_server()
            continue
        patt_com = complementary_pattern(patt_cpu[current])
        phi = pearson_many(pred_cpu[candidates[fits]], patt_com)
        winner = candidates[fits][int(np.argmax(phi))]
        remaining.remove(int(winner))
        plans[current].vm_ids.append(int(winner))
        patt_cpu[current] = patt_cpu[current] + pred_cpu[winner]
        patt_mem[current] = patt_mem[current] + pred_mem[winner]

    if plans and not plans[-1].vm_ids:
        plans.pop()
    return plans, forced


def run_allocator_pools(
    run_pool,
    pool_vms: Sequence[np.ndarray],
) -> Tuple[List[ServerPlan], np.ndarray, int]:
    """Shared pool-dimension loop of the pool-aware allocators.

    Runs ``run_pool(m, idx)`` — which must return ``(plans, forced)``
    with *local* VM ids over ``idx`` — once per non-empty pool, remaps
    plan ids to the global ``idx`` values, and concatenates pool-major.
    One implementation of the remap/concat/forced bookkeeping serves
    :meth:`~repro.core.epact.EpactPolicy.allocate` (pools) and
    :class:`~repro.shard.policy.ShardedPolicy` (shards).

    Returns:
        ``(plans, server_pools, forced)``.
    """
    plans_all: List[ServerPlan] = []
    pools_of: List[int] = []
    forced_total = 0
    for m in range(len(pool_vms)):
        idx = np.asarray(pool_vms[m], dtype=int)
        if idx.size == 0:
            continue
        plans, forced = run_pool(m, idx)
        for plan in plans:
            plan.vm_ids = [int(idx[v]) for v in plan.vm_ids]
        plans_all.extend(plans)
        pools_of.extend([m] * len(plans))
        forced_total += forced
    return plans_all, np.asarray(pools_of, dtype=int), forced_total
