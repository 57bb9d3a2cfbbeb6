"""EPACT's Algorithm 2: 2D merit-function allocation (paper Eq. 2).

Used in the memory-dominant case (Section V-B-2).  The server count is
fixed at ``N_mem``; for each VM the best server maximizes the merit::

    M_i_j = w_cpu * phi_cpu / Dist_cpu + w_mem * phi_mem / Dist_mem

where, per resource,

* ``phi`` is the Pearson correlation between the VM's pattern and the
  server's complementary pattern (``max(S) - S``): shape fit;
* ``Dist`` is the Euclidean distance between the VM's pattern and the
  server's *remaining capacity* pattern (``Cap - S``): closeness to
  filling the server exactly;
* the weights ``w = Cap / (Cap_cpu + Cap_mem)`` balance the two resources
  by their configured caps.

A VM only considers servers with room at every sample of the slot
(``max(U + S) <= Cap`` for both resources).  When no server fits, the VM is
force-placed on the least-loaded server (physical data centers cannot
refuse admitted VMs) and reported.

Two implementations share this contract:

* the **fast path** (default) keeps per-server aggregates in preallocated
  arrays and maintains sums, squared norms and centered norms
  incrementally (a nearly flat aggregate's centered norm, where the
  expanded form cancels to rounding noise, is recomputed directly, so
  the zero-variance Pearson cutoff decides as in the reference).  VMs
  are visited in blocks of 48.  Feasibility is
  settled once per block against the block-entry state: peak/min bounds
  sort every (VM, server) pair into fits, does not fit, or undecided,
  and one gathered exact check settles the undecided pairs.  The result
  is a (block, servers) penalty matrix, 0 or -inf.  A placement changes
  one server, so the matrix stays exact for every server the block has
  not touched; a touched server's column turns 0 ("unknown") and the
  server is re-checked exactly only when it wins a VM's argmax — on a
  failed re-check it is masked and the next maximum is taken.  Eq. 2 is
  evaluated with ``pearson(U, max(S)-S) == -pearson(U, S)`` and
  ``Dist^2 = |Cap - U|^2 - 2 (Cap * sum(S) - dot(S, U)) + |S|^2``, where
  one ``matmul`` per pick gives ``dot(S, U - mean(U))`` for both
  resources.  All empty servers tie at merit exactly 0, so one
  representative (the lowest-indexed) stands in for them.  On hyperscale
  shards most of the ~176 open servers fit a typical VM, and ~90% of
  picks score every open server, letting the penalty row drop the unfit
  ones; when fewer than 1/6 of the open servers are scoreable (fitting,
  minus the redundant empties) — tight memory-dominant packing — only
  those columns are gathered and scored;
* the **reference path** (:func:`_allocate_2d_reference`, same
  arguments as the fast path) is the seed's direct loop, kept as the
  equivalence oracle the tests call.  Merit terms are accumulated in a
  different order on the fast path (the dot products go through BLAS, whose
  summation order depends on the build), so results can differ at float
  rounding granularity when two servers' merits tie to ~1e-12 — see
  ``tests/test_fast_path_equivalence.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError
from .correlation import euclidean_distance_many, pearson_many
from .types import ServerPlan, force_place_remaining
from .workspace import AllocationWorkspace, validate_vm_order

_EPS = 1.0e-9
_DIST_FLOOR = 1.0e-6
# Matches repro.core.correlation._EPS (zero-variance Pearson cutoff).
_CORR_EPS = 1.0e-12
# Feasibility band: servers whose peak bounds clear the cap by more than
# this slack skip the exact per-sample check (the bounds are ~1 ulp tight,
# the slack keeps the pruning bit-equivalent to the exact check).
_BAND_SLACK = 1.0e-6
# VMs per feasibility block in the fast path (see _allocate_2d_fast).
_BLOCK = 48
# The fast path's incremental squared centered norm carries a rounding
# error of ~1e-16 * |S|^2 (measured on paper and hyperscale runs); below
# this fraction of |S|^2 it is recomputed from the aggregate itself.
_FLAT_RECHECK = 1.0e-6


def merit_scores(
    vm_cpu: np.ndarray,
    vm_mem: np.ndarray,
    served_cpu: np.ndarray,
    served_mem: np.ndarray,
    cap_cpu_pct: float,
    cap_mem_pct: float,
) -> np.ndarray:
    """Eq. 2 merit of one VM against each candidate server.

    Args:
        vm_cpu: the VM's CPU pattern (``n_samples``).
        vm_mem: the VM's memory pattern.
        served_cpu: candidate servers' aggregate CPU patterns
            ``(n_servers, n_samples)``.
        served_mem: candidate servers' aggregate memory patterns.
        cap_cpu_pct: CPU cap per server.
        cap_mem_pct: memory cap per server.

    Returns:
        Merit ``M`` per candidate server (higher is better).
    """
    w_cpu = cap_cpu_pct / (cap_cpu_pct + cap_mem_pct)
    w_mem = cap_mem_pct / (cap_cpu_pct + cap_mem_pct)

    patt_com_cpu = served_cpu.max(axis=1, keepdims=True) - served_cpu
    patt_com_mem = served_mem.max(axis=1, keepdims=True) - served_mem
    phi_cpu = _rowwise_pearson(patt_com_cpu, vm_cpu)
    phi_mem = _rowwise_pearson(patt_com_mem, vm_mem)

    rem_cpu = cap_cpu_pct - served_cpu
    rem_mem = cap_mem_pct - served_mem
    dist_cpu = np.maximum(
        euclidean_distance_many(rem_cpu, vm_cpu), _DIST_FLOOR
    )
    dist_mem = np.maximum(
        euclidean_distance_many(rem_mem, vm_mem), _DIST_FLOOR
    )
    return w_cpu * phi_cpu / dist_cpu + w_mem * phi_mem / dist_mem


def _rowwise_pearson(rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pearson of each row against the target (rows vary, target fixed)."""
    return pearson_many(rows, target)


def _complementary_cnorm2(served: np.ndarray) -> List[float]:
    """Squared centered norms of ``max(S) - S`` for each row of ``served``.

    Written as :func:`~repro.core.correlation.pearson_many` computes its
    candidate norms, so a flat aggregate gets the same zero-variance
    verdict as in the reference path.
    """
    com = served.max(axis=1, keepdims=True) - served
    cen = com - np.add.reduce(com, axis=1, keepdims=True) / served.shape[1]
    return np.add.reduce(cen * cen, axis=1).tolist()


def allocate_2d(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    n_servers: int,
    cap_cpu_pct: float,
    cap_mem_pct: float = 100.0,
    max_servers: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
) -> Tuple[List[ServerPlan], int]:
    """Run Algorithm 2; returns server plans and forced-placement count.

    Args:
        pred_cpu: predicted CPU patterns ``(n_vms, n_samples)``, percent.
        pred_mem: predicted memory patterns, same shape.
        n_servers: initial number of turned-on servers (``N_mem``).
        cap_cpu_pct: per-server CPU cap (``100 * F_opt / Fmax``).
        cap_mem_pct: per-server memory cap.
        max_servers: fleet-size bound.  ``N_mem`` assumes perfect packing;
            real bin packing fragments, so additional servers are opened
            (up to this bound) when a VM fits nowhere — force placement
            only happens once the fleet is exhausted.
        order: VM visiting order; the paper visits ``i = 1..N_VM``
            (natural order), which is the default.
    """
    if n_servers < 1:
        raise DomainError("n_servers must be >= 1")
    if not (0.0 < cap_cpu_pct <= 100.0 + _EPS):
        raise DomainError(f"cap_cpu_pct must be in (0, 100], got {cap_cpu_pct}")
    if not (0.0 < cap_mem_pct <= 100.0 + _EPS):
        raise DomainError(f"cap_mem_pct must be in (0, 100], got {cap_mem_pct}")

    n_vms, _ = pred_cpu.shape
    sequence = (
        np.asarray(list(order), dtype=int)
        if order is not None
        else np.arange(n_vms)
    )
    validate_vm_order(sequence, n_vms)
    fleet_bound = max_servers if max_servers is not None else n_servers
    fleet_bound = max(fleet_bound, n_servers)
    return _allocate_2d_fast(
        pred_cpu,
        pred_mem,
        n_servers,
        cap_cpu_pct,
        cap_mem_pct,
        fleet_bound,
        sequence,
    )


def _allocate_2d_fast(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    n_servers: int,
    cap_cpu_pct: float,
    cap_mem_pct: float,
    fleet_bound: int,
    sequence: np.ndarray,
) -> Tuple[List[ServerPlan], int]:
    """Incremental Algorithm 2 (see module docstring).

    VMs are visited in blocks of ``_BLOCK``.  Feasibility is settled once
    per block against the block-entry state, as a ``(block, servers)``
    penalty matrix (0 = fits, -inf = does not).  A placement changes
    exactly one server, so the matrix stays exact for every server the
    block has not touched; a touched server's column is reset to 0
    ("unknown") and re-checked only when that server wins a VM's
    argmax.  A failed re-check masks it and the next maximum is taken,
    which yields the reference's lowest-index fitting maximum.
    """
    ws = AllocationWorkspace(pred_cpu, pred_mem)
    n_vms, k = ws.cpu.shape
    caps2 = np.array([cap_cpu_pct, cap_mem_pct])
    capscol = caps2[:, None]
    weights2 = caps2 / (cap_cpu_pct + cap_mem_pct)

    # Per-VM quantities stacked resource-first (0 = CPU, 1 = memory).
    patt = np.stack([ws.cpu, ws.mem], axis=1)  # (n_vms, 2, k)
    # Centered patterns as (2, k, 1) columns: one matmul against the
    # (2, servers, k) view of the served patterns gives dot(S, U -
    # mean(U)) for both resources — the Pearson numerator and the
    # distance cross term at once.
    cent = np.stack([ws.cpu_centered, ws.mem_centered], axis=1)[..., None]
    v_cnorm = np.column_stack([ws.cpu_cnorm, ws.mem_cnorm])
    # -w_r / |U - mean(U)| (zero for shapeless VM patterns): folds the
    # Pearson sign, the Eq. 2 weight and the target norm into one per-VM
    # factor so the merit kernel needs only two multiplies.
    dead_t = v_cnorm < _CORR_EPS
    vw = np.where(
        dead_t, 0.0, -weights2[None, :] / np.where(dead_t, 1.0, v_cnorm)
    )[:, :, None]
    v_mean = np.column_stack([ws.cpu_mean, ws.mem_mean])
    k2 = (2.0 * v_mean)[:, :, None]
    rem0 = capscol[None] - patt
    # |Cap - U|^2 per VM, the constant term of the incremental distances.
    a2 = np.einsum("irj,irj->ir", rem0, rem0)[:, :, None]
    v_peak = np.column_stack([ws.cpu_peak, ws.mem_peak])
    v_min = np.column_stack([ws.cpu_min, ws.mem_min])
    # Feasibility bounds: for any reals,
    #   max(peak(S)+min(U), min(S)+peak(U)) <= peak(S+U)
    #                                       <= peak(S)+peak(U),
    # so comparing six server bounds [peak, peak, min] (x CPU, memory)
    # with six per-VM thresholds classifies every server as surely
    # fitting (both peak+peak rows under the tight cap), surely not (a
    # peak+min or min+peak row over the loose cap) or undecided, which
    # gets the exact per-sample check.  The thresholds are moved to the
    # VM side (cap - bound(U)); the band slack dwarfs that rounding, so
    # the classification stays sound.
    off6 = np.concatenate([v_peak, v_min, v_peak], axis=1)[:, :, None]
    loose = capscol + (_EPS + _BAND_SLACK)
    thr6 = np.concatenate([capscol - _BAND_SLACK, loose, loose], axis=0)
    vm_thr6 = thr6[None] - off6  # (n_vms, 6, 1)
    eps_col = capscol + _EPS

    plans = [
        ServerPlan(cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct)
        for _ in range(n_servers)
    ]
    # Per-server state:
    #   served  — aggregate patterns (fleet_bound, 2, k); its transpose
    #             ``served_t`` (2, servers, k) is the matmul operand;
    #   mstate  — merit-kernel rows [inv_snorm_c, inv_snorm_m, g_c, g_m,
    #             ssum_c, ssum_m] over the open servers: inv_snorm is
    #             1/|S - mean(S)| (0 for shapeless aggregates = zero
    #             Pearson), g = |S|^2 - 2*cap*sum(S) the server part of
    #             Dist^2.  Exactly n_act wide, so its row pairs are
    #             contiguous; regrown when a server opens;
    #   bounds6 — [peak_c, peak_m, peak_c, peak_m, min_c, min_m], as of
    #             the current block's entry.
    served = np.zeros((fleet_bound, 2, k))
    served_t = served.transpose(1, 0, 2)
    mstate = np.zeros((6, n_servers))
    bounds6 = np.zeros((6, fleet_bound))
    # Empty servers all carry identical (zero) state: their Eq. 2 merit
    # is exactly 0 for every VM and they fit or reject a VM identically,
    # so only the lowest-indexed one — `empty_ptr`, the representative —
    # is ever a candidate.  `empty_pen` is 0 for non-empty servers and
    # the representative, -inf for the redundant empties.  Scoring every
    # open server needs no such mask: a redundant empty ties the
    # representative at merit 0 and loses the argmax on index.
    empty_pen = np.full(fleet_bound, -np.inf)
    empty_pen[0] = 0.0
    empty_ptr = 0
    nonempty = [False] * fleet_bound
    touched = [False] * fleet_bound
    n_act = n_servers
    unplaced: List[int] = []

    # Python-float mirrors of the per-server and per-VM scalars: the
    # per-placement state updates run ~5x faster outside numpy's
    # scalar dispatch.
    ssum_c = [0.0] * fleet_bound
    ssum_m = [0.0] * fleet_bound
    ssq_c = [0.0] * fleet_bound
    ssq_m = [0.0] * fleet_bound
    cn2_c = [0.0] * fleet_bound
    cn2_m = [0.0] * fleet_bound
    mean_l = v_mean.tolist()
    cnorm2_l = np.column_stack([ws.cpu_cnorm2, ws.mem_cnorm2]).tolist()
    sum_l = np.column_stack([ws.cpu_sum, ws.mem_sum]).tolist()
    sq_l = np.column_stack([ws.cpu_sq, ws.mem_sq]).tolist()
    capc, capm = float(cap_cpu_pct), float(cap_mem_pct)

    def place(vm: int, j: int, dc: float, dm: float) -> None:
        nonlocal empty_ptr
        if not nonempty[j]:
            nonempty[j] = True
            empty_pen[j] = 0.0
            if j == empty_ptr:
                while empty_ptr < fleet_bound and nonempty[empty_ptr]:
                    empty_ptr += 1
                if empty_ptr < fleet_bound:
                    empty_pen[empty_ptr] = 0.0
        served[j] += patt[vm]
        mc, mm = mean_l[vm]
        s0 = ssum_c[j]
        s1 = ssum_m[j]
        draw_c = dc + mc * s0
        draw_m = dm + mm * s1
        qc, qm = sq_l[vm]
        q0 = ssq_c[j] + 2.0 * draw_c + qc
        q1 = ssq_m[j] + 2.0 * draw_m + qm
        ssq_c[j] = q0
        ssq_m[j] = q1
        n2c, n2m = cnorm2_l[vm]
        c0 = cn2_c[j] + 2.0 * dc + n2c
        c1 = cn2_m[j] + 2.0 * dm + n2m
        if c0 <= _FLAT_RECHECK * q0 or c1 <= _FLAT_RECHECK * q1:
            # A (nearly) flat aggregate: the expanded norm has cancelled
            # down to its rounding error, which can fall on either side
            # of the zero-variance Pearson cutoff (two stacked constant
            # VMs leave ~1e-12 here, not 0).  Recompute it directly.
            c0, c1 = _complementary_cnorm2(served[j])
        cn2_c[j] = c0
        cn2_m[j] = c1
        r0 = math.sqrt(c0)
        r1 = math.sqrt(c1)
        sc, sm = sum_l[vm]
        s0 += sc
        s1 += sm
        ssum_c[j] = s0
        ssum_m[j] = s1
        mstate[0, j] = 1.0 / r0 if r0 >= _CORR_EPS else 0.0
        mstate[1, j] = 1.0 / r1 if r1 >= _CORR_EPS else 0.0
        mstate[2, j] = q0 - 2.0 * capc * s0
        mstate[3, j] = q1 - 2.0 * capm * s1
        mstate[4, j] = s0
        mstate[5, j] = s1
        plans[j].vm_ids.append(vm)

    seq_l = sequence.tolist()
    ninf = -np.inf
    n_view = -1
    for pos in range(0, n_vms, _BLOCK):
        blk = sequence[pos : pos + _BLOCK]
        n_blk = blk.shape[0]
        base = n_act
        # -- feasibility once per block, against the block-entry state.
        c6 = bounds6[:, :base] <= vm_thr6[blk]  # (n_blk, 6, base)
        fit = c6[:, 0, :] & c6[:, 1, :]
        band = c6[:, 2:, :].all(axis=1)
        band &= ~fit
        flat = np.flatnonzero(band)
        if flat.size:
            # The reference's exact test, S + U <= cap + eps at every
            # sample, for all undecided (VM, server) pairs in one gather.
            b_vm = flat // base
            b_srv = flat - b_vm * base
            agg = served[b_srv] + patt[blk[b_vm]]
            ok = (agg <= eps_col).reshape(flat.size, -1).all(axis=1)
            fit.flat[flat[ok]] = True
        # Servers opened inside the block sit past `base`: touched from
        # birth, their columns start (and stay) unknown.
        pen = np.zeros((n_blk, min(fleet_bound, base + n_blk)))
        np.copyto(pen[:, :base], ninf, where=~fit)
        # Scoreable servers per VM at block entry (fitting, minus the
        # redundant empties); plus the servers touched since, this is
        # the estimate that picks the full-width or the gathered kernel.
        n_score = np.count_nonzero(
            fit & (empty_pen[:base] == 0.0), axis=1
        ).tolist()

        touched_l: List[int] = []
        for i in range(n_blk):
            vm = seq_l[pos + i]
            if n_act != n_view:
                n_view = n_act
                s_view = served_t[:, :n_act]
                wide_ms = (mstate[0:2], mstate[2:4], mstate[4:6])
                e_view = empty_pen[:n_act]
            row = pen[i, :n_act]
            if 6 * (n_score[i] + len(touched_l)) >= n_act:
                # Wide scoreable set: score every open server; the
                # penalty row drops the unfit ones to -inf.
                cols = None
                sv = s_view
                isn, gs, ss = wide_ms
            else:
                # Narrow: gather the scoreable columns (ascending, so
                # argmax ties still break to the lowest server index).
                cols = np.flatnonzero(row + e_view == 0.0)
                sv = served_t[:, cols]
                ms = mstate[:, cols]
                isn, gs, ss = ms[0:2], ms[2:4], ms[4:6]
            j = -1
            if cols is None or cols.size:
                dcm = np.matmul(sv, cent[vm])[:, :, 0]
                um = dcm * isn
                um *= vw[vm]
                dm_ = dcm + dcm
                dm_ += gs
                dm_ += ss * k2[vm]
                dm_ += a2[vm]
                np.maximum(dm_, 0.0, out=dm_)
                np.sqrt(dm_, out=dm_)
                np.maximum(dm_, _DIST_FLOOR, out=dm_)
                um /= dm_
                merit = um[0] + um[1]
                if cols is None:
                    merit += row
                while True:
                    pick = int(merit.argmax())
                    if merit[pick] == ninf:
                        break
                    cand = pick if cols is None else int(cols[pick])
                    if not touched[cand] or (
                        (served[cand] + patt[vm]) <= eps_col
                    ).all():
                        j = cand
                        place(vm, j, float(dcm[0, pick]), float(dcm[1, pick]))
                        break
                    # A touched server that no longer fits: mask it and
                    # take the next maximum.
                    merit[pick] = ninf
            if j < 0:
                # No server fits (the representative stands in for all
                # empties, so this covers the whole fleet).
                if n_act >= fleet_bound:
                    unplaced.append(vm)
                    continue
                plans.append(
                    ServerPlan(cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct)
                )
                j = n_act
                n_act += 1
                grown = np.zeros((6, n_act))
                grown[:, :j] = mstate
                mstate = grown
                place(vm, j, 0.0, 0.0)
            if not touched[j]:
                touched[j] = True
                touched_l.append(j)
                pen[i + 1 :, j] = 0.0
        if touched_l:
            # Refresh the touched servers' bounds for the next block.
            ids = np.array(touched_l, dtype=np.intp)
            rows = served[ids]
            peaks = rows.max(axis=2).T
            bounds6[0:2, ids] = peaks
            bounds6[2:4, ids] = peaks
            bounds6[4:6, ids] = rows.min(axis=2).T
            for j in touched_l:
                touched[j] = False

    forced = force_place_remaining(plans, unplaced, pred_cpu)
    # Servers that received no VM stay off; drop their empty plans.
    plans = [plan for plan in plans if plan.vm_ids]
    return plans, forced


def _allocate_2d_reference(
    pred_cpu: np.ndarray,
    pred_mem: np.ndarray,
    n_servers: int,
    cap_cpu_pct: float,
    cap_mem_pct: float,
    fleet_bound: int,
    sequence: np.ndarray,
) -> Tuple[List[ServerPlan], int]:
    """The seed implementation, kept as the fast path's oracle."""
    n_vms, n_samples = pred_cpu.shape
    plans = [
        ServerPlan(cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct)
        for _ in range(n_servers)
    ]
    served_cpu = np.zeros((n_servers, n_samples))
    served_mem = np.zeros((n_servers, n_samples))
    unplaced: List[int] = []

    for vm_id in (int(v) for v in sequence):
        agg_cpu = served_cpu + pred_cpu[vm_id][None, :]
        agg_mem = served_mem + pred_mem[vm_id][None, :]
        fits = (agg_cpu.max(axis=1) <= cap_cpu_pct + _EPS) & (
            agg_mem.max(axis=1) <= cap_mem_pct + _EPS
        )
        if not np.any(fits):
            if len(plans) < fleet_bound:
                plans.append(
                    ServerPlan(
                        cap_cpu_pct=cap_cpu_pct, cap_mem_pct=cap_mem_pct
                    )
                )
                served_cpu = np.vstack([served_cpu, np.zeros(n_samples)])
                served_mem = np.vstack([served_mem, np.zeros(n_samples)])
                plans[-1].vm_ids.append(vm_id)
                served_cpu[-1] += pred_cpu[vm_id]
                served_mem[-1] += pred_mem[vm_id]
            else:
                unplaced.append(vm_id)
            continue
        candidate_ids = np.flatnonzero(fits)
        scores = merit_scores(
            pred_cpu[vm_id],
            pred_mem[vm_id],
            served_cpu[candidate_ids],
            served_mem[candidate_ids],
            cap_cpu_pct,
            cap_mem_pct,
        )
        winner = int(candidate_ids[int(np.argmax(scores))])
        plans[winner].vm_ids.append(vm_id)
        served_cpu[winner] += pred_cpu[vm_id]
        served_mem[winner] += pred_mem[vm_id]

    forced = force_place_remaining(plans, unplaced, pred_cpu)
    plans = [plan for plan in plans if plan.vm_ids]
    return plans, forced
