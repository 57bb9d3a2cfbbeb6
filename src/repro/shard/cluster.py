"""Pattern-similarity VM clustering for sharded allocation.

Shards group VMs whose predicted utilization *shapes* are alike, using
the same normalized-pattern geometry the correlation machinery in
:mod:`repro.core.correlation` is built on: each VM's slot pattern is
centered and scaled to unit norm (constant patterns map to the zero
vector, i.e. "no shape information", matching
:func:`repro.core.correlation.pearson`), so the dot product of two rows
*is* their Pearson correlation.  Keeping correlated VMs together
preserves what EPACT/COAT exploit — complementary-pattern packing works
within a shard, and the cross-shard interactions it loses are exactly
the weak ones.

The clustering is deliberately simple and deterministic:

* **medoid seeding** — the first medoid is the peak-heaviest VM; each
  subsequent medoid is the VM least correlated with every medoid chosen
  so far (ties break to the lowest VM index);
* **balanced greedy assignment** — VMs are visited in the allocator's
  own first-fit-decreasing order and placed in their most-correlated
  shard that still has room, with per-shard capacity
  ``ceil(n_vms / n_shards)``.

Balanced capacities keep worst-case shard size bounded (the process
pool's load balance), but a shard may legitimately end up **empty**
when ``n_vms`` barely exceeds ``n_shards``; downstream concatenation
skips empty shards exactly like empty pools.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.alloc1d import ffd_order
from ..core.workspace import AllocationWorkspace
from ..errors import ConfigurationError

_EPS = 1.0e-12


def cluster_vms(
    pred_cpu: np.ndarray,
    n_shards: int,
    workspace: Optional[AllocationWorkspace] = None,
) -> List[np.ndarray]:
    """Partition VMs into at most ``n_shards`` pattern-similar shards.

    Args:
        pred_cpu: predicted CPU utilization, shape ``(n_vms, samples)``.
        n_shards: requested shard count; clamped to ``n_vms`` (a shard
            never holds less than one VM by construction, though slack
            in the balanced capacities can leave trailing shards empty).
        workspace: optional :class:`AllocationWorkspace` already built on
            ``pred_cpu`` — its centered/norm statistics are reused
            instead of recomputed.

    Returns:
        One ascending ``int64`` row-index array per shard; the arrays
        partition ``range(n_vms)``.

    Raises:
        ConfigurationError: if ``n_shards < 1`` or ``pred_cpu`` is not
            2-D.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    pred_cpu = np.asarray(pred_cpu, dtype=float)
    if pred_cpu.ndim != 2:
        raise ConfigurationError("pred_cpu must be 2-D (n_vms, samples)")
    n_vms = pred_cpu.shape[0]
    k = min(n_shards, n_vms)
    if k <= 1:
        return [np.arange(n_vms, dtype=np.int64)]

    if workspace is None:
        workspace = AllocationWorkspace(pred_cpu, pred_cpu)
    # Unit-norm centered rows: X @ X.T is the Pearson correlation
    # matrix, with constant rows mapped to 0 (pearson()'s convention).
    scale = np.where(workspace.cpu_cnorm > _EPS, workspace.cpu_cnorm, 1.0)
    patterns = workspace.cpu_centered / scale[:, None]
    patterns[workspace.cpu_cnorm <= _EPS] = 0.0

    # Deterministic k-medoid seeding: start from the peak-heaviest VM,
    # then repeatedly add the VM least correlated with every medoid so
    # far (argmin breaks ties to the lowest index).
    medoids = [int(np.argmax(workspace.cpu_peak))]
    worst = patterns @ patterns[medoids[0]]
    worst[medoids[0]] = np.inf
    for _ in range(k - 1):
        nxt = int(np.argmin(worst))
        medoids.append(nxt)
        np.maximum(worst, patterns @ patterns[nxt], out=worst)
        worst[nxt] = np.inf

    # Balanced greedy assignment in FFD order: biggest VMs pick first,
    # each taking its most-correlated shard that still has room.
    # Every VM's shard preference list comes from one row-wise stable
    # sort (ties keep the lower shard index first).
    similarity = patterns @ patterns[medoids].T
    preferences = np.argsort(-similarity, axis=1, kind="stable").tolist()
    capacity = -(-n_vms // k)
    assignment = np.empty(n_vms, dtype=np.int64)
    counts = [0] * k
    for vm in ffd_order(pred_cpu).tolist():
        for shard in preferences[vm]:
            if counts[shard] < capacity:
                assignment[vm] = shard
                counts[shard] += 1
                break
    return [np.flatnonzero(assignment == shard) for shard in range(k)]


def shard_server_budgets(
    weights: np.ndarray, max_servers: int
) -> np.ndarray:
    """Split a server budget across shards by largest-remainder rule.

    Args:
        weights: per-shard non-negative load weights (e.g. the sum of
            predicted CPU peaks).  Zero-weight shards are treated as
            empty and get zero servers; every positive-weight shard is
            guaranteed at least one.
        max_servers: total servers to distribute.

    Returns:
        Per-shard integer budgets summing to ``max_servers`` (all of it
        goes to the positive-weight shards).

    Raises:
        ConfigurationError: on negative weights, ``max_servers < 1``, or
            more positive-weight shards than servers (use fewer shards).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ConfigurationError("weights must be 1-D")
    if np.any(weights < 0.0):
        raise ConfigurationError("weights must be non-negative")
    if max_servers < 1:
        raise ConfigurationError("max_servers must be >= 1")
    positive = weights > 0.0
    n_positive = int(positive.sum())
    if n_positive == 0:
        return np.zeros(weights.shape[0], dtype=np.int64)
    if max_servers < n_positive:
        raise ConfigurationError(
            f"max_servers={max_servers} cannot give each of "
            f"{n_positive} non-empty shards a server — use fewer shards"
        )
    quota = weights / weights.sum() * max_servers
    budgets = np.floor(quota).astype(np.int64)
    # Largest remainder first; stable sort breaks ties to lowest index.
    for shard in np.argsort(-(quota - budgets), kind="stable"):
        if budgets.sum() >= max_servers:
            break
        budgets[shard] += 1
    # Guarantee every positive-weight shard one server, stealing from
    # the currently largest budget (deterministic argmax tie-break).
    for shard in np.flatnonzero(positive & (budgets == 0)):
        donor = int(np.argmax(budgets))
        budgets[donor] -= 1
        budgets[shard] += 1
    return budgets
