"""Sharded-allocation equivalence suite.

The house guarantees for the :mod:`repro.shard` layer:

* ``shards=1`` is **bit-identical** to the unsharded engine;
* the clustering/budget machinery survives its degenerate corners
  (one-VM shards, more shards than VMs, empty shards);
* a wrapped online policy is reset between runs, and refused with
  ``shards > 1``.
"""

import numpy as np
import pytest

from repro.baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from repro.cloud import get_scenario
from repro.core import EpactPolicy
from repro.core.alloc1d import ffd_order
from repro.core.workspace import AllocationWorkspace
from repro.dcsim import DataCenterSimulation
from repro.errors import ConfigurationError, DomainError
from repro.experiments.hyperscale import synthetic_dataset
from repro.forecast import DayAheadPredictor
from repro.shard import ShardedPolicy, cluster_vms, shard_server_budgets
from repro.traces import default_dataset


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def dataset():
    return default_dataset(n_vms=40, n_days=9, seed=707)


@pytest.fixture(scope="module")
def predictor(dataset):
    predictor = DayAheadPredictor(dataset)
    for day in range(7, dataset.n_days):
        predictor.forecast_day(day)
    return predictor


def run_sim(dataset, predictor, policy, **kwargs):
    kwargs.setdefault("max_servers", 40)
    kwargs.setdefault("n_slots", 8)
    return DataCenterSimulation(
        dataset, predictor, policy, **kwargs
    ).run()


class TestShardBitIdentity:
    def test_one_shard_matches_unsharded(self, dataset, predictor):
        """shards=1 delegates straight through: bit-identical."""
        plain = run_sim(dataset, predictor, EpactPolicy())
        sharded = run_sim(
            dataset, predictor, ShardedPolicy(EpactPolicy(), shards=1)
        )
        assert records_equal(plain.records, sharded.records)

    def test_more_shards_than_vms_clamps(self, dataset, predictor):
        """shards > n_vms clamps to one VM per shard and still runs."""
        small = dataset.subset(np.arange(3))
        small_predictor = DayAheadPredictor(small)
        for day in range(7, small.n_days):
            small_predictor.forecast_day(day)
        result = run_sim(
            small,
            small_predictor,
            ShardedPolicy(EpactPolicy(), shards=10),
            max_servers=6,
        )
        assert result.n_slots == 8

    def test_single_vm_dataset(self, dataset, predictor):
        """A one-VM window degenerates to a single shard: identical."""
        one = dataset.subset(np.arange(1))
        one_predictor = DayAheadPredictor(one)
        for day in range(7, one.n_days):
            one_predictor.forecast_day(day)
        plain = run_sim(
            one, one_predictor, EpactPolicy(), max_servers=2
        )
        sharded = run_sim(
            one,
            one_predictor,
            ShardedPolicy(EpactPolicy(), shards=4),
            max_servers=2,
        )
        assert records_equal(plain.records, sharded.records)

    def test_shards_partition_the_fleet(self, dataset):
        """Every VM lands in exactly one shard, order-preserving."""
        pred = dataset.cpu_pct[:, :288]
        shards = cluster_vms(pred, 5)
        joined = np.concatenate(shards)
        assert np.array_equal(np.sort(joined), np.arange(pred.shape[0]))
        for rows in shards:
            assert np.array_equal(rows, np.sort(rows))

    def test_workspace_shard_matches_fresh(self, dataset):
        """A sharded workspace's stats are bitwise a fresh one's."""
        cpu = dataset.cpu_pct[:, :288]
        mem = dataset.mem_pct[:, :288]
        parent = AllocationWorkspace(cpu, mem)
        parent.cpu_peak  # force a lazy group before slicing
        rows = np.array([3, 7, 11, 30])
        child = parent.shard(rows)
        fresh = AllocationWorkspace(
            np.ascontiguousarray(cpu[rows]),
            np.ascontiguousarray(mem[rows]),
        )
        assert np.array_equal(child.cpu_peak, fresh.cpu_peak)
        assert np.array_equal(child.cpu_centered, fresh.cpu_centered)
        assert np.array_equal(child.cpu_cnorm, fresh.cpu_cnorm)

    def test_workspace_shard_rejects_bad_rows(self, dataset):
        parent = AllocationWorkspace(
            dataset.cpu_pct[:, :288], dataset.mem_pct[:, :288]
        )
        with pytest.raises(DomainError):
            parent.shard(np.array([0, dataset.n_vms]))


def cluster_vms_per_vm_sort(pred_cpu, n_shards):
    """``cluster_vms`` with one preference argsort per visited VM."""
    n_vms = pred_cpu.shape[0]
    k = min(n_shards, n_vms)
    ws = AllocationWorkspace(pred_cpu, pred_cpu)
    scale = np.where(ws.cpu_cnorm > 1e-12, ws.cpu_cnorm, 1.0)
    patterns = ws.cpu_centered / scale[:, None]
    patterns[ws.cpu_cnorm <= 1e-12] = 0.0
    medoids = [int(np.argmax(ws.cpu_peak))]
    worst = patterns @ patterns[medoids[0]]
    worst[medoids[0]] = np.inf
    for _ in range(k - 1):
        nxt = int(np.argmin(worst))
        medoids.append(nxt)
        np.maximum(worst, patterns @ patterns[nxt], out=worst)
        worst[nxt] = np.inf
    similarity = patterns @ patterns[medoids].T
    capacity = -(-n_vms // k)
    assignment = np.empty(n_vms, dtype=np.int64)
    counts = np.zeros(k, dtype=np.int64)
    for vm in ffd_order(pred_cpu):
        for shard in np.argsort(-similarity[vm], kind="stable"):
            if counts[shard] < capacity:
                assignment[vm] = shard
                counts[shard] += 1
                break
    return [np.flatnonzero(assignment == shard) for shard in range(k)]


class TestWrappedOnlinePolicy:
    def test_reused_instance_starts_each_run_fresh(self):
        """The engine resets every policy at the start of a run, and the
        wrapper resets the policy it wraps: a second run of the same
        instance repeats the first."""
        dataset, schedule = get_scenario("diurnal-burst").build(
            n_vms=40, n_days=9, seed=13, n_slots=30
        )
        predictor = DayAheadPredictor(dataset)
        policy = ShardedPolicy(OnlineReactivePolicy())
        first, second = (
            run_sim(
                dataset, predictor, policy, schedule=schedule, n_slots=30
            )
            for _ in range(2)
        )
        assert records_equal(first.records, second.records)

    def test_online_policy_refused_with_shards(self):
        """Online placement state spans the whole population."""
        with pytest.raises(ConfigurationError, match="shards=1"):
            ShardedPolicy(OnlineBestFitPolicy(), shards=2)


class TestClusterAssignment:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_per_vm_sort_with_ties(self, seed):
        """Duplicate rows share a similarity row and constant rows are
        equally (un)correlated with every medoid, so preferences tie."""
        rng = np.random.default_rng(seed)
        n_vms = int(rng.integers(20, 400))
        n_shards = int(rng.integers(2, 12))
        pred = rng.uniform(1.0, 40.0, size=(n_vms, 12))
        dup = rng.choice(n_vms, size=n_vms // 4)
        pred[dup] = pred[rng.choice(n_vms, size=dup.size)]
        flat = rng.random(n_vms) < 0.2
        pred[flat] = pred[flat, :1]
        got = cluster_vms(pred, n_shards)
        want = cluster_vms_per_vm_sort(pred, n_shards)
        assert len(got) == len(want)
        for rows, expected in zip(got, want):
            assert np.array_equal(rows, expected)

    def test_matches_per_vm_sort_hyperscale_slot(self):
        dataset = synthetic_dataset(2_000, seed=2018)
        pred = dataset.cpu_pct[:, :12]
        got = cluster_vms(pred, 8)
        want = cluster_vms_per_vm_sort(pred, 8)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestBudgetSplit:
    def test_budgets_sum_and_cover(self):
        weights = np.array([5.0, 1.0, 0.0, 3.0])
        budgets = shard_server_budgets(weights, 20)
        assert budgets.sum() == 20
        assert budgets[2] == 0
        assert all(b >= 1 for b in budgets[[0, 1, 3]])

    def test_tiny_budget_still_covers_positive_shards(self):
        weights = np.array([100.0, 1e-6, 1e-6])
        budgets = shard_server_budgets(weights, 3)
        assert budgets.sum() == 3
        assert all(budgets >= 1)

    def test_budget_smaller_than_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="fewer shards"):
            shard_server_budgets(np.array([1.0, 1.0, 1.0]), 2)

    def test_empty_shard_gets_nothing(self):
        budgets = shard_server_budgets(np.array([0.0, 0.0]), 5)
        assert np.array_equal(budgets, np.zeros(2, dtype=np.int64))

    def test_cluster_rejects_bad_args(self, dataset):
        pred = dataset.cpu_pct[:, :288]
        with pytest.raises(ConfigurationError):
            cluster_vms(pred, 0)
        with pytest.raises(ConfigurationError):
            cluster_vms(pred[0], 2)
