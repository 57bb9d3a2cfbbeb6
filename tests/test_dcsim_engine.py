"""Tests for the data-center simulation engine."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines import CoatOptPolicy, CoatPolicy
from repro.core import EpactPolicy
from repro.dcsim import DataCenterSimulation, run_policies, shared_predictions
from repro.dcsim.engine import FailedRun, fan_out
from repro.errors import ConfigurationError, DomainError
from repro.forecast import (
    DayAheadPredictor,
    PerfectPredictor,
    PrecomputedPredictor,
)


@pytest.fixture(scope="module")
def oracle_run(small_dataset_module, perf_sim_module):
    predictor = PerfectPredictor(small_dataset_module)
    sim = DataCenterSimulation(
        small_dataset_module,
        predictor,
        EpactPolicy(),
        perf=perf_sim_module,
        max_servers=600,
        start_slot=24,
        n_slots=24,
    )
    return sim.run()


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.traces import default_dataset

    return default_dataset(n_vms=40, n_days=9, seed=3)


@pytest.fixture(scope="module")
def perf_sim_module():
    from repro.perf import PerformanceSimulator

    return PerformanceSimulator()


class TestEngineBasics:
    def test_record_count(self, oracle_run):
        assert oracle_run.n_slots == 24
        assert oracle_run.records[0].slot_index == 24

    def test_perfect_prediction_no_violations(self, oracle_run):
        """With an oracle, EPACT's slack guarantees zero violations."""
        assert oracle_run.total_violations == 0

    def test_energy_positive_and_sane(self, oracle_run):
        energy = oracle_run.energy_mj_per_slot
        assert np.all(energy > 0)
        # 40 VMs -> a handful of servers; < 5 MJ per hour-slot.
        assert energy.max() < 5.0

    def test_active_servers_positive(self, oracle_run):
        assert np.all(oracle_run.active_servers_per_slot >= 1)

    def test_mean_frequency_within_dvfs_range(self, oracle_run):
        for record in oracle_run.records:
            assert 0.1 <= record.mean_freq_ghz <= 3.1

    def test_epact_case_recorded(self, oracle_run):
        assert all(r.case in ("cpu", "mem") for r in oracle_run.records)


class TestEngineValidation:
    def test_start_before_predictable_raises(
        self, small_dataset_module, perf_sim_module
    ):
        from repro.forecast import DayAheadPredictor

        predictor = DayAheadPredictor(small_dataset_module)
        with pytest.raises(ConfigurationError):
            DataCenterSimulation(
                small_dataset_module,
                predictor,
                EpactPolicy(),
                perf=perf_sim_module,
                start_slot=0,
            )

    def test_too_many_slots_raises(
        self, small_dataset_module, perf_sim_module
    ):
        predictor = PerfectPredictor(small_dataset_module)
        with pytest.raises(ConfigurationError):
            DataCenterSimulation(
                small_dataset_module,
                predictor,
                EpactPolicy(),
                perf=perf_sim_module,
                n_slots=10_000,
            )


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def comparison(self, small_dataset_module, perf_sim_module):
        predictor = PerfectPredictor(small_dataset_module)
        return run_policies(
            small_dataset_module,
            predictor,
            [EpactPolicy(), CoatPolicy(), CoatOptPolicy()],
            perf=perf_sim_module,
            max_servers=600,
            start_slot=24,
            n_slots=24,
        )

    def test_all_policies_ran(self, comparison):
        assert set(comparison) == {"EPACT", "COAT", "COAT-OPT"}

    def test_epact_beats_coat_on_energy(self, comparison):
        """The headline Fig. 6 ordering, here under oracle forecasts."""
        assert (
            comparison["EPACT"].total_energy_mj
            < comparison["COAT"].total_energy_mj
        )

    def test_coat_uses_fewest_servers(self, comparison):
        """Fig. 5 ordering: consolidation minimizes active servers."""
        assert (
            comparison["COAT"].mean_active_servers
            <= comparison["EPACT"].mean_active_servers
        )

    def test_oracle_epact_zero_coat_zero_violations(self, comparison):
        """With perfect forecasts nobody overruns their own cap."""
        assert comparison["EPACT"].total_violations == 0
        assert comparison["COAT"].total_violations == 0

    def test_coat_runs_at_fmax(self, comparison):
        for record in comparison["COAT"].records:
            assert record.mean_freq_ghz == pytest.approx(3.1)

    def test_coat_opt_runs_at_optimal_frequency(self, comparison):
        for record in comparison["COAT-OPT"].records:
            assert record.mean_freq_ghz == pytest.approx(1.9)

    def test_epact_frequency_tracks_load(self, comparison):
        freqs = np.array(
            [r.mean_freq_ghz for r in comparison["EPACT"].records]
        )
        assert freqs.std() > 0.01  # actually moves with the diurnal


class TestDayAheadCadence:
    def test_daily_policy_allocates_once_per_day(
        self, small_dataset_module, perf_sim_module
    ):
        calls = []

        class CountingCoat(CoatPolicy):
            def allocate(self, ctx):
                calls.append(ctx.n_samples)
                return super().allocate(ctx)

        policy = CountingCoat(reallocation_period_slots=24)
        predictor = PerfectPredictor(small_dataset_module)
        DataCenterSimulation(
            small_dataset_module,
            predictor,
            policy,
            perf=perf_sim_module,
            start_slot=24,
            n_slots=48,
        ).run()
        assert len(calls) == 2  # two days
        assert calls[0] == 24 * 12  # packed against the full day

    def test_hourly_policy_allocates_every_slot(
        self, small_dataset_module, perf_sim_module
    ):
        calls = []

        class CountingCoat(CoatPolicy):
            def allocate(self, ctx):
                calls.append(ctx.n_samples)
                return super().allocate(ctx)

        policy = CountingCoat(reallocation_period_slots=1)
        predictor = PerfectPredictor(small_dataset_module)
        DataCenterSimulation(
            small_dataset_module,
            predictor,
            policy,
            perf=perf_sim_module,
            start_slot=24,
            n_slots=6,
        ).run()
        assert len(calls) == 6
        assert all(n == 12 for n in calls)


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def eq_dataset():
    from repro.traces import default_dataset

    return default_dataset(n_vms=60, n_days=9, seed=77)


@pytest.fixture(scope="module")
def eq_predictor(eq_dataset):
    predictor = DayAheadPredictor(eq_dataset)
    for day in range(7, eq_dataset.n_days):
        predictor.forecast_day(day)
    return predictor


class _Unpicklable:
    """A shared input that fails if anything tries to pickle it."""

    def __reduce__(self):
        raise TypeError("shared inputs must reach the workers unpickled")


def _probe(shared, index):
    """Task body: which task ran where, and what it was shared."""
    return index, type(shared).__name__, os.getpid()


def _write_shared(dataset, predictor, target):
    """Task body: a stray write into one of the shared inputs."""
    if target == "traces":
        dataset.cpu_pct[0, 0] = 1.0
    else:
        predictor.forecast_day(predictor.first_predictable_day)[0][0, 0] = 1.0


def _write_prepared(prepared, target):
    """Task body: the same write, into inputs shared as a sweep shares
    them (per-scenario tuples in a dict)."""
    dataset, predictor, _ = prepared["steady"]
    _write_shared(dataset, predictor, target)


class _RaisingPolicy(EpactPolicy):
    """A policy whose every allocation fails."""

    name = "BOOM"

    def allocate(self, ctx):
        raise RuntimeError("allocator offline")


class TestParallelRunPolicies:
    def test_fan_out_never_pickles_shared_under_fork(self):
        """Each forked worker inherits the shared inputs once and reuses
        them across its tasks; only the task arguments are pickled."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit unpicklable inputs")
        runs = fan_out(
            _probe, (_Unpicklable(),), [(i, (i,)) for i in range(3)], 2
        )
        assert [run[:2] for run in runs.values()] == [
            (index, "_Unpicklable") for index in range(3)
        ]
        assert len({run[2] for run in runs.values()}) <= 2

    @pytest.mark.parametrize("target", ["traces", "forecasts"])
    def test_fan_out_workers_get_read_only_inputs(
        self, eq_dataset, eq_predictor, target
    ):
        """A worker's write into a shared input fails that task
        instead of leaking into its next one, whether the runner shares
        the inputs directly or a sweep nests them per scenario; the
        parent's inputs stay writable."""
        frozen = shared_predictions(eq_dataset, eq_predictor)
        tasks = [(i, (target,)) for i in range(2)]
        for fn, shared in (
            (_write_shared, (eq_dataset, frozen)),
            (_write_prepared, ({"steady": (eq_dataset, frozen, None)},)),
        ):
            runs = fan_out(fn, shared, tasks, 2)
            for run in runs.values():
                assert isinstance(run, FailedRun)
                assert "read-only" in run.error
        assert eq_dataset.cpu_pct.flags.writeable
        day = frozen.first_predictable_day
        assert frozen.forecast_day(day)[0].flags.writeable

    def test_failed_policy_keeps_its_slot(self, eq_dataset, eq_predictor):
        """A policy that fails twice under ``jobs=2`` holds a
        :class:`FailedRun` in its slot; the other policies' runs stay."""
        runs = run_policies(
            eq_dataset,
            eq_predictor,
            [EpactPolicy(), _RaisingPolicy()],
            jobs=2,
            max_servers=50,
            n_slots=2,
        )
        assert list(runs) == ["EPACT", "BOOM"]
        assert len(runs["EPACT"].records) == 2
        failed = runs["BOOM"]
        assert isinstance(failed, FailedRun)
        assert failed.key == "BOOM" and failed.attempts == 2
        assert "allocator offline" in failed.error

    def test_fig7_jobs_match_serial(self):
        from repro.experiments.fig7 import run_fig7
        from repro.traces import default_dataset

        kwargs = dict(
            dataset=default_dataset(n_vms=12, n_days=8, seed=5),
            static_sweep_w=(5.0, 45.0),
            max_servers=12,
            n_slots=2,
        )
        assert run_fig7(jobs=2, **kwargs) == run_fig7(jobs=1, **kwargs)

    def test_jobs_match_serial(self, eq_dataset, eq_predictor):
        def policies():
            return [EpactPolicy(), CoatPolicy(), CoatOptPolicy()]
        serial = run_policies(
            eq_dataset,
            eq_predictor,
            policies(),
            max_servers=50,
            n_slots=26,
        )
        parallel = run_policies(
            eq_dataset,
            eq_predictor,
            policies(),
            jobs=2,
            max_servers=50,
            n_slots=26,
        )
        assert list(serial) == list(parallel)
        for name in serial:
            assert records_equal(
                serial[name].records, parallel[name].records
            )

    def test_jobs_one_stays_serial(self, eq_dataset, eq_predictor):
        """jobs=1 must not spawn workers (no predictor freezing)."""
        result = run_policies(
            eq_dataset,
            eq_predictor,
            [EpactPolicy()],
            jobs=1,
            max_servers=50,
            n_slots=24,
        )
        assert set(result) == {"EPACT"}


class TestPrecomputedPredictor:
    def test_matches_wrapped_predictor(self, eq_dataset, eq_predictor):
        frozen = shared_predictions(eq_dataset, eq_predictor)
        assert (
            frozen.first_predictable_day
            == eq_predictor.first_predictable_day
        )
        for day in range(7, eq_dataset.n_days):
            for got, want in zip(
                frozen.forecast_day(day), eq_predictor.forecast_day(day)
            ):
                np.testing.assert_array_equal(got, want)
        slot = 7 * 24 + 5
        for got, want in zip(
            frozen.predicted_slot(slot), eq_predictor.predicted_slot(slot)
        ):
            np.testing.assert_array_equal(got, want)

    def test_missing_day_raises(self):
        predictor = PrecomputedPredictor({}, first_predictable_day=7)
        with pytest.raises(DomainError):
            predictor.forecast_day(7)
