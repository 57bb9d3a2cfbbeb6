"""Tests for the day-ahead predictor over trace datasets."""

import numpy as np
import pytest

from repro.errors import DomainError
from repro.forecast import (
    DayAheadPredictor,
    SeasonalNaiveForecaster,
    rmse,
)
from repro.forecast.predictor import DayAheadFitter
from repro.traces import default_dataset
from repro.units import SAMPLES_PER_DAY, SAMPLES_PER_SLOT


class TestDayAheadPredictor:
    def test_forecast_day_shape(self, arima_predictor, small_dataset):
        cpu, mem = arima_predictor.forecast_day(7)
        assert cpu.shape == (small_dataset.n_vms, SAMPLES_PER_DAY)
        assert mem.shape == (small_dataset.n_vms, SAMPLES_PER_DAY)

    def test_forecasts_clipped_to_percent_range(self, arima_predictor):
        cpu, mem = arima_predictor.forecast_day(7)
        for arr in (cpu, mem):
            assert arr.min() >= 0.0
            assert arr.max() <= 100.0

    def test_forecast_cached(self, arima_predictor):
        a, _ = arima_predictor.forecast_day(7)
        b, _ = arima_predictor.forecast_day(7)
        assert a is b

    def test_predicted_slot_slices_day(self, arima_predictor):
        cpu_day, _ = arima_predictor.forecast_day(7)
        slot = 7 * 24 + 5
        cpu_slot, _ = arima_predictor.predicted_slot(slot)
        offset = 5 * SAMPLES_PER_SLOT
        np.testing.assert_array_equal(
            cpu_slot, cpu_day[:, offset : offset + SAMPLES_PER_SLOT]
        )

    def test_day_without_window_raises(self, arima_predictor):
        with pytest.raises(DomainError):
            arima_predictor.forecast_day(2)

    def test_day_outside_dataset_raises(self, arima_predictor):
        with pytest.raises(DomainError):
            arima_predictor.forecast_day(100)

    def test_first_predictable_day(self, arima_predictor):
        assert arima_predictor.first_predictable_day == 7

    def test_beats_seasonal_naive(self, small_dataset, arima_predictor):
        """The headline forecast-quality requirement."""
        day = 8
        actual, _ = small_dataset.day_slice(day)
        predicted, _ = arima_predictor.forecast_day(day)
        lo = (day - 7) * SAMPLES_PER_DAY
        hi = day * SAMPLES_PER_DAY
        naive = np.empty_like(predicted)
        for vm in range(small_dataset.n_vms):
            model = SeasonalNaiveForecaster()
            model.fit(small_dataset.cpu_pct[vm, lo:hi])
            naive[vm] = model.forecast(SAMPLES_PER_DAY)
        assert rmse(actual, predicted) < rmse(actual, naive)

    def test_invalid_history_rejected(self, small_dataset):
        with pytest.raises(DomainError):
            DayAheadPredictor(small_dataset, history_days=1)

    def test_fallback_counts_monotone(self, small_dataset):
        predictor = DayAheadPredictor(small_dataset)
        before = predictor.fallback_count
        predictor.forecast_day(7)
        assert predictor.fallback_count >= before


class TestDayAheadFitter:
    def test_row_subsets_fit_the_bits_of_the_full_fit(self):
        """Every step of the day fit reads a VM's own row, so fitting a
        subset of rows gives those rows' bits of the fit over every
        VM, whichever fit blocks (128 rows) the subset crosses."""
        dataset = default_dataset(n_vms=260, n_days=8, seed=5)
        fitter = DayAheadFitter(7)
        history = slice(0, 7 * SAMPLES_PER_DAY)
        cpu = dataset.cpu_pct[:, history]
        mem = dataset.mem_pct[:, history]
        full = fitter.fit_day(7, cpu, mem)
        rng = np.random.default_rng(8)
        for size in (1, 2, 127, 129, dataset.n_vms):
            rows = np.sort(rng.choice(dataset.n_vms, size, replace=False))
            subset = fitter.fit_day(7, cpu[rows], mem[rows])
            for got, want in zip(subset, full):
                assert got.tobytes() == want[rows].tobytes()


class TestPerfectPredictor:
    def test_returns_actuals(self, small_dataset, oracle_predictor):
        cpu, mem = oracle_predictor.predicted_slot(30)
        actual_cpu, actual_mem = small_dataset.slot_slice(30)
        np.testing.assert_array_equal(cpu, actual_cpu)
        np.testing.assert_array_equal(mem, actual_mem)

    def test_day_access(self, small_dataset, oracle_predictor):
        cpu, _ = oracle_predictor.forecast_day(1)
        actual, _ = small_dataset.day_slice(1)
        np.testing.assert_array_equal(cpu, actual)

    def test_predicts_from_day_zero(self, oracle_predictor):
        assert oracle_predictor.first_predictable_day == 0
        assert oracle_predictor.fallback_count == 0
