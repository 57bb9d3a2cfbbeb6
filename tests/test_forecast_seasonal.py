"""Tests for the seasonal forecasters and forecast metrics."""

import numpy as np
import pytest

from repro.errors import DomainError, ForecastError
from repro.forecast.decomposed import DecomposedArimaForecaster
from repro.forecast.metrics import mae, rmse
from repro.forecast.seasonal import SeasonalNaiveForecaster


def make_seasonal_series(n_periods=6, period=24, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    season = 10 + 5 * np.sin(2 * np.pi * np.arange(period) / period)
    series = np.tile(season, n_periods)
    if noise:
        series = series + rng.normal(0, noise, series.shape)
    return series, season


class TestSeasonalNaive:
    def test_repeats_last_season(self):
        series, season = make_seasonal_series()
        model = SeasonalNaiveForecaster(period=24)
        model.fit(series)
        np.testing.assert_allclose(model.forecast(24), season)

    def test_horizon_wraps(self):
        series, season = make_seasonal_series()
        model = SeasonalNaiveForecaster(period=24).fit(series)
        fc = model.forecast(50)
        np.testing.assert_allclose(fc[:24], fc[24:48])

    def test_too_short_raises(self):
        with pytest.raises(ForecastError):
            SeasonalNaiveForecaster(period=24).fit(np.arange(10.0))

    def test_forecast_before_fit_raises(self):
        with pytest.raises(ForecastError):
            SeasonalNaiveForecaster(period=24).forecast(5)


class TestDecomposedArima:
    def test_perfect_on_pure_seasonal(self):
        series, season = make_seasonal_series(n_periods=8)
        model = DecomposedArimaForecaster(period=24).fit(series)
        np.testing.assert_allclose(model.forecast(24), season, atol=1e-6)

    def test_profile_averages_noise_better_than_naive(self):
        series, season = make_seasonal_series(
            n_periods=8, noise=1.5, seed=4
        )
        target, _ = make_seasonal_series(n_periods=1, noise=1.5, seed=99)
        decomposed = DecomposedArimaForecaster(period=24).fit(series)
        naive = SeasonalNaiveForecaster(period=24).fit(series)
        err_decomposed = rmse(target, decomposed.forecast(24))
        err_naive = rmse(target, naive.forecast(24))
        assert err_decomposed < err_naive

    def test_season_types_select_matching_days(self):
        period = 24
        weekday = np.full(period, 10.0)
        weekend = np.full(period, 2.0)
        series = np.concatenate([weekday, weekday, weekend, weekday])
        types = np.array([0, 0, 1, 0])
        model = DecomposedArimaForecaster(period=period)
        model.fit(series, season_types=types, target_type=1)
        # Weekend profile must come from the weekend day only.
        np.testing.assert_allclose(model.profile, 2.0, atol=1e-6)

    def test_unknown_target_type_falls_back_to_all(self):
        period = 12
        series = np.tile(np.full(period, 4.0), 3)
        model = DecomposedArimaForecaster(period=period)
        model.fit(
            series, season_types=np.array([0, 0, 0]), target_type=7
        )
        np.testing.assert_allclose(model.profile, 4.0, atol=1e-6)

    def test_season_types_require_target(self):
        series = np.tile(np.arange(12.0), 3)
        model = DecomposedArimaForecaster(period=12)
        with pytest.raises(ForecastError):
            model.fit(series, season_types=np.array([0, 0, 0]))

    def test_mismatched_types_length_raises(self):
        series = np.tile(np.arange(12.0), 3)
        model = DecomposedArimaForecaster(period=12)
        with pytest.raises(ForecastError):
            model.fit(
                series, season_types=np.array([0, 1]), target_type=0
            )

    def test_needs_two_seasons(self):
        with pytest.raises(ForecastError):
            DecomposedArimaForecaster(period=24).fit(np.arange(30.0))

    def test_invalid_decay_rejected(self):
        with pytest.raises(ForecastError):
            DecomposedArimaForecaster(decay=0.0)


class TestMetrics:
    def test_perfect_prediction_zero_error(self):
        a = np.array([1.0, 2.0, 3.0])
        assert mae(a, a) == 0.0
        assert rmse(a, a) == 0.0

    def test_known_values(self):
        actual = np.array([2.0, 4.0])
        predicted = np.array([1.0, 6.0])
        assert mae(actual, predicted) == pytest.approx(1.5)
        assert rmse(actual, predicted) == pytest.approx(
            np.sqrt((1 + 4) / 2)
        )

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=100)
        p = rng.normal(size=100)
        assert rmse(a, p) >= mae(a, p)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DomainError):
            mae(np.ones(3), np.ones(4))

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            rmse(np.array([]), np.array([]))
