"""Tests for differencing and the from-scratch ARIMA implementation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.forecast.batch as batch_mod
from repro.errors import ForecastError
from repro.forecast import DayAheadPredictor
from repro.forecast.arima import ArimaModel, ArimaOrder
from repro.forecast.batch import (
    BatchArmaFit,
    _batched_arma_recursion,
    batched_arma_fit,
    batched_arma_forecast,
)
from repro.traces import default_dataset
from repro.forecast.differencing import difference, integrate


class TestDifferencing:
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=5,
            max_size=60,
        ),
        st.integers(min_value=0, max_value=2),
    )
    def test_integrate_inverts_difference(self, values, d):
        series = np.array(values)
        if series.shape[0] <= d:
            return
        diffed = difference(series, d)
        if diffed.shape[0] == 0:
            return
        # Re-integrating the tail of the differenced series reproduces
        # the original tail exactly.
        restored = integrate(diffed, series[: series.shape[0] - diffed.shape[0] + d], d) if d else diffed
        if d == 0:
            np.testing.assert_allclose(restored, series)

    def test_integrate_roundtrip_order1(self):
        series = np.array([1.0, 3.0, 6.0, 10.0, 15.0])
        diffed = difference(series, 1)
        restored = integrate(diffed, series[:1], 1)
        np.testing.assert_allclose(restored, series[1:])

    def test_integrate_roundtrip_order2(self):
        series = np.cumsum(np.cumsum(np.arange(10.0)))
        diffed = difference(series, 2)
        restored = integrate(diffed, series[:2], 2)
        np.testing.assert_allclose(restored, series[2:])

    def test_difference_shortens(self):
        assert difference(np.arange(5.0), 2).shape == (3,)

    def test_difference_of_linear_is_constant(self):
        out = difference(np.arange(10.0) * 3.0, 1)
        np.testing.assert_allclose(out, 3.0)

    def test_too_short_raises(self):
        with pytest.raises(ForecastError):
            difference(np.array([1.0]), 1)


class TestArimaOrder:
    def test_rejects_all_zero(self):
        with pytest.raises(ForecastError):
            ArimaOrder(p=0, d=0, q=0)

    def test_rejects_negative(self):
        with pytest.raises(ForecastError):
            ArimaOrder(p=-1)


class TestArimaFit:
    def test_recovers_strong_ar1(self):
        rng = np.random.default_rng(42)
        phi = 0.8
        n = 5000
        e = rng.normal(0, 1, n)
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + e[t]
        model = ArimaModel(ArimaOrder(p=1))
        fit = model.fit(x)
        assert fit.ar[0] == pytest.approx(phi, abs=0.05)

    def test_recovers_mean_through_const(self):
        rng = np.random.default_rng(1)
        x = 5.0 + rng.normal(0, 0.1, 2000)
        model = ArimaModel(ArimaOrder(p=1))
        model.fit(x)
        forecast = model.forecast(50)
        assert forecast.mean() == pytest.approx(5.0, abs=0.2)

    def test_constant_series_degenerates_gracefully(self):
        model = ArimaModel(ArimaOrder(p=2, q=1))
        model.fit(np.full(100, 3.25))
        np.testing.assert_allclose(model.forecast(10), 3.25)

    def test_ar1_forecast_decays_geometrically(self):
        # Pure AR(1) with known coefficients: forecast is analytic.
        model = ArimaModel(ArimaOrder(p=1))
        rng = np.random.default_rng(3)
        phi = 0.6
        n = 8000
        x = np.zeros(n)
        e = rng.normal(0, 1, n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + e[t]
        fit = model.fit(x)
        fc = model.forecast(5)
        expected = x[-1]
        for step in range(5):
            expected = fit.const + fit.ar[0] * expected
            assert fc[step] == pytest.approx(expected)

    def test_d1_tracks_linear_trend(self):
        series = 2.0 * np.arange(300.0) + 1.0
        model = ArimaModel(ArimaOrder(p=1, d=1))
        model.fit(series)
        forecast = model.forecast(3)
        np.testing.assert_allclose(
            forecast, [601.0, 603.0, 605.0], atol=1.0
        )

    def test_ma_component_estimated(self):
        rng = np.random.default_rng(9)
        n = 8000
        e = rng.normal(0, 1, n)
        theta = 0.5
        x = e.copy()
        x[1:] += theta * e[:-1]
        model = ArimaModel(ArimaOrder(p=1, q=1))
        fit = model.fit(x)
        assert fit.ma[0] == pytest.approx(theta, abs=0.15)

    def test_short_series_raises(self):
        model = ArimaModel(ArimaOrder(p=3, q=2))
        with pytest.raises(ForecastError):
            model.fit(np.arange(8.0))

    def test_nonfinite_series_raises(self):
        model = ArimaModel(ArimaOrder(p=1))
        with pytest.raises(ForecastError):
            model.fit(np.array([1.0, np.nan, 2.0]))

    def test_forecast_before_fit_raises(self):
        model = ArimaModel(ArimaOrder(p=1))
        with pytest.raises(ForecastError):
            model.forecast(5)

    def test_zero_horizon_raises(self):
        model = ArimaModel(ArimaOrder(p=1))
        model.fit(np.random.default_rng(0).normal(size=100))
        with pytest.raises(ForecastError):
            model.forecast(0)

    def test_sigma2_reported(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 2.0, 5000)
        model = ArimaModel(ArimaOrder(p=1))
        fit = model.fit(x)
        assert fit.sigma2 == pytest.approx(4.0, rel=0.1)


def recursion_forecast(model, horizon):
    """The fitted model's seed per-step forecast, on the original scale."""
    fit = model.fitted
    return integrate(
        model._forecast_recursion(horizon), fit.history, fit.order.d
    )


class TestCompanionArmaEquivalence:
    def test_scalar_matches_recursion_on_default_traces(self):
        """ArimaModel on the evaluation's traces: companion vs the kept
        per-step recursion, the acceptance tolerance (1e-10)."""
        dataset = default_dataset(n_vms=12, n_days=9, seed=31)
        for vm in range(6):
            for series in (
                dataset.cpu_pct[vm, : 7 * 288],
                dataset.mem_pct[vm, : 7 * 288],
            ):
                centered = series - series.mean()
                model = ArimaModel(ArimaOrder(p=2, d=0, q=1))
                model.fit(centered)
                np.testing.assert_allclose(
                    model.forecast(288),
                    recursion_forecast(model, 288),
                    atol=1.0e-10,
                )

    @pytest.mark.parametrize(
        "order",
        [
            ArimaOrder(1, 0, 0),
            ArimaOrder(0, 0, 2),
            ArimaOrder(3, 0, 2),
            ArimaOrder(2, 1, 1),
            ArimaOrder(0, 1, 1),
        ],
    )
    def test_scalar_order_edge_cases(self, order):
        rng = np.random.default_rng(5)
        for _ in range(5):
            y = np.cumsum(rng.normal(0.0, 1.0, 500)) * 0.05 + 20.0
            model = ArimaModel(order)
            model.fit(y)
            np.testing.assert_allclose(
                model.forecast(100),
                recursion_forecast(model, 100),
                atol=1.0e-10,
            )

    def test_batched_matches_recursion(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0.0, 1.0, size=(300, 2016))
        w *= rng.uniform(0.1, 5.0, size=(300, 1))
        fit = batched_arma_fit(w, ArimaOrder(2, 0, 1))
        np.testing.assert_allclose(
            batched_arma_forecast(fit, 288),
            _batched_arma_recursion(fit, 288),
            atol=1.0e-10,
        )

    def test_default_day_ahead_route(self, monkeypatch):
        """The whole DayAheadPredictor default scenario: forcing the
        recursion under the batched route changes nothing beyond
        1e-10."""
        dataset = default_dataset(n_vms=20, n_days=9, seed=13)
        companion = DayAheadPredictor(dataset).forecast_day(7)
        monkeypatch.setattr(
            batch_mod, "batched_arma_forecast", _batched_arma_recursion
        )
        recursion = DayAheadPredictor(dataset).forecast_day(7)
        for got, want in zip(companion, recursion):
            np.testing.assert_allclose(got, want, atol=1.0e-10)

    def test_nonfinite_rows_fall_back_to_recursion(self):
        """An explosive AR row overflows the power train; the companion
        route must hand exactly those rows to the recursion."""
        order = ArimaOrder(1, 0, 0)
        fit = BatchArmaFit(
            order=order,
            const=np.array([0.1, 0.0]),
            ar=np.array([[0.5], [12.0]]),  # 12**288 overflows
            ma=np.zeros((2, 0)),
            w_tail=np.array([[1.0], [1.0]]),
            e_tail=np.zeros((2, 1)),
            ok=np.ones(2, dtype=bool),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            companion = batched_arma_forecast(fit, 300)
            recursion = _batched_arma_recursion(fit, 300)
        # Healthy row: tight agreement; explosive row: identical
        # (it *is* the recursion's output, infs and all).
        np.testing.assert_allclose(
            companion[0], recursion[0], atol=1.0e-10
        )
        assert np.array_equal(companion[1], recursion[1])
