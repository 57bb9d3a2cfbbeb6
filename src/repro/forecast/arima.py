"""ARIMA(p, d, q) estimation and forecasting, from scratch.

The paper forecasts per-VM CPU/memory utilization with ARIMA (its Ref.
[24], Box & Jenkins).  statsmodels is unavailable offline, so this module
implements the subset needed: ARMA estimation by the two-stage
Hannan-Rissanen procedure with optional ordinary differencing.

Hannan-Rissanen in brief:

1. fit a long autoregression AR(m) by ordinary least squares and take its
   residuals as estimates of the innovations ``e_t``;
2. regress ``w_t`` on ``w_{t-1..p}`` and ``e_{t-1..q}`` by OLS to obtain
   the ARMA coefficients.

The procedure is consistent, fast (two linear solves) and robust enough
for the thousands of per-VM fits the data-center simulation performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ForecastError
from .differencing import difference, integrate


@dataclass(frozen=True)
class ArimaOrder:
    """Model order ``(p, d, q)``.

    Attributes:
        p: autoregressive order.
        d: ordinary differencing order.
        q: moving-average order.
    """

    p: int
    d: int = 0
    q: int = 0

    def __post_init__(self) -> None:
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ForecastError("ARIMA orders must be non-negative")
        if self.p == 0 and self.q == 0:
            raise ForecastError("need p > 0 or q > 0")


@dataclass(frozen=True)
class ArimaFit:
    """Fitted ARIMA parameters and the state needed for forecasting."""

    order: ArimaOrder
    const: float
    ar: np.ndarray
    ma: np.ndarray
    sigma2: float
    w_tail: np.ndarray
    e_tail: np.ndarray
    history: np.ndarray


def _lagged_design(
    w: np.ndarray, e: Optional[np.ndarray], p: int, q: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the OLS design for regressing w_t on its lags and e lags."""
    start = max(p, q)
    n = w.shape[0]
    if n - start < p + q + 2:
        raise ForecastError(
            f"series too short ({n}) for ARMA({p},{q}) estimation"
        )
    columns = [np.ones(n - start)]
    for lag in range(1, p + 1):
        columns.append(w[start - lag : n - lag])
    for lag in range(1, q + 1):
        assert e is not None
        columns.append(e[start - lag : n - lag])
    design = np.column_stack(columns)
    target = w[start:]
    return design, target


def _companion_system(
    const: np.ndarray,
    ar: np.ndarray,
    ma: np.ndarray,
    w_tail: np.ndarray,
    e_tail: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Companion matrix and initial state of the forecast recursion.

    The mean-forecast recursion (future innovations at zero) is a linear
    map of the state ``z_h = [w_{h-1}..w_{h-P}, e_{h-1}..e_{h-q}, 1]``
    with ``P = max(p, 1)``: ``z_{h+1} = A z_h`` where row 0 of ``A``
    holds ``[ar, ma, const]``, the shift rows move the ``w``/``e``
    histories down one lag, the fresh-innovation row is zero (its mean)
    and the last row keeps the constant 1.  The step-``h`` forecast is
    then ``(A^{h+1} z_0)[0]``.

    Args:
        const: intercepts, shape ``(batch,)``.
        ar: AR coefficients, shape ``(batch, p)``.
        ma: MA coefficients, shape ``(batch, q)``.
        w_tail: final ``max(p, 1)`` observations, newest last.
        e_tail: final ``max(q, 1)`` in-sample residuals, newest last.

    Returns:
        ``(A, z0)`` of shapes ``(batch, s, s)`` and ``(batch, s)`` with
        ``s = max(p, 1) + q + 1``.
    """
    batch, p = ar.shape
    q = ma.shape[1]
    big_p = max(p, 1)
    s = big_p + q + 1
    a = np.zeros((batch, s, s))
    a[:, 0, :p] = ar
    a[:, 0, big_p : big_p + q] = ma
    a[:, 0, s - 1] = const
    for i in range(1, big_p):
        a[:, i, i - 1] = 1.0
    # Row big_p is the fresh innovation e_h = 0 (left all-zero); the
    # remaining e rows shift the residual history down one lag.
    for j in range(1, q):
        a[:, big_p + j, big_p + j - 1] = 1.0
    a[:, s - 1, s - 1] = 1.0

    z0 = np.zeros((batch, s))
    z0[:, :big_p] = w_tail[:, ::-1][:, :big_p]
    if q > 0:
        z0[:, big_p : big_p + q] = e_tail[:, ::-1][:, :q]
    z0[:, s - 1] = 1.0
    return a, z0


def _companion_row_powers(a: np.ndarray, horizon: int) -> np.ndarray:
    """First rows of ``A^1 .. A^horizon``, shape ``(batch, horizon, s)``.

    Forecasts only read row 0 of every power (``out[h] = e1' A^{h+1}
    z0``), so the doubling scan propagates row *vectors* against
    repeated-squared matrices — ``rows(A^{k+1..k+m}) = rows(A^{1..m})
    A^k`` — in ``ceil(log2(horizon))`` batched matmuls instead of one
    matrix product (or one Python recursion step) per horizon step, and
    never materializes the full ``(batch, horizon, s, s)`` power train.
    """
    batch, s, _ = a.shape
    rows = np.empty((batch, horizon, s))
    rows[:, 0] = a[:, 0, :]
    sq = a  # A^k at the top of each iteration
    k = 1
    while k < horizon:
        m = min(k, horizon - k)
        rows[:, k : k + m] = rows[:, :m] @ sq
        k += m
        if k < horizon:
            sq = sq @ sq
    return rows


def _companion_forecast(
    const: np.ndarray,
    ar: np.ndarray,
    ma: np.ndarray,
    w_tail: np.ndarray,
    e_tail: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Mean forecasts via companion-matrix powers, shape ``(batch, h)``.

    Mathematically identical to the per-step recursion (it evaluates the
    same linear map through reassociated products), so results agree to
    floating-point rounding; callers fall back to the recursion for rows
    whose power train goes non-finite.
    """
    a, z0 = _companion_system(const, ar, ma, w_tail, e_tail)
    rows = _companion_row_powers(a, horizon)
    return (rows @ z0[:, :, None])[..., 0]


def _long_ar_residuals(w: np.ndarray, m: int) -> np.ndarray:
    """Residuals of a long AR(m) fit (stage 1 of Hannan-Rissanen)."""
    n = w.shape[0]
    if n <= m + 2:
        raise ForecastError("series too short for the long-AR stage")
    columns = [np.ones(n - m)]
    for lag in range(1, m + 1):
        columns.append(w[m - lag : n - lag])
    design = np.column_stack(columns)
    target = w[m:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = np.zeros(n)
    residuals[m:] = target - design @ coef
    return residuals


class ArimaModel:
    """ARIMA(p, d, q) model: fit once, forecast any horizon.

    Example:
        >>> model = ArimaModel(ArimaOrder(p=2, d=0, q=1))
        >>> fit = model.fit(series)
        >>> prediction = model.forecast(24)
    """

    def __init__(self, order: ArimaOrder):
        self._order = order
        self._fit: Optional[ArimaFit] = None

    @property
    def order(self) -> ArimaOrder:
        """The model order."""
        return self._order

    @property
    def fitted(self) -> ArimaFit:
        """The fit result.

        Raises:
            ForecastError: if :meth:`fit` has not been called.
        """
        if self._fit is None:
            raise ForecastError("model has not been fitted")
        return self._fit

    def fit(self, series: np.ndarray) -> ArimaFit:
        """Estimate parameters from a series via Hannan-Rissanen.

        Returns the fit (also stored on the model for forecasting).

        Raises:
            ForecastError: if the series is too short or degenerate.
        """
        y = np.asarray(series, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ForecastError("series contains non-finite values")
        order = self._order
        w = difference(y, order.d)
        if np.allclose(w, w[0] if w.size else 0.0):
            # Degenerate (constant) series: model collapses to the constant.
            fit = ArimaFit(
                order=order,
                const=float(w[0]) if w.size else 0.0,
                ar=np.zeros(order.p),
                ma=np.zeros(order.q),
                sigma2=0.0,
                w_tail=w[-max(order.p, 1):].copy(),
                e_tail=np.zeros(max(order.q, 1)),
                history=y.copy(),
            )
            self._fit = fit
            return fit

        residuals: Optional[np.ndarray] = None
        if order.q > 0:
            m = max(10, 2 * (order.p + order.q))
            residuals = _long_ar_residuals(w, m)

        design, target = _lagged_design(w, residuals, order.p, order.q)
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        const = float(coef[0])
        ar = np.asarray(coef[1 : 1 + order.p], dtype=float)
        ma = np.asarray(coef[1 + order.p :], dtype=float)

        fitted_values = design @ coef
        sigma2 = float(np.mean((target - fitted_values) ** 2))

        # Final in-sample residuals for the MA recursion's initial state.
        e_full = np.zeros(w.shape[0])
        start = max(order.p, order.q)
        e_full[start:] = target - fitted_values

        fit = ArimaFit(
            order=order,
            const=const,
            ar=ar,
            ma=ma,
            sigma2=sigma2,
            w_tail=w[-max(order.p, 1):].copy(),
            e_tail=e_full[-max(order.q, 1):].copy()
            if order.q > 0
            else np.zeros(1),
            history=y.copy(),
        )
        self._fit = fit
        return fit

    def forecast(self, horizon: int) -> np.ndarray:
        """Mean forecast for the next ``horizon`` steps (original scale).

        Future innovations are set to their mean (zero); differencing is
        inverted against the fit history.  The recursion is evaluated
        through precomputed companion-matrix powers — ``O(log horizon)``
        NumPy calls instead of a Python loop over the horizon — falling
        back to :meth:`_forecast_recursion`, the seed per-step loop kept
        as the reference oracle, if the power train goes non-finite.

        Raises:
            ForecastError: if not fitted or the horizon is not positive.
        """
        if horizon < 1:
            raise ForecastError("forecast horizon must be >= 1")
        fit = self.fitted
        out = _companion_forecast(
            np.array([fit.const]),
            fit.ar[None, :],
            fit.ma[None, :],
            fit.w_tail[None, :],
            fit.e_tail[None, :],
            horizon,
        )[0]
        if not np.all(np.isfinite(out)):
            out = self._forecast_recursion(horizon)
        return integrate(out, fit.history, fit.order.d)

    def _forecast_recursion(self, horizon: int) -> np.ndarray:
        """The seed per-step forecast loop (pre-integration oracle)."""
        fit = self.fitted
        p, q = fit.order.p, fit.order.q

        w_state = list(fit.w_tail[-p:]) if p > 0 else []
        e_state = list(fit.e_tail[-q:]) if q > 0 else []
        out = np.empty(horizon)
        for step in range(horizon):
            value = fit.const
            for lag in range(1, p + 1):
                value += fit.ar[lag - 1] * w_state[-lag]
            for lag in range(1, q + 1):
                value += fit.ma[lag - 1] * e_state[-lag]
            out[step] = value
            if p > 0:
                w_state.append(value)
            if q > 0:
                e_state.append(0.0)
        return out
