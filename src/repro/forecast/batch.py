"""Batched day-ahead forecasting: all VMs' models fitted in one shot.

The seed :class:`~repro.forecast.predictor.DayAheadPredictor` fits one
:class:`~repro.forecast.decomposed.DecomposedArimaForecaster` per
(VM, resource, day) — ``n_vms * 2`` Python-level Hannan-Rissanen fits per
simulated day.  Every one of those fits solves the same two small least-
squares problems on a same-length series, so the whole day batches into a
handful of NumPy calls:

1. the exponentially weighted seasonal profiles become one ``einsum``
   over the stacked ``(batch, n_seasons, period)`` season tensor;
2. both Hannan-Rissanen regressions (the long-AR stage and the ARMA
   stage) become *stacked* least squares whose normal equations are
   assembled **directly from lag correlations**: every Gram entry is a
   full-series autocorrelation (one reduction over the cache-resident
   ``(batch, n)`` matrix per lag distance) corrected by the handful of
   head/tail terms the regression window excludes, so no
   ``(batch, rows, columns)`` design tensor is ever materialized and no
   per-chunk Python loop runs; one batched LU then solves all series at
   once, and the stage-2 residuals are evaluated only at the ``q`` tail
   positions the forecast recursion actually reads;
3. the ARMA forecast recursion is evaluated through precomputed
   companion-matrix powers — a doubling scan of ``ceil(log2(horizon))``
   batched ``einsum`` contractions for all series at once — with the
   per-step vector recursion kept callable as the reference oracle
   (:func:`_batched_arma_recursion`) and used as the fallback for rows
   whose power train goes non-finite.

The scalar implementation remains the reference oracle: rows whose
batched solve is (near-)rank-deficient — flagged by the Gram-spectrum
test — or produces non-finite output are reported through the ``ok``
mask so the caller can re-fit them with the scalar path.  For
well-conditioned rows the refined normal-equation route matches the
scalar SVD-based ``lstsq`` route to ~1e-8 relative on the forecasts
(tolerances asserted in ``tests/test_fast_path_equivalence.py``).

Only ``d == 0`` models batch (the decomposed forecaster's remainder is
detrended by construction, so the day fit's model is ARMA(2, 1)); a
``d > 0`` order is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ForecastError
from .arima import ArimaOrder, _companion_forecast

# Relative Gram-spectrum threshold below which a stacked least-squares row
# is declared (near-)rank-deficient and routed to the scalar reference
# path.  1e-10 on the eigenvalue ratio bounds the design condition number
# by ~1e5, keeping the normal-equation solve at ~1e-8 accuracy.
_RANK_EPS = 1.0e-10


@dataclass(frozen=True)
class BatchArmaFit:
    """Fitted ARMA parameters for a batch of series.

    Attributes:
        order: shared model order (``d`` must be 0).
        const: intercepts, shape ``(batch,)``.
        ar: AR coefficients, shape ``(batch, p)``.
        ma: MA coefficients, shape ``(batch, q)``.
        w_tail: final ``max(p, 1)`` observations per series.
        e_tail: final ``max(q, 1)`` in-sample residuals per series.
        ok: rows whose batched estimation succeeded; failed rows carry
            zeros and must be re-fitted with the scalar path.
    """

    order: ArimaOrder
    const: np.ndarray
    ar: np.ndarray
    ma: np.ndarray
    w_tail: np.ndarray
    e_tail: np.ndarray
    ok: np.ndarray


def _lag_gram(
    w: np.ndarray,
    max_lag: int,
    t0: int,
    autocorr: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All lag inner products ``s[i, j] = sum_{t=t0}^{n-1} w[t-i] w[t-j]``.

    ``s`` covers ``i, j`` in ``0..max_lag`` (index 0 is the regression
    target, lag 0).  Each lag distance ``d = j - i`` needs one reduction
    over the full series — the whole-series autocorrelation ``A(d) =
    sum_{u=d}^{n-1} w[u] w[u-d]`` — from which the window's entry
    follows by subtracting the few head (``u < t0 - i``) and tail
    (``u >= n - i``) products the regression window excludes.  The
    ``(batch, n)`` source matrix stays cache-resident across the
    ``max_lag + 1`` passes, unlike a materialized design tensor.

    Requires ``max_lag <= t0`` (both regressions satisfy this: the long
    AR stage has ``t0 == max_lag`` and the ARMA stage
    ``t0 = max(p, q) >= p``).  ``autocorr`` optionally supplies the
    whole-series autocorrelations ``A(d)`` (shape ``(batch, >=
    max_lag+1)``) so both regression stages share one set of passes.
    """
    b, n = w.shape
    lags = max_lag
    s = np.empty((b, lags + 1, lags + 1))
    for d in range(lags + 1):
        total = (
            autocorr[:, d]
            if autocorr is not None
            else np.einsum("bi,bi->b", w[:, d:], w[:, : n - d])
        )
        if t0 > d:
            # hc[:, k] = sum of the first k+1 head products (u = d..d+k).
            hc = np.cumsum(w[:, d:t0] * w[:, : t0 - d], axis=1)
        if lags > 0:
            # tcs[:, k] = sum of tail products with u >= n - lags + k.
            tp = w[:, n - lags :] * w[:, n - lags - d : n - d]
            tcs = np.cumsum(tp[:, ::-1], axis=1)[:, ::-1]
        for i in range(0, lags + 1 - d):
            j = i + d
            val = total
            head_count = t0 - i - d
            if head_count > 0:
                val = val - hc[:, head_count - 1]
            if i > 0:
                val = val - tcs[:, lags - i]
            s[:, i, j] = val
            if i != j:
                s[:, j, i] = val
    return s


def _lag_sums(
    w: np.ndarray,
    max_lag: int,
    t0: int,
    cumsum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Column sums ``r[i] = sum_{t=t0}^{n-1} w[t-i]`` for ``i <= max_lag``."""
    b, n = w.shape
    cs = cumsum if cumsum is not None else np.cumsum(w, axis=1)
    out = np.empty((b, max_lag + 1))
    for i in range(max_lag + 1):
        hi = cs[:, n - 1 - i]
        out[:, i] = hi - cs[:, t0 - i - 1] if t0 - i > 0 else hi
    return out


def _ar_normal_equations(
    w: np.ndarray,
    lags: int,
    t0: int,
    autocorr: Optional[np.ndarray] = None,
    cumsum: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normal equations of ``w_t ~ [1, w_{t-1} .. w_{t-lags}]``, batched.

    Returns ``(gram, rhs)`` of shapes ``(batch, lags+1, lags+1)`` and
    ``(batch, lags+1)`` for the regression over ``t in [t0, n)``.
    """
    s = _lag_gram(w, lags, t0, autocorr=autocorr)
    r = _lag_sums(w, lags, t0, cumsum=cumsum)
    k = lags + 1
    gram = np.empty((w.shape[0], k, k))
    rhs = np.empty((w.shape[0], k))
    gram[:, 0, 0] = w.shape[1] - t0
    gram[:, 0, 1:] = r[:, 1:]
    gram[:, 1:, 0] = r[:, 1:]
    gram[:, 1:, 1:] = s[:, 1:, 1:]
    rhs[:, 0] = r[:, 0]
    rhs[:, 1:] = s[:, 1:, 0]
    return gram, rhs


def _solve_normal(
    gram: np.ndarray, rhs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve batched normal equations with the Gram-spectrum rank test.

    Rows whose smallest eigenvalue falls below ``_RANK_EPS`` of the
    largest (or whose solution is non-finite) come back with zero
    coefficients and ``ok == False`` — the caller re-fits them through
    the scalar reference path.
    """
    eigs = np.linalg.eigvalsh(gram)
    ok = eigs[:, 0] > _RANK_EPS * np.maximum(eigs[:, -1], 1.0)
    coef = np.zeros(rhs.shape)
    if ok.any():
        coef[ok] = np.linalg.solve(gram[ok], rhs[ok][..., None])[..., 0]
    ok = ok & np.isfinite(coef).all(axis=-1)
    return coef, ok


def _extend_with_innovations(
    gram: np.ndarray,
    rhs: np.ndarray,
    w: np.ndarray,
    residuals: np.ndarray,
    p: int,
    q: int,
    start: int,
    m: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Append the ``q`` innovation-lag columns to the ARMA stage.

    ``residuals`` holds the long-AR innovations, zero before position
    ``m``; every inner product therefore starts at the first position
    where its innovation factor is non-zero (the skipped products are
    exactly zero, so the sums are unchanged).
    """
    b, n = w.shape
    k = 1 + p + q
    full_gram = np.empty((b, k, k))
    full_rhs = np.empty((b, k))
    full_gram[:, : 1 + p, : 1 + p] = gram
    full_rhs[:, : 1 + p] = rhs
    for j in range(1, q + 1):
        col = p + j
        t1 = max(start, m + j)  # first t with e[t-j] != 0
        ej = residuals[:, t1 - j : n - j]
        # <1, e_j>
        total = ej.sum(axis=1)
        full_gram[:, 0, col] = total
        full_gram[:, col, 0] = total
        # <w_{t-i}, e_{t-j}> for the target (i=0) and the AR lags.
        for i in range(0, p + 1):
            dot = np.einsum("bt,bt->b", w[:, t1 - i : n - i], ej)
            if i == 0:
                full_rhs[:, col] = dot
            else:
                full_gram[:, i, col] = dot
                full_gram[:, col, i] = dot
        # <e_{t-i}, e_{t-j}> for i <= j: both factors are non-zero from
        # the same first position t1 (t - j >= m dominates for i <= j).
        for i in range(1, j + 1):
            dot = np.einsum(
                "bt,bt->b",
                residuals[:, t1 - i : n - i],
                residuals[:, t1 - j : n - j],
            )
            full_gram[:, p + i, col] = dot
            full_gram[:, col, p + i] = dot
    return full_gram, full_rhs


def batched_arma_fit(w: np.ndarray, order: ArimaOrder) -> BatchArmaFit:
    """Hannan-Rissanen estimation for a batch of series at once.

    Mirrors :meth:`repro.forecast.arima.ArimaModel.fit` (``d == 0``):
    constant series collapse to their constant; a long AR(m) supplies
    innovation estimates when ``q > 0``; the final OLS regresses each
    ``w_t`` on its own lags and the estimated innovations.

    Raises:
        ForecastError: on non-finite input, unsupported ``d`` or series
            too short for the requested order (all batch-wide conditions).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ForecastError("batched fit expects a (batch, n) matrix")
    if order.d != 0:
        raise ForecastError("batched fit supports d=0 only")
    if not np.all(np.isfinite(w)):
        raise ForecastError("series contains non-finite values")
    batch, n = w.shape
    p, q = order.p, order.q
    start = max(p, q)
    if n - start < p + q + 2:
        raise ForecastError(
            f"series too short ({n}) for ARMA({p},{q}) estimation"
        )
    if q > 0:
        m = max(10, 2 * (p + q))
        if n <= m + 2:
            raise ForecastError("series too short for the long-AR stage")

    # Degenerate (constant) rows: the model collapses to the constant.
    # Same rule as the scalar path's np.allclose check — |w - w0| <=
    # atol + rtol |w0| with numpy's default rtol=1e-5, atol=1e-8.  The
    # rounded difference fl(w_i - w0) is monotone in w_i, so its largest
    # magnitude lies at the row's max or min: testing those two gives
    # the elementwise verdict without a matrix-sized temporary.
    first = w[:, 0]
    tol = 1.0e-8 + 1.0e-5 * np.abs(first)
    constant = (np.abs(w.max(axis=1) - first) <= tol) & (
        np.abs(w.min(axis=1) - first) <= tol
    )

    const = np.where(constant, first, 0.0)
    ar = np.zeros((batch, p))
    ma = np.zeros((batch, q))
    e_tail = np.zeros((batch, max(q, 1)))
    ok = np.ones(batch, dtype=bool)

    active_rows = np.flatnonzero(~constant)
    if active_rows.size:
        wa = w if active_rows.size == batch else w[active_rows]
        ok_a = np.ones(active_rows.size, dtype=bool)
        residuals: Optional[np.ndarray] = None
        # Whole-series autocorrelations and prefix sums shared by both
        # regression stages.
        max_lag = max(m if q > 0 else 0, p)
        autocorr = np.empty((wa.shape[0], max_lag + 1))
        for d in range(max_lag + 1):
            autocorr[:, d] = np.einsum(
                "bi,bi->b", wa[:, d:], wa[:, : n - d]
            )
        cumsum = np.cumsum(wa, axis=1)
        if q > 0:
            # Long-AR stage: innovations estimated from an AR(m) fit.
            gram1, rhs1 = _ar_normal_equations(
                wa, m, m, autocorr=autocorr, cumsum=cumsum
            )
            coef1, ok1 = _solve_normal(gram1, rhs1)
            ok_a &= ok1
            # One einsum over a strided lag view: window t covers
            # wa[t .. t+m-1], so column m - l is lag l of target t + m.
            lag_view = sliding_window_view(wa, m, axis=1)[:, : n - m, :]
            fitted = np.einsum(
                "btk,bk->bt", lag_view, coef1[:, 1:][:, ::-1]
            )
            fitted += coef1[:, :1]
            residuals = np.empty_like(wa)
            residuals[:, :m] = 0.0
            np.subtract(wa[:, m:], fitted, out=residuals[:, m:])

        # ARMA stage: w_t ~ [1, w-lags, innovation-lags].
        gram2, rhs2 = _ar_normal_equations(
            wa, p, start, autocorr=autocorr, cumsum=cumsum
        )
        if q > 0:
            gram2, rhs2 = _extend_with_innovations(
                gram2, rhs2, wa, residuals, p, q, start, m
            )
        coef2, ok2 = _solve_normal(gram2, rhs2)
        ok_a &= ok2

        const[active_rows] = coef2[:, 0]
        if p > 0:
            ar[active_rows] = coef2[:, 1 : 1 + p]
        if q > 0:
            ma[active_rows] = coef2[:, 1 + p :]
            # The forecast recursion only reads the last q stage-2
            # residuals, so only those positions are evaluated.
            tail = np.empty((wa.shape[0], q))
            for k, t in enumerate(range(n - q, n)):
                value = wa[:, t] - coef2[:, 0]
                for lag in range(1, p + 1):
                    value = value - coef2[:, lag] * wa[:, t - lag]
                for lag in range(1, q + 1):
                    value = value - coef2[:, p + lag] * residuals[:, t - lag]
                tail[:, k] = value
            e_tail[active_rows] = tail
        ok[active_rows] = ok_a

    w_tail = w[:, -max(p, 1) :].copy()
    # Constant rows always succeed (no regression involved).
    ok |= constant
    return BatchArmaFit(
        order=order,
        const=const,
        ar=ar,
        ma=ma,
        w_tail=w_tail,
        e_tail=e_tail,
        ok=ok,
    )


def batched_arma_forecast(fit: BatchArmaFit, horizon: int) -> np.ndarray:
    """Mean forecasts for every series, shape ``(batch, horizon)``.

    The whole batch's forecasts are evaluated through precomputed
    companion-matrix powers
    (:func:`repro.forecast.arima._companion_forecast`): a doubling scan
    of ``ceil(log2(horizon))`` batched ``einsum`` contractions replaces
    the Python loop over the horizon.  Rows whose power train goes
    non-finite transparently fall back to
    :func:`_batched_arma_recursion`, the kept reference oracle.
    """
    if horizon < 1:
        raise ForecastError("forecast horizon must be >= 1")
    out = _companion_forecast(
        fit.const, fit.ar, fit.ma, fit.w_tail, fit.e_tail, horizon
    )
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        sub = BatchArmaFit(
            order=fit.order,
            const=fit.const[bad],
            ar=fit.ar[bad],
            ma=fit.ma[bad],
            w_tail=fit.w_tail[bad],
            e_tail=fit.e_tail[bad],
            ok=fit.ok[bad],
        )
        out[bad] = _batched_arma_recursion(sub, horizon)
    return out


def _batched_arma_recursion(fit: BatchArmaFit, horizon: int) -> np.ndarray:
    """The seed per-step forecast loop over the batch (the oracle).

    Matches the scalar :meth:`~repro.forecast.arima.ArimaModel.forecast`
    step for step (future innovations at their zero mean).
    """
    p, q = fit.order.p, fit.order.q
    batch = fit.const.shape[0]
    out = np.empty((batch, horizon))
    # w history: p seed values then the forecasts as they are produced.
    w_hist = np.empty((batch, p + horizon)) if p > 0 else None
    if w_hist is not None:
        w_hist[:, :p] = fit.w_tail[:, -p:]
    for step in range(horizon):
        value = fit.const.copy()
        for lag in range(1, p + 1):
            value += fit.ar[:, lag - 1] * w_hist[:, p + step - lag]
        for lag in range(1, q + 1):
            back = step - lag
            if back < 0:  # still inside the observed residual tail
                value += fit.ma[:, lag - 1] * fit.e_tail[:, q + back]
        out[:, step] = value
        if w_hist is not None:
            w_hist[:, p + step] = value
    return out


def batched_decomposed_forecast(
    series: np.ndarray,
    order: ArimaOrder,
    period: int,
    decay: float,
    horizon: int,
    season_types: Optional[np.ndarray] = None,
    target_type: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched mirror of :class:`DecomposedArimaForecaster` fit+forecast.

    Args:
        series: stacked training series, shape ``(batch, n)``.
        order: ARMA order for the remainder (``d`` must be 0).
        period: seasonal period in samples.
        decay: per-season profile weight decay.
        horizon: forecast length.
        season_types: optional per-season labels (shared by the batch,
            like the scalar path's per-day labels).
        target_type: label of the season being forecast; required with
            ``season_types``.

    Returns:
        ``(forecasts, ok)`` with forecasts ``(batch, horizon)``; rows with
        ``ok == False`` failed the batched estimation and must be
        re-fitted with the scalar reference path.

    Raises:
        ForecastError: on batch-wide problems (too few seasons, bad
            arguments) — the same conditions the scalar path raises for.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 2:
        raise ForecastError("batched forecast expects a (batch, n) matrix")
    if period < 1:
        raise ForecastError("period must be >= 1")
    if not (0.0 < decay <= 1.0):
        raise ForecastError("decay must be in (0, 1]")
    batch, n = y.shape
    n_seasons = n // period
    if n_seasons < 2:
        raise ForecastError(
            f"need at least 2 full seasons ({2 * period} samples), got {n}"
        )
    used = y[:, -n_seasons * period :]
    seasons = used.reshape(batch, n_seasons, period)

    def weighted(mask: Optional[np.ndarray]) -> np.ndarray:
        selected = seasons[:, mask] if mask is not None else seasons
        count = selected.shape[1]
        weights = decay ** np.arange(count - 1, -1, -1)
        weights = weights / weights.sum()
        return np.einsum("s,bsp->bp", weights, selected)

    if season_types is not None:
        types = np.asarray(list(season_types), dtype=int)
        if types.shape != (n_seasons,):
            raise ForecastError(
                f"need one season type per season ({n_seasons}), "
                f"got {types.shape}"
            )
        if target_type is None:
            raise ForecastError("target_type is required with season_types")
        profiles = {
            int(t): weighted(types == t) for t in np.unique(types)
        }
        profile = profiles.get(int(target_type))
        if profile is None:
            profile = weighted(None)
        # Each season minus its type's profile, written in place.
        remainder = np.empty(seasons.shape)
        for s, t in enumerate(types):
            np.subtract(seasons[:, s], profiles[int(t)], out=remainder[:, s])
        remainder = remainder.reshape(batch, -1)
    else:
        profile = weighted(None)
        remainder = (seasons - profile[:, None, :]).reshape(batch, -1)

    fit = batched_arma_fit(remainder, order)
    rem_fc = batched_arma_forecast(fit, horizon)

    reps = int(np.ceil(horizon / period))
    seasonal = np.tile(profile, (1, reps))[:, :horizon]
    forecasts = seasonal + rem_fc
    ok = fit.ok & np.isfinite(forecasts).all(axis=1)
    return forecasts, ok
