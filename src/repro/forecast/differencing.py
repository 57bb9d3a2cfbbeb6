"""Ordinary differencing with exact inversion.

ARIMA handles trends by differencing the series ``d`` times.  Forecasts
are produced on the differenced scale and must be *integrated* back; the
inversion helper here is exact (it reconstructs the original series when
fed its own differences).
"""

from __future__ import annotations

import numpy as np

from ..errors import ForecastError


def difference(series: np.ndarray, d: int = 1) -> np.ndarray:
    """Apply ``d`` rounds of first differencing.

    Raises:
        ForecastError: if the series is too short to difference.
    """
    if d < 0:
        raise ForecastError("differencing order must be >= 0")
    out = np.asarray(series, dtype=float)
    for _ in range(d):
        if out.shape[0] < 2:
            raise ForecastError("series too short to difference")
        out = np.diff(out)
    return out


def integrate(
    forecasts: np.ndarray, history: np.ndarray, d: int = 1
) -> np.ndarray:
    """Invert ``d`` rounds of first differencing for a forecast block.

    Args:
        forecasts: forecasts on the ``d``-times-differenced scale.
        history: the *original* (undifferenced) series the model was fit
            on; its tail supplies the integration constants.
        d: differencing order used at fit time.

    Returns:
        Forecasts on the original scale.
    """
    if d < 0:
        raise ForecastError("differencing order must be >= 0")
    if d == 0:
        return np.asarray(forecasts, dtype=float).copy()
    hist = np.asarray(history, dtype=float)
    if hist.shape[0] < d:
        raise ForecastError("history too short to integrate forecasts")
    # Tails of each differencing level: level 0 is the original series.
    tails = [hist]
    for _ in range(d - 1):
        tails.append(np.diff(tails[-1]))
    out = np.asarray(forecasts, dtype=float).copy()
    for level in reversed(range(d)):
        out = np.cumsum(out) + tails[level][-1]
    return out
