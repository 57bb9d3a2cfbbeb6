"""The seasonal-naive forecaster: repeat the last observed season.

The utilization traces have a strong daily period (288 five-minute
samples).  :class:`SeasonalNaiveForecaster` simply repeats the last
observed day and serves both as the day fit's fallback (degenerate
fits) and as the accuracy baseline ARIMA must beat.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ForecastError
from ..units import SAMPLES_PER_DAY


class SeasonalNaiveForecaster:
    """Forecasts by repeating the most recent full season."""

    def __init__(self, period: int = SAMPLES_PER_DAY):
        if period < 1:
            raise ForecastError("period must be >= 1")
        self._period = period
        self._history: Optional[np.ndarray] = None

    @property
    def period(self) -> int:
        """Seasonal period in samples."""
        return self._period

    def fit(self, series: np.ndarray) -> "SeasonalNaiveForecaster":
        """Store the series; requires at least one full season."""
        y = np.asarray(series, dtype=float)
        if y.shape[0] < self._period:
            raise ForecastError(
                f"need at least one full period ({self._period} samples)"
            )
        self._history = y.copy()
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Repeat the last observed season over the horizon."""
        if self._history is None:
            raise ForecastError("forecaster has not been fitted")
        if horizon < 1:
            raise ForecastError("forecast horizon must be >= 1")
        last_season = self._history[-self._period:]
        reps = int(np.ceil(horizon / self._period))
        return np.tile(last_season, reps)[:horizon]
