"""Decomposition-based ARIMA forecaster (seasonal profile + ARMA remainder).

Pure seasonal differencing (the classic SARIMA route) repeats *yesterday's
noise* along with yesterday's signal, so for day-ahead horizons it cannot
beat the seasonal-naive baseline on noisy series.  The standard practical
remedy — and what this module implements — is decomposition:

1. estimate the **seasonal profile** as an exponentially weighted average
   of the same time-of-day across the training days (recent days weigh
   more, so slow drift is tracked while sample noise averages out);
2. model the **remainder** (series minus profile) with the ARMA machinery
   of :mod:`repro.forecast.arima`;
3. forecast = profile + ARMA forecast of the remainder (which decays to
   zero within a few samples, as it should for short-memory noise).

This is the day-ahead model of the data-center evaluation
(:class:`~repro.forecast.predictor.DayAheadFitter` fits it per VM);
tests assert it beats seasonal-naive on the synthetic traces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ForecastError
from ..units import SAMPLES_PER_DAY
from .arima import ArimaModel, ArimaOrder


class DecomposedArimaForecaster:
    """Exponentially weighted seasonal profile + ARMA on the remainder.

    Args:
        order: ARMA order for the remainder (d should be 0: the remainder
            is detrended by construction).
        period: seasonal period in samples (288 = one day).
        decay: per-season weight decay for the profile; ``0.6`` means the
            most recent day carries weight 1, the day before 0.6, etc.
    """

    def __init__(
        self,
        order: ArimaOrder | None = None,
        period: int = SAMPLES_PER_DAY,
        decay: float = 0.6,
    ):
        if period < 1:
            raise ForecastError("period must be >= 1")
        if not (0.0 < decay <= 1.0):
            raise ForecastError("decay must be in (0, 1]")
        self._order = order if order is not None else ArimaOrder(p=2, d=0, q=1)
        self._period = period
        self._decay = decay
        self._profile: Optional[np.ndarray] = None
        self._model: Optional[ArimaModel] = None
        self._remainder_tail_known = False

    @property
    def period(self) -> int:
        """Seasonal period in samples."""
        return self._period

    @property
    def order(self) -> ArimaOrder:
        """ARMA order used for the remainder model."""
        return self._order

    @property
    def decay(self) -> float:
        """Per-season profile weight decay."""
        return self._decay

    @property
    def profile(self) -> np.ndarray:
        """The fitted seasonal profile (length ``period``).

        Raises:
            ForecastError: if not fitted.
        """
        if self._profile is None:
            raise ForecastError("forecaster has not been fitted")
        return self._profile

    def fit(
        self,
        series: np.ndarray,
        season_types: Optional[np.ndarray] = None,
        target_type: Optional[int] = None,
    ) -> "DecomposedArimaForecaster":
        """Fit profile and remainder model on >= 2 full seasons.

        Args:
            series: the training series (a whole number of seasons is
                used; a partial leading season is dropped).
            season_types: optional integer label per season in the used
                window (e.g. 0 = weekday, 1 = weekend).  When given, the
                forecast profile is built only from seasons matching
                ``target_type`` (falling back to all seasons if none
                match), and each season's remainder is computed against
                its own type's profile.
            target_type: the label of the season to be forecast; required
                when ``season_types`` is given.
        """
        y = np.asarray(series, dtype=float)
        n_seasons = y.shape[0] // self._period
        if n_seasons < 2:
            raise ForecastError(
                f"need at least 2 full seasons ({2 * self._period} samples),"
                f" got {y.shape[0]}"
            )
        used = y[-n_seasons * self._period :]
        seasons = used.reshape(n_seasons, self._period)

        if season_types is not None:
            types = np.asarray(list(season_types), dtype=int)
            if types.shape != (n_seasons,):
                raise ForecastError(
                    f"need one season type per season "
                    f"({n_seasons}), got {types.shape}"
                )
            if target_type is None:
                raise ForecastError(
                    "target_type is required with season_types"
                )
            profiles = {
                t: self._weighted_profile(seasons, types == t)
                for t in np.unique(types)
            }
            self._profile = profiles.get(
                int(target_type), self._weighted_profile(seasons, None)
            )
            season_profiles = np.stack(
                [profiles[int(t)] for t in types]
            )
        else:
            self._profile = self._weighted_profile(seasons, None)
            season_profiles = np.tile(self._profile, (n_seasons, 1))

        remainder = (seasons - season_profiles).reshape(-1)
        model = ArimaModel(self._order)
        model.fit(remainder)
        self._model = model
        return self

    def _weighted_profile(
        self, seasons: np.ndarray, mask: Optional[np.ndarray]
    ) -> np.ndarray:
        """Exponentially weighted season average (most recent heaviest)."""
        if mask is not None and mask.any():
            selected = seasons[mask]
        else:
            selected = seasons
        n = selected.shape[0]
        weights = self._decay ** np.arange(n - 1, -1, -1)
        weights = weights / weights.sum()
        return weights @ selected

    def forecast(self, horizon: int) -> np.ndarray:
        """Profile plus decaying ARMA remainder forecast."""
        if self._profile is None or self._model is None:
            raise ForecastError("forecaster has not been fitted")
        if horizon < 1:
            raise ForecastError("forecast horizon must be >= 1")
        reps = int(np.ceil(horizon / self._period))
        seasonal = np.tile(self._profile, reps)[:horizon]
        remainder = self._model.forecast(horizon)
        return seasonal + remainder
