"""Forecasting substrate: from-scratch ARIMA and day-ahead prediction.

Implements the paper's Section V-B prediction step with one model: per
VM and resource, a seasonal profile plus an ARMA(2, 1) remainder
(:class:`DecomposedArimaForecaster`), fitted on the trailing week and
forecasting the next day's CPU and memory utilization.  Repeating the
last day (:class:`SeasonalNaiveForecaster`) is the fit's fallback and
the accuracy baseline.
"""

from .arima import ArimaFit, ArimaModel, ArimaOrder
from .batch import (
    BatchArmaFit,
    batched_arma_fit,
    batched_arma_forecast,
    batched_decomposed_forecast,
)
from .decomposed import DecomposedArimaForecaster
from .differencing import difference, integrate
from .metrics import mae, rmse
from .predictor import (
    DayAheadPredictor,
    PerfectPredictor,
    PrecomputedPredictor,
)
from .seasonal import SeasonalNaiveForecaster

__all__ = [
    "ArimaFit",
    "ArimaModel",
    "ArimaOrder",
    "BatchArmaFit",
    "batched_arma_fit",
    "batched_arma_forecast",
    "batched_decomposed_forecast",
    "DayAheadPredictor",
    "DecomposedArimaForecaster",
    "PerfectPredictor",
    "PrecomputedPredictor",
    "SeasonalNaiveForecaster",
    "difference",
    "integrate",
    "mae",
    "rmse",
]
