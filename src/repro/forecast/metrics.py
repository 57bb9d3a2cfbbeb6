"""Forecast accuracy metrics.

Small, dependency-free implementations of the two point-forecast error
measures the forecast-accuracy example prints, also used by tests that
assert ARIMA beats the seasonal-naive baseline on the synthetic traces.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def _validate(actual: np.ndarray, predicted: np.ndarray) -> None:
    if actual.shape != predicted.shape:
        raise DomainError(
            f"shape mismatch: actual {actual.shape} vs "
            f"predicted {predicted.shape}"
        )
    if actual.size == 0:
        raise DomainError("empty arrays")


def mae(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute error."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    _validate(a, p)
    return float(np.mean(np.abs(a - p)))


def rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared error."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    _validate(a, p)
    return float(np.sqrt(np.mean((a - p) ** 2)))
