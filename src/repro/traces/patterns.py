"""Temporal pattern primitives for the synthetic cluster traces.

The Google Cluster traces the paper uses exhibit three properties the
policies depend on:

* **daily periodicity** — the justification for ARIMA day-ahead forecasts;
* **CPU-load correlation across VMs** — groups of VMs (tiers of the same
  service) peak together, which is what correlation-aware allocation
  exploits;
* **abrupt changes** — occasional bursts/level shifts that defeat the
  predictor and cause the SLA violations of Fig. 4.

This module provides the corresponding signal primitives; the generator
composes them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import SAMPLES_PER_DAY


def diurnal_profile(
    n_samples: int,
    peak_sample: float,
    sharpness: float = 2.0,
    samples_per_day: int = SAMPLES_PER_DAY,
) -> np.ndarray:
    """Smooth daily profile in ``[0, 1]`` peaking at ``peak_sample``.

    A raised-cosine shaped as ``((1 + cos(phase)) / 2) ** sharpness``:
    higher ``sharpness`` gives narrower business-hours-style peaks.

    Args:
        n_samples: length of the output.
        peak_sample: sample-of-day (0..samples_per_day) of the daily peak.
        sharpness: peak narrowness exponent (>= 0).
        samples_per_day: samples per 24 h period.
    """
    if n_samples < 0:
        raise ConfigurationError("n_samples must be non-negative")
    if sharpness < 0.0:
        raise ConfigurationError("sharpness must be non-negative")
    t = np.arange(n_samples)
    phase = 2.0 * np.pi * (t - peak_sample) / samples_per_day
    return ((1.0 + np.cos(phase)) / 2.0) ** sharpness


def weekly_modulation(
    n_samples: int,
    weekend_factor: float = 0.6,
    samples_per_day: int = SAMPLES_PER_DAY,
    week_start_day: int = 0,
) -> np.ndarray:
    """Multiplicative weekday/weekend envelope.

    Days 5 and 6 of each week (counting from ``week_start_day``) are scaled
    by ``weekend_factor`` — banking batch load drops on weekends.
    """
    if not (0.0 < weekend_factor <= 1.0):
        raise ConfigurationError("weekend factor must be in (0, 1]")
    t = np.arange(n_samples)
    day = (t // samples_per_day + week_start_day) % 7
    envelope = np.ones(n_samples)
    envelope[day >= 5] = weekend_factor
    return envelope


def ar1_noise(
    n_samples: int,
    rng: np.random.Generator,
    sigma: float,
    phi: float = 0.85,
) -> np.ndarray:
    """Zero-mean AR(1) noise with stationary standard deviation ``sigma``.

    ``x_t = phi * x_{t-1} + eps_t``; the innovation variance is chosen so
    the stationary process has the requested ``sigma``.  The generator
    draws its series with the same helper and filters them all with the
    same recursion, so its rows equal this function's output.
    """
    if sigma < 0.0:
        raise ConfigurationError("sigma must be non-negative")
    if not (-1.0 < phi < 1.0):
        raise ConfigurationError("phi must be in (-1, 1) for stationarity")
    if n_samples == 0:
        return np.zeros(0)
    noise = np.empty((1, n_samples))
    _ar1_innovations(noise[0], rng, sigma, phi)
    _ar1_filter(noise, phi)
    return noise[0]


def _ar1_innovations(
    out: np.ndarray, rng: np.random.Generator, sigma: float, phi: float
) -> None:
    """Draw one series' AR(1) innovations into ``out`` (length >= 1).

    The first entry is drawn from the stationary distribution, so the
    filtered series starts in steady state.
    """
    out[:] = rng.normal(0.0, sigma * np.sqrt(1.0 - phi * phi), size=out.size)
    out[0] = rng.normal(0.0, sigma)


def _ar1_filter(series: np.ndarray, phi: float) -> None:
    """Filter the rows of ``series`` in place: ``y_t = x_t + phi y_{t-1}``.

    Each step is one float64 multiply and one add, exactly what
    ``scipy.signal.lfilter([1.0], [1.0, -phi], row)`` computes, so the
    output is bit-identical to it.  Many rows step through time
    together, two NumPy calls per step; a single row steps through
    Python floats (the same IEEE operations, far fewer calls).
    """
    phi = float(phi)
    if series.shape[0] == 1:
        row = series[0].tolist()
        for t in range(1, len(row)):
            row[t] += phi * row[t - 1]
        series[0] = row
        return
    step = np.empty(series.shape[0])
    columns = series.T  # columns[t]: every row's sample t
    for t in range(1, len(columns)):
        np.multiply(columns[t - 1], phi, out=step)
        columns[t] += step


def burst_events(
    n_samples: int,
    rng: np.random.Generator,
    rate_per_day: float,
    min_duration: int = 6,
    max_duration: int = 36,
    samples_per_day: int = SAMPLES_PER_DAY,
) -> np.ndarray:
    """Additive burst mask in ``[0, 1]``: abrupt, unpredictable surges.

    Burst starts arrive as a Poisson process with ``rate_per_day`` events
    per day; each burst holds a random plateau (0.5-1.0 of full amplitude)
    for a random duration of 0.5-3 hours.  These are the "abrupt workload
    changes" that cause the mispredictions behind the paper's Fig. 4.
    """
    if rate_per_day < 0.0:
        raise ConfigurationError("rate must be non-negative")
    if not (1 <= min_duration <= max_duration):
        raise ConfigurationError("need 1 <= min_duration <= max_duration")
    mask = np.zeros(n_samples)
    for start, end, amplitude in _burst_draws(
        n_samples, rng, rate_per_day, min_duration, max_duration,
        samples_per_day,
    ):
        mask[start:end] = np.maximum(mask[start:end], amplitude)
    return mask


def _burst_draws(
    n_samples: int,
    rng: np.random.Generator,
    rate_per_day: float,
    min_duration: int = 6,
    max_duration: int = 36,
    samples_per_day: int = SAMPLES_PER_DAY,
) -> List[Tuple[int, int, float]]:
    """The ``(start, end, amplitude)`` events :func:`burst_events`
    renders, drawn in its order (arguments validated there)."""
    if n_samples == 0 or rate_per_day == 0.0:
        return []
    n_days = n_samples / samples_per_day
    n_events = rng.poisson(rate_per_day * n_days)
    events = []
    for _ in range(n_events):
        start = int(rng.integers(0, n_samples))
        duration = int(rng.integers(min_duration, max_duration + 1))
        amplitude = rng.uniform(0.5, 1.0)
        events.append((start, min(n_samples, start + duration), amplitude))
    return events
