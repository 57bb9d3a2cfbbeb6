"""Shared fixtures for the benchmark harness.

Benchmarks regenerate each paper table/figure (printing the rows/series
the paper reports when run with ``-s``) while pytest-benchmark times the
regeneration.  Heavy data-center simulations run at a reduced but
shape-preserving scale; the paper-scale run is ``repro-experiments
--full``.
"""

from __future__ import annotations

import pytest

from repro.forecast import DayAheadPredictor
from repro.perf import PerformanceSimulator
from repro.power import ntc_server_power_model
from repro.traces import default_dataset


@pytest.fixture(scope="session")
def bench_dataset():
    """Reduced-scale evaluation traces shared by the DC benchmarks."""
    return default_dataset(n_vms=120, n_days=9, seed=2018)


@pytest.fixture(scope="session")
def bench_predictor(bench_dataset):
    """Day-ahead predictor with forecasts pre-warmed for the eval window."""
    predictor = DayAheadPredictor(bench_dataset)
    for day in range(7, bench_dataset.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="session")
def bench_perf():
    """Calibrated performance simulator."""
    return PerformanceSimulator()


@pytest.fixture(scope="session")
def bench_power():
    """NTC server power model."""
    return ntc_server_power_model()
