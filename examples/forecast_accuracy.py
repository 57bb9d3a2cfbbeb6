#!/usr/bin/env python3
"""Forecast accuracy: day-ahead ARIMA vs. the seasonal-naive baseline.

The paper's policies stand on per-VM day-ahead utilization forecasts
(Section V-B).  This example quantifies the predictor on the synthetic
traces: per-day RMSE/MAE of the default decomposition-based ARIMA versus
simply repeating yesterday, plus where the remaining error lives (the
abrupt bursts that cause Fig. 4's violations).

Run with:  python examples/forecast_accuracy.py
"""

import numpy as np

from repro.forecast import (
    DayAheadPredictor,
    SeasonalNaiveForecaster,
    mae,
    rmse,
)
from repro.traces import default_dataset
from repro.units import SAMPLES_PER_DAY


def main() -> None:
    dataset = default_dataset(n_vms=120, n_days=11, seed=9)
    predictor = DayAheadPredictor(dataset)

    print("day-ahead CPU forecast accuracy (percent utilization):")
    print(f"{'day':>4} {'ARIMA rmse':>11} {'naive rmse':>11} "
          f"{'ARIMA mae':>10} {'naive mae':>10}")
    for day in range(predictor.first_predictable_day, dataset.n_days):
        actual, _ = dataset.day_slice(day)
        predicted, _ = predictor.forecast_day(day)
        naive = np.empty_like(predicted)
        lo = (day - predictor.history_days) * SAMPLES_PER_DAY
        hi = day * SAMPLES_PER_DAY
        for vm in range(dataset.n_vms):
            series = dataset.cpu_pct[vm, lo:hi]
            naive[vm] = (
                SeasonalNaiveForecaster()
                .fit(series)
                .forecast(SAMPLES_PER_DAY)
            )
        print(
            f"{day:>4} {rmse(actual, predicted):>11.3f} "
            f"{rmse(actual, naive):>11.3f} "
            f"{mae(actual, predicted):>10.3f} {mae(actual, naive):>10.3f}"
        )

    # Where does the remaining error live?  Mostly in the burst samples.
    day = dataset.n_days - 1
    actual, _ = dataset.day_slice(day)
    predicted, _ = predictor.forecast_day(day)
    error = actual - predicted
    surges = error > 3.0 * error.std()
    print(
        f"\nsamples with >3-sigma under-prediction: {surges.sum()} of "
        f"{error.size} — the abrupt bursts behind the paper's Fig. 4 "
        "violations"
    )
    print(f"fallbacks to seasonal-naive: {predictor.fallback_count}")


if __name__ == "__main__":
    main()
