"""Day-ahead per-VM utilization prediction (paper Section V-B).

EPACT "requires predicting, at the beginning of T, the per-VM CPU and
memory utilization patterns"; the paper fits ARIMA on the previous week
and forecasts the next day for every VM, refreshed daily.  All policies
consume the *same* predictions, so forecast quality is a shared input, not
a policy differentiator — exactly the paper's setup.

:class:`DayAheadPredictor` implements this protocol over a
:class:`~repro.traces.dataset.TraceDataset`, through the dataset-free
fit of :class:`DayAheadFitter` (which the streaming engine's fallback
ladder also calls, on gap-filled observations); :class:`PerfectPredictor`
is the oracle variant used in ablations and tests.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import DomainError, ForecastError
from ..traces.dataset import TraceDataset
from ..units import SAMPLES_PER_DAY, SAMPLES_PER_SLOT, SLOTS_PER_DAY
from .arima import ArimaOrder
from .batch import batched_decomposed_forecast
from .decomposed import DecomposedArimaForecaster
from .seasonal import SeasonalNaiveForecaster

#: The day fit's one model, read by the batched and the scalar route:
#: a one-day seasonal profile plus ARMA(2, 1) on the remainder (see
#: :mod:`repro.forecast.decomposed` for why decomposition beats plain
#: seasonal differencing at day-ahead horizons).  Its forecasts are
#: clipped to [0, 100], the range of a utilization percentage.
_MODEL = {
    "order": ArimaOrder(p=2, d=0, q=1),
    "period": SAMPLES_PER_DAY,
    "decay": 0.6,
}

#: Series per :func:`batched_decomposed_forecast` call in the batched
#: day fit: small enough that its ~25 full-array passes stay in cache.
_FIT_BLOCK_ROWS = 128


class DayAheadFitter:
    """Per-VM day-ahead fits from given history matrices.

    The fit configuration on its own, over no dataset: given the
    ``history_days`` days before a forecast day as ``(n_vms, history)``
    CPU and memory matrices, :meth:`fit_day` fits every VM's models and
    forecasts the day.  :class:`DayAheadPredictor` feeds it windows of
    a trace dataset; the streaming engine's fallback ladder feeds it
    gap-filled observations.

    Args:
        history_days: trailing window the models are fitted on (the paper
            uses the previous week).

    All VMs' models are fitted per day through the stacked
    least-squares path of :mod:`repro.forecast.batch`: a handful of
    NumPy calls instead of ``n_vms * 2`` Python-level fits.  Rows the
    batched solver flags as rank-deficient (or non-finite) are re-fitted
    through the scalar route, :meth:`_forecast_series`, so forecasts
    match the scalar route to ~1e-8 relative.
    """

    def __init__(self, history_days: int = 7):
        if history_days < 2:
            raise DomainError("history_days must be >= 2 (seasonal fit)")
        self._history_days = history_days
        self._fallback_count = 0

    # -- properties -----------------------------------------------------------

    @property
    def history_days(self) -> int:
        """Trailing training-window length in days."""
        return self._history_days

    @property
    def fallback_count(self) -> int:
        """Number of per-series fits that fell back to seasonal-naive."""
        return self._fallback_count

    # -- fitting --------------------------------------------------------------

    def fit_day(
        self, day_index: int, cpu: np.ndarray, mem: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted CPU/memory for a day, shape ``(n_vms, 288)`` each.

        ``cpu`` and ``mem`` are the ``(n_vms, history_days * 288)``
        samples of the ``history_days`` days before ``day_index``.  The
        forecasts are not cached.

        Raises:
            DomainError: if the day lacks a full training window.
        """
        if day_index < self._history_days:
            raise DomainError(
                f"day {day_index} has no full {self._history_days}-day "
                f"training window"
            )
        # Day-type labels (weekday = 0 / weekend = 1) so the seasonal
        # profile is built from comparable days only.
        window_days = range(day_index - self._history_days, day_index)
        season_types = np.array(
            [1 if day % 7 >= 5 else 0 for day in window_days], dtype=int
        )
        target_type = 1 if day_index % 7 >= 5 else 0
        cpu_pred, mem_pred = self._fit_batch(
            (cpu, mem), season_types, target_type
        )
        np.clip(cpu_pred, 0.0, 100.0, out=cpu_pred)
        np.clip(mem_pred, 0.0, 100.0, out=mem_pred)
        return cpu_pred, mem_pred

    # -- internals --------------------------------------------------------

    def _fit_batch(
        self,
        windows: Tuple[np.ndarray, np.ndarray],
        season_types: np.ndarray,
        target_type: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked fits for all VMs x both resources of a day.

        Each resource matrix is fitted in blocks of ``_FIT_BLOCK_ROWS``
        series, so the batched estimator's full-array passes stay in
        cache; every step of the batched fit is per row, so the blocks
        give the bits one whole-stack call would.  Rows the batched
        estimator rejects are re-fitted through the scalar reference
        path (which itself falls back to seasonal-naive on failure, as
        in the scalar route).
        """
        n_vms = windows[0].shape[0]
        forecasts = np.empty((2, n_vms, SAMPLES_PER_DAY))
        ok = np.zeros((2, n_vms), dtype=bool)
        try:
            for window, out, out_ok in zip(windows, forecasts, ok):
                for start in range(0, n_vms, _FIT_BLOCK_ROWS):
                    stop = start + _FIT_BLOCK_ROWS
                    out[start:stop], out_ok[start:stop] = (
                        batched_decomposed_forecast(
                            window[start:stop],
                            **_MODEL,
                            horizon=SAMPLES_PER_DAY,
                            season_types=season_types,
                            target_type=target_type,
                        )
                    )
        except ForecastError:
            # Batch-wide failure (e.g. too-short window, or a non-finite
            # series in any block): the scalar path raises per series
            # and falls back to seasonal-naive.
            ok[:] = False
        for resource, row in zip(*np.nonzero(~ok)):
            forecasts[resource, row] = self._forecast_series(
                windows[resource][row], season_types, target_type
            )
        return forecasts[0], forecasts[1]

    def _forecast_series(
        self,
        series: np.ndarray,
        season_types: np.ndarray,
        target_type: int,
    ) -> np.ndarray:
        try:
            model = DecomposedArimaForecaster(**_MODEL)
            model.fit(
                series, season_types=season_types, target_type=target_type
            )
            prediction = model.forecast(SAMPLES_PER_DAY)
            if not np.all(np.isfinite(prediction)):
                raise ForecastError("non-finite forecast")
            return prediction
        except ForecastError:
            self._fallback_count += 1
            fallback = SeasonalNaiveForecaster(period=SAMPLES_PER_DAY)
            fallback.fit(series)
            return fallback.forecast(SAMPLES_PER_DAY)


class DayAheadPredictor(DayAheadFitter):
    """Per-VM day-ahead forecasts over a trace dataset.

    A :class:`DayAheadFitter` fed the dataset's windows: each forecast
    day is fitted on the ``history_days`` days before it and cached.

    Args:
        dataset: the utilization traces.
        history_days: the fit window, as in :class:`DayAheadFitter`.
    """

    def __init__(self, dataset: TraceDataset, history_days: int = 7):
        super().__init__(history_days)
        self._dataset = dataset
        self._cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def first_predictable_day(self) -> int:
        """First day index with a full training window behind it."""
        return self._history_days

    # -- forecasting ----------------------------------------------------------

    def forecast_day(self, day_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted CPU/memory for a day, shape ``(n_vms, 288)`` each.

        Models are fitted on the ``history_days`` days before
        ``day_index`` (:meth:`fit_day` on the dataset's window); results
        are cached.

        Raises:
            DomainError: if the day lacks a full training window or is
                outside the dataset.
        """
        if day_index in self._cache:
            return self._cache[day_index]
        if day_index >= self._dataset.n_days:
            raise DomainError(f"day {day_index} outside the dataset")
        lo = (day_index - self._history_days) * SAMPLES_PER_DAY
        hi = day_index * SAMPLES_PER_DAY
        self._cache[day_index] = self.fit_day(
            day_index,
            self._dataset.cpu_pct[:, lo:hi],
            self._dataset.mem_pct[:, lo:hi],
        )
        return self._cache[day_index]

    def predicted_slot(
        self, slot_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted CPU/memory for one 1-hour slot, ``(n_vms, 12)`` each."""
        day_index = slot_index // SLOTS_PER_DAY
        cpu_day, mem_day = self.forecast_day(day_index)
        offset = (slot_index % SLOTS_PER_DAY) * SAMPLES_PER_SLOT
        return (
            cpu_day[:, offset : offset + SAMPLES_PER_SLOT],
            mem_day[:, offset : offset + SAMPLES_PER_SLOT],
        )


class PrecomputedPredictor:
    """Day-ahead predictions frozen into plain per-day arrays.

    Wraps the ``{day: (cpu, mem)}`` forecasts another predictor already
    computed.  Being nothing but arrays, it pickles cheaply — this is how
    :func:`repro.dcsim.engine.run_policies` ships the shared day-ahead
    predictions to its worker processes instead of re-fitting (or
    serializing) the full ARIMA predictor per policy.

    Args:
        days: mapping from day index to ``(cpu, mem)`` forecast arrays of
            shape ``(n_vms, 288)`` each.
        first_predictable_day: the wrapped predictor's first predictable
            day (kept so simulations derive the same start slot).
    """

    def __init__(
        self,
        days: Dict[int, Tuple[np.ndarray, np.ndarray]],
        first_predictable_day: int,
    ):
        if first_predictable_day < 0:
            raise DomainError("first_predictable_day must be >= 0")
        self._days = dict(days)
        self._first = first_predictable_day

    @classmethod
    def from_predictor(
        cls, predictor, days: "range | Sequence[int]"
    ) -> "PrecomputedPredictor":
        """Materialize ``predictor``'s forecasts for the given days."""
        return cls(
            {int(day): predictor.forecast_day(int(day)) for day in days},
            predictor.first_predictable_day,
        )

    @property
    def first_predictable_day(self) -> int:
        """First day index the wrapped predictor could predict."""
        return self._first

    @property
    def fallback_count(self) -> int:
        """Frozen forecasts carry no fitting, hence no fallbacks."""
        return 0

    def forecast_day(self, day_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The precomputed forecasts of one day.

        Raises:
            DomainError: if the day was not precomputed.
        """
        try:
            return self._days[day_index]
        except KeyError:
            raise DomainError(
                f"day {day_index} was not precomputed"
            ) from None

    def predicted_slot(
        self, slot_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted CPU/memory for one 1-hour slot, ``(n_vms, 12)`` each."""
        cpu_day, mem_day = self.forecast_day(slot_index // SLOTS_PER_DAY)
        offset = (slot_index % SLOTS_PER_DAY) * SAMPLES_PER_SLOT
        return (
            cpu_day[:, offset : offset + SAMPLES_PER_SLOT],
            mem_day[:, offset : offset + SAMPLES_PER_SLOT],
        )


class PerfectPredictor:
    """Oracle predictor returning the actual future utilization.

    Shares :class:`DayAheadPredictor`'s interface; used to separate
    allocation quality from forecast quality in ablations, and in tests
    (with perfect prediction, a policy's violations must vanish).
    """

    def __init__(self, dataset: TraceDataset):
        self._dataset = dataset

    @property
    def first_predictable_day(self) -> int:
        """The oracle can 'predict' from day zero."""
        return 0

    @property
    def fallback_count(self) -> int:
        """The oracle never falls back."""
        return 0

    def forecast_day(self, day_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The actual traces of the requested day."""
        return self._dataset.day_slice(day_index)

    def predicted_slot(
        self, slot_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The actual traces of the requested slot."""
        return self._dataset.slot_slice(slot_index)
