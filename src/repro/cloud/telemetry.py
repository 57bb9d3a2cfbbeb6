"""Degraded-telemetry model: seeded corruption, collectors, imputation.

The robustness counterpart of :mod:`repro.cloud.faults` for the
*monitoring* plane: the engines' decisions are only as good as the
telemetry stream feeding them, and real streams drop samples, deliver
them late and out of order, corrupt them into NaNs or absurd spikes,
and go entirely dark while a collector restarts.  This module provides

* :class:`TelemetryFaultSchedule` — a deterministic, pre-materialized
  degradation timeline (per-VM sample drops, NaN/spike corruption,
  bounded late delivery, per-collector dropout windows), generated from
  a seed by :func:`generate_telemetry_faults` exactly like
  :func:`repro.cloud.faults.generate_faults`: one ``numpy`` generator,
  fixed draw order, same seed ⇒ identical corruption.  Unlike the
  fault layer it never cuts allocation windows — telemetry degrades
  *information*, not capacity;
* :class:`TraceCollector` — the file-replay collector (the trace
  dataset played back as a delivery stream) behind the collector
  abstraction: per-poll timeout (a dropout window raises
  :class:`~repro.errors.CollectorTimeoutError`) with the bounded
  retry/backoff hardening pattern of :func:`repro.dcsim.engine.fan_out`
  (:func:`repro.serve.adapters.poll_with_retry`).  The protocol it
  pioneered — ``collector_id`` / ``poll`` / ``state`` / ``restore`` —
  is now :class:`repro.serve.adapters.CollectorAdapter`, home of the
  live (non-replay) adapters and of ``TelemetryBatch`` /
  ``poll_with_retry``;
* :class:`TelemetryIngest` — the imputation/quality stage: delivered
  samples are validated (finite, within [0, 100], indices inside the
  buffers, taken before the poll that delivered them) into observation
  buffers; reads fill gaps by
  last-observation-carried-forward at window edges and linear
  interpolation inside, and every sample carries a
  :meth:`~TelemetryIngest.sample_quality` mark;
* :class:`ForecastLadder` — the forecast-staleness fallback ladder the
  streaming engine plans from::

      fresh        day-ahead Hannan-Rissanen/companion-matrix ARMA fit
        |          on the imputed history (history imputed fraction
        |          <= max_imputed_frac)
      stale        last good day-ahead forecast, re-used while its age
        |          stays within STALENESS_BUDGET_SLOTS
      persistence  flat last-observed-value patterns (no usable fit)
        |
      reactive-only  telemetry dark for more than BLIND_AFTER_SLOTS
                     (:mod:`repro.cloud.streaming`): keep the previous
                     placement, no re-planning (the engine's "blind
                     window" freeze)

A zero-degradation schedule is exact: every consumer gates on
:attr:`TelemetryFaultSchedule.has_degradation`, and the equivalence
suite asserts that a streaming run over a clean feed is bit-identical
to the batch engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    CheckpointError,
    CollectorTimeoutError,
    ConfigurationError,
    DomainError,
)
from ..forecast.predictor import DayAheadFitter
from ..serve.adapters import TelemetryBatch, _empty_batch
from ..traces.dataset import TraceDataset
from ..units import SAMPLES_PER_DAY, SAMPLES_PER_SLOT, SLOTS_PER_DAY

#: (collector_id, start_slot, end_slot) — collector down for slots
#: [start, end); polls during the window time out.
CollectorOutage = Tuple[int, int, int]

#: :meth:`TelemetryIngest.sample_quality` marks.
QUALITY_OBSERVED = 1
QUALITY_IMPUTED = 2


@dataclass(frozen=True)
class TelemetryFaultConfig:
    """Stochastic parameters for :func:`generate_telemetry_faults`.

    All probabilities are per 5-minute sample; a zero probability (or
    rate) disables that degradation class, so the default config
    degrades nothing at all.

    Attributes:
        drop_prob: probability a sample is permanently lost.
        nan_prob: probability a sample is delivered as NaN.
        spike_prob: probability a sample is delivered as a garbage
            spike of ``spike_pct`` percent.
        spike_pct: the corrupted reading's value; must exceed 100 so a
            spike is detectably invalid (utilization cannot leave
            [0, 100]) rather than silently plausible.
        late_prob: probability a sample is delivered late.
        max_delay_slots: bound on the late-delivery delay (uniform in
            ``[1, max_delay_slots]`` slots); late samples from one slot
            interleave with on-time samples from later slots, giving
            out-of-order delivery.
        outage_rate_per_slot: Poisson rate of dropout-window starts,
            per collector per slot.
        outage_duration_mean_slots: mean dropout-window length
            (exponential, rounded, at least one slot).
    """

    drop_prob: float = 0.0
    nan_prob: float = 0.0
    spike_prob: float = 0.0
    spike_pct: float = 400.0
    late_prob: float = 0.0
    max_delay_slots: int = 2
    outage_rate_per_slot: float = 0.0
    outage_duration_mean_slots: float = 4.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "nan_prob", "spike_prob", "late_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"TelemetryFaultConfig.{name} is a probability and "
                    f"must be in [0, 1], got {value}"
                )
        for name in ("outage_rate_per_slot", "outage_duration_mean_slots"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"TelemetryFaultConfig.{name} must be >= 0, got {value}"
                )
        if self.spike_pct <= 100.0:
            raise ConfigurationError(
                f"TelemetryFaultConfig.spike_pct must exceed 100 so a "
                f"spike is detectably invalid (got {self.spike_pct}); a "
                f"value inside [0, 100] would be indistinguishable from "
                f"a real reading"
            )
        if self.max_delay_slots < 1:
            raise ConfigurationError(
                f"TelemetryFaultConfig.max_delay_slots must be >= 1, got "
                f"{self.max_delay_slots} — a late sample is delayed by "
                f"at least one slot"
            )


class TelemetryFaultSchedule:
    """A materialized degradation timeline over ``[horizon_start, horizon_end)``.

    The sample-granular mirror of
    :class:`~repro.cloud.faults.FaultSchedule`: boolean corruption
    masks and delay counts of shape ``(n_vms, horizon_samples)`` plus
    per-collector dropout windows, all fixed at construction so the
    same schedule object always produces the same degraded stream.
    Only the classes given are held: an absent class reads as zeros,
    built for the slice a collector asks for, and delays are stored in
    the smallest unsigned type that holds the largest one.

    VM rows are striped across collectors round-robin
    (:meth:`collector_of` — VM ``v`` reports through collector
    ``v % n_collectors``), matching how fleet monitoring shards
    per-host agents over aggregation points.

    Args:
        n_vms: VM-pool size the mask rows refer to.
        horizon_start: first covered slot.
        horizon_end: one past the last covered slot.
        n_collectors: number of collectors the VM rows stripe over.
        drop: ``(n_vms, horizon_samples)`` bool — sample permanently
            lost (``None`` = no drops).
        corrupt_nan: same shape — sample delivered as NaN.
        corrupt_spike: same shape — sample delivered as ``spike_pct``.
            Precedence on overlap: drop > NaN > spike.
        delay_slots: same shape, int — delivery delay in slots
            (0 = on time).
        collector_outages: ``(collector_id, start, end)`` dropout
            windows (half-open slots, clamped to the horizon).
        spike_pct: the spike reading's value (must exceed 100).

    Raises:
        ConfigurationError: on shape mismatches, negative delays,
            out-of-range collector ids, or empty horizons/windows.
    """

    def __init__(
        self,
        n_vms: int,
        horizon_start: int,
        horizon_end: int,
        n_collectors: int = 1,
        drop: Optional[np.ndarray] = None,
        corrupt_nan: Optional[np.ndarray] = None,
        corrupt_spike: Optional[np.ndarray] = None,
        delay_slots: Optional[np.ndarray] = None,
        collector_outages: Sequence[CollectorOutage] = (),
        spike_pct: float = 400.0,
    ) -> None:
        if n_vms < 1:
            raise ConfigurationError("n_vms must be >= 1")
        if horizon_end <= horizon_start:
            raise ConfigurationError(
                f"empty telemetry horizon [{horizon_start}, {horizon_end})"
            )
        if n_collectors < 1:
            raise ConfigurationError(
                f"n_collectors must be >= 1, got {n_collectors}"
            )
        if spike_pct <= 100.0:
            raise ConfigurationError(
                f"spike_pct must exceed 100 so a spike is detectably "
                f"invalid, got {spike_pct}"
            )
        self._n_vms = int(n_vms)
        self._start = int(horizon_start)
        self._end = int(horizon_end)
        self._n_collectors = int(n_collectors)
        self._spike_pct = float(spike_pct)
        horizon = self._end - self._start
        shape = (self._n_vms, horizon * SAMPLES_PER_SLOT)

        def _mask(value, name: str, dtype) -> Optional[np.ndarray]:
            if value is None:
                return None
            arr = np.asarray(value, dtype=dtype)
            if arr.shape != shape:
                raise ConfigurationError(
                    f"{name} must have shape {shape} "
                    f"(n_vms x horizon samples), got {arr.shape}"
                )
            return arr

        self._drop = _mask(drop, "drop", bool)
        self._nan = _mask(corrupt_nan, "corrupt_nan", bool)
        self._spike = _mask(corrupt_spike, "corrupt_spike", bool)
        self._delay = _mask(delay_slots, "delay_slots", np.int64)
        if self._delay is not None:
            if np.any(self._delay < 0):
                raise ConfigurationError(
                    "delay_slots must be >= 0 (samples cannot arrive "
                    "before they are measured)"
                )
            self._delay = self._delay.astype(
                np.min_scalar_type(int(self._delay.max(initial=0)))
            )

        down = np.zeros((self._n_collectors, horizon), dtype=bool)
        outages: List[CollectorOutage] = []
        for cid, s0, s1 in collector_outages:
            cid, s0, s1 = int(cid), int(s0), int(s1)
            if not 0 <= cid < self._n_collectors:
                raise ConfigurationError(
                    f"collector id {cid} out of range "
                    f"[0, {self._n_collectors})"
                )
            if s1 <= s0:
                raise ConfigurationError(
                    f"collector outage interval [{s0}, {s1}) is empty"
                )
            lo = max(s0, self._start) - self._start
            hi = min(s1, self._end) - self._start
            if hi <= lo:
                continue  # entirely outside the horizon
            down[cid, lo:hi] = True
            outages.append((cid, lo + self._start, hi + self._start))
        self._down = down
        self._collector_outages = tuple(outages)

        self._has_degradation = bool(
            any(
                mask is not None and mask.any()
                for mask in (self._drop, self._nan, self._spike, self._delay)
            )
            or down.any()
        )

    # -- introspection -------------------------------------------------

    @property
    def n_vms(self) -> int:
        """VM-pool size the schedule describes."""
        return self._n_vms

    @property
    def horizon_start(self) -> int:
        """First covered slot."""
        return self._start

    @property
    def horizon_end(self) -> int:
        """One past the last covered slot."""
        return self._end

    @property
    def n_collectors(self) -> int:
        """Number of collectors the VM rows stripe over."""
        return self._n_collectors

    @property
    def spike_pct(self) -> float:
        """The corrupted spike reading's value."""
        return self._spike_pct

    @property
    def has_degradation(self) -> bool:
        """False for a lossless, on-time, always-up schedule."""
        return self._has_degradation

    @property
    def collector_outages(self) -> Tuple[CollectorOutage, ...]:
        """Horizon-clamped ``(collector_id, start, end)`` windows."""
        return self._collector_outages

    def collector_of(self, vm_id: int) -> int:
        """The collector VM ``vm_id`` reports through."""
        return int(vm_id) % self._n_collectors

    def collector_vm_rows(self, collector_id: int) -> np.ndarray:
        """Global VM rows assigned to one collector (round-robin)."""
        if not 0 <= collector_id < self._n_collectors:
            raise ConfigurationError(
                f"collector id {collector_id} out of range "
                f"[0, {self._n_collectors})"
            )
        return np.flatnonzero(
            np.arange(self._n_vms) % self._n_collectors == collector_id
        )

    # -- per-slot queries ----------------------------------------------

    def _offset(self, slot: int) -> int:
        if not self._start <= slot < self._end:
            raise ConfigurationError(
                f"slot {slot} outside telemetry horizon "
                f"[{self._start}, {self._end})"
            )
        return slot - self._start

    def collector_down(self, collector_id: int, slot: int) -> bool:
        """True when a collector is inside a dropout window at ``slot``."""
        return bool(self._down[collector_id, self._offset(slot)])

    def down_collectors(self, slot: int) -> int:
        """Number of collectors down at ``slot``."""
        return int(self._down[:, self._offset(slot)].sum())

    # -- sample-granular access (collector internals) ------------------

    def _sample_masks(self, rows: slice, lo: int = 0, hi: Optional[int] = None):
        """Per-sample (drop, nan, spike, delay) views of a row slice,
        over horizon samples ``[lo, hi)``; zeros of the slice's shape
        for a class the schedule does not hold."""
        n_samples = (self._end - self._start) * SAMPLES_PER_SLOT
        shape = (
            len(range(self._n_vms)[rows]),
            len(range(n_samples)[lo:hi]),
        )
        return tuple(
            np.zeros(shape, dtype) if mask is None else mask[rows, lo:hi]
            for mask, dtype in (
                (self._drop, bool),
                (self._nan, bool),
                (self._spike, bool),
                (self._delay, np.uint8),
            )
        )

    def _max_delay(self, rows: slice) -> int:
        """The largest delivery delay of a row slice, in slots."""
        if self._delay is None:
            return 0
        return int(self._delay[rows].max(initial=0))


def zero_telemetry_faults(
    n_vms: int,
    horizon_start: int,
    horizon_end: int,
    n_collectors: int = 1,
) -> TelemetryFaultSchedule:
    """A degradation-free schedule (the bit-identity control)."""
    return TelemetryFaultSchedule(
        n_vms, horizon_start, horizon_end, n_collectors=n_collectors
    )


def generate_telemetry_faults(
    n_vms: int,
    horizon_start: int,
    horizon_end: int,
    config: Optional[TelemetryFaultConfig] = None,
    seed: int = 0,
    n_collectors: int = 1,
) -> TelemetryFaultSchedule:
    """Draw a seeded degradation timeline from the config's parameters.

    One ``default_rng(seed)`` drives a fixed draw order (drop mask, NaN
    mask, spike mask, delays, then collector outages in slot order), so
    the same seed yields the identical schedule regardless of the
    consumer — the house determinism convention.
    """
    cfg = config or TelemetryFaultConfig()
    if n_vms < 1:
        raise ConfigurationError("n_vms must be >= 1")
    if horizon_end <= horizon_start:
        raise ConfigurationError(
            f"empty telemetry horizon [{horizon_start}, {horizon_end})"
        )
    if n_collectors < 1:
        raise ConfigurationError(
            f"n_collectors must be >= 1, got {n_collectors}"
        )
    rng = np.random.default_rng(seed)
    horizon = horizon_end - horizon_start
    shape = (n_vms, horizon * SAMPLES_PER_SLOT)

    drop = nan = spike = delay = None
    if cfg.drop_prob > 0.0:
        drop = rng.random(shape) < cfg.drop_prob
    if cfg.nan_prob > 0.0:
        nan = rng.random(shape) < cfg.nan_prob
    if cfg.spike_prob > 0.0:
        spike = rng.random(shape) < cfg.spike_prob
    if cfg.late_prob > 0.0:
        late = rng.random(shape) < cfg.late_prob
        delay = np.where(
            late,
            rng.integers(1, cfg.max_delay_slots + 1, size=shape),
            0,
        )

    outages: List[CollectorOutage] = []
    if cfg.outage_rate_per_slot > 0.0:
        rate = cfg.outage_rate_per_slot * n_collectors
        for off in range(horizon):
            for _ in range(int(rng.poisson(rate))):
                cid = int(rng.integers(n_collectors))
                dur = max(
                    1,
                    int(
                        round(
                            rng.exponential(cfg.outage_duration_mean_slots)
                        )
                    ),
                )
                outages.append(
                    (
                        cid,
                        off + horizon_start,
                        min(off + dur, horizon) + horizon_start,
                    )
                )

    return TelemetryFaultSchedule(
        n_vms,
        horizon_start,
        horizon_end,
        n_collectors=n_collectors,
        drop=drop,
        corrupt_nan=nan,
        corrupt_spike=spike,
        delay_slots=delay,
        collector_outages=outages,
        spike_pct=cfg.spike_pct,
    )


@dataclass(frozen=True)
class TelemetryScenario:
    """A named degradation regime of the registry.

    Attributes:
        name: registry key.
        description: one-line summary for reports.
        config: the stochastic parameters (``None`` = lossless).
        n_collectors: collectors the VM rows stripe over.
        seed_offset: added to the build seed so scenarios sharing a
            sweep seed still draw independent corruption.
    """

    name: str
    description: str
    config: Optional[TelemetryFaultConfig] = None
    n_collectors: int = 1
    seed_offset: int = 0

    def build(
        self,
        n_vms: int,
        horizon_start: int,
        horizon_end: int,
        seed: int = 2018,
    ) -> TelemetryFaultSchedule:
        """Materialize the schedule for one VM pool and horizon."""
        if self.config is None:
            return zero_telemetry_faults(
                n_vms,
                horizon_start,
                horizon_end,
                n_collectors=self.n_collectors,
            )
        return generate_telemetry_faults(
            n_vms,
            horizon_start,
            horizon_end,
            config=self.config,
            seed=seed + self.seed_offset,
            n_collectors=self.n_collectors,
        )


TELEMETRY_SCENARIOS: Dict[str, TelemetryScenario] = {
    scenario.name: scenario
    for scenario in (
        TelemetryScenario(
            name="clean",
            description="lossless telemetry (bit-identity control)",
        ),
        TelemetryScenario(
            name="lossy-1pct",
            description="1% sample drops, occasional NaN corruption",
            config=TelemetryFaultConfig(drop_prob=0.01, nan_prob=0.002),
            seed_offset=1,
        ),
        TelemetryScenario(
            name="lossy-10pct",
            description="10% sample drops, 1% NaN corruption",
            config=TelemetryFaultConfig(drop_prob=0.10, nan_prob=0.01),
            seed_offset=2,
        ),
        TelemetryScenario(
            name="collector-outage",
            description="two collectors with recurring dropout windows",
            config=TelemetryFaultConfig(
                outage_rate_per_slot=0.02,
                outage_duration_mean_slots=5.0,
            ),
            n_collectors=2,
            seed_offset=3,
        ),
        TelemetryScenario(
            name="late-burst",
            description="30% of samples arrive up to 4 slots late",
            config=TelemetryFaultConfig(late_prob=0.30, max_delay_slots=4),
            seed_offset=4,
        ),
        TelemetryScenario(
            name="corrupt-spikes",
            description="garbage 400% spikes plus NaN corruption",
            config=TelemetryFaultConfig(spike_prob=0.02, nan_prob=0.01),
            seed_offset=5,
        ),
    )
}


def get_telemetry_scenario(name: str) -> TelemetryScenario:
    """Look up a telemetry scenario by registry name."""
    try:
        return TELEMETRY_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(TELEMETRY_SCENARIOS))
        raise ConfigurationError(
            f"unknown telemetry scenario {name!r}; known: {known}"
        ) from None


# -- collectors --------------------------------------------------------


class TraceCollector:
    """File-replay collector: the trace dataset as a delivery stream.

    The reference implementation of the
    :class:`repro.serve.adapters.CollectorAdapter` protocol (live
    adapters live there).

    A sample measured during slot ``s`` becomes available at the poll
    of slot ``s + 1`` (monitoring reports trail the interval they
    cover) plus its scheduled delay; dropped samples are never
    delivered, however late the poll.  Deliveries come back sorted by
    availability, so a delayed sample from slot ``s`` arrives *after*
    on-time samples from slots ``s+1 .. s+delay`` — genuine
    out-of-order delivery — and everything that queued up during a
    dropout window arrives as one burst at the first successful poll
    after recovery.

    The stream is built a day at a time: the first poll past the built
    range builds every delivery that becomes available after the last
    successful poll and by the end of the poll's day (stable-sorted by
    availability, so ties come in (VM row, sample) order), and polls
    slice it.  At most one day of deliveries is held.  The state is
    ``(delivered count, last successful poll)`` — exactly what
    :meth:`state` snapshots for checkpoint/resume; the built day is
    derived from it and rebuilt after :meth:`restore`.

    Args:
        collector_id: this collector's id within the schedule.
        dataset: the true traces to replay.
        schedule: the degradation timeline.

    Raises:
        ConfigurationError: if the schedule's VM pool does not match
            the dataset, the id is not one of the schedule's
            collectors, or the schedule runs past the dataset.
    """

    def __init__(
        self,
        collector_id: int,
        dataset: TraceDataset,
        schedule: TelemetryFaultSchedule,
    ) -> None:
        if schedule.n_vms != dataset.n_vms:
            raise ConfigurationError(
                f"telemetry schedule covers {schedule.n_vms} VMs, "
                f"dataset has {dataset.n_vms}"
            )
        if not 0 <= collector_id < schedule.n_collectors:
            raise ConfigurationError(
                f"collector id {collector_id} out of range "
                f"[0, {schedule.n_collectors})"
            )
        if schedule.horizon_end * SAMPLES_PER_SLOT > dataset.n_samples:
            raise ConfigurationError(
                f"telemetry schedule covers slots [{schedule.horizon_start}, "
                f"{schedule.horizon_end}), past the dataset's "
                f"{dataset.n_slots} slots — build the schedule over the "
                f"dataset's horizon"
            )
        self._id = int(collector_id)
        self._dataset = dataset
        self._schedule = schedule
        self._rows = slice(self._id, None, schedule.n_collectors)
        self._max_delay = schedule._max_delay(self._rows)
        self._delivered = 0
        self._last_success = schedule.horizon_start
        self._clear_day()

    @property
    def collector_id(self) -> int:
        """This collector's id within the schedule."""
        return self._id

    def poll(self, slot: int) -> "TelemetryBatch":
        """Everything that became available by the poll at ``slot``.

        Raises:
            CollectorTimeoutError: when the collector is inside a
                dropout window at ``slot`` (nothing is consumed; the
                queued samples arrive at the next successful poll).
        """
        schedule = self._schedule
        if (
            schedule.horizon_start <= slot < schedule.horizon_end
            and schedule.collector_down(self._id, slot)
        ):
            raise CollectorTimeoutError(
                f"collector {self._id} timed out polling slot {slot} "
                f"(inside a dropout window)"
            )
        slot = int(slot)
        if slot > self._built_to:
            self._build_day(slot)
        lo = self._pos
        hi = max(lo, int(np.searchsorted(self._avail, slot, side="right")))
        self._pos = hi
        self._delivered += hi - lo
        self._last_success = max(self._last_success, slot)
        day = self._day
        return TelemetryBatch(
            vm_rows=day.vm_rows[lo:hi],
            samples=day.samples[lo:hi],
            cpu=day.cpu[lo:hi],
            mem=day.mem[lo:hi],
        )

    def _clear_day(self) -> None:
        """Hold no built deliveries (the next later poll builds)."""
        self._built_to = self._last_success
        self._pos = 0
        self._avail = np.empty(0, dtype=np.int64)
        self._day = _empty_batch()

    def _build_day(self, slot: int) -> None:
        """Build the deliveries available after the last successful
        poll and by the last slot of ``slot``'s day."""
        schedule = self._schedule
        after = self._last_success
        until = (slot // SLOTS_PER_DAY + 1) * SLOTS_PER_DAY - 1
        # A sample of slot s arrives at s + 1 + delay, so only slots
        # [after - max_delay, until) can arrive in (after, until].
        start = schedule.horizon_start
        lo = max(after - self._max_delay, start) * SAMPLES_PER_SLOT
        hi = max(min(until, schedule.horizon_end) * SAMPLES_PER_SLOT, lo)
        offset = start * SAMPLES_PER_SLOT
        drop, nan, spike, delay = schedule._sample_masks(
            self._rows, lo - offset, hi - offset
        )
        # Entries index the (VM row, sample) block in row-major order.
        avail = (np.arange(lo, hi) // SAMPLES_PER_SLOT + 1 + delay).ravel()
        entries = np.flatnonzero(
            ~drop.ravel() & (avail > after) & (avail <= until)
        )
        # Keys this small radix-sort (stable) in linear time.
        keys = (avail[entries] - after).astype(
            np.min_scalar_type(until - after)
        )
        entries = entries[np.argsort(keys, kind="stable")]
        local, col = np.divmod(entries, hi - lo)
        cpu = np.take(self._dataset.cpu_pct[self._rows, lo:hi], entries)
        mem = np.take(self._dataset.mem_pct[self._rows, lo:hi], entries)
        nan_f = np.take(nan, entries)
        spike_f = np.take(spike, entries) & ~nan_f
        cpu[nan_f] = np.nan
        mem[nan_f] = np.nan
        cpu[spike_f] = schedule.spike_pct
        mem[spike_f] = schedule.spike_pct
        self._built_to = until
        self._pos = 0
        self._avail = avail[entries]
        self._day = TelemetryBatch(
            vm_rows=self._id + local * schedule.n_collectors,
            samples=lo + col,
            cpu=cpu,
            mem=mem,
        )

    # -- checkpoint ----------------------------------------------------

    def state(self) -> Tuple[int, int]:
        """Cursor snapshot: ``(delivered count, last successful poll)``."""
        return (self._delivered, self._last_success)

    def restore(self, state: Tuple[int, int]) -> None:
        """Reset the cursor to a :meth:`state` snapshot."""
        delivered, last_success = state
        self._delivered = int(delivered)
        self._last_success = int(last_success)
        self._clear_day()


def _replay_stream_reference(
    collector_id: int,
    dataset: TraceDataset,
    schedule: TelemetryFaultSchedule,
) -> Tuple[np.ndarray, TelemetryBatch]:
    """One collector's whole-horizon delivery stream at once: the
    oracle of :class:`TraceCollector`'s day-at-a-time build.

    Returns every delivery's availability slot and the deliveries,
    stable-sorted by availability with dropped samples left out.  A
    collector's delivered count is its position in this stream, and
    a poll returns the entries up to its last successful poll slot.
    """
    vm_rows = schedule.collector_vm_rows(collector_id)
    drop, nan, spike, delay = (
        mask[vm_rows] for mask in schedule._sample_masks(slice(None))
    )
    n_local, n_samp = drop.shape
    slot_of = schedule.horizon_start + np.arange(n_samp) // SAMPLES_PER_SLOT
    avail = (slot_of[None, :] + 1 + delay).ravel()
    order = np.flatnonzero(~drop.ravel())
    order = order[np.argsort(avail[order], kind="stable")]
    local_idx, sample_idx = np.unravel_index(order, (n_local, n_samp))
    rows = vm_rows[local_idx]
    samples = sample_idx + schedule.horizon_start * SAMPLES_PER_SLOT
    cpu = dataset.cpu_pct[rows, samples]
    mem = dataset.mem_pct[rows, samples]
    nan_f = nan.ravel()[order]
    spike_f = spike.ravel()[order] & ~nan_f
    cpu = np.where(nan_f, np.nan, cpu)
    mem = np.where(nan_f, np.nan, mem)
    cpu = np.where(spike_f, schedule.spike_pct, cpu)
    mem = np.where(spike_f, schedule.spike_pct, mem)
    return avail[order], TelemetryBatch(
        vm_rows=rows, samples=samples, cpu=cpu, mem=mem
    )


# -- ingestion / imputation -------------------------------------------


class TelemetryIngest:
    """Observation buffers with gap-filling reads and quality marks.

    Delivered samples are validated — both readings inside [0, 100],
    which NaN, ±inf and spike corruption all fail, so the sample stays
    missing — into dataset-shaped observation buffers.  A batch's
    indices are checked too: a reading whose VM row or sample index
    lies outside the buffers, or that is stamped at or after the start
    of the slot whose poll delivered it (a poll at slot ``s`` can only
    deliver samples taken before ``s``), is dropped like an invalid
    one, and a batch with arrays of unequal shape or non-integer
    indices raises :class:`~repro.errors.DomainError`.  The valid
    readings are stored through one flat index,
    ``row * n_samples + sample``, into all three buffers.  Reads fill
    the gaps:
    last observation carried forward into a window's leading edge
    (backfilled from the window's first observation when the VM has no
    earlier one), linear interpolation between observed samples inside,
    carry-forward past the last observed sample, and the cold-start
    value for VMs never observed at all.  A read returns a filled copy
    and never writes the buffers, so no imputed history is kept: the
    :class:`ForecastLadder` fits on :meth:`filled_window` directly.

    A read names the VMs it needs (``rows``; every VM when ``None``)
    and fills only those: the ladder asks for the VMs not yet
    departed, the reactive signal for the window's active VMs.  Reads
    are whole-array passes: :meth:`filled_window` fills every gap of
    the asked rows at once from the window's gap runs, and looks up
    the carried value only for the rows whose window opens with a gap
    (no other row reads it), looking back from the window in doubling
    blocks instead of rescanning the whole history.  Both read each
    VM's own row only, so a row's fill is the same whichever rows are
    asked for.  The per-VM ``np.interp`` loop stays callable as
    :meth:`_fill_reference` (with the prefix-scan carry
    :meth:`_carry_before_reference`), the oracle the batched fill
    matches bit for bit.

    The all-valid fast path (clean telemetry) is a plain copy, which is
    what makes clean streaming runs bit-identical to the batch engine.
    """

    def __init__(
        self, dataset: TraceDataset, cold_start_util_pct: float = 50.0
    ) -> None:
        if not 0.0 <= cold_start_util_pct <= 100.0:
            raise ConfigurationError(
                f"cold_start_util_pct must be in [0, 100], got "
                f"{cold_start_util_pct}"
            )
        shape = dataset.cpu_pct.shape
        self._cold = float(cold_start_util_pct)
        self.obs_cpu = np.zeros(shape)
        self.obs_mem = np.zeros(shape)
        self.valid = np.zeros(shape, dtype=bool)
        #: Newest slot with at least one validly delivered sample
        #: (-1 until first delivery): the blind-window detector.
        self.newest_delivery_slot = -1
        # Lowest sample stored since the previous state() (the sample
        # count when none was).
        self._changed_from = shape[1]

    def ingest(self, batch: TelemetryBatch, slot: Optional[int] = None) -> int:
        """Validate and store one poll's deliveries; returns how many
        readings were dropped.

        A reading is stored when both values lie in [0, 100] (NaN and
        ±inf fail the range test), its VM row and sample index name a
        cell of the buffers and, given the polled ``slot``, it was
        taken before that slot began; every other reading is dropped.
        Without ``slot`` only the buffers bound the sample index.

        Raises:
            DomainError: for a batch whose four arrays differ in shape,
                or whose VM rows or sample indices are not integers.
        """
        rows, samples, cpu, mem = (
            batch.vm_rows, batch.samples, batch.cpu, batch.mem
        )
        if not rows.shape == samples.shape == cpu.shape == mem.shape:
            raise DomainError(
                f"telemetry batch arrays differ in shape: vm_rows "
                f"{rows.shape}, samples {samples.shape}, cpu {cpu.shape}, "
                f"mem {mem.shape}"
            )
        if rows.dtype.kind not in "iu" or samples.dtype.kind not in "iu":
            raise DomainError(
                f"telemetry batch indices must be integers, got vm_rows "
                f"{rows.dtype} and samples {samples.dtype}"
            )
        delivered = rows.size
        if delivered == 0:
            return 0
        n_vms, n_samples = self.valid.shape
        end = n_samples
        if slot is not None:
            end = min(end, int(slot) * SAMPLES_PER_SLOT)
        ok = (cpu >= 0.0) & (cpu <= 100.0) & (mem >= 0.0) & (mem <= 100.0)
        first, last = int(samples.min()), int(samples.max())
        if rows.min() < 0 or rows.max() >= n_vms or first < 0 or last >= end:
            ok &= (rows >= 0) & (rows < n_vms)
            ok &= (samples >= 0) & (samples < end)
        if not ok.all():
            if not ok.any():
                return delivered
            rows, samples, cpu, mem = rows[ok], samples[ok], cpu[ok], mem[ok]
            first, last = int(samples.min()), int(samples.max())
        # One flat index into the C-ordered buffers for all three stores.
        flat = rows.astype(np.intp, copy=False) * n_samples
        flat += samples.astype(np.intp, copy=False)
        self.obs_cpu.reshape(-1)[flat] = cpu
        self.obs_mem.reshape(-1)[flat] = mem
        self.valid.reshape(-1)[flat] = True
        self._changed_from = min(self._changed_from, first)
        newest = last // SAMPLES_PER_SLOT
        if newest > self.newest_delivery_slot:
            self.newest_delivery_slot = newest
        return delivered - rows.size

    # -- quality -------------------------------------------------------

    def sample_quality(self, lo: int, hi: int) -> np.ndarray:
        """Per-VM quality marks for sample range ``[lo, hi)``.

        ``QUALITY_OBSERVED`` where a valid reading was delivered,
        ``QUALITY_IMPUTED`` everywhere a read would have to fill in.
        """
        return np.where(
            self.valid[:, lo:hi], QUALITY_OBSERVED, QUALITY_IMPUTED
        ).astype(np.int8)

    def missing_fraction(self, lo: int, hi: int) -> float:
        """Fraction of ``[lo, hi)`` samples without a valid reading."""
        window = self.valid[:, lo:hi]
        return float(1.0 - window.mean()) if window.size else 0.0

    def missing_count(self, rows: np.ndarray, lo: int, hi: int) -> int:
        """Samples of ``rows`` in ``[lo, hi)`` without a valid reading."""
        return int((~self.valid[rows, lo:hi]).sum())

    # -- gap-filling reads ---------------------------------------------

    def _rows(self, rows: Optional[np.ndarray]) -> np.ndarray:
        """``rows`` as an index array; every VM when ``None``."""
        if rows is None:
            return np.arange(self.valid.shape[0])
        return np.asarray(rows, dtype=np.intp)

    def _carry_before(self, lo: int, rows: Optional[np.ndarray] = None):
        """Last valid value (and its existence) before sample ``lo``,
        for the VMs ``rows`` (sorted; every VM when ``None``).

        Looks back from ``lo`` in blocks that double in width (12, 24,
        48, ... samples) over only the VMs not resolved yet, so a VM
        observed during the last slot costs one 12-sample block rather
        than a scan of its whole history.  VMs with no valid sample
        before ``lo`` get the cold-start value.
        """
        rows = self._rows(rows)
        has = np.zeros(rows.size, dtype=bool)
        last = np.zeros(rows.size, dtype=np.intp)
        pending = np.arange(rows.size)
        end, width = lo, SAMPLES_PER_SLOT
        while pending.size and end > 0:
            start = max(end - width, 0)
            block = self.valid[rows[pending], start:end]
            found = block.any(axis=1)
            hit = pending[found]
            has[hit] = True
            last[hit] = end - 1 - np.argmax(block[found, ::-1], axis=1)
            pending = pending[~found]
            end, width = start, 2 * width
        cpu = np.where(has, self.obs_cpu[rows, last], self._cold)
        mem = np.where(has, self.obs_mem[rows, last], self._cold)
        return has, cpu, mem

    def _carry_before_reference(self, lo: int):
        """Prefix-scan oracle of :meth:`_carry_before` (every VM)."""
        n_vms = self.valid.shape[0]
        if lo <= 0:
            cold = np.full(n_vms, self._cold)
            return np.zeros(n_vms, dtype=bool), cold, cold.copy()
        prefix = self.valid[:, :lo]
        has = prefix.any(axis=1)
        last = lo - 1 - np.argmax(prefix[:, ::-1], axis=1)
        rows = np.arange(n_vms)
        cpu = np.where(has, self.obs_cpu[rows, last], self._cold)
        mem = np.where(has, self.obs_mem[rows, last], self._cold)
        return has, cpu, mem

    def last_values(self, before_sample: int):
        """Per-VM last observed (cpu, mem) before ``before_sample``.

        VMs never observed get the cold-start value — the persistence
        rung's flat pattern source.
        """
        _, cpu, mem = self._carry_before(before_sample)
        return cpu, mem

    def filled_window(
        self, lo: int, hi: int, rows: Optional[np.ndarray] = None
    ):
        """Gap-filled copies of ``[lo, hi)`` (buffers untouched), one
        row per VM of ``rows`` (sorted; every VM when ``None``), all of
        them in one pass.

        Works on the window's *runs*: maximal stretches of missing
        samples within one VM's row.  An interior run takes
        ``np.interp``'s own float64 expression between the observations
        bounding it, so it reproduces :meth:`_fill_reference` bit for
        bit.  A leading run takes the VM's carried value, or the
        window's first observation when the VM has no history; a
        trailing run takes the last observation; a run spanning the
        whole row takes the carried or cold-start value.  Observed
        samples are never rewritten.  Every step reads only the VM's
        own row, so a VM's fill does not depend on which other rows
        are asked for.
        """
        rows = self._rows(rows)
        valid = self.valid[rows, lo:hi]
        # New C-ordered copies: the fill writes through their flat views.
        cpu = np.ascontiguousarray(self.obs_cpu[rows, lo:hi])
        mem = np.ascontiguousarray(self.obs_mem[rows, lo:hi])
        if valid.all():
            return cpu, mem  # clean fast path: nothing to fill
        n = hi - lo
        # Flat indices of the missing samples, cut into runs.
        miss = np.flatnonzero(~valid)
        col = miss % n
        head = np.empty(miss.size, dtype=bool)
        head[0] = True
        head[1:] = (miss[1:] != miss[:-1] + 1) | (col[1:] == 0)
        run = np.cumsum(head) - 1
        first = np.flatnonzero(head)
        last = np.append(first[1:], miss.size) - 1
        run_row = miss[first] // n
        # Columns of the observations bounding each run (-1 / n where
        # there is none) and their flat indices, clipped in bounds: an
        # edge run reads a neighbour it never uses.
        before = col[first] - 1
        after = col[last] + 1
        at_before = np.maximum(miss[first] - 1, 0)
        at_after = np.minimum(miss[last] + 1, valid.size - 1)
        lead = before < 0
        # Only a leading run reads the carried value: look it up for
        # the rows whose window opens with a gap.  A leading run carries
        # history forward, or backfills the window's first observation
        # when the VM has none; one spanning the whole row takes the
        # carried or cold-start value.
        lead_runs = np.flatnonzero(lead)
        has, carry_cpu, carry_mem = self._carry_before(
            lo, rows[run_row[lead_runs]]
        )
        carried = has | (after[lead_runs] == n)
        carried_runs = lead_runs[carried]
        inner = (~lead & (after < n))[run]
        step = col - before[run]
        for out, carry in ((cpu, carry_cpu), (mem, carry_mem)):
            flat = out.reshape(-1)
            y_before = flat[at_before]
            y_after = flat[at_after]
            edge = np.where(lead, y_after, y_before)
            edge[carried_runs] = carry[carried]
            slope = (y_after - y_before) / (after - before)
            flat[miss] = np.where(
                inner, slope[run] * step + y_before[run], edge[run]
            )
        return cpu, mem

    def _fill_reference(
        self, lo: int, hi: int, rows: Optional[np.ndarray] = None
    ):
        """Per-VM ``np.interp`` loop: the oracle of :meth:`filled_window`."""
        rows = self._rows(rows)
        window_valid = self.valid[rows, lo:hi]
        cpu = self.obs_cpu[rows, lo:hi]
        mem = self.obs_mem[rows, lo:hi]
        if window_valid.all():
            return cpu, mem
        has_carry, carry_cpu, carry_mem = self._carry_before_reference(lo)
        n = hi - lo
        grid = np.arange(n)
        for i in np.flatnonzero(~window_valid.all(axis=1)):
            row = rows[i]
            idx = np.flatnonzero(window_valid[i])
            if idx.size == 0:
                # No observation inside the window: carry the last
                # value across it wholesale (cold start if none ever).
                cpu[i] = carry_cpu[row]
                mem[i] = carry_mem[row]
                continue
            # np.interp: linear inside, edge-value (carry/backfill)
            # outside; exact at the observed nodes.
            cpu[i] = np.interp(grid, idx, cpu[i, idx])
            mem[i] = np.interp(grid, idx, mem[i, idx])
            if idx[0] > 0 and has_carry[row]:
                # The leading gap has history: carry it forward
                # instead of backfilling from the window's first
                # observation.
                cpu[i, : idx[0]] = carry_cpu[row]
                mem[i, : idx[0]] = carry_mem[row]
        return cpu, mem

    # -- checkpoint ----------------------------------------------------

    def _stored_end(self, newest_delivery_slot: int) -> int:
        """The column after ``newest_delivery_slot``: no stored reading
        lies at or past it."""
        return min(
            (newest_delivery_slot + 1) * SAMPLES_PER_SLOT, self.valid.shape[1]
        )

    @staticmethod
    def _day_columns(lo: int, hi: int) -> List[Tuple[int, slice]]:
        """Columns ``[lo, hi)`` cut at midnights: ``(day, columns)`` for
        each day they touch."""
        spans = []
        while lo < hi:
            day = lo // SAMPLES_PER_DAY
            end = min(hi, (day + 1) * SAMPLES_PER_DAY)
            spans.append((day, slice(lo, end)))
            lo = end
        return spans

    def state(self, full: bool) -> Dict[str, object]:
        """Checkpoint state; starts a new change period.

        The observation columns from ``from_sample`` to the end of the
        newest delivery slot (no later column holds a stored reading):
        from column 0 when ``full``, otherwise from the lowest sample
        stored since the previous call (none when nothing was).  They
        are cut at midnights into one ``obs_cpu.<day>`` /
        ``obs_mem.<day>`` array per day they touch (views of the live
        buffers: write them out before the next :meth:`ingest`), with
        validity bit-packed over the same columns.
        """
        hi = self._stored_end(self.newest_delivery_slot)
        lo = 0 if full else min(self._changed_from, hi)
        self._changed_from = self.valid.shape[1]
        state: Dict[str, object] = {
            "newest_delivery_slot": self.newest_delivery_slot,
            "from_sample": lo,
            "valid_bits": np.packbits(self.valid[:, lo:hi], axis=1),
        }
        for day, cols in self._day_columns(lo, hi):
            state[f"obs_cpu.{day}"] = self.obs_cpu[:, cols]
            state[f"obs_mem.{day}"] = self.obs_mem[:, cols]
        return state

    def restore(self, state: Dict[str, object], full: bool) -> None:
        """Write a :meth:`state` snapshot's columns into the buffers.

        A ``full`` snapshot replaces the buffers: the columns after it
        come back empty.  Any other is written over them, so a full
        snapshot and then each later one, in order, restore the ingest
        that took the last.

        Raises:
            CheckpointError: if the snapshot's columns or buffers do not
                match its newest delivery slot or this ingest's shape,
                or a ``full`` one does not start at column 0.
        """
        n_vms, n_samples = self.valid.shape
        newest = int(state["newest_delivery_slot"])
        if not -1 <= newest < -(-n_samples // SAMPLES_PER_SLOT):
            raise CheckpointError(
                f"checkpoint newest delivery slot {newest} lies outside "
                f"this ingest's {n_samples} samples"
            )
        hi = self._stored_end(newest)
        lo = int(state["from_sample"])
        days = self._day_columns(max(lo, 0), hi)  # a negative lo fails below
        bits = state["valid_bits"]
        stored = sum(key.startswith("obs_") for key in state)
        if (
            not 0 <= lo <= (0 if full else hi)
            or bits.shape != (n_vms, -(-(hi - lo) // 8))
            or stored != 2 * len(days)
        ):
            raise CheckpointError(
                f"checkpoint ingest state ({stored} observation arrays "
                f"from column {lo}, validity {bits.shape} packed) does not "
                f"fit {len(days)} observed days of this ingest's "
                f"{self.obs_cpu.shape}"
            )
        for day, cols in days:
            for name, buffer in (
                ("obs_cpu", self.obs_cpu),
                ("obs_mem", self.obs_mem),
            ):
                part = state.get(f"{name}.{day}")
                if part is None or part.shape != buffer[:, cols].shape:
                    raise CheckpointError(
                        f"checkpoint ingest state has no {name}.{day} "
                        f"array of shape {buffer[:, cols].shape}"
                    )
                buffer[:, cols] = part
        self.valid[:, lo:hi] = np.unpackbits(bits, axis=1, count=hi - lo)
        if full:
            self.obs_cpu[:, hi:] = 0.0
            self.obs_mem[:, hi:] = 0.0
            self.valid[:, hi:] = False
        self.newest_delivery_slot = newest
        self._changed_from = n_samples


# -- the fallback ladder ----------------------------------------------

#: Ladder rung labels, freshest first.
RUNG_FRESH = "fresh"
RUNG_STALE = "stale"
RUNG_PERSISTENCE = "persistence"
RUNG_BLIND = "reactive-only"

#: How long the stale rung may re-use the last fresh day forecast, in
#: slots (a day-ahead forecast ages in whole days).
STALENESS_BUDGET_SLOTS = 3 * SLOTS_PER_DAY


class ForecastLadder:
    """Day-ahead forecasts with staleness-aware fallback (see module
    docstring for the ladder diagram).  The stale rung re-uses the
    last fresh day's forecast for up to :data:`STALENESS_BUDGET_SLOTS`.

    Day-level decisions (fresh vs stale vs no usable forecast) are
    cached **at decision time**: a later-arriving backfill of history
    must not retroactively change a forecast that was already used —
    that property is what makes checkpoint/resume bit-exact.

    The ladder holds the fit configuration, not a predictor over a
    dataset: the fresh rung fits :meth:`TelemetryIngest.filled_window`
    of the history window, so nothing it holds can read the true
    traces.  The caller deciding a day names the rows that can still
    be read (the streaming engine: every VM not yet departed); only
    those are gap-filled and fitted, and the day's arrays are NaN on
    the others.  Fill and fit are row-local, so a fitted row holds the
    bits a fit of every VM would give it.  Deciding a new day drops
    every older one except the last fresh day (the stale rung's
    source), so the cache holds what :meth:`state` snapshots and no
    more.

    Args:
        ingest: the ingestion stage whose gap-filled reads the fresh
            rung fits on.
        history_days: the fit window (mirrors the batch predictor).
        max_imputed_frac: highest imputed fraction of the history
            window that still counts as a fresh fit.
    """

    def __init__(
        self,
        ingest: TelemetryIngest,
        history_days: int = 7,
        max_imputed_frac: float = 0.25,
    ) -> None:
        if not 0.0 <= max_imputed_frac <= 1.0:
            raise ConfigurationError(
                f"max_imputed_frac must be in [0, 1], got "
                f"{max_imputed_frac}"
            )
        self._ingest = ingest
        self._max_imputed = float(max_imputed_frac)
        self._fitter = DayAheadFitter(int(history_days))
        # day -> (rung, cpu_day, mem_day); arrays are None on the
        # "no usable forecast" rung.
        self._days: Dict[int, Tuple[str, object, object]] = {}
        # day -> the fresh day whose forecast it plans from (itself
        # when fresh); persistence days have none.
        self._sources: Dict[int, int] = {}
        self._last_fresh_day = -1
        #: Optional :class:`~repro.obs.tracer.RunTracer`; when set,
        #: every *new* day decision (a cache miss) emits a
        #: ``ladder_rung`` event.  Restored (checkpointed) decisions
        #: do not re-emit — they were already traced when made.
        self.tracer = None

    def day_decision(
        self, day: int, rows: Optional[np.ndarray] = None
    ) -> Tuple[str, object, object]:
        """The ladder's (rung, cpu, mem) for one forecast day (cached).

        Days must be asked for in non-decreasing order (the engine's
        windows run forward): a new day's decision evicts the older
        days no later call can consult.

        ``rows`` (sorted VM ids; every VM when ``None``) are the VMs a
        fresh fit gap-fills and fits; the day's arrays hold NaN on every
        other row.  It only matters to the call that decides the day: a
        cached decision is returned as it was made.  Whether the day
        fits fresh is decided on every VM's history either way.

        Raises:
            DomainError: for an undecided day older than a decided one
                (re-deciding it would fit on later observations).
        """
        cached = self._days.get(day)
        if cached is not None:
            return cached
        newest = max(self._days, default=day)
        if newest > day:
            raise DomainError(
                f"forecast day {day} precedes decided day {newest}: the "
                f"ladder decides days in order and keeps only the "
                f"latest and the last fresh one"
            )
        lo = max((day - self._fitter.history_days) * SAMPLES_PER_DAY, 0)
        hi = day * SAMPLES_PER_DAY
        if self._ingest.missing_fraction(lo, hi) <= self._max_imputed:
            cpu, mem = (
                self._spread(fitted, rows)
                for fitted in self._fitter.fit_day(
                    day, *self._ingest.filled_window(lo, hi, rows)
                )
            )
            decision = (RUNG_FRESH, cpu, mem)
            self._last_fresh_day = day
            self._sources[day] = day
        elif (
            self._last_fresh_day >= 0
            and (day - self._last_fresh_day) * SLOTS_PER_DAY
            <= STALENESS_BUDGET_SLOTS
        ):
            _, cpu, mem = self._days[self._last_fresh_day]
            decision = (RUNG_STALE, cpu, mem)
            self._sources[day] = self._last_fresh_day
        else:
            decision = (RUNG_PERSISTENCE, None, None)
        # Of the older days only the stale rung's source is read again.
        for old in [
            d for d in self._days if d < day and d != self._last_fresh_day
        ]:
            del self._days[old]
            self._sources.pop(old, None)
        self._days[day] = decision
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("ladder_rung", day=day, rung=decision[0])
        return decision

    def _spread(
        self, fitted: np.ndarray, rows: Optional[np.ndarray]
    ) -> np.ndarray:
        """A fit of ``rows`` as a day array over every VM, NaN on the
        rows it did not fit."""
        if rows is None:
            return fitted
        day = np.full((self._ingest.valid.shape[0], fitted.shape[1]), np.nan)
        day[rows] = fitted
        return day

    # -- checkpoint ----------------------------------------------------

    def state(self, from_day: int) -> Dict[str, object]:
        """Snapshot of the decisions a run resumed at ``from_day`` can
        consult: days at or after it, plus the last fresh day (the
        stale rung's source).

        Each kept day is ``[day, rung, source day]``; every source
        day's forecast is stored once, as ``cpu.<day>`` / ``mem.<day>``
        arrays.
        """
        keep = sorted(
            day
            for day in self._days
            if day >= from_day or day == self._last_fresh_day
        )
        state: Dict[str, object] = {
            "last_fresh_day": self._last_fresh_day,
            "days": [
                [day, self._days[day][0], self._sources.get(day)]
                for day in keep
            ],
        }
        sources = {self._sources[d] for d in keep if d in self._sources}
        for source in sorted(sources):
            _, cpu, mem = self._days[source]
            state[f"cpu.{source}"] = cpu
            state[f"mem.{source}"] = mem
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state` snapshot.

        The day cache carries the decision-time forecast arrays, so
        restored days are never re-fitted — late backfills cannot
        rewrite history after a resume.
        """
        self._days = {}
        self._sources = {}
        for day, rung, source in state["days"]:
            day = int(day)
            if source is None:
                self._days[day] = (rung, None, None)
                continue
            source = int(source)
            self._days[day] = (
                rung,
                state[f"cpu.{source}"],
                state[f"mem.{source}"],
            )
            self._sources[day] = source
        self._last_fresh_day = int(state["last_fresh_day"])
