"""Degraded-telemetry streaming layer: equivalence, ladder, resume.

The acceptance bar of the telemetry PR:

* **clean-telemetry** streaming runs are bit-identical to the batch
  :class:`~repro.dcsim.DataCenterSimulation` (fixed population and
  churn), and the
  engine refuses to run without a feed;
* every rung of the forecast-staleness fallback ladder is reachable —
  fresh fit, aged (stale) forecast, persistence, and the blind
  (reactive-only) frozen placement under a collector outage;
* delivery is late/out-of-order capable and backfills the observation
  buffers; corruption is rejected at ingest and imputed on read;
* a checkpoint/resume run equals an uninterrupted run exactly;
* the degradation model is seeded and deterministic, and configs are
  validated with actionable errors.
"""

import copy
import pickle
import shutil
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from repro.cloud import (
    StreamingCloudSimulation,
    fixed_schedule,
    summarize,
)
from repro.cloud.telemetry import (
    QUALITY_IMPUTED,
    QUALITY_OBSERVED,
    RUNG_FRESH,
    RUNG_PERSISTENCE,
    RUNG_STALE,
    TELEMETRY_SCENARIOS,
    TelemetryFaultConfig,
    TelemetryFaultSchedule,
    TelemetryIngest,
    TraceCollector,
    _replay_stream_reference,
    generate_telemetry_faults,
    get_telemetry_scenario,
    zero_telemetry_faults,
)
from repro.serve.adapters import PushCollector, TelemetryBatch, poll_with_retry
from repro.cloud.faults import FaultSchedule
from repro.core import EpactPolicy, FleetSpec, PoolSpec
from repro.cloud.streaming import (
    _FRAME,
    _PREAMBLE,
    BLIND_AFTER_SLOTS,
    CHECKPOINT_VERSION,
    _Bounded,
    read_checkpoint,
)
from repro.dcsim import DataCenterSimulation
from repro.errors import (
    CheckpointError,
    CollectorTimeoutError,
    ConfigurationError,
    DomainError,
)
from repro.forecast import DayAheadPredictor
from repro.obs import RunTracer
from repro.obs.tracer import validate_event
from repro.power.server_power import (
    conventional_server_power_model,
    ntc_server_power_model,
)
from repro.shard import ShardedPolicy
from repro.traces import default_dataset
from repro.traces.lifecycle import ChurnConfig, generate_lifecycle
from repro.units import SAMPLES_PER_DAY, SAMPLES_PER_SLOT, SLOTS_PER_DAY


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def ds():
    return default_dataset(n_vms=30, n_days=9, seed=77)


@pytest.fixture(scope="module")
def pred(ds):
    predictor = DayAheadPredictor(ds)
    for day in range(7, ds.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="module")
def fixed(ds):
    return fixed_schedule(ds.n_vms, 0, ds.n_slots)


def _push_trace(push, dataset, slots, hold=()):
    """Push every true sample of ``slots``, each slot's pollable at the
    next slot (on time), except the ``(row, sample)`` cells in
    ``hold``."""
    rows = np.repeat(np.arange(dataset.n_vms), SAMPLES_PER_SLOT)
    for slot in slots:
        lo = slot * SAMPLES_PER_SLOT
        samples = lo + np.tile(np.arange(SAMPLES_PER_SLOT), dataset.n_vms)
        keep = np.ones(rows.size, dtype=bool)
        for row, sample in hold:
            keep &= (rows != row) | (samples != sample)
        push.push(
            rows[keep],
            samples[keep],
            dataset.cpu_pct[:, lo:lo + SAMPLES_PER_SLOT].ravel()[keep],
            dataset.mem_pct[:, lo:lo + SAMPLES_PER_SLOT].ravel()[keep],
            available_at=slot + 1,
        )


# -- clean-telemetry bit-identity -------------------------------------------


class TestCleanBitIdentity:
    def test_fixed_population(self, ds, pred, fixed):
        kwargs = dict(max_servers=20, n_slots=24)
        batch = DataCenterSimulation(
            ds, pred, EpactPolicy(), schedule=fixed, **kwargs
        ).run()
        streaming = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            EpactPolicy(),
            fixed,
            telemetry=zero_telemetry_faults(ds.n_vms, 0, ds.n_slots),
            **kwargs,
        ).run()
        assert records_equal(batch.records, streaming.records)

    def test_churn(self, ds, pred):
        schedule = generate_lifecycle(
            ds.n_vms,
            168,
            168 + 24,
            config=ChurnConfig(initial_fraction=0.5),
            seed=9,
        )
        kwargs = dict(max_servers=20, n_slots=24)
        batch = DataCenterSimulation(
            ds, pred, OnlineReactivePolicy(), schedule=schedule, **kwargs
        ).run()
        streaming = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            schedule,
            telemetry=zero_telemetry_faults(ds.n_vms, 0, ds.n_slots),
            **kwargs,
        ).run()
        assert records_equal(batch.records, streaming.records)


# -- the fallback ladder ----------------------------------------------------


class TestFallbackLadder:
    def test_fresh_rung_on_clean_stream(self, ds, pred, fixed):
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=zero_telemetry_faults(ds.n_vms, 0, ds.n_slots),
            max_servers=20,
            n_slots=24,
        )
        result = sim.run()
        assert sim._ladder.day_decision(7)[0] == RUNG_FRESH
        assert result.total_stale_forecast_windows == 0
        assert result.total_blind_windows == 0
        assert result.total_imputed_samples == 0

    def test_stale_then_behind_budget(self):
        # Clean history for 8 days, then the stream drops every VM but
        # VM 0: day 9 still fits fresh (11/84 of its history imputed),
        # day 10 crosses max_imputed_frac (22/84) and re-uses day 9's
        # forecast (stale rung).  VM 0 keeps reporting, so the feed
        # never goes dark and no window goes blind.
        ds = default_dataset(n_vms=12, n_days=11, seed=5)
        shape = (ds.n_vms, ds.n_samples)
        drop = np.zeros(shape, dtype=bool)
        drop[1:, 8 * SLOTS_PER_DAY * SAMPLES_PER_SLOT :] = True
        telemetry = TelemetryFaultSchedule(
            ds.n_vms, 0, ds.n_slots, drop=drop
        )
        tracer = RunTracer()
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed_schedule(ds.n_vms, 0, ds.n_slots),
            telemetry=telemetry,
            max_servers=10,
            n_slots=4 * SLOTS_PER_DAY,
            tracer=tracer,
        )
        result = sim.run()
        rungs = {e["day"]: e["rung"] for e in tracer.of_type("ladder_rung")}
        assert rungs == {
            7: RUNG_FRESH, 8: RUNG_FRESH, 9: RUNG_FRESH, 10: RUNG_STALE
        }
        assert result.total_stale_forecast_windows > 0
        assert result.total_blind_windows == 0
        # The stale rung re-uses the last fresh arrays verbatim.
        _, cpu9, _ = sim._ladder.day_decision(9)
        _, cpu10, _ = sim._ladder.day_decision(10)
        assert cpu10 is cpu9
        # Each new day evicted the older ones except the stale rung's
        # source; an evicted day is refused, not re-fitted on later
        # observations.
        assert sorted(sim._ladder._days) == [9, 10]
        assert sim._ladder._sources == {9: 9, 10: 9}
        with pytest.raises(DomainError, match="precedes decided day 10"):
            sim._ladder.day_decision(8)

    def test_persistence_rung_when_nothing_fits(self, ds, fixed):
        drop = np.ones((ds.n_vms, ds.n_samples), dtype=bool)
        telemetry = TelemetryFaultSchedule(
            ds.n_vms, 0, ds.n_slots, drop=drop
        )
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=telemetry,
            max_servers=20,
            n_slots=24,
        )
        result = sim.run()
        rung, cpu, mem = sim._ladder.day_decision(7)
        assert rung == RUNG_PERSISTENCE
        assert cpu is None and mem is None
        # The first window plans from cold-start persistence (the dark
        # feed freezes that placement after it); accounting still runs
        # on the true traces.
        assert result.total_energy_mj > 0.0
        assert result.total_imputed_samples > 0
        assert result.total_stale_forecast_windows == 0

    def test_blind_rung_under_collector_outage(self, ds, fixed):
        telemetry = TelemetryFaultSchedule(
            ds.n_vms,
            0,
            ds.n_slots,
            collector_outages=[(0, 170, 186)],
        )
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=telemetry,
            max_servers=20,
            n_slots=24,
        )
        result = sim.run()
        blind = [r for r in result.records if r.blind_window]
        assert blind, "outage long past BLIND_AFTER_SLOTS must go blind"
        assert all(r.case == "blind-freeze" for r in blind)
        # The frozen placement neither migrates nor re-plans.
        assert all(r.migrations == 0 for r in blind)
        summary = summarize(result)
        assert summary.blind_windows == len(blind)
        assert summary.collector_downtime_minutes == pytest.approx(
            16 * 60.0
        )
        down = [r.collectors_down for r in result.records]
        assert sum(down) == 16

    def test_future_stamp_does_not_hold_off_the_blind_rung(self, ds, fixed):
        # A push feed delivers every sample on time up to slot 171 and
        # one reading stamped at the horizon's last sample, then goes
        # dark.  The future stamp is dropped at the poll that delivers
        # it (it once set the newest delivery slot to the horizon's
        # last, and no later window could go blind), so the run goes
        # blind once the feed has been dark for BLIND_AFTER_SLOTS.
        push = PushCollector(0)
        _push_trace(push, ds, range(172))
        push.push([0], [ds.n_samples - 1], [40.0], [20.0], available_at=170)
        tracer = RunTracer()
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            collectors=[push],
            max_servers=20,
            n_slots=24,
            tracer=tracer,
        )
        result = sim.run()
        assert sim._ingest.newest_delivery_slot == 171
        blind = [r.slot_index for r in result.records if r.blind_window]
        assert blind == list(range(171 + BLIND_AFTER_SLOTS + 1, 168 + 24))
        rejected = {
            e["slot"]: e["rejected_readings"]
            for e in tracer.of_type("telemetry_window")
            if e["rejected_readings"]
        }
        assert rejected == {170: 1}

    def test_blind_recovers_after_backlog_burst(self, ds, fixed):
        telemetry = TelemetryFaultSchedule(
            ds.n_vms,
            0,
            ds.n_slots,
            collector_outages=[(0, 170, 180)],
        )
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=telemetry,
            max_servers=20,
            n_slots=24,
        )
        result = sim.run()
        # After recovery the queued backlog arrives in one burst and
        # decisions resume: the tail windows are not blind.
        tail = [r for r in result.records if r.slot_index >= 182]
        assert tail and all(r.blind_window == 0 for r in tail)
        assert sim._ingest.newest_delivery_slot == 168 + 24 - 2


# -- collectors: late, out-of-order, outage, retry --------------------------


class TestCollectors:
    def test_late_delivery_is_out_of_order_then_backfills(self):
        ds = default_dataset(n_vms=2, n_days=1, seed=3)
        shape = (2, ds.n_samples)
        delay = np.zeros(shape, dtype=np.int64)
        delay[0, :SAMPLES_PER_SLOT] = 2  # VM 0's slot-0 samples: +2 slots
        telemetry = TelemetryFaultSchedule(
            2, 0, ds.n_slots, delay_slots=delay
        )
        collector = TraceCollector(0, ds, telemetry)
        ingest = TelemetryIngest(ds)

        b1 = collector.poll(1)  # on-time slot-0 samples: VM 1 only
        assert set(b1.vm_rows.tolist()) == {1}
        assert b1.n_samples == SAMPLES_PER_SLOT

        b2 = collector.poll(2)  # slot-1 samples, both VMs, on time
        assert b2.n_samples == 2 * SAMPLES_PER_SLOT

        b3 = collector.poll(3)  # slot-2 on time + VM 0's late slot 0
        assert b3.n_samples == 3 * SAMPLES_PER_SLOT
        late = b3.samples[b3.vm_rows == 0]
        assert late.min() < b2.samples.min()  # genuinely out of order

        for batch in (b1, b2, b3):
            ingest.ingest(batch)
        lo, hi = 0, 3 * SAMPLES_PER_SLOT
        assert ingest.valid[:, lo:hi].all()
        np.testing.assert_array_equal(
            ingest.obs_cpu[:, lo:hi], ds.cpu_pct[:, lo:hi]
        )

    def test_outage_times_out_then_bursts(self):
        ds = default_dataset(n_vms=2, n_days=1, seed=3)
        telemetry = TelemetryFaultSchedule(
            2, 0, ds.n_slots, collector_outages=[(0, 2, 4)]
        )
        collector = TraceCollector(0, ds, telemetry)
        assert collector.poll(1).n_samples == 2 * SAMPLES_PER_SLOT
        with pytest.raises(CollectorTimeoutError):
            collector.poll(2)
        with pytest.raises(CollectorTimeoutError):
            collector.poll(3)
        burst = collector.poll(4)  # slots 1-3's samples arrive at once
        assert burst.n_samples == 3 * 2 * SAMPLES_PER_SLOT

    def test_poll_with_retry_backoff_and_exhaustion(self):
        ds = default_dataset(n_vms=2, n_days=1, seed=3)
        telemetry = TelemetryFaultSchedule(
            2, 0, ds.n_slots, collector_outages=[(0, 2, 4)]
        )
        collector = TraceCollector(0, ds, telemetry)
        collector.poll(1)
        waits = []
        out = poll_with_retry(
            collector, 2, retries=2, backoff_s=0.5, sleep=waits.append
        )
        assert out is None  # still down after every attempt
        assert waits == [0.5, 1.0]  # exponential backoff, injectable
        # A successful poll needs no retries and no sleeping.
        waits.clear()
        assert (
            poll_with_retry(
                collector, 4, retries=2, backoff_s=0.5, sleep=waits.append
            ).n_samples
            > 0
        )
        assert waits == []

    def test_dropped_samples_are_never_delivered(self):
        """However late the poll, a dropped sample stays lost: every
        other sample arrives by the poll after its slot, and a poll far
        past the horizon returns nothing more."""
        ds = default_dataset(n_vms=6, n_days=2, seed=3)
        schedule = get_telemetry_scenario("lossy-10pct").build(
            ds.n_vms, 0, ds.n_slots, seed=3
        )
        collector = TraceCollector(0, ds, schedule)
        delivered = sum(
            collector.poll(slot).n_samples
            for slot in range(1, ds.n_slots + 1)
        )
        assert delivered == int((~schedule._drop).sum())
        assert collector.poll(ds.n_slots + 100).n_samples == 0
        assert collector.state() == (delivered, ds.n_slots + 100)

    def test_schedule_past_the_dataset_is_refused(self):
        ds = default_dataset(n_vms=6, n_days=2, seed=3)
        schedule = get_telemetry_scenario("lossy-10pct").build(6, 0, 72)
        with pytest.raises(ConfigurationError, match=r"\[0, 72\).*48 slots"):
            TraceCollector(0, ds, schedule)

    def test_construction_holds_nothing_horizon_sized(self):
        """Under 1 MB for a 400-VM, 16-day ``lossy-10pct`` schedule
        (its whole-horizon stream takes about 70 MB)."""
        ds = default_dataset(n_vms=400, n_days=16, seed=2018)
        schedule = get_telemetry_scenario("lossy-10pct").build(
            ds.n_vms, 0, ds.n_slots, seed=2018
        )
        tracemalloc.start()
        try:
            TraceCollector(0, ds, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_masks_held_only_for_enabled_classes(self):
        """``lossy-10pct`` at 400 VMs x 16 days holds its drop and NaN
        masks, one byte a sample each (3.5 MiB), and neither an
        all-zero spike mask (1.8 MiB) nor all-zero int64 delays
        (14.1 MiB)."""
        schedule = get_telemetry_scenario("lossy-10pct").build(
            400, 0, 16 * SLOTS_PER_DAY, seed=2018
        )
        masks = (schedule._drop, schedule._nan, schedule._spike, schedule._delay)
        assert schedule._spike is None and schedule._delay is None
        held = sum(mask.nbytes for mask in masks if mask is not None)
        assert held == 2 * 400 * 16 * SAMPLES_PER_DAY
        # An absent class reads as zeros of the slice asked for.
        _, _, spike, delay = schedule._sample_masks(slice(1, None, 2), 5, 29)
        assert spike.shape == delay.shape == (200, 24)
        assert not spike.any() and not delay.any()
        # Delays take the smallest unsigned type holding the largest.
        late = get_telemetry_scenario("late-burst").build(10, 0, 48, seed=1)
        assert late._delay.dtype == np.uint8 and late._delay.max() == 4

    @pytest.mark.parametrize("name", sorted(TELEMETRY_SCENARIOS))
    def test_polls_equal_the_whole_horizon_stream(self, name):
        """Poll for poll, the day-at-a-time build returns the slice of
        the whole-horizon reference stream between its delivered
        counts, through random gaps and repeats, dropout windows, a
        restore mid-run and polls past the horizon."""
        ds = default_dataset(n_vms=10, n_days=4, seed=21)
        schedule = TELEMETRY_SCENARIOS[name].build(
            ds.n_vms, 0, ds.n_slots, seed=6
        )
        rng = np.random.default_rng(len(name))
        polls = timeouts = restores = 0
        for cid in range(schedule.n_collectors):
            avail, stream = _replay_stream_reference(cid, ds, schedule)
            collector = TraceCollector(cid, ds, schedule)
            slot, saved = 0, None
            while slot < ds.n_slots + 12:
                step = int(rng.choice([-2, 0, 1, 1, 1, 2, 3, 9]))
                slot = max(slot + step, 0)
                before = collector.state()
                try:
                    batch = collector.poll(slot)
                except CollectorTimeoutError:
                    assert collector.state() == before
                    timeouts += 1
                    continue
                polls += 1
                count, last = collector.state()
                assert count == np.searchsorted(avail, last, side="right")
                for field in ("vm_rows", "samples", "cpu", "mem"):
                    np.testing.assert_array_equal(
                        getattr(batch, field),
                        getattr(stream, field)[before[0] : count],
                    )
                if saved is None and slot > SLOTS_PER_DAY:
                    saved = (collector.state(), slot)
                elif saved and slot > 2 * SLOTS_PER_DAY:
                    collector.restore(saved[0])
                    slot = saved[1]
                    saved = False
                    restores += 1
        assert polls > 20 and restores == schedule.n_collectors
        if name == "collector-outage":
            assert timeouts > 0

    @pytest.mark.parametrize("name", ["clean", "corrupt-spikes"])
    def test_telemetry_windows_count_rejected_readings(self, ds, fixed, name):
        telemetry = get_telemetry_scenario(name).build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        tracer = RunTracer()
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=telemetry,
            max_servers=20,
            n_slots=24,
            tracer=tracer,
        )
        sim.run()
        events = tracer.of_type("telemetry_window")
        for event in events:
            validate_event(event)
        rejected = sum(e["rejected_readings"] for e in events)
        # A replay feed delivers each sample at most once, so the
        # readings stored are the valid cells.
        delivered = sum(c.state()[0] for c in sim._collectors)
        assert rejected == delivered - int(sim._ingest.valid.sum())
        assert (rejected > 0) == (name == "corrupt-spikes")

    def test_corruption_rejected_at_ingest(self):
        ds = default_dataset(n_vms=2, n_days=1, seed=3)
        cfg = TelemetryFaultConfig(nan_prob=0.5, spike_prob=0.5)
        telemetry = generate_telemetry_faults(
            2, 0, ds.n_slots, config=cfg, seed=11
        )
        collector = TraceCollector(0, ds, telemetry)
        ingest = TelemetryIngest(ds)
        batch = collector.poll(ds.n_slots - 1)
        corrupt = ~np.isfinite(batch.cpu) | (batch.cpu > 100.0)
        assert corrupt.any() and (~corrupt).any()
        ingest.ingest(batch)
        # Only clean readings were stored; everything stored matches
        # the true trace, corruption shows up as imputed quality.
        assert ingest.obs_cpu[ingest.valid].max() <= 100.0
        lo, hi = 0, (ds.n_slots - 1) * SAMPLES_PER_SLOT
        quality = ingest.sample_quality(lo, hi)
        assert (quality == QUALITY_IMPUTED).any()
        assert (quality == QUALITY_OBSERVED).any()


# -- the ingest's trust boundary -------------------------------------------


class TestIngestIndices:
    """A batch's VM rows and sample indices are checked, not trusted."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return default_dataset(n_vms=3, n_days=1, seed=3)

    @staticmethod
    def _batch(rows, samples, cpu=None, mem=None):
        rows = np.asarray(rows)
        n = rows.size
        return TelemetryBatch(
            vm_rows=rows,
            samples=np.asarray(samples),
            cpu=np.full(n, 40.0) if cpu is None else np.asarray(cpu),
            mem=np.full(n, 20.0) if mem is None else np.asarray(mem),
        )

    @staticmethod
    def _state(ingest):
        return (
            ingest.obs_cpu.copy(),
            ingest.obs_mem.copy(),
            ingest.valid.copy(),
            ingest.newest_delivery_slot,
        )

    def _assert_same(self, a, b):
        for x, y in zip(self._state(a), self._state(b)):
            np.testing.assert_array_equal(x, y)

    def test_negative_indices_are_dropped(self, tiny):
        # Once stored as VM 2's last sample of the horizon.
        ingest = TelemetryIngest(tiny)
        ingest.ingest(self._batch([-1], [-1]))
        assert not ingest.valid.any()
        assert ingest.newest_delivery_slot == -1
        self._assert_same(ingest, TelemetryIngest(tiny))

    def test_out_of_range_indices_are_dropped(self, tiny):
        # A row past the fleet once raised a bare IndexError.
        ingest = TelemetryIngest(tiny)
        ingest.ingest(self._batch([5], [0]))
        ingest.ingest(self._batch([0], [tiny.n_samples]))
        assert not ingest.valid.any()
        assert ingest.newest_delivery_slot == -1

    def test_future_stamps_are_dropped(self):
        # A reading stamped at the last sample of an 8-day horizon once
        # set the newest delivery slot to 191 of 192, and no later
        # window could take the reactive-only rung.
        week = default_dataset(n_vms=3, n_days=8, seed=3)
        ingest = TelemetryIngest(week)
        assert ingest.ingest(self._batch([0], [week.n_samples - 1]), 10) == 1
        assert not ingest.valid.any()
        assert ingest.newest_delivery_slot == -1
        # A poll at slot s stores only the samples taken before s.
        edge = 10 * SAMPLES_PER_SLOT
        batch = self._batch([1, 1, 2], [edge - 1, edge, 0])
        assert ingest.ingest(batch, 10) == 1
        assert ingest.valid.sum() == 2 and ingest.valid[1, edge - 1]
        assert ingest.newest_delivery_slot == 9

    def test_ragged_batch_is_refused(self, tiny):
        ingest = TelemetryIngest(tiny)
        for batch in (
            self._batch([0, 1], [0]),
            self._batch([0, 1], [0, 1], cpu=[40.0]),
            self._batch([0], [0], mem=[20.0, 20.0]),
        ):
            with pytest.raises(DomainError, match="differ in shape"):
                ingest.ingest(batch)
        assert not ingest.valid.any()

    def test_float_indices_are_refused(self, tiny):
        ingest = TelemetryIngest(tiny)
        for rows, samples in (([0.0], [0]), ([0], [1.5]), ([True], [0])):
            with pytest.raises(DomainError, match="must be integers"):
                ingest.ingest(self._batch(rows, samples))
        assert not ingest.valid.any()

    def test_mixed_batch_stores_exactly_its_valid_part(self, tiny):
        n = tiny.n_samples
        rows = np.array([0, -1, 1, 3, 2, 2, 0, 1, 2], dtype=np.int64)
        samples = np.array([5, 7, 30, 4, -2, n, 40, 41, n - 1])
        cpu = np.array([10.0, 50, np.nan, 60, 70, 80, 101.0, 30, 45])
        mem = np.array([11.0, 51, 20, 61, 71, 81, 20.0, -np.inf, 46])
        mixed = TelemetryIngest(tiny)
        mixed.ingest(self._batch(rows, samples, cpu, mem))
        keep = np.array([0, 8])  # in range, both readings in [0, 100]
        clean = TelemetryIngest(tiny)
        clean.ingest(
            self._batch(rows[keep], samples[keep], cpu[keep], mem[keep])
        )
        self._assert_same(mixed, clean)
        assert mixed.valid.sum() == 2
        assert mixed.newest_delivery_slot == (n - 1) // SAMPLES_PER_SLOT
        # Unsigned and narrow integer indices store the same cells.
        narrow = TelemetryIngest(tiny)
        narrow.ingest(
            self._batch(
                rows[keep].astype(np.uint8),
                samples[keep].astype(np.uint16),
                cpu[keep],
                mem[keep],
            )
        )
        self._assert_same(narrow, clean)


# -- imputation -------------------------------------------------------------


class TestImputation:
    def _ingest_with(self, ds, rows, samples):
        ingest = TelemetryIngest(ds, cold_start_util_pct=37.0)
        rows = np.asarray(rows)
        samples = np.asarray(samples)
        ingest.ingest(
            TelemetryBatch(
                vm_rows=rows,
                samples=samples,
                cpu=ds.cpu_pct[rows, samples],
                mem=ds.mem_pct[rows, samples],
            )
        )
        return ingest

    def test_linear_interior_locf_edges_cold_start(self):
        ds = default_dataset(n_vms=3, n_days=1, seed=13)
        # VM 0: observed at samples 2 and 6 of the window; VM 1: one
        # earlier observation only (carry); VM 2: never observed.
        ingest = self._ingest_with(ds, [0, 0, 1], [12, 16, 4])
        cpu, _ = ingest.filled_window(10, 20)
        # interior gap of VM 0: linear between samples 12 and 16
        expect = np.interp(
            np.arange(10, 20), [12, 16], ds.cpu_pct[0, [12, 16]]
        )
        # leading edge backfills (no VM-0 history before sample 10),
        # trailing edge carries the last observation forward
        np.testing.assert_allclose(cpu[0], expect)
        # VM 1: last-observation-carried-forward across the window
        np.testing.assert_allclose(cpu[1], ds.cpu_pct[1, 4])
        # VM 2: cold start
        np.testing.assert_allclose(cpu[2], 37.0)

    def test_leading_gap_prefers_carry_over_backfill(self):
        ds = default_dataset(n_vms=1, n_days=1, seed=13)
        ingest = self._ingest_with(ds, [0, 0], [4, 15])
        cpu, _ = ingest.filled_window(10, 20)
        # samples 10..14 carry the sample-4 value (history wins over
        # backfilling from sample 15); 15..19 follow the observation.
        np.testing.assert_allclose(cpu[0, :5], ds.cpu_pct[0, 4])
        assert cpu[0, 5] == ds.cpu_pct[0, 15]

    def test_never_observed_vm_is_cold_from_sample_zero(self):
        """A window starting at sample 0 has no history to carry: a VM
        with no observation in it gets the cold-start value, as in any
        later window."""
        ds = default_dataset(n_vms=2, n_days=1, seed=13)
        ingest = self._ingest_with(ds, [0], [5])
        for fill in (ingest.filled_window, ingest._fill_reference):
            cpu, mem = fill(0, 12)
            assert (cpu[1] == 37.0).all() and (mem[1] == 37.0).all()
            assert (cpu[0] == ds.cpu_pct[0, 5]).all()
        cpu, mem = ingest.last_values(0)
        assert (cpu == 37.0).all() and (mem == 37.0).all()

    def test_clean_window_is_verbatim(self):
        ds = default_dataset(n_vms=2, n_days=1, seed=13)
        rows = np.repeat([0, 1], 10)
        samples = np.tile(np.arange(10, 20), 2)
        ingest = self._ingest_with(ds, rows, samples)
        cpu, mem = ingest.filled_window(10, 20)
        np.testing.assert_array_equal(cpu, ds.cpu_pct[:, 10:20])
        np.testing.assert_array_equal(mem, ds.mem_pct[:, 10:20])
        assert (
            ingest.sample_quality(10, 20) == QUALITY_OBSERVED
        ).all()
        assert ingest.missing_fraction(10, 20) == 0.0

    @pytest.mark.nightly
    def test_fill_matches_reference_at_400_vms(self):
        """A ``lossy-10pct`` feed at 400 VMs, delivered through its
        collectors up to day 8: the batched fill equals the per-VM loop
        bit for bit over each of the last day's 24 slot windows and over
        the 7-day window a day-8 re-fit reads."""
        day = 8
        dataset = default_dataset(n_vms=400, n_days=day + 1, seed=2018)
        schedule = get_telemetry_scenario("lossy-10pct").build(
            dataset.n_vms, 0, dataset.n_slots, seed=2018
        )
        ingest = TelemetryIngest(dataset)
        collectors = [
            TraceCollector(c, dataset, schedule)
            for c in range(schedule.n_collectors)
        ]
        for slot in range(day * SLOTS_PER_DAY + 1):
            for collector in collectors:
                ingest.ingest(collector.poll(slot))

        hi = day * SAMPLES_PER_DAY
        windows = [
            (lo, lo + SAMPLES_PER_SLOT)
            for lo in range(hi - SAMPLES_PER_DAY, hi, SAMPLES_PER_SLOT)
        ]
        windows.append((hi - 7 * SAMPLES_PER_DAY, hi))
        assert not ingest.valid[:, windows[-1][0]:hi].all()
        for start, stop in windows:
            filled = ingest.filled_window(start, stop)
            reference = ingest._fill_reference(start, stop)
            for got, want in zip(filled, reference):
                assert got.tobytes() == want.tobytes()


# -- the day fit over the VMs that can still be placed ----------------------


def _churn_sim(ds, **kwargs):
    """Days 7 and 8 under churn and a 1% lossy feed: six VMs depart
    before day 8's first slot, and nine never run."""
    schedule = generate_lifecycle(
        ds.n_vms,
        168,
        168 + 48,
        config=ChurnConfig(initial_fraction=0.5),
        seed=9,
    )
    telemetry = get_telemetry_scenario("lossy-1pct").build(
        ds.n_vms, 0, ds.n_slots, seed=9
    )
    return schedule, StreamingCloudSimulation(
        ds,
        DayAheadPredictor(ds),
        EpactPolicy(),
        schedule,
        telemetry=telemetry,
        max_servers=20,
        n_slots=48,
        **kwargs,
    )


class TestLiveRowFit:
    def test_fresh_days_fit_only_the_vms_not_departed(self, ds):
        """Each fresh day is NaN exactly on the rows departed by its
        deciding slot, and elsewhere equals the fit of every VM's
        filled window at decision time, bit for bit."""
        schedule, sim = _churn_sim(ds)
        ladder, ingest = sim._ladder, sim._ingest
        decide = ladder.day_decision
        fits = {}

        def spy(day, rows=None):
            decision = decide(day, rows)
            if decision[0] == RUNG_FRESH and day not in fits:
                lo = (day - 7) * SAMPLES_PER_DAY
                window = ingest.filled_window(lo, day * SAMPLES_PER_DAY)
                fits[day] = (decision, ladder._fitter.fit_day(day, *window))
            return decision

        ladder.day_decision = spy
        decisions = list(sim.windows())
        assert sorted(fits) == [7, 8]
        departures = 0
        for day, ((_, cpu, mem), full) in fits.items():
            deciding = min(
                d.slot
                for d in decisions
                if d.slot // SLOTS_PER_DAY == day and d.n_active_vms
            )
            departed = schedule.departure_slots <= deciding
            departures += int(departed.sum())
            for got, want in zip((cpu, mem), full):
                assert (np.isnan(got).all(axis=1) == departed).all()
                assert not np.isnan(got[~departed]).any()
                assert got[~departed].tobytes() == want[~departed].tobytes()
        assert departures == 6

    def test_reading_an_unfitted_row_raises(self, ds, fixed):
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=zero_telemetry_faults(ds.n_vms, 0, ds.n_slots),
            max_servers=20,
            n_slots=48,
        )
        windows = sim.windows()
        while True:
            decision = next(windows)
            if decision.slot + decision.n_window == 8 * SLOTS_PER_DAY:
                break
        # Decide day 8 ahead of its first window, without VM 0.
        rung, cpu, _ = sim._ladder.day_decision(8, np.arange(1, ds.n_vms))
        assert rung == RUNG_FRESH and np.isnan(cpu[0]).all()
        with pytest.raises(DomainError, match=r"VM 0 is active.*day 8"):
            next(windows)

    def test_day_fits_run_inside_the_forecast_phase(self, ds):
        """Two ``forecast`` calls per window: the day decision and the
        window's predictions; tracing changes no record."""
        plain = _churn_sim(ds)[1].run()
        tracer = RunTracer()
        sim = _churn_sim(ds, tracer=tracer)[1]
        decisions = list(sim.windows())
        assert records_equal(sim.result.records, plain.records)
        assert not any(d.blind for d in decisions)
        active = sum(1 for d in decisions if d.n_active_vms)
        assert tracer.phase("forecast").calls == 2 * active


# -- checkpoint/resume ------------------------------------------------------


def _member_span(path, member):
    """(offset, size) of a base member's stored bytes in the file."""
    with open(path, "rb") as fh:
        _, _, base_len = _PREAMBLE.unpack(fh.read(_PREAMBLE.size))
        base = _Bounded(fh, _PREAMBLE.size + base_len)
        with zipfile.ZipFile(base) as archive:
            info = archive.getinfo(member + ".npy")
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


def _days(arrays, name):
    """The days of a checkpoint part's ``ingest.<name>.<day>`` arrays."""
    prefix = f"ingest.{name}."
    return sorted(
        int(key[len(prefix):]) for key in arrays if key.startswith(prefix)
    )


def _joined(arrays, name):
    """A checkpoint part's ``ingest.<name>.<day>`` arrays, joined."""
    return np.concatenate(
        [arrays[f"ingest.{name}.{day}"] for day in _days(arrays, name)],
        axis=1,
    )


def _ingest_columns(header, arrays):
    """The observation columns ``(lo, hi)`` a checkpoint part holds:
    its day arrays, checked to run on from its first column, with the
    validity packed over the same columns."""
    lo = hi = header["ingest"]["from_sample"]
    for day in _days(arrays, "obs_cpu"):
        assert day == hi // SAMPLES_PER_DAY
        cpu = arrays[f"ingest.obs_cpu.{day}"]
        assert arrays[f"ingest.obs_mem.{day}"].shape == cpu.shape
        hi += cpu.shape[1]
    assert arrays["ingest.valid_bits"].shape[1] == -(-(hi - lo) // 8)
    return lo, hi


def _record_spans(path):
    """(offset, length) of every record's frame plus payload."""
    data = path.read_bytes()
    _, _, base_len = _PREAMBLE.unpack_from(data)
    pos, spans = _PREAMBLE.size + base_len, []
    while pos < len(data):
        length, _ = _FRAME.unpack_from(data, pos)
        spans.append((pos, _FRAME.size + length))
        pos += _FRAME.size + length
    return spans


def _drain_copying(sim, path, directory):
    """Drain ``sim``; copy its checkpoint file at every boundary."""
    copies = []
    for decision in sim.windows():
        if decision.checkpointed:
            copies.append(directory / f"boundary-{len(copies)}")
            shutil.copyfile(path, copies[-1])
    return copies


class TestCheckpointResume:
    def _sim(self, ds, schedule, telemetry, **kwargs):
        return StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            schedule,
            telemetry=telemetry,
            max_servers=20,
            n_slots=24,
            **kwargs,
        )

    def test_resume_equals_uninterrupted(self, ds, tmp_path):
        schedule = generate_lifecycle(
            ds.n_vms,
            168,
            168 + 24,
            config=ChurnConfig(initial_fraction=0.5),
            seed=9,
        )
        telemetry = get_telemetry_scenario("lossy-10pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = tmp_path / "ckpt"
        simA = self._sim(
            ds,
            schedule,
            telemetry,
            checkpoint_every_slots=7,
            checkpoint_path=str(path),
        )
        copies = _drain_copying(simA, path, tmp_path)
        full = simA.result
        assert len(copies) >= 2
        assert path.read_bytes() == copies[-1].read_bytes()
        for copied in copies:
            simB = self._sim(ds, schedule, telemetry)
            simB.restore(str(copied))
            resumed = simB.run()
            assert records_equal(full.records, resumed.records)

    def test_resume_from_file(self, ds, fixed, tmp_path):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        # Written at exactly the given path, whatever its suffix.
        path = tmp_path / "ckpt.bin"
        simA = self._sim(
            ds,
            fixed,
            telemetry,
            checkpoint_every_slots=10,
            checkpoint_path=str(path),
        )
        full = simA.run()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
        _, version, _ = _PREAMBLE.unpack_from(path.read_bytes())
        assert version == CHECKPOINT_VERSION
        # Pickle-free parts: a JSON header plus plain arrays each.
        (base, base_arrays), (record, arrays) = read_checkpoint(path)
        assert all(
            a.dtype != object
            for part in (base_arrays, arrays)
            for a in part.values()
        )
        assert base["loop"]["slot"] == 168 + 10
        assert record["loop"]["slot"] == 168 + 20
        # One array per observed day, from column 0 to the end of the
        # newest delivered slot.
        newest = base["ingest"]["newest_delivery_slot"]
        assert newest // SLOTS_PER_DAY == 7
        base_end = (newest + 1) * SAMPLES_PER_SLOT
        for name in ("obs_cpu", "obs_mem"):
            assert {
                key for key in base_arrays if key.startswith(f"ingest.{name}")
            } == {f"ingest.{name}.{day}" for day in range(8)}
        assert _ingest_columns(base, base_arrays) == (0, base_end)
        assert base_arrays["ingest.obs_cpu.7"].shape == (
            ds.n_vms, base_end - 7 * SAMPLES_PER_DAY
        )
        assert "ingest.imp_cpu" not in base_arrays  # derived, not state
        # The record: on-time deliveries since the base, from where the
        # base ended to the end of the record's newest delivered slot.
        newest = record["ingest"]["newest_delivery_slot"]
        assert _ingest_columns(record, arrays) == (
            base_end, (newest + 1) * SAMPLES_PER_SLOT
        )
        simB = self._sim(ds, fixed, telemetry)
        simB.restore(str(path))
        assert records_equal(full.records, simB.run().records)

    def test_restore_refuses_damaged_files(self, ds, fixed, tmp_path):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = tmp_path / "ckpt"
        self._sim(
            ds,
            fixed,
            telemetry,
            checkpoint_every_slots=6,
            checkpoint_path=str(path),
        ).run()
        data = path.read_bytes()
        (first, first_len), *_, (last, _) = _record_spans(path)
        assert first < last
        offset, size = _member_span(path, "ingest.obs_cpu.3")
        damaged_base = bytearray(data)
        damaged_base[offset + size // 2] ^= 0xFF
        damaged_record = bytearray(data)
        damaged_record[first + first_len // 2] ^= 0xFF
        magic, version, base_len = _PREAMBLE.unpack_from(data)
        bumped = (
            _PREAMBLE.pack(magic, version + 1, base_len)
            + data[_PREAMBLE.size:]
        )
        npz = tmp_path / "format-1.npz"
        with open(npz, "wb") as fh:
            np.savez(fh, header=np.frombuffer(b"{}", np.uint8))
        cases = {
            "damaged-base": (bytes(damaged_base), "not a readable checkpoint"),
            "short-base": (data[: first // 2], "not a readable checkpoint"),
            "damaged-record": (
                bytes(damaged_record),
                "damaged record at byte",
            ),
            "empty": (b"", "not a readable checkpoint"),
            "text": (b"not a checkpoint", "not a readable checkpoint"),
            "old.pkl": (
                pickle.dumps({"loop": None}, protocol=5),
                "pickle checkpoints are no longer read",
            ),
            "format-1.npz": (npz.read_bytes(), "format-1 .npz checkpoint"),
            "bumped": (
                bumped,
                f"format version {CHECKPOINT_VERSION + 1}; this build "
                f"reads version {CHECKPOINT_VERSION}",
            ),
        }
        for name, (content, message) in cases.items():
            (tmp_path / name).write_bytes(content)
            with pytest.raises(CheckpointError, match=message) as info:
                self._sim(ds, fixed, telemetry).restore(str(tmp_path / name))
            assert "\n" not in str(info.value)
        with pytest.raises(CheckpointError, match="does not exist"):
            self._sim(ds, fixed, telemetry).restore(
                str(tmp_path / "missing")
            )

    def test_base_holds_no_day_after_the_newest_delivery(self, tmp_path):
        # Nine evaluated days of a 4-VM late-delivery feed, checkpointed
        # every 12 slots, write several bases: each stores the days up
        # to its newest delivery's day and none after, and every stored
        # reading lies in those days.
        small = default_dataset(n_vms=4, n_days=16, seed=77)
        path = tmp_path / "ckpt"
        sim = StreamingCloudSimulation(
            small,
            DayAheadPredictor(small),
            OnlineReactivePolicy(),
            fixed_schedule(small.n_vms, 0, small.n_slots),
            telemetry=get_telemetry_scenario("late-burst").build(
                small.n_vms, 0, small.n_slots, seed=4
            ),
            max_servers=4,
            checkpoint_every_slots=12,
            checkpoint_path=str(path),
        )
        base_days = []
        for decision in sim.windows():
            parts = read_checkpoint(path) if decision.checkpointed else ()
            if len(parts) != 1:
                continue  # no checkpoint, or records after the base
            (header, arrays), = parts
            newest = header["ingest"]["newest_delivery_slot"]
            assert newest < decision.slot + decision.n_window
            days = {
                int(key.rsplit(".", 1)[1])
                for key in arrays
                if key.startswith("ingest.obs_cpu.")
            }
            assert days == set(range(newest // SLOTS_PER_DAY + 1))
            stored = sim._ingest.valid.nonzero()[1]
            assert stored.max() // SAMPLES_PER_DAY == max(days)
            base_days.append(max(days))
        assert len(base_days) > 1
        assert base_days[0] == 7 and base_days[-1] < small.n_days - 1

    def test_restore_zero_fills_the_days_after_the_base(
        self, ds, fixed, tmp_path
    ):
        telemetry = get_telemetry_scenario("lossy-10pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = tmp_path / "ckpt"
        self._sim(
            ds,
            fixed,
            telemetry,
            checkpoint_every_slots=4,
            checkpoint_path=str(path),
        ).run()
        # Restored over stale buffers, the ingest equals a fresh one fed
        # the same deliveries: the days the base does not hold come
        # back empty before the records replay into them.
        resumed = self._sim(ds, fixed, telemetry)
        resumed._ingest.obs_cpu[:] = 7.0
        resumed._ingest.obs_mem[:] = 7.0
        resumed._ingest.valid[:] = True
        resumed.restore(str(path))
        fed = TelemetryIngest(ds)
        collector = TraceCollector(0, ds, telemetry)
        last, _ = read_checkpoint(path)[-1]
        for slot in range(1, last["ingested_until"] + 1):
            fed.ingest(collector.poll(slot))
        for name in ("obs_cpu", "obs_mem", "valid"):
            np.testing.assert_array_equal(
                getattr(resumed._ingest, name), getattr(fed, name)
            )
        assert (
            resumed._ingest.newest_delivery_slot == fed.newest_delivery_slot
        )

    def test_ingest_restore_refuses_columns_out_of_place(self, ds):
        ingest = TelemetryIngest(ds)
        ingest.ingest(
            TelemetryBatch(
                vm_rows=np.array([0, 1]),
                samples=np.array([3, 40]),
                cpu=np.full(2, 30.0),
                mem=np.full(2, 40.0),
            )
        )
        full = ingest.state(full=True)
        changed = ingest.state(full=False)  # nothing stored since
        # A full state starts at column 0; any other at or before the
        # end of its newest delivered slot.
        for state, is_full, start in (
            (full, True, 12),
            (full, True, -(10**12)),
            (changed, False, -1),
            (changed, False, 10**12),
        ):
            with pytest.raises(CheckpointError, match="does not fit"):
                TelemetryIngest(ds).restore(
                    dict(state, from_sample=start), full=is_full
                )
        restored = TelemetryIngest(ds)
        restored.restore(full, full=True)
        restored.restore(changed, full=False)
        np.testing.assert_array_equal(restored.valid, ingest.valid)

    def test_sharded_policy_resumes_its_inner_placement(
        self, ds, fixed, tmp_path
    ):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = tmp_path / "ckpt"

        def sim(**kwargs):
            return StreamingCloudSimulation(
                ds,
                DayAheadPredictor(ds),
                ShardedPolicy(OnlineBestFitPolicy()),
                fixed,
                telemetry=telemetry,
                max_servers=20,
                n_slots=24,
                **kwargs,
            )

        full = sim(checkpoint_every_slots=6, checkpoint_path=str(path))
        copies = _drain_copying(full, path, tmp_path)
        assert read_checkpoint(copies[0])[-1][0]["policy"]["assign"]
        for copied in copies:
            resumed = sim()
            resumed.restore(str(copied))
            assert records_equal(full.result.records, resumed.run().records)

    @pytest.mark.parametrize("case", ["faults", "two-pool fleet"])
    def test_resume_carries_fault_window_and_pools(self, ds, case, tmp_path):
        if case == "faults":
            policy = OnlineReactivePolicy()
            kwargs = dict(
                max_servers=20,
                faults=FaultSchedule(
                    20,
                    0,
                    ds.n_slots,
                    server_outages=((2, 168, 176), (19, 0, 300)),
                    cap_windows=((170, 178, 0.05),),
                ),
            )
        else:
            policy = EpactPolicy()
            kwargs = dict(
                fleet=FleetSpec(
                    pools=(
                        PoolSpec("ntc", ntc_server_power_model(), 3),
                        PoolSpec(
                            "conventional",
                            conventional_server_power_model(),
                            30,
                            perf_platform="x86",
                        ),
                    )
                )
            )
        schedule = generate_lifecycle(
            ds.n_vms,
            168,
            168 + 12,
            config=ChurnConfig(initial_fraction=0.5),
            seed=9,
        )
        # A dark stream freezes placements mid-run: the blind windows
        # after a boundary re-use the restored allocation.
        telemetry = TelemetryFaultSchedule(
            ds.n_vms, 0, ds.n_slots, collector_outages=[(0, 172, 178)]
        )
        path = tmp_path / "ckpt"

        def sim(**extra):
            return StreamingCloudSimulation(
                ds,
                DayAheadPredictor(ds),
                copy.deepcopy(policy),
                schedule,
                telemetry=telemetry,
                n_slots=12,
                **kwargs,
                **extra,
            )

        full = sim(checkpoint_every_slots=3, checkpoint_path=str(path))
        copies = _drain_copying(full, path, tmp_path)
        assert full.result.total_blind_windows > 0
        last_parts = [read_checkpoint(c)[-1] for c in copies]
        if case == "faults":
            assert all(header["loop"]["prev_fw"] for header, _ in last_parts)
        else:
            assert all("loop.prev_pools" in arrays for _, arrays in last_parts)
        for copied in copies:
            resumed = sim()
            resumed.restore(str(copied))
            assert records_equal(full.result.records, resumed.run().records)

    def test_restore_rejects_other_configurations(self, ds, fixed, tmp_path):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = str(tmp_path / "ckpt")
        simA = self._sim(
            ds,
            fixed,
            telemetry,
            checkpoint_every_slots=12,
            checkpoint_path=path,
        )
        simA.run()
        other_policy = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            EpactPolicy(),
            fixed,
            telemetry=telemetry,
            max_servers=20,
            n_slots=24,
        )
        with pytest.raises(
            CheckpointError,
            match="policy 'ONLINE-REACTIVE' in the checkpoint vs 'EPACT'",
        ):
            other_policy.restore(path)
        small = default_dataset(n_vms=24, n_days=9, seed=11)
        fewer_vms = self._sim(
            small,
            fixed_schedule(small.n_vms, 0, small.n_slots),
            get_telemetry_scenario("lossy-1pct").build(
                small.n_vms, 0, small.n_slots, seed=4
            ),
        )
        with pytest.raises(
            CheckpointError,
            match=r"dataset_shape \[30, 2592\] in the checkpoint vs "
            r"\[24, 2592\] in this run",
        ):
            fewer_vms.restore(path)
        two_collectors = self._sim(
            ds,
            fixed,
            generate_telemetry_faults(
                ds.n_vms, 0, ds.n_slots, seed=4, n_collectors=2
            ),
        )
        with pytest.raises(
            CheckpointError,
            match="collectors 1 in the checkpoint vs 2 in this run",
        ):
            two_collectors.restore(path)


def _assert_compaction_rule(events, path):
    """A base is written first and then exactly when the log's bytes
    exceed the base's; the events since the last base add up to the
    file."""
    base_bytes = log_bytes = None
    for event in events:
        assert event["base"] == (base_bytes is None or log_bytes > base_bytes)
        if event["base"]:
            base_bytes, log_bytes = event["bytes"], 0
        else:
            log_bytes += event["bytes"]
    assert base_bytes + log_bytes == path.stat().st_size


class TestCheckpointJournal:
    """What each checkpoint writes: a base, or a record of what changed."""

    def _sim(self, ds, fixed, telemetry, **kwargs):
        return StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=telemetry,
            max_servers=20,
            n_slots=48,
            **kwargs,
        )

    @pytest.mark.parametrize("every", [6, 12])
    def test_records_follow_deliveries_not_history(
        self, ds, fixed, tmp_path, every
    ):
        telemetry = get_telemetry_scenario("lossy-10pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = tmp_path / "ckpt"
        sim = self._sim(
            ds,
            fixed,
            telemetry,
            checkpoint_every_slots=every,
            checkpoint_path=str(path),
        )
        ingest = sim._ingest
        buffers = [
            (ingest.obs_cpu.copy(), ingest.obs_mem.copy(), ingest.valid.copy())
            for decision in sim.windows()
            if decision.checkpointed
        ]
        parts = read_checkpoint(path)
        assert len(parts) == len(buffers) == 48 // every  # one base
        for (header, arrays), (cpu, mem, valid), (_, _, before) in zip(
            parts[1:], buffers[1:], buffers
        ):
            # A replay feed delivers a sample once, so the cells written
            # since the previous checkpoint are the ones that turned
            # valid; the record holds every column from the first of
            # them to the end of the newest delivered slot, as the run
            # left them.
            written = np.flatnonzero((valid & ~before).any(axis=0))
            newest = header["ingest"]["newest_delivery_slot"]
            lo, hi = _ingest_columns(header, arrays)
            assert written.size and lo == written[0]
            assert hi == (newest + 1) * SAMPLES_PER_SLOT
            assert newest == written[-1] // SAMPLES_PER_SLOT
            for name, buffer in (("obs_cpu", cpu), ("obs_mem", mem)):
                np.testing.assert_array_equal(
                    _joined(arrays, name), buffer[:, lo:hi]
                )
            np.testing.assert_array_equal(
                np.unpackbits(
                    arrays["ingest.valid_bits"], axis=1, count=hi - lo
                ).astype(bool),
                valid[:, lo:hi],
            )
        forecasts = [
            key
            for _, arrays in parts
            for key in arrays
            if key.startswith("ladder.")
        ]
        assert len(forecasts) == len(set(forecasts))
        # Day 8's forecast is decided after the base and filed once.
        assert any(
            key.startswith("ladder.") for _, arrays in parts[1:] for key in arrays
        )

    def test_record_reaches_back_for_a_late_delivery(
        self, ds, fixed, tmp_path
    ):
        # Every sample arrives on time but VM 3's first of slot 170,
        # held back to the poll at slot 177: after the checkpoint at
        # boundary 174, so the record at 180 starts at that sample's
        # column, before the previous boundary.
        late = 170 * SAMPLES_PER_SLOT

        def sim(**kwargs):
            push = PushCollector(0)
            _push_trace(push, ds, range(ds.n_slots), hold=[(3, late)])
            push.push(
                [3],
                [late],
                [ds.cpu_pct[3, late]],
                [ds.mem_pct[3, late]],
                available_at=177,
            )
            return StreamingCloudSimulation(
                ds,
                DayAheadPredictor(ds),
                OnlineReactivePolicy(),
                fixed,
                collectors=[push],
                max_servers=20,
                n_slots=24,
                **kwargs,
            )

        path = tmp_path / "ckpt"
        full = sim(checkpoint_every_slots=6, checkpoint_path=str(path))
        names = ("obs_cpu", "obs_mem", "valid")
        copies, buffers = [], []
        for decision in full.windows():
            if decision.checkpointed:
                copies.append(tmp_path / f"boundary-{len(copies)}")
                shutil.copyfile(path, copies[-1])
                buffers.append([getattr(full._ingest, n).copy() for n in names])
        header, arrays = read_checkpoint(copies[1])[-1]
        assert header["loop"]["slot"] == 180
        assert _ingest_columns(header, arrays)[0] == late
        assert late < 174 * SAMPLES_PER_SLOT
        for copied, want in zip(copies, buffers):
            resumed = sim()
            resumed.restore(str(copied))
            for name, buffer in zip(names, want):
                np.testing.assert_array_equal(
                    getattr(resumed._ingest, name), buffer
                )
            assert records_equal(full.result.records, resumed.run().records)

    def test_new_base_once_the_log_outgrows_it(self, tmp_path):
        # Nine evaluated days of a clean 4-VM feed, checkpointed every
        # 12 slots: each record logs 12 slots of deliveries and every
        # other one a new ladder day, so the log outgrows the base
        # mid-run.
        small = default_dataset(n_vms=4, n_days=16, seed=77)
        path = tmp_path / "ckpt"
        tracer = RunTracer()
        StreamingCloudSimulation(
            small,
            DayAheadPredictor(small),
            OnlineReactivePolicy(),
            fixed_schedule(small.n_vms, 0, small.n_slots),
            telemetry=zero_telemetry_faults(small.n_vms, 0, small.n_slots),
            max_servers=4,
            checkpoint_every_slots=12,
            checkpoint_path=str(path),
            tracer=tracer,
        ).run()
        events = tracer.of_type("checkpoint")
        assert len(events) == 9 * SLOTS_PER_DAY // 12
        assert 1 < sum(e["base"] for e in events) < len(events)
        _assert_compaction_rule(events, path)

    def test_cadence_needs_a_path(self, ds, fixed):
        telemetry = zero_telemetry_faults(ds.n_vms, 0, ds.n_slots)
        with pytest.raises(ConfigurationError, match="needs checkpoint_path"):
            self._sim(ds, fixed, telemetry, checkpoint_every_slots=4)


# -- determinism -----------------------------------------------------------


class TestDeterminism:
    def test_same_seed_identical_schedule(self):
        cfg = TelemetryFaultConfig(
            drop_prob=0.05,
            nan_prob=0.01,
            spike_prob=0.01,
            late_prob=0.2,
            max_delay_slots=3,
            outage_rate_per_slot=0.05,
        )
        a = generate_telemetry_faults(
            20, 0, 48, config=cfg, seed=42, n_collectors=2
        )
        b = generate_telemetry_faults(
            20, 0, 48, config=cfg, seed=42, n_collectors=2
        )
        c = generate_telemetry_faults(
            20, 0, 48, config=cfg, seed=43, n_collectors=2
        )
        np.testing.assert_array_equal(a._drop, b._drop)
        np.testing.assert_array_equal(a._delay, b._delay)
        assert a.collector_outages == b.collector_outages
        assert (a._drop != c._drop).any()

    def test_scenario_registry(self):
        assert set(TELEMETRY_SCENARIOS) == {
            "clean",
            "lossy-1pct",
            "lossy-10pct",
            "collector-outage",
            "late-burst",
            "corrupt-spikes",
        }
        assert not get_telemetry_scenario("clean").build(8, 0, 24).has_degradation
        assert get_telemetry_scenario("lossy-10pct").build(
            8, 0, 240
        ).has_degradation
        with pytest.raises(ConfigurationError, match="known:"):
            get_telemetry_scenario("nope")


# -- validation -------------------------------------------------------------


class TestValidation:
    def test_config_probabilities(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            TelemetryFaultConfig(drop_prob=1.5)
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            TelemetryFaultConfig(late_prob=-0.1)
        with pytest.raises(ConfigurationError, match=">= 0"):
            TelemetryFaultConfig(outage_rate_per_slot=-1.0)
        with pytest.raises(ConfigurationError, match="exceed 100"):
            TelemetryFaultConfig(spike_pct=80.0)
        with pytest.raises(ConfigurationError, match="max_delay_slots"):
            TelemetryFaultConfig(late_prob=0.1, max_delay_slots=0)

    def test_schedule_shapes_and_ranges(self):
        with pytest.raises(ConfigurationError, match="empty telemetry"):
            TelemetryFaultSchedule(4, 10, 10)
        with pytest.raises(ConfigurationError, match="shape"):
            TelemetryFaultSchedule(
                4, 0, 2, drop=np.zeros((4, 5), dtype=bool)
            )
        with pytest.raises(ConfigurationError, match=">= 0"):
            TelemetryFaultSchedule(
                4,
                0,
                2,
                delay_slots=np.full(
                    (4, 2 * SAMPLES_PER_SLOT), -1, dtype=np.int64
                ),
            )
        with pytest.raises(ConfigurationError, match="out of range"):
            TelemetryFaultSchedule(
                4, 0, 2, collector_outages=[(3, 0, 1)]
            )
        schedule = zero_telemetry_faults(4, 0, 2)
        with pytest.raises(ConfigurationError, match="outside"):
            schedule.down_collectors(5)

    def test_streaming_needs_a_feed(self, ds, pred, fixed):
        with pytest.raises(ConfigurationError, match="reads a feed"):
            StreamingCloudSimulation(
                ds, pred, EpactPolicy(), fixed, max_servers=20, n_slots=24
            )

    def test_ingest_cold_start_range(self, ds):
        for cold in (-0.5, 100.5):
            with pytest.raises(ConfigurationError, match="cold_start"):
                TelemetryIngest(ds, cold_start_util_pct=cold)

    def test_poll_with_retry_arguments(self, ds):
        collector = TraceCollector(
            0, ds, zero_telemetry_faults(ds.n_vms, 0, ds.n_slots)
        )
        with pytest.raises(ConfigurationError, match="retries must be"):
            poll_with_retry(collector, 1, retries=-1)
        with pytest.raises(ConfigurationError, match="backoff_s must be"):
            poll_with_retry(collector, 1, backoff_s=-0.5)
        assert collector.state() == (0, 0)  # refused before polling

    def test_streaming_validation(self, ds, pred, fixed):
        telemetry = zero_telemetry_faults(ds.n_vms, 0, ds.n_slots)
        common = dict(max_servers=20, n_slots=24)

        with pytest.raises(ConfigurationError, match="max_imputed_frac"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                max_imputed_frac=1.5,
                **common,
            )
        with pytest.raises(ConfigurationError, match="full trace horizon"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=zero_telemetry_faults(ds.n_vms, 0, 24),
                **common,
            )
        with pytest.raises(ConfigurationError, match="VMs"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=zero_telemetry_faults(
                    ds.n_vms + 1, 0, ds.n_slots
                ),
                **common,
            )
        with pytest.raises(
            ConfigurationError, match="checkpoint_every_slots"
        ):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                checkpoint_every_slots=0,
                **common,
            )
