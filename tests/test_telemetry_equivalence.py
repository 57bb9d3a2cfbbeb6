"""Degraded-telemetry streaming layer: equivalence, ladder, resume.

The acceptance bar of the telemetry PR:

* **clean-telemetry** streaming runs are bit-identical to the batch
  :class:`CloudSimulation` (fixed population and churn), and a
  zero-degradation schedule is bit-identical to running without the
  telemetry layer at all;
* every rung of the forecast-staleness fallback ladder is reachable —
  fresh fit, aged (stale) forecast, persistence, and the blind
  (reactive-only) frozen placement under a collector outage;
* delivery is late/out-of-order capable and backfills the observation
  buffers; corruption is rejected at ingest and imputed on read;
* a checkpoint/resume run equals an uninterrupted run exactly;
* the degradation model is seeded and deterministic, parallel equals
  serial, and configs are validated with actionable errors.
"""

import copy
import json
import pickle
import struct
import zipfile

import numpy as np
import pytest

from repro.baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from repro.cloud import (
    CloudSimulation,
    StreamingCloudSimulation,
    fixed_schedule,
    run_streaming_policies,
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
    generate_telemetry_faults,
    get_telemetry_scenario,
    zero_telemetry_faults,
)
from repro.serve.adapters import TelemetryBatch, poll_with_retry
from repro.cloud.faults import FaultSchedule
from repro.core import EpactPolicy, FleetEpactPolicy, FleetSpec, PoolSpec
from repro.cloud.streaming import CHECKPOINT_VERSION
from repro.errors import (
    CheckpointError,
    CollectorTimeoutError,
    ConfigurationError,
)
from repro.forecast import DayAheadPredictor
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


# -- clean-telemetry bit-identity -------------------------------------------


class TestCleanBitIdentity:
    def test_fixed_population(self, ds, pred, fixed):
        kwargs = dict(max_servers=20, n_slots=24)
        batch = CloudSimulation(
            ds, pred, EpactPolicy(), fixed, **kwargs
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
        batch = CloudSimulation(
            ds, pred, OnlineReactivePolicy(), schedule, **kwargs
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

    def test_zero_schedule_equals_no_layer(self, ds, pred, fixed):
        kwargs = dict(max_servers=20, n_slots=24)
        bare = StreamingCloudSimulation(
            ds, pred, OnlineReactivePolicy(), fixed, **kwargs
        ).run()
        layered = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed,
            telemetry=zero_telemetry_faults(ds.n_vms, 0, ds.n_slots),
            **kwargs,
        ).run()
        assert records_equal(bare.records, layered.records)

    def test_no_layer_equals_batch(self, ds, pred, fixed):
        kwargs = dict(max_servers=20, n_slots=24)
        batch = CloudSimulation(
            ds, pred, EpactPolicy(), fixed, **kwargs
        ).run()
        streaming = StreamingCloudSimulation(
            ds, pred, EpactPolicy(), fixed, **kwargs
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
        # Clean history for 8 days, then the stream drops everything:
        # day 9 still fits fresh (1/7 of its history imputed), day 10
        # crosses max_imputed_frac (2/7) and re-uses day 9's forecast
        # (stale rung).
        ds = default_dataset(n_vms=12, n_days=11, seed=5)
        shape = (ds.n_vms, ds.n_samples)
        drop = np.zeros(shape, dtype=bool)
        drop[:, 8 * SLOTS_PER_DAY * SAMPLES_PER_SLOT :] = True
        telemetry = TelemetryFaultSchedule(
            ds.n_vms, 0, ds.n_slots, drop=drop
        )
        sim = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            OnlineReactivePolicy(),
            fixed_schedule(ds.n_vms, 0, ds.n_slots),
            telemetry=telemetry,
            max_servers=10,
            n_slots=4 * SLOTS_PER_DAY,
            blind_after_slots=10_000,  # isolate the ladder from blindness
        )
        result = sim.run()
        assert sim._ladder.day_decision(8)[0] == RUNG_FRESH
        assert sim._ladder.day_decision(9)[0] == RUNG_FRESH
        assert sim._ladder.day_decision(10)[0] == RUNG_STALE
        assert result.total_stale_forecast_windows > 0
        # The stale rung re-uses the last fresh arrays verbatim.
        _, cpu9, _ = sim._ladder.day_decision(9)
        _, cpu10, _ = sim._ladder.day_decision(10)
        assert cpu10 is cpu9

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
            blind_after_slots=10_000,
        )
        result = sim.run()
        rung, cpu, mem = sim._ladder.day_decision(7)
        assert rung == RUNG_PERSISTENCE
        assert cpu is None and mem is None
        # Decisions fall back to cold-start persistence, accounting
        # still runs on the true traces.
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
        assert blind, "outage long past blind_after_slots must go blind"
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
        ingest.fill_into(0, 12)
        assert (ingest.imp_cpu[1, :12] == 37.0).all()
        assert (ingest.imp_mem[1, :12] == 37.0).all()
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
            filled = ingest._fill(start, stop)
            reference = ingest._fill_reference(start, stop)
            for got, want in zip(filled, reference):
                assert got.tobytes() == want.tobytes()


# -- checkpoint/resume ------------------------------------------------------


def _member_span(path, member):
    """(offset, size) of a stored ``.npz`` member's bytes in the file."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


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

    def test_resume_equals_uninterrupted(self, ds):
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
        simA = self._sim(
            ds, schedule, telemetry, checkpoint_every_slots=7
        )
        snapshots = [
            simA.latest_checkpoint for d in simA.windows() if d.checkpointed
        ]
        full = simA.result
        assert len(snapshots) >= 2
        assert simA.latest_checkpoint is snapshots[-1]
        for snapshot in snapshots:
            simB = self._sim(ds, schedule, telemetry)
            simB.restore(snapshot)
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
        # One pickle-free archive: a JSON header plus plain arrays.
        with np.load(path, allow_pickle=False) as archive:
            members = {key: archive[key] for key in archive.files}
        assert "header" in members
        assert all(a.dtype != object for a in members.values())
        header = json.loads(members["header"].tobytes())
        assert header["version"] == CHECKPOINT_VERSION
        assert header["loop"]["slot"] == 168 + 20
        assert "ingest.imp_cpu" not in members  # derived, not state
        simB = self._sim(ds, fixed, telemetry)
        simB.restore(str(path))
        assert records_equal(full.records, simB.run().records)

    def test_restore_refuses_damaged_files(self, ds, fixed, tmp_path):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        path = tmp_path / "ckpt.npz"
        self._sim(
            ds,
            fixed,
            telemetry,
            checkpoint_every_slots=10,
            checkpoint_path=str(path),
        ).run()
        data = path.read_bytes()
        offset, size = _member_span(path, "ingest.obs_cpu")
        flipped = bytearray(data)
        flipped[offset + size // 2] ^= 0xFF
        with np.load(path, allow_pickle=False) as archive:
            members = {key: archive[key] for key in archive.files}
        header = json.loads(members.pop("header").tobytes())
        header["version"] = CHECKPOINT_VERSION + 1
        bumped = tmp_path / "bumped.npz"
        with open(bumped, "wb") as fh:
            np.savez(
                fh,
                header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                **members,
            )
        cases = {
            "flipped.npz": (bytes(flipped), "not a readable checkpoint"),
            "truncated.npz": (data[: len(data) // 2], "not a readable"),
            "empty.npz": (b"", "not a readable checkpoint"),
            "text.npz": (b"not a checkpoint", "not a readable checkpoint"),
            "old.pkl": (
                pickle.dumps({"loop": None}, protocol=5),
                "pickle checkpoints are no longer read",
            ),
        }
        for name, (content, message) in cases.items():
            (tmp_path / name).write_bytes(content)
            with pytest.raises(CheckpointError, match=message):
                self._sim(ds, fixed, telemetry).restore(str(tmp_path / name))
        with pytest.raises(CheckpointError, match="format version 2; this"):
            self._sim(ds, fixed, telemetry).restore(str(bumped))
        with pytest.raises(CheckpointError, match="does not exist"):
            self._sim(ds, fixed, telemetry).restore(
                str(tmp_path / "missing.npz")
            )

    def test_sharded_policy_resumes_its_inner_placement(self, ds, fixed):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )

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

        full = sim(checkpoint_every_slots=6)
        snapshots = [
            full.latest_checkpoint for d in full.windows() if d.checkpointed
        ]
        assert snapshots[0]["header"]["policy"]["assign"]
        for snapshot in snapshots:
            resumed = sim()
            resumed.restore(snapshot)
            assert records_equal(full.result.records, resumed.run().records)

    @pytest.mark.parametrize("case", ["faults", "two-pool fleet"])
    def test_resume_carries_fault_window_and_pools(self, ds, case):
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
            policy = FleetEpactPolicy()
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

        full = sim(checkpoint_every_slots=3)
        snapshots = [
            full.latest_checkpoint for d in full.windows() if d.checkpointed
        ]
        assert full.result.total_blind_windows > 0
        if case == "faults":
            assert all(s["header"]["loop"]["prev_fw"] for s in snapshots)
        else:
            assert all("loop.prev_pools" in s["arrays"] for s in snapshots)
        for snapshot in snapshots:
            resumed = sim()
            resumed.restore(snapshot)
            assert records_equal(full.result.records, resumed.run().records)

    def test_restore_rejects_layer_mismatch(self, ds, fixed):
        telemetry = zero_telemetry_faults(ds.n_vms, 0, ds.n_slots)
        simA = self._sim(
            ds, fixed, telemetry, checkpoint_every_slots=24
        )
        simA.run()
        bare = self._sim(ds, fixed, None)
        with pytest.raises(
            CheckpointError,
            match="telemetry True in the checkpoint vs False in this run",
        ):
            bare.restore(simA.latest_checkpoint)

    def test_restore_rejects_other_configurations(self, ds, fixed):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        simA = self._sim(ds, fixed, telemetry, checkpoint_every_slots=12)
        simA.run()
        snapshot = simA.latest_checkpoint
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
            other_policy.restore(snapshot)
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
            fewer_vms.restore(snapshot)
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
            two_collectors.restore(snapshot)


# -- determinism and parallel == serial -------------------------------------


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

    def test_parallel_equals_serial(self, ds, fixed):
        telemetry = get_telemetry_scenario("lossy-1pct").build(
            ds.n_vms, 0, ds.n_slots, seed=4
        )
        policies = [
            OnlineReactivePolicy(),
            OnlineReactivePolicy(
                signal="forecast", name="ONLINE-REACTIVE-F"
            ),
        ]
        kwargs = dict(max_servers=20, n_slots=24)
        serial = run_streaming_policies(
            ds,
            DayAheadPredictor(ds),
            policies,
            fixed,
            telemetry=telemetry,
            jobs=1,
            **kwargs,
        )
        fresh = [
            OnlineReactivePolicy(),
            OnlineReactivePolicy(
                signal="forecast", name="ONLINE-REACTIVE-F"
            ),
        ]
        parallel = run_streaming_policies(
            ds,
            DayAheadPredictor(ds),
            fresh,
            fixed,
            telemetry=telemetry,
            jobs=2,
            **kwargs,
        )
        assert set(serial) == set(parallel)
        for name in serial:
            assert records_equal(
                serial[name].records, parallel[name].records
            )


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

    def test_streaming_validation(self, ds, pred, fixed):
        telemetry = zero_telemetry_faults(ds.n_vms, 0, ds.n_slots)
        common = dict(max_servers=20, n_slots=24)

        with pytest.raises(ConfigurationError, match="stale rung"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                staleness_budget_slots=SLOTS_PER_DAY - 1,
                **common,
            )
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
        with pytest.raises(ConfigurationError, match="blind_after"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                blind_after_slots=0,
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
        with pytest.raises(ConfigurationError, match="cold_start"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                cold_start_util_pct=120.0,
                **common,
            )
        with pytest.raises(ConfigurationError, match="poll_retries"):
            StreamingCloudSimulation(
                ds,
                pred,
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                poll_retries=-1,
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
