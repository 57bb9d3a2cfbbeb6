"""Service-mode equivalence suite (repro.serve).

Three guarantees:

* a clean replay feed driven through the ``repro-serve`` loop is
  bit-identical to the batch :class:`~repro.dcsim.DataCenterSimulation`;
* a run resumed from a mid-serve checkpoint equals the uninterrupted
  run;
* every ``decision_*`` event the service emits validates against
  :data:`repro.obs.tracer.EVENT_SCHEMAS`.

Plus the collector adapters themselves: push semantics, dropout
timeouts and the HTTP round-trip.
"""

import io
import itertools
import json
import os
import pickle

import numpy as np
import pytest

from repro.cloud import (
    StreamingCloudSimulation,
    get_scenario,
    zero_telemetry_faults,
)
from repro.cloud.streaming import _PREAMBLE, read_checkpoint
from repro.cloud.telemetry import TraceCollector
from repro.core import EpactPolicy
from repro.dcsim import DataCenterSimulation
from repro.errors import CollectorTimeoutError, ConfigurationError
from repro.forecast import DayAheadPredictor
from repro.obs.report import main as report_main
from repro.obs.tracer import (
    RunTracer,
    iter_trace_file,
    validate_event,
    validate_trace_file,
)
from repro.serve import HttpCollector, PushCollector, TelemetryFeedServer
from repro.serve import adapters
from repro.serve.adapters import TelemetryBatch
from repro.serve.cli import main
from repro.serve.service import ServeConfig, build_simulation, serve
from repro.traces import default_dataset
from repro.traces.lifecycle import fixed_schedule
from repro.units import SAMPLES_PER_SLOT


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def serve_config(tmp_path_factory):
    return ServeConfig(n_vms=40, n_days=9, seed=2018, n_slots=24)


# -- collector adapters -----------------------------------------------------


class TestPushCollector:
    def test_push_then_poll_in_order(self):
        c = PushCollector(0)
        c.push([1], [10], [50.0], [60.0], available_at=3)
        c.push([2], [11], [40.0], [30.0], available_at=2)
        assert c.poll(1).n_samples == 0
        batch = c.poll(3)
        # Both ready by slot 3, availability order first.
        assert list(batch.vm_rows) == [2, 1]
        assert c.poll(4).n_samples == 0

    def test_offline_times_out_then_bursts(self):
        c = PushCollector(5)
        c.push([0], [0], [10.0], [20.0], available_at=1)
        c.set_offline(True)
        with pytest.raises(CollectorTimeoutError, match="collector 5"):
            c.poll(1)
        c.set_offline(False)
        assert c.poll(2).n_samples == 1

    def test_retroactive_push_still_delivers(self):
        c = PushCollector(0)
        c.push([1], [0], [1.0], [2.0], available_at=1)
        assert c.poll(5).n_samples == 1
        c.push([2], [1], [3.0], [4.0], available_at=0)  # already past
        assert list(c.poll(6).vm_rows) == [2]

    def test_restore_replays_unconsumed(self):
        c = PushCollector(0)
        state = c.state()
        c.push([1], [0], [1.0], [2.0], available_at=1)
        assert c.poll(1).n_samples == 1
        c.restore(state)
        assert c.poll(1).n_samples == 1


class TestHttpFeed:
    def test_round_trip_matches_backing_collector(self):
        dataset = default_dataset(n_vms=8, n_days=1, seed=3)
        schedule = zero_telemetry_faults(8, 0, dataset.n_slots)
        direct = TraceCollector(0, dataset, schedule)
        backing = TraceCollector(0, dataset, schedule)
        with TelemetryFeedServer([backing]) as feed:
            http = HttpCollector(0, feed.url)
            for slot in (1, 2, 3):
                want = direct.poll(slot)
                got = http.poll(slot)
                np.testing.assert_array_equal(got.vm_rows, want.vm_rows)
                np.testing.assert_array_equal(got.samples, want.samples)
                np.testing.assert_array_equal(got.cpu, want.cpu)
                np.testing.assert_array_equal(got.mem, want.mem)

    def test_dead_feed_is_a_timeout(self):
        http = HttpCollector(0, "http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(CollectorTimeoutError):
            http.poll(1)

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[0, 1]",
            b'{"vm_rows": [0], "samples": [0], "cpu": [1.0]}',
            b'{"vm_rows": [[0], [1, 2]], "samples": [0], "cpu": [1.0],'
            b' "mem": [1.0]}',
            b'{"vm_rows": [[0]], "samples": [0], "cpu": [1.0], "mem": [1.0]}',
            b'{"vm_rows": ["0"], "samples": [0], "cpu": [1.0], "mem": [1.0]}',
            b'{"vm_rows": [0], "samples": [0], "cpu": [null], "mem": [1.0]}',
            b'{"vm_rows": [1, 2], "samples": [1.5, 2.9], "cpu": [1.0, 2.0],'
            b' "mem": [1.0, 2.0]}',
            b'{"vm_rows": [true], "samples": [0], "cpu": [1.0], "mem": [1.0]}',
            b'{"vm_rows": [0, 1], "samples": [0], "cpu": [1.0], "mem": [1.0]}',
        ],
        ids=[
            "not-json",
            "not-an-object",
            "missing-field",
            "ragged",
            "nested",
            "non-numeric",
            "null-reading",
            "float-indices",
            "bool-indices",
            "unequal-lengths",
        ],
    )
    def test_malformed_body_is_a_timeout(self, monkeypatch, body):
        # Float indices were once truncated to integers without a word,
        # and a body that did not parse escaped as a ValueError.
        monkeypatch.setattr(
            adapters, "urlopen", lambda url, timeout: io.BytesIO(body)
        )
        with pytest.raises(CollectorTimeoutError, match="malformed body"):
            HttpCollector(0, "http://feed").poll(1)

    def test_malformed_body_is_retried(self, serve_config):
        # The feed serves float sample indices once: the poll fails,
        # poll_with_retry polls again, and the run equals the replay.
        replay = serve(serve_config)
        dataset, _ = get_scenario(serve_config.workload).build(
            n_vms=serve_config.n_vms,
            n_days=serve_config.n_days,
            seed=serve_config.seed,
            n_slots=serve_config.n_slots,
        )
        backing = TraceCollector(
            0, dataset, zero_telemetry_faults(dataset.n_vms, 0, dataset.n_slots)
        )
        garbled = TelemetryBatch(
            vm_rows=np.array([0]),
            samples=np.array([1.5]),
            cpu=np.array([40.0]),
            mem=np.array([20.0]),
        )

        class FloatOnce:
            collector_id = 0

            def __init__(self):
                self.served = False

            def poll(self, slot):
                if self.served:
                    return backing.poll(slot)
                self.served = True
                return garbled

        tracer = RunTracer()
        with TelemetryFeedServer([FloatOnce()]) as feed:
            live = serve(
                serve_config,
                collectors=[HttpCollector(0, feed.url)],
                tracer=tracer,
            )
        retries = tracer.of_type("poll_retry")
        assert [(e["attempt"], e["gave_up"]) for e in retries] == [(0, False)]
        assert records_equal(live.records, replay.records)


# -- serve replay vs the batch engine ---------------------------------------


class TestServeReplayEquivalence:
    def test_clean_replay_bit_identical_to_batch(self, serve_config):
        result = serve(serve_config)
        dataset, schedule = get_scenario(serve_config.workload).build(
            n_vms=serve_config.n_vms,
            n_days=serve_config.n_days,
            seed=serve_config.seed,
            n_slots=serve_config.n_slots,
        )
        batch = DataCenterSimulation(
            dataset,
            DayAheadPredictor(dataset),
            EpactPolicy(),
            schedule=schedule,
            n_slots=serve_config.n_slots,
            max_servers=serve_config.max_servers,
        ).run()
        assert records_equal(result.records, batch.records)

    def test_live_push_feed_matches_replay(self, serve_config):
        """A PushCollector fed the true traces equals the clean replay."""
        replay = serve(serve_config)
        dataset, _ = get_scenario(serve_config.workload).build(
            n_vms=serve_config.n_vms,
            n_days=serve_config.n_days,
            seed=serve_config.seed,
            n_slots=serve_config.n_slots,
        )
        push = PushCollector(0)
        rows = np.arange(dataset.n_vms)
        for slot in range(dataset.n_slots):
            lo = slot * SAMPLES_PER_SLOT
            for k in range(SAMPLES_PER_SLOT):
                push.push(
                    rows,
                    np.full(rows.size, lo + k),
                    dataset.cpu_pct[:, lo + k],
                    dataset.mem_pct[:, lo + k],
                    available_at=slot + 1,
                )
        live = serve(serve_config, collectors=[push])
        assert records_equal(live.records, replay.records)

    def test_checkpoint_resume_equals_uninterrupted(self, tmp_path):
        path = os.fspath(tmp_path / "serve.ckpt")
        config = ServeConfig(
            n_vms=24,
            n_days=9,
            n_slots=24,
            checkpoint_every_slots=8,
            checkpoint_path=path,
        )
        uninterrupted = serve(config)
        # Interrupt: drain 10 windows, abandon, resume from disk.
        sim = build_simulation(config)
        gen = sim.windows()
        for _ in itertools.islice(gen, 10):
            pass
        gen.close()
        resumed = serve(config, resume=True)
        assert records_equal(uninterrupted.records, resumed.records)

    def test_resume_without_checkpoint_path_fails(self, serve_config):
        with pytest.raises(ConfigurationError, match="resume"):
            serve(serve_config, resume=True)
        with pytest.raises(ConfigurationError, match="needs checkpoint_path"):
            ServeConfig(checkpoint_every_slots=8)

    def test_traced_checkpoints_are_timed_and_sized(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        config = ServeConfig(
            workload="diurnal-burst",
            telemetry_scenario="lossy-10pct",
            n_vms=24,
            n_days=9,
            n_slots=24,
            checkpoint_every_slots=4,
            checkpoint_path=os.fspath(path),
        )
        untraced = serve(config)
        untraced_file = path.read_bytes()
        tracer = RunTracer()
        traced = serve(config, tracer=tracer)
        tracer.close()
        assert records_equal(untraced.records, traced.records)
        assert path.read_bytes() == untraced_file
        events = tracer.of_type("checkpoint")
        assert len(events) == 6 and events[0]["base"]
        calls = {
            e["phase"]: e["calls"]
            for e in tracer.timing_events
            if e["event"] == "phase_time"
        }
        assert calls["checkpoint"] == len(events)
        last_base = max(i for i, e in enumerate(events) if e["base"])
        assert sum(e["bytes"] for e in events[last_base:]) == (
            path.stat().st_size
        )


# -- decision events --------------------------------------------------------


class TestDecisionEvents:
    def test_decision_stream_validates_and_covers_windows(
        self, serve_config, tmp_path
    ):
        tracer = RunTracer.for_run_dir(os.fspath(tmp_path))
        decisions = []
        serve(serve_config, tracer=tracer, on_decision=decisions.append)
        tracer.close()
        placements = tracer.of_type("decision_placement")
        rungs = tracer.of_type("decision_rung")
        slas = tracer.of_type("decision_sla")
        assert len(placements) == len(decisions) == len(slas)
        assert len(rungs) == len(decisions)  # stream always attached
        for event in tracer.events:
            validate_event(event)  # already validated at emit; explicit
        total = sum(e["energy_j"] for e in slas)
        assert total > 0.0

    def test_windows_matches_run_result(self, serve_config):
        sim = build_simulation(serve_config)
        decisions = list(sim.windows())
        by_run = build_simulation(serve_config).run()
        assert records_equal(sim.result.records, by_run.records)
        assert sum(d.n_window for d in decisions) == len(by_run.records)
        assert sum(d.energy_j for d in decisions) == pytest.approx(
            sum(r.energy_j for r in by_run.records)
        )


# -- config and engine validation -------------------------------------------


class TestStreamingEngineValidation:
    def test_serve_config_validation(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            ServeConfig(policy="nope")
        with pytest.raises(ConfigurationError, match="n_days"):
            ServeConfig(n_days=1)
        # A day-ahead forecast needs 7 history days before the first
        # evaluated one.
        with pytest.raises(
            ConfigurationError, match=r"n_days must be >= 8, got 7.*history"
        ):
            ServeConfig(n_days=7)
        ServeConfig(n_days=8)

    def test_telemetry_and_collectors_rejected(self):
        dataset = default_dataset(n_vms=10, n_days=9, seed=5)
        schedule = fixed_schedule(dataset.n_vms, 0, dataset.n_slots)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            StreamingCloudSimulation(
                dataset,
                DayAheadPredictor(dataset),
                EpactPolicy(),
                schedule,
                telemetry=zero_telemetry_faults(10, 0, dataset.n_slots),
                collectors=[PushCollector(0)],
                max_servers=8,
                n_slots=4,
            )



# -- repro-serve checkpoint handling ----------------------------------------


class TestServeCliCheckpoints:
    """``--resume`` failures exit 2 with one ``repro-serve:`` line."""

    ARGS = [
        "--workload", "diurnal-burst",
        "--n-vms", "12",
        "--n-days", "8",
        "--n-slots", "4",
        "--max-servers", "6",
        "--checkpoint-every", "2",
        "--quiet",
    ]

    def _main(self, path, *extra):
        return main(self.ARGS + ["--checkpoint", os.fspath(path), *extra])

    def _refused(self, capsys, path, *extra):
        capsys.readouterr()
        assert self._main(path, "--resume", *extra) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro-serve: ")
        assert captured.out == ""
        return lines[0]

    def test_missing_file(self, tmp_path, capsys):
        line = self._refused(capsys, tmp_path / "missing.npz")
        assert "does not exist" in line

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "ck.npz"
        assert self._main(path) == 0
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        line = self._refused(capsys, path)
        assert "not a readable checkpoint" in line

    def test_old_pickle_file(self, tmp_path, capsys):
        path = tmp_path / "ck.pkl"
        path.write_bytes(pickle.dumps({"loop": None}, protocol=4))
        line = self._refused(capsys, path)
        assert "pickle checkpoints are no longer read" in line

    def test_other_policy(self, tmp_path, capsys):
        path = tmp_path / "ck.npz"
        assert self._main(path, "--policy", "epact") == 0
        line = self._refused(capsys, path, "--policy", "reactive")
        assert "policy 'EPACT' in the checkpoint vs 'ONLINE-REACTIVE'" in line

    def test_other_vm_count(self, tmp_path, capsys):
        path = tmp_path / "ck.npz"
        assert self._main(path) == 0
        line = self._refused(capsys, path, "--n-vms", "10")
        assert "dataset_shape [12, 2304] in the checkpoint vs " in line
        assert "[10, 2304] in this run" in line

    def test_cadence_without_checkpoint(self, capsys):
        capsys.readouterr()
        assert main(self.ARGS) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro-serve: ")
        assert "--checkpoint-every needs --checkpoint" in lines[0]

    def test_cut_inside_last_record_resumes(self, tmp_path, capsys):
        path = tmp_path / "ck"
        assert self._main(path, "--out", os.fspath(tmp_path / "full")) == 0
        assert len(read_checkpoint(path)) == 2  # a base and one record
        path.write_bytes(path.read_bytes()[:-10])
        assert len(read_checkpoint(path)) == 1
        out = os.fspath(tmp_path / "resumed")
        assert self._main(path, "--resume", "--out", out) == 0
        full, resumed = (
            json.loads((tmp_path / run / "summary.json").read_text())
            for run in ("full", "resumed")
        )
        assert resumed["total_energy_mj"] == full["total_energy_mj"]

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("record", "damaged record at byte"),
            ("base", "not a readable checkpoint"),
            ("empty", "not a readable checkpoint"),
            ("text", "not a readable checkpoint"),
            ("format-1", "format-1 .npz checkpoint"),
            ("version", "format version 3; this build reads version 4"),
        ],
    )
    def test_damaged_file(self, tmp_path, capsys, damage, message):
        # Six slots at a cadence of two: a base and two records.
        path = tmp_path / "ck"
        assert self._main(path, "--n-slots", "6") == 0
        data = bytearray(path.read_bytes())
        magic, version, base_len = _PREAMBLE.unpack_from(data)
        first = _PREAMBLE.size + base_len
        if damage == "record":
            assert first + 1000 < len(data) - 1000
            data[first + 1000] ^= 0xFF
        elif damage == "base":
            data[first // 2] ^= 0xFF
        elif damage == "empty":
            data = b""
        elif damage == "text":
            data = b"not a checkpoint\n"
        elif damage == "format-1":
            with open(path, "wb") as fh:
                np.savez(fh, header=np.frombuffer(b"{}", np.uint8))
            data = path.read_bytes()
        else:
            # A format-3 file: its records held the delivered batches.
            data[: _PREAMBLE.size] = _PREAMBLE.pack(magic, 3, base_len)
        path.write_bytes(bytes(data))
        line = self._refused(capsys, path, "--n-slots", "6")
        assert message in line

    def test_other_collector_count(self, tmp_path, capsys):
        path = tmp_path / "ck.npz"
        assert self._main(path, "--telemetry", "lossy-10pct") == 0
        line = self._refused(
            capsys, path, "--telemetry", "collector-outage"
        )
        assert "collectors 1 in the checkpoint vs 2 in this run" in line


class TestServeCliLive:
    def test_demo_feed_builds_the_workload_once(self, monkeypatch, capsys):
        # The demo feed and the simulation share one seeded build.
        scenario = type(get_scenario("diurnal-burst"))
        builds = []
        real_build = scenario.build

        def counting_build(self, *args, **kwargs):
            builds.append(kwargs)
            return real_build(self, *args, **kwargs)

        monkeypatch.setattr(scenario, "build", counting_build)
        args = [
            "--workload", "diurnal-burst",
            "--n-vms", "12",
            "--n-days", "8",
            "--n-slots", "4",
            "--max-servers", "6",
            "--quiet",
        ]
        assert main(["--mode", "live", "--demo-feed", *args]) == 0
        live = capsys.readouterr().out
        assert len(builds) == 1
        assert main(args) == 0
        assert capsys.readouterr().out == live


# -- repro-serve run artifacts ----------------------------------------------


class TestServeCliOut:
    def test_out_writes_artifacts_with_phase_times(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["--n-vms", "24", "--n-slots", "12", "--quiet"]
        assert main(args + ["--out", os.fspath(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "manifest.json",
            "summary.json",
            "timing.jsonl",
            "trace.jsonl",
        ]
        timing = out / "timing.jsonl"
        validate_trace_file(timing, channel="timing")
        phases = [
            (e["phase"], e["calls"])
            for e in iter_trace_file(timing)
            if e["event"] == "phase_time"
        ]
        # Two forecast calls per window: the ladder's day decision and
        # the window's predictions.
        assert phases == [
            ("account", 12),
            ("forecast", 24),
            ("policy", 12),
            ("prepare", 12),
        ]
        capsys.readouterr()
        assert report_main([os.fspath(out)]) == 0
        assert "phase-time breakdown" in capsys.readouterr().out
