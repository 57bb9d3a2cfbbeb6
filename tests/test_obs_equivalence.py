"""Observability layer: bit-identity, determinism, schemas, report.

The acceptance bar of the observability PR:

* **tracing changes nothing**: every engine (fixed-population batch,
  cloud churn, streaming telemetry, faulted runs) produces
  bit-identical records with a full :class:`RunTracer` +
  :class:`MetricsRegistry` attached vs the ``NULL_TRACER`` default;
* **event streams are deterministic**: two same-seed traced runs emit
  byte-identical event channels (wall-clock data is quarantined on the
  separate timing channel, which is excluded from the comparison);
* **every event validates**: each emitted event type passes its schema
  in :data:`EVENT_SCHEMAS`, and malformed events (unknown type,
  missing required field, wrong type, enum violation, wrong channel)
  are rejected;
* **the audit report round-trips**: ``repro-experiments ... --out DIR``
  writes manifest/trace/timing/metrics/summary artifacts that
  ``repro-experiments report DIR`` renders, and a corrupted event in
  the artifacts makes the report exit non-zero.
"""

import json
import statistics
import time

import numpy as np
import pytest

from repro.baselines import OnlineReactivePolicy
from repro.cloud import (
    CloudSimulation,
    StreamingCloudSimulation,
    fixed_schedule,
)
from repro.cloud.faults import FaultSchedule
from repro.cloud.telemetry import get_telemetry_scenario
from repro.core import EpactPolicy
from repro.dcsim import DataCenterSimulation
from repro.forecast import DayAheadPredictor
from repro.obs import (
    EVENT_SCHEMAS,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    RunTracer,
    TraceSchemaError,
    build_manifest,
    config_hash,
    load_manifest,
    load_metrics,
    validate_event,
    validate_trace_file,
    write_manifest,
)
from repro.obs.report import main as report_main
from repro.obs.report import render_report
from repro.obs.tracer import TIMING_ONLY_EVENTS
from repro.experiments import runner
from repro.traces import default_dataset


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def ds():
    return default_dataset(n_vms=20, n_days=9, seed=7)


@pytest.fixture(scope="module")
def pred(ds):
    predictor = DayAheadPredictor(ds)
    for day in range(7, ds.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="module")
def fixed(ds):
    return fixed_schedule(ds.n_vms, 0, ds.n_slots)


def traced_pair():
    return RunTracer(), MetricsRegistry()


# -- tracing on/off bit-identity --------------------------------------------


class TestBitIdentity:
    def test_fixed_engine(self, ds, pred):
        plain = DataCenterSimulation(
            ds, pred, EpactPolicy(), max_servers=12
        ).run()
        tracer, metrics = traced_pair()
        traced = DataCenterSimulation(
            ds,
            pred,
            EpactPolicy(),
            max_servers=12,
            tracer=tracer,
            metrics=metrics,
        ).run()
        assert records_equal(plain.records, traced.records)
        assert tracer.of_type("run_start")
        assert tracer.of_type("allocation_window")
        assert tracer.of_type("run_end")

    def test_cloud_engine(self, ds, pred, fixed):
        kwargs = dict(max_servers=12, n_slots=24)
        plain = CloudSimulation(
            ds, pred, OnlineReactivePolicy(), fixed, **kwargs
        ).run()
        tracer, metrics = traced_pair()
        traced = CloudSimulation(
            ds,
            pred,
            OnlineReactivePolicy(),
            fixed,
            tracer=tracer,
            metrics=metrics,
            **kwargs,
        ).run()
        assert records_equal(plain.records, traced.records)
        assert tracer.of_type("run_start")[0]["engine"] == "cloud"

    def test_streaming_engine_lossy_feed(self, ds, fixed):
        telemetry = get_telemetry_scenario("lossy-10pct").build(
            ds.n_vms, 0, ds.n_slots, seed=11
        )
        kwargs = dict(max_servers=12, n_slots=24)
        plain = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            EpactPolicy(),
            fixed,
            telemetry=telemetry,
            **kwargs,
        ).run()
        tracer, metrics = traced_pair()
        traced = StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            EpactPolicy(),
            fixed,
            telemetry=telemetry,
            tracer=tracer,
            metrics=metrics,
            **kwargs,
        ).run()
        assert records_equal(plain.records, traced.records)
        assert tracer.of_type("run_start")[0]["engine"] == "streaming"
        assert tracer.of_type("telemetry_window")
        assert tracer.of_type("ladder_rung")

    def test_faulted_engine(self, ds, pred, fixed):
        first = pred.first_predictable_day * 24
        faults = FaultSchedule(
            12,
            0,
            ds.n_slots,
            server_outages=[(2, first + 4, first + 10)],
            cap_windows=[(first + 12, first + 20, 0.8)],
        )
        kwargs = dict(max_servers=12, n_slots=24, faults=faults)
        plain = CloudSimulation(
            ds, pred, EpactPolicy(), fixed, **kwargs
        ).run()
        tracer, metrics = traced_pair()
        traced = CloudSimulation(
            ds,
            pred,
            EpactPolicy(),
            fixed,
            tracer=tracer,
            metrics=metrics,
            **kwargs,
        ).run()
        assert records_equal(plain.records, traced.records)
        kinds = {e["kind"] for e in tracer.of_type("fault_event")}
        assert kinds == {"outage", "cap"}
        assert tracer.of_type("fault_transition")

    def test_metrics_phases_accumulate(self, ds, pred):
        tracer, metrics = traced_pair()
        DataCenterSimulation(
            ds,
            pred,
            EpactPolicy(),
            max_servers=12,
            tracer=tracer,
            metrics=metrics,
        ).run()
        phases = metrics.snapshot()["phases"]
        for name in ("forecast", "allocate", "account", "policy"):
            assert phases[name]["calls"] > 0
            assert phases[name]["total_s"] >= 0.0


# -- same-seed determinism of the event stream ------------------------------


class TestDeterministicStreams:
    def run_traced(self, ds, pred):
        tracer = RunTracer()
        DataCenterSimulation(
            ds, pred, EpactPolicy(), max_servers=12, tracer=tracer
        ).run()
        return tracer

    def test_same_seed_event_bytes_identical(self, ds, pred):
        a = self.run_traced(ds, pred)
        b = self.run_traced(ds, pred)
        assert a.event_bytes() == b.event_bytes()

    def test_streaming_same_seed_identical(self, ds, fixed):
        def run():
            tracer = RunTracer()
            telemetry = get_telemetry_scenario("lossy-10pct").build(
                ds.n_vms, 0, ds.n_slots, seed=11
            )
            StreamingCloudSimulation(
                ds,
                DayAheadPredictor(ds),
                EpactPolicy(),
                fixed,
                telemetry=telemetry,
                max_servers=12,
                n_slots=24,
                tracer=tracer,
            ).run()
            return tracer

        assert run().event_bytes() == run().event_bytes()

    def test_timing_channel_quarantined(self, ds, pred):
        # Wall-clock data never lands on the event channel: every
        # event-channel field survives a determinism comparison, while
        # phase/task times go to the timing channel only.
        tracer = RunTracer()
        metrics = MetricsRegistry()
        DataCenterSimulation(
            ds,
            pred,
            EpactPolicy(),
            max_servers=12,
            tracer=tracer,
            metrics=metrics,
        ).run()
        metrics.emit_timing(tracer)
        assert all(
            e["event"] not in TIMING_ONLY_EVENTS for e in tracer.events
        )
        assert {e["event"] for e in tracer.timing_events} <= (
            TIMING_ONLY_EVENTS
        )
        assert tracer.of_type("phase_time") == []


# -- schema validation -------------------------------------------------------


class TestSchemas:
    def test_every_emitted_event_type_validates(self, ds, pred, fixed):
        # One combined run exercising windows, faults, telemetry,
        # checkpoints and the ladder; every event must validate.
        first = pred.first_predictable_day * 24
        tracer = RunTracer()
        telemetry = get_telemetry_scenario("collector-outage").build(
            ds.n_vms, 0, ds.n_slots, seed=3
        )
        faults = FaultSchedule(
            12,
            0,
            ds.n_slots,
            server_outages=[(1, first + 2, first + 6)],
            cap_windows=[(first + 8, first + 12, 0.7)],
        )
        StreamingCloudSimulation(
            ds,
            DayAheadPredictor(ds),
            EpactPolicy(),
            fixed,
            telemetry=telemetry,
            faults=faults,
            max_servers=12,
            n_slots=24,
            tracer=tracer,
        ).run()
        for event in tracer.events:
            validate_event(event, channel="event")

    def test_schema_table_is_self_consistent(self):
        for kind, schema in EVENT_SCHEMAS.items():
            assert schema["doc"]
            assert set(schema["required"]) <= set(schema["fields"]), kind

    def test_unknown_event_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown event"):
            validate_event({"event": "nope", "seq": 0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="missing required"):
            validate_event({"event": "checkpoint", "seq": 0, "slot": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="must be integer"):
            validate_event(
                {
                    "event": "checkpoint",
                    "seq": 0,
                    "slot": "one",
                    "n_records": 2,
                    "persisted": False,
                }
            )

    def test_enum_violation_rejected(self):
        with pytest.raises(TraceSchemaError, match="one of"):
            validate_event(
                {
                    "event": "ladder_rung",
                    "seq": 0,
                    "day": 7,
                    "rung": "psychic",
                }
            )

    def test_undeclared_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="undeclared"):
            validate_event(
                {
                    "event": "checkpoint",
                    "seq": 0,
                    "slot": 1,
                    "n_records": 2,
                    "persisted": True,
                    "wall_s": 1.5,
                }
            )

    def test_timing_events_rejected_on_event_channel(self):
        event = {
            "event": "phase_time",
            "seq": 0,
            "phase": "allocate",
            "calls": 3,
            "total_s": 0.1,
        }
        with pytest.raises(TraceSchemaError, match="timing channel"):
            validate_event(event, channel="event")
        validate_event(event, channel="timing")

    def test_event_types_rejected_on_timing_channel(self):
        with pytest.raises(TraceSchemaError, match="event-channel"):
            validate_event(
                {"event": "ladder_rung", "seq": 0, "day": 7,
                 "rung": "fresh"},
                channel="timing",
            )

    def test_numpy_scalars_coerced_to_plain_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with RunTracer(trace_path=path) as tracer:
            tracer.emit(
                "checkpoint",
                slot=np.int64(5),
                n_records=np.int32(2),
                persisted=bool(np.bool_(True)),
            )
        (decoded,) = list(
            json.loads(line) for line in path.read_text().splitlines()
        )
        assert decoded["slot"] == 5
        assert isinstance(decoded["slot"], int)
        assert validate_trace_file(path) == 1

    def test_emit_validates_eagerly(self):
        tracer = RunTracer()
        with pytest.raises(TraceSchemaError):
            tracer.emit("checkpoint", slot=1)  # missing required fields


# -- null objects ------------------------------------------------------------


class TestNullObjects:
    def test_null_tracer_discards_everything(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit("not_even_a_schema", whatever=object())
        tracer.timing("junk")
        tracer.close()

    def test_null_metrics_discards_everything(self):
        metrics = NullMetrics()
        assert metrics.enabled is False
        metrics.counter("x")
        metrics.gauge("y", 1.0)
        metrics.histogram("z", 2.0)
        with metrics.phase("allocate"):
            pass
        snap = metrics.snapshot()
        assert snap["counters"] == {}
        assert snap["phases"] == {}


# -- metrics registry --------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.counter("windows")
        metrics.counter("windows", 4)
        metrics.gauge("servers", 12.0)
        for v in (1.0, 3.0, 2.0):
            metrics.histogram("task_s", v)
        snap = metrics.snapshot()
        assert snap["counters"]["windows"] == 5
        assert snap["gauges"]["servers"] == 12.0
        hist = snap["histograms"]["task_s"]
        assert hist["count"] == 3
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        assert hist["mean"] == 2.0

    def test_phase_timer_accumulates(self):
        metrics = MetricsRegistry()
        for _ in range(3):
            with metrics.phase("allocate"):
                pass
        stat = metrics.snapshot()["phases"]["allocate"]
        assert stat["calls"] == 3
        assert stat["total_s"] >= 0.0
        assert stat["max_s"] <= stat["total_s"]

    def test_write_load_round_trip(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.counter("c", 2)
        path = tmp_path / "metrics.json"
        metrics.write(path)
        assert load_metrics(path)["counters"]["c"] == 2
        assert load_metrics(tmp_path / "absent.json") is None

    def test_emit_timing_mirrors_phases(self):
        metrics = MetricsRegistry()
        with metrics.phase("forecast"):
            pass
        tracer = RunTracer()
        metrics.emit_timing(tracer)
        (event,) = tracer.timing_events
        assert event["event"] == "phase_time"
        assert event["phase"] == "forecast"
        assert event["calls"] == 1


# -- manifests ---------------------------------------------------------------


class TestManifest:
    def test_build_captures_provenance(self):
        manifest = build_manifest({"a": 1}, seed=2018)
        assert manifest["seed"] == 2018
        assert manifest["config"] == {"a": 1}
        assert len(manifest["config_hash"]) == 12
        for key in ("git_rev", "python", "numpy", "created_utc"):
            assert manifest[key]

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash(
            {"b": [2, 3], "a": 1}
        )
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_write_load_round_trip(self, tmp_path):
        written = write_manifest(tmp_path, {"full": False}, seed=7)
        loaded = load_manifest(tmp_path)
        assert loaded == written
        assert load_manifest(tmp_path / "nope") is None


# -- the report round trip ---------------------------------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A real traced run directory from the CLI (one tiny experiment)."""
    out = tmp_path_factory.mktemp("obs_run")
    code = runner.main(
        ["telemetry", "--scenarios", "clean", "--out", str(out)]
    )
    assert code == 0
    return out


class TestReportRoundTrip:
    def test_artifacts_written(self, run_dir):
        for name in (
            "manifest.json",
            "metrics.json",
            "trace.jsonl",
            "timing.jsonl",
            "summary.json",
            "telemetry.txt",
        ):
            assert (run_dir / name).exists(), name
        assert validate_trace_file(run_dir / "trace.jsonl") > 0
        assert (
            validate_trace_file(
                run_dir / "timing.jsonl", channel="timing"
            )
            > 0
        )

    def test_manifest_records_the_invocation(self, run_dir):
        manifest = load_manifest(run_dir)
        assert manifest["config"]["experiments"] == ["telemetry"]
        assert manifest["config"]["scenarios"] == ["clean"]
        assert manifest["seed"] == 2018

    def test_summary_has_policy_leaves(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        clean = summary["telemetry"]["clean"]
        assert "EPACT" in clean
        assert clean["EPACT"]["total_energy_mj"] > 0.0

    def test_report_renders_scored_tables(self, run_dir):
        text = render_report(run_dir)
        assert "audit report" in text
        assert "schema OK" in text
        assert "experiment telemetry" in text
        assert "EPACT" in text
        assert "grade" in text
        assert "phase-time breakdown" in text

    def test_report_cli_exits_zero(self, run_dir, capsys):
        assert report_main([str(run_dir)]) == 0
        assert "audit report" in capsys.readouterr().out

    def test_corrupted_event_fails_report(self, run_dir, tmp_path, capsys):
        import shutil

        bad = tmp_path / "bad_run"
        shutil.copytree(run_dir, bad)
        with open(bad / "trace.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"event":"allocation_window","seq":1,"slot":4}\n')
        assert report_main([str(bad)]) == 1
        assert "report failed" in capsys.readouterr().err

    def test_missing_dir_fails_report(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "absent")]) == 1
        capsys.readouterr()

    def test_tracing_off_is_default_and_bit_identical(self, ds, pred):
        # The CLI without --out runs the engines with NULL_TRACER /
        # NULL_METRICS; a traced engine run equals the default exactly
        # (the engine-level statement of the house rule).
        base = DataCenterSimulation(
            ds, pred, EpactPolicy(), max_servers=12
        ).run()
        traced = DataCenterSimulation(
            ds,
            pred,
            EpactPolicy(),
            max_servers=12,
            tracer=RunTracer(),
            metrics=MetricsRegistry(),
        ).run()
        assert records_equal(base.records, traced.records)


@pytest.mark.nightly
def test_tracing_overhead_under_five_percent(tmp_path):
    """A fully traced 120-VM week (a ``RunTracer`` writing both JSONL
    channels plus a ``MetricsRegistry`` timing every phase) takes under
    5% longer than the untraced default: the median traced/untraced
    ratio over 40 pairs of runs, alternating which side goes first.
    Adjacent runs see nearly the same host speed, so pair ratios
    cancel a shared host's drift: on a 2-CPU container whose overhead
    over 120 pairs was +1.4%, the medians of 10 runs per side read -5%
    to +12%, and one hiccup moves a best-of-5 past the bound."""
    dataset = default_dataset(n_vms=120, n_days=9, seed=2018)

    def run(traced):
        start = time.perf_counter()
        kwargs = {}
        if traced:
            kwargs = {
                "tracer": RunTracer.for_run_dir(tmp_path),
                "metrics": MetricsRegistry(),
            }
        sim = DataCenterSimulation(
            dataset, DayAheadPredictor(dataset), EpactPolicy(),
            max_servers=80, **kwargs,
        )
        energy = sum(r.energy_j for r in sim.run().records)
        if traced:
            kwargs["tracer"].close()
        return time.perf_counter() - start, energy

    # The warm-up pair doubles as the bit-identity witness.
    assert run(True)[1] == run(False)[1]
    pairs = []
    for pair in range(40):
        order = (False, True) if pair % 2 == 0 else (True, False)
        times = {traced: run(traced)[0] for traced in order}
        pairs.append((times[False], times[True]))
    overhead = (statistics.median(t / u for u, t in pairs) - 1.0) * 100.0
    untraced, traced = (statistics.median(side) for side in zip(*pairs))
    print(f"medians: untraced {untraced:.3f} s, traced {traced:.3f} s; "
          f"median pair overhead {overhead:+.1f}%")
    assert overhead < 5.0
