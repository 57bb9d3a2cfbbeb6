"""Structured run tracing: JSONL event streams with a null default.

A tracer answers "how did this run get its answer": every allocation
window, fault transition, telemetry degradation, forecast-ladder rung
choice, checkpoint write and sweep-task outcome becomes one structured
JSON event.  Two channels keep the house determinism rule honest:

* the **event channel** (``trace.jsonl``) carries only deterministic
  fields — slot indices, counts, policy/case names, seeded schedule
  facts.  Two same-seed runs must produce byte-identical event
  streams, which the observability test-suite asserts via
  :meth:`RunTracer.event_bytes`.
* the **timing channel** (``timing.jsonl``) quarantines everything
  wall-clock (per-task elapsed seconds, retry delays, and the named
  phase timers of :meth:`RunTracer.phase`, written as one
  ``phase_time`` event per phase on :meth:`RunTracer.close`).  It is
  excluded from determinism comparisons by construction.

The default tracer everywhere is the no-op :data:`NULL_TRACER`:
simulations constructed without an explicit tracer pay one attribute
read per would-be event (the ``enabled`` flag) and nothing else, and
results are bit-identical with tracing on or off because tracers only
ever observe.

Every event type has a schema in :data:`EVENT_SCHEMAS`;
:func:`validate_event` checks a decoded event against it (pure
Python — no external JSON-schema dependency), and
:func:`validate_trace_file` walks a whole JSONL file.  The ``report``
command refuses run directories whose traces do not validate.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from typing import Dict, Iterator, List

from ..errors import ConfigurationError

TRACE_FILENAME = "trace.jsonl"
TIMING_FILENAME = "timing.jsonl"

_NUMBER = {"type": "number"}
_INT = {"type": "integer"}
_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_INT_ARRAY = {"type": "array", "items": "integer"}

#: Per-event-type schemas.  ``fields`` maps every allowed field to a
#: type spec (``type`` one of integer/number/string/boolean/array,
#: optional ``enum``); ``required`` lists the fields that must be
#: present.  ``seq`` (monotonic per channel) and ``event`` (the type
#: tag) are implicit on every event.
EVENT_SCHEMAS: Dict[str, dict] = {
    "run_start": {
        "doc": "A simulation run begins (one per engine run).",
        "fields": {
            "policy": _STR,
            "engine": {
                "type": "string",
                "enum": ["fixed", "cloud", "streaming"],
            },
            "start_slot": _INT,
            "n_slots": _INT,
            "n_servers": _INT,
            "n_vms": _INT,
            "n_pools": _INT,
        },
        "required": ["policy", "engine", "start_slot", "n_slots"],
    },
    "run_end": {
        "doc": "A simulation run finished; whole-horizon aggregates.",
        "fields": {
            "policy": _STR,
            "n_records": _INT,
            "energy_mj": _NUMBER,
            "violations": _INT,
            "migrations": _INT,
        },
        "required": ["policy", "n_records", "energy_mj", "violations"],
    },
    "allocation_window": {
        "doc": "One allocation window: placement shape and churn.",
        "fields": {
            "slot": _INT,
            "n_window": _INT,
            "case": _STR,
            "n_servers": _INT,
            "active_servers": _INT,
            "migrations": _INT,
            "fault_migrations": _INT,
            "forced_placements": _INT,
            "shed_vms": _INT,
            "n_active_vms": _INT,
            "arrivals": _INT,
            "departures": _INT,
            "pool_active": _INT_ARRAY,
        },
        "required": [
            "slot",
            "n_window",
            "n_servers",
            "active_servers",
            "migrations",
        ],
    },
    "fault_event": {
        "doc": "One seeded fault-schedule entry (run preamble).",
        "fields": {
            "kind": {"type": "string", "enum": ["outage", "cap"]},
            "start_slot": _INT,
            "end_slot": _INT,
            "n_servers": _INT,
            "cap_frac": _NUMBER,
        },
        "required": ["kind", "start_slot", "end_slot"],
    },
    "fault_transition": {
        "doc": "The fault state changed at a window boundary.",
        "fields": {
            "slot": _INT,
            "n_failed": _INT,
            "cap_frac": _NUMBER,
            "available_servers": _INT,
        },
        "required": ["slot", "n_failed", "cap_frac"],
    },
    "telemetry_window": {
        "doc": "Degraded-telemetry state behind one window decision.  "
        "``rejected_readings`` counts the delivered readings the ingest "
        "dropped (invalid values, indices outside its buffers, samples "
        "stamped at or after their poll's slot) since the previous "
        "``telemetry_window``.",
        "fields": {
            "slot": _INT,
            "rung": {
                "type": "string",
                "enum": [
                    "fresh",
                    "stale",
                    "persistence",
                    "reactive-only",
                ],
            },
            "imputed_samples": _INT,
            "rejected_readings": _INT,
            "collectors_down": _INT,
            "blind": _BOOL,
        },
        "required": ["slot", "rung", "imputed_samples"],
    },
    "ladder_rung": {
        "doc": "The forecast ladder chose a rung for one day.",
        "fields": {
            "day": _INT,
            "rung": {
                "type": "string",
                "enum": ["fresh", "stale", "persistence"],
            },
        },
        "required": ["day", "rung"],
    },
    "poll_retry": {
        "doc": "A collector poll failed and was retried (or gave up).",
        "fields": {
            "collector": _INT,
            "slot": _INT,
            "attempt": _INT,
            "gave_up": _BOOL,
        },
        "required": ["collector", "slot", "attempt", "gave_up"],
    },
    "checkpoint": {
        "doc": "A streaming checkpoint was written: a new base, or one "
        "record appended to the file (``bytes`` is what it wrote).  "
        "``persisted`` appears only in traces of format-1 checkpoints, "
        "which had no ``bytes`` or ``base``.",
        "fields": {
            "slot": _INT,
            "n_records": _INT,
            "bytes": _INT,
            "base": _BOOL,
            "persisted": _BOOL,
        },
        "required": ["slot", "n_records"],
    },
    # -- operator decision stream (repro.serve) ------------------------
    "decision_placement": {
        "doc": "The service loop committed one window's placement.",
        "fields": {
            "slot": _INT,
            "n_window": _INT,
            "case": _STR,
            "n_active_vms": _INT,
            "active_servers": _INT,
            "forced_placements": _INT,
            "arrivals": _INT,
            "departures": _INT,
            "blind": _BOOL,
            "checkpointed": _BOOL,
        },
        "required": ["slot", "n_window", "case", "active_servers"],
    },
    "decision_migration": {
        "doc": "A window's placement moved VMs off their servers.",
        "fields": {
            "slot": _INT,
            "migrations": _INT,
        },
        "required": ["slot", "migrations"],
    },
    "decision_rung": {
        "doc": "The forecast rung a window's decision planned from.",
        "fields": {
            "slot": _INT,
            "rung": {
                "type": "string",
                "enum": [
                    "fresh",
                    "stale",
                    "persistence",
                    "reactive-only",
                ],
            },
            "stale": _BOOL,
            "imputed_samples": _INT,
            "collectors_down": _INT,
        },
        "required": ["slot", "rung"],
    },
    "decision_sla": {
        "doc": "A window's accounted SLA debt and energy cost.",
        "fields": {
            "slot": _INT,
            "violations": _INT,
            "energy_j": _NUMBER,
        },
        "required": ["slot", "violations", "energy_j"],
    },
    "shard_window": {
        "doc": "One sharded allocation window: shard shapes and budgets.",
        "fields": {
            "n_shards": _INT,
            "n_vms": _INT,
            "shard_sizes": _INT_ARRAY,
            "server_budgets": _INT_ARRAY,
            "forced": _INT,
        },
        "required": ["n_shards", "n_vms", "shard_sizes"],
    },
    "region_route": {
        "doc": "The geo router assigned one region its VM share.",
        "fields": {
            "region": _STR,
            "n_vms": _INT,
            "n_servers": _INT,
            "seed": _INT,
            "weight": _NUMBER,
        },
        "required": ["region", "n_vms", "n_servers"],
    },
    "experiment_start": {
        "doc": "The CLI began one experiment.",
        "fields": {"name": _STR, "full": _BOOL, "jobs": _INT},
        "required": ["name"],
    },
    "experiment_end": {
        "doc": "The CLI finished one experiment.",
        "fields": {"name": _STR, "failures": _INT},
        "required": ["name", "failures"],
    },
    "task_start": {
        "doc": "A sweep task was submitted to the process pool.",
        "fields": {"key": _STR},
        "required": ["key"],
    },
    "task_done": {
        "doc": "A sweep task returned a result.",
        "fields": {"key": _STR, "retried": _BOOL},
        "required": ["key"],
    },
    "task_retry": {
        "doc": "A sweep task failed once; retrying in a fresh pool.",
        "fields": {"key": _STR, "error": _STR},
        "required": ["key", "error"],
    },
    "task_failed": {
        "doc": "A sweep task failed after its retry (FailedRun).",
        "fields": {"key": _STR, "error": _STR, "attempts": _INT},
        "required": ["key", "error", "attempts"],
    },
    # -- timing channel only ------------------------------------------
    "phase_time": {
        "doc": "Accumulated wall time of one profiled phase.",
        "fields": {
            "phase": _STR,
            "calls": _INT,
            "total_s": _NUMBER,
            "max_s": _NUMBER,
        },
        "required": ["phase", "calls", "total_s"],
    },
    "task_time": {
        "doc": "Wall-clock cost of one sweep task (includes queueing "
        "for failed attempts).",
        "fields": {
            "key": _STR,
            "elapsed_s": _NUMBER,
            "attempts": _INT,
            "failed": _BOOL,
        },
        "required": ["key", "elapsed_s"],
    },
}

#: Event types that may only appear on the timing channel (they carry
#: wall-clock fields and would break event-stream determinism).
TIMING_ONLY_EVENTS = frozenset({"phase_time", "task_time"})

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
}


class TraceSchemaError(ConfigurationError):
    """An emitted or decoded event does not match its schema."""


def validate_event(event: dict, channel: str = "event") -> None:
    """Check one decoded event against :data:`EVENT_SCHEMAS`.

    Args:
        event: the decoded JSON object.
        channel: ``"event"`` or ``"timing"`` — timing-only event types
            are rejected on the event channel and vice versa.

    Raises:
        TraceSchemaError: on an unknown type, a missing required
            field, a field of the wrong type, an enum violation, or an
            undeclared field.
    """
    if not isinstance(event, dict):
        raise TraceSchemaError(f"event must be an object, got {event!r}")
    kind = event.get("event")
    schema = EVENT_SCHEMAS.get(kind)
    if schema is None:
        raise TraceSchemaError(f"unknown event type {kind!r}")
    if channel == "event" and kind in TIMING_ONLY_EVENTS:
        raise TraceSchemaError(
            f"{kind!r} carries wall-clock data and belongs on the "
            f"timing channel, not the event channel"
        )
    if channel == "timing" and kind not in TIMING_ONLY_EVENTS:
        raise TraceSchemaError(
            f"{kind!r} is an event-channel type, found on timing channel"
        )
    seq = event.get("seq")
    if not _TYPE_CHECKS["integer"](seq) or seq < 0:
        raise TraceSchemaError(f"{kind}: seq must be a non-negative int")
    fields = schema["fields"]
    for name in schema["required"]:
        if name not in event:
            raise TraceSchemaError(f"{kind}: missing required field {name!r}")
    for name, value in event.items():
        if name in ("seq", "event"):
            continue
        spec = fields.get(name)
        if spec is None:
            raise TraceSchemaError(f"{kind}: undeclared field {name!r}")
        if not _TYPE_CHECKS[spec["type"]](value):
            raise TraceSchemaError(
                f"{kind}: field {name!r} must be {spec['type']}, "
                f"got {value!r}"
            )
        if spec["type"] == "array":
            item_check = _TYPE_CHECKS[spec.get("items", "integer")]
            if not all(item_check(item) for item in value):
                raise TraceSchemaError(
                    f"{kind}: array field {name!r} has items of the "
                    f"wrong type: {value!r}"
                )
        enum = spec.get("enum")
        if enum is not None and value not in enum:
            raise TraceSchemaError(
                f"{kind}: field {name!r} must be one of {enum}, "
                f"got {value!r}"
            )


def iter_trace_file(path) -> Iterator[dict]:
    """Yield decoded events from a JSONL trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc


def validate_trace_file(path, channel: str = "event") -> int:
    """Validate every event in a JSONL file; return the event count."""
    count = 0
    for event in iter_trace_file(path):
        validate_event(event, channel=channel)
        count += 1
    return count


def _coerce(value):
    """Make a field JSON-serializable (NumPy scalars/arrays included)."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", 0) == 0:
        return item()
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    raise TraceSchemaError(
        f"field value {value!r} ({type(value).__name__}) is not "
        f"JSON-serializable"
    )


#: The shared do-nothing ``with`` block of :meth:`NullTracer.phase`.
_NULL_PHASE = nullcontext()


class _PhaseTimer:
    """Reusable ``with`` timer accumulating one phase's wall time.

    One instance per phase name, cached by the tracer, so the hot loop
    pays two ``perf_counter`` calls per window instead of a fresh
    generator frame.  Not re-entrant with itself (nesting a phase
    inside the same phase double-counts).
    """

    __slots__ = ("calls", "total_s", "max_s", "_start")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        self.calls += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed
        return False


class NullTracer:
    """The zero-overhead default: every emit is a no-op.

    Hot loops should guard event assembly on :attr:`enabled` so a
    run without tracing never even builds the field dict.
    """

    enabled = False

    def emit(self, event: str, **fields) -> None:
        """Discard an event."""

    def timing(self, event: str, **fields) -> None:
        """Discard a timing event."""

    def phase(self, name: str) -> nullcontext:
        """Time nothing."""
        return _NULL_PHASE

    def close(self) -> None:
        """Nothing to flush."""

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: Shared no-op tracer; the default of every instrumented constructor.
NULL_TRACER = NullTracer()


class RunTracer:
    """Collects structured events, optionally streaming them to JSONL.

    Events are kept in memory (:attr:`events` / :attr:`timing_events`)
    and, when paths are given, appended line-by-line to the trace
    files.  Serialization is canonical (sorted keys, no whitespace),
    so identical event streams are identical bytes.  Every event is
    checked against its schema when it is emitted: emitting is rare
    enough that the check is free insurance against schema drift.

    Args:
        trace_path: event-channel JSONL path (``None`` = memory only).
        timing_path: timing-channel JSONL path (``None`` = memory only).
    """

    enabled = True

    def __init__(self, trace_path=None, timing_path=None) -> None:
        self.events: List[dict] = []
        self.timing_events: List[dict] = []
        self._phases: Dict[str, _PhaseTimer] = {}
        self._seq = 0
        self._timing_seq = 0
        self._trace_fh = (
            open(trace_path, "w", encoding="utf-8")
            if trace_path is not None
            else None
        )
        self._timing_fh = (
            open(timing_path, "w", encoding="utf-8")
            if timing_path is not None
            else None
        )

    @classmethod
    def for_run_dir(cls, run_dir) -> "RunTracer":
        """A tracer writing ``trace.jsonl`` + ``timing.jsonl`` in a dir."""
        os.makedirs(run_dir, exist_ok=True)
        return cls(
            trace_path=os.path.join(run_dir, TRACE_FILENAME),
            timing_path=os.path.join(run_dir, TIMING_FILENAME),
        )

    # -- emission ------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        """Record one deterministic event on the event channel."""
        record = {"seq": self._seq, "event": event}
        for name, value in fields.items():
            record[name] = _coerce(value)
        validate_event(record, channel="event")
        self._seq += 1
        self.events.append(record)
        if self._trace_fh is not None:
            self._trace_fh.write(_dumps(record) + "\n")

    def timing(self, event: str, **fields) -> None:
        """Record one wall-clock event on the timing channel."""
        record = {"seq": self._timing_seq, "event": event}
        for name, value in fields.items():
            record[name] = _coerce(value)
        validate_event(record, channel="timing")
        self._timing_seq += 1
        self.timing_events.append(record)
        if self._timing_fh is not None:
            self._timing_fh.write(_dumps(record) + "\n")

    def phase(self, name: str) -> _PhaseTimer:
        """A ``with`` timer for a named phase (``perf_counter``).

        Timers are cached per name, so this is cheap to call per
        window, and times accumulate across every run sharing the
        tracer.  Nested different-named phases both count; don't nest
        a phase inside itself.
        """
        timer = self._phases.get(name)
        if timer is None:
            timer = self._phases[name] = _PhaseTimer()
        return timer

    # -- inspection ----------------------------------------------------

    def event_bytes(self) -> bytes:
        """Canonical serialization of the event channel.

        The determinism witness: two same-seed runs must produce equal
        ``event_bytes()`` (the timing channel is deliberately absent).
        """
        return b"\n".join(
            _dumps(event).encode("utf-8") for event in self.events
        )

    def of_type(self, event: str) -> List[dict]:
        """All event-channel events of one type, in emission order."""
        return [e for e in self.events if e["event"] == event]

    def close(self) -> None:
        """Write the phase times, then close the JSONL files.

        Each phase timed so far becomes one ``phase_time`` event on
        the timing channel, sorted by name; the timers are then
        dropped, so closing again writes nothing (idempotent).
        """
        phases, self._phases = self._phases, {}
        for name, timer in sorted(phases.items()):
            self.timing(
                "phase_time",
                phase=name,
                calls=timer.calls,
                total_s=timer.total_s,
                max_s=timer.max_s,
            )
        for fh in (self._trace_fh, self._timing_fh):
            if fh is not None and not fh.closed:
                fh.close()

    def __enter__(self) -> "RunTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _dumps(record: dict) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
