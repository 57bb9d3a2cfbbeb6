"""Observability: structured tracing, phase timers, manifests, reports.

The package answers "how did this run get its answer" without ever
changing the answer: tracers only observe, the no-op default
(:data:`NULL_TRACER`) costs one attribute read per would-be event, and
every wall-clock quantity (task times, the named phase timers of
:meth:`RunTracer.phase`) lives on a separate timing channel so
deterministic event streams stay byte-identical across same-seed runs.

Submodules:

* :mod:`~repro.obs.tracer` — :class:`RunTracer` / :class:`NullTracer`,
  JSONL channels, phase timers, event schemas and validation;
* :mod:`~repro.obs.manifest` — run manifests (seed, config hash, git
  rev, library versions);
* :mod:`~repro.obs.report` — the ``repro-experiments report`` renderer
  (imported lazily by the CLI; not re-exported here because it pulls
  in :mod:`repro.dcsim`, which itself imports this package).
"""

from .manifest import (
    MANIFEST_FILENAME,
    build_manifest,
    config_hash,
    load_manifest,
    write_manifest,
)
from .tracer import (
    EVENT_SCHEMAS,
    NULL_TRACER,
    NullTracer,
    RunTracer,
    TIMING_FILENAME,
    TRACE_FILENAME,
    TraceSchemaError,
    iter_trace_file,
    validate_event,
    validate_trace_file,
)

__all__ = [
    "EVENT_SCHEMAS",
    "MANIFEST_FILENAME",
    "NULL_TRACER",
    "TIMING_FILENAME",
    "TRACE_FILENAME",
    "NullTracer",
    "RunTracer",
    "TraceSchemaError",
    "build_manifest",
    "config_hash",
    "iter_trace_file",
    "load_manifest",
    "validate_event",
    "validate_trace_file",
    "write_manifest",
]
