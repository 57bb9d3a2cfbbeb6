"""repro.serve — live-operator service mode over the streaming engine.

The consolidation-controller loop (monitor → forecast → place →
migrate), packaged for operation rather than experimentation:

* :mod:`~repro.serve.adapters` — the
  :class:`~repro.serve.adapters.CollectorAdapter` protocol the
  file-replay :class:`~repro.cloud.telemetry.TraceCollector` pioneered,
  plus live implementations: the in-process
  :class:`~repro.serve.adapters.PushCollector`, the
  :class:`~repro.serve.adapters.HttpCollector` and the
  :class:`~repro.serve.adapters.TelemetryFeedServer` that serves any
  backing collector over HTTP;
* :mod:`~repro.serve.service` — :class:`~repro.serve.service.ServeConfig`
  and the :func:`~repro.serve.service.serve` loop emitting
  ``decision_*`` tracer events per allocation window;
* :mod:`~repro.serve.cli` — the ``repro-serve`` front end
  (``python -m repro.serve.cli``), replay and live modes.

Quick start::

    from repro.serve import ServeConfig, serve

    result = serve(ServeConfig(n_slots=48))        # clean replay
"""

from .adapters import (
    CollectorAdapter,
    HttpCollector,
    PushCollector,
    TelemetryBatch,
    TelemetryFeedServer,
    poll_with_retry,
)

__all__ = [
    "CollectorAdapter",
    "HttpCollector",
    "POLICIES",
    "PushCollector",
    "ServeConfig",
    "TelemetryBatch",
    "TelemetryFeedServer",
    "build_simulation",
    "emit_decision_events",
    "main",
    "poll_with_retry",
    "serve",
]

_SERVICE_NAMES = {
    "POLICIES",
    "ServeConfig",
    "build_simulation",
    "emit_decision_events",
    "serve",
}


def __getattr__(name):
    # The service/CLI layer sits above the cloud engines; loading it
    # lazily keeps `repro.serve.adapters` importable
    # from `repro.cloud` without a cycle.
    if name in _SERVICE_NAMES:
        from . import service

        return getattr(service, name)
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
