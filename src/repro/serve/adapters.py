"""Collector adapters: the pluggable feed side of the service loop.

:class:`~repro.cloud.telemetry.TraceCollector` (PR 7) replays a trace
dataset as a delivery stream; this module generalizes its *shape* into
the :class:`CollectorAdapter` protocol so non-replay feeds plug into
:class:`~repro.cloud.streaming.StreamingCloudSimulation` with the
poll/timeout/retry semantics unchanged:

* ``poll(slot)`` returns a :class:`TelemetryBatch` of everything that
  became available by that poll, or raises
  :class:`~repro.errors.CollectorTimeoutError` while the feed is down;
* :func:`poll_with_retry` wraps any adapter in the bounded
  retry/backoff hardening pattern;
* ``state()`` / ``restore(state)`` snapshot the cursor for the
  engine's checkpoint/resume.

Two live adapters ship alongside the protocol, mirroring the collector
split of energy_audit's ``pro/collectors`` (in-process vs network):

* :class:`PushCollector` — an in-process synthetic-push feed: a
  producer (test harness, generator thread) pushes sample batches with
  an availability slot, the engine polls them out in availability
  order;
* :class:`HttpCollector` — polls ``GET <base>/poll?collector=I&slot=S``
  on a feed service speaking the tiny JSON protocol of
  :class:`TelemetryFeedServer` (also here, so the live quickstart and
  the tests exercise a real socket round-trip without extra
  dependencies).  HTTP 503, transport errors and a malformed body map
  to :class:`~repro.errors.CollectorTimeoutError` — a dead network leg
  *is* a dropout window, and a garbled delivery is a failed poll.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional, Protocol, Tuple
from urllib.error import HTTPError, URLError
from urllib.parse import parse_qs, urlparse
from urllib.request import urlopen

import numpy as np

from ..errors import CollectorTimeoutError, ConfigurationError


@dataclass(frozen=True)
class TelemetryBatch:
    """One poll's deliveries: parallel arrays, one entry per sample.

    Attributes:
        vm_rows: global VM row of each delivered sample.
        samples: absolute sample index of each delivered sample.
        cpu: the delivered CPU reading (NaN/spike corruption applied).
        mem: the delivered memory reading (same corruption marks).
    """

    vm_rows: np.ndarray
    samples: np.ndarray
    cpu: np.ndarray
    mem: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of delivered samples in the batch."""
        return int(self.vm_rows.size)


def _empty_batch() -> TelemetryBatch:
    return TelemetryBatch(
        vm_rows=np.empty(0, dtype=np.intp),
        samples=np.empty(0, dtype=np.intp),
        cpu=np.empty(0),
        mem=np.empty(0),
    )


class CollectorAdapter(Protocol):
    """What the streaming engine needs from a telemetry feed.

    :class:`~repro.cloud.telemetry.TraceCollector` (file replay),
    :class:`PushCollector` (in-process push) and :class:`HttpCollector`
    (network poll) all satisfy this structurally; the engine never
    checks types, only the protocol.
    """

    @property
    def collector_id(self) -> int:
        """Stable id of this collector within the feed."""
        ...

    def poll(self, slot: int) -> TelemetryBatch:
        """Everything that became available by the poll at ``slot``.

        Raises:
            CollectorTimeoutError: while the feed is down; the engine
                records downtime and re-polls next slot.
        """
        ...

    def state(self) -> object:
        """JSON-serializable cursor snapshot for checkpoint/resume."""
        ...

    def restore(self, state: object) -> None:
        """Reset the cursor to a :meth:`state` snapshot."""
        ...


def poll_with_retry(
    collector: CollectorAdapter,
    slot: int,
    retries: int = 2,
    backoff_s: float = 0.0,
    sleep: Optional[Callable[[float], None]] = None,
    tracer=None,
) -> Optional[TelemetryBatch]:
    """Poll with bounded retries and exponential backoff.

    The bounded-retry hardening of :func:`repro.dcsim.engine.fan_out`
    applied to a poll: a :class:`~repro.errors.CollectorTimeoutError` is
    retried up to ``retries`` times, sleeping ``backoff_s * 2**attempt``
    between attempts (``backoff_s=0`` — the default — keeps simulated replay
    instant and deterministic).  ``None`` means the collector stayed
    down through every attempt: the caller records downtime and moves
    on instead of losing the whole run.

    Args:
        collector: the collector to poll (any :class:`CollectorAdapter`).
        slot: the poll slot.
        retries: additional attempts after the first (>= 0).
        backoff_s: base backoff delay in seconds (>= 0).
        sleep: injectable sleep for tests; defaults to ``time.sleep``.
        tracer: optional :class:`~repro.obs.tracer.RunTracer`; every
            failed attempt emits a ``poll_retry`` event (``gave_up``
            marks the final one).  Outages are seeded-schedule facts,
            so the events are deterministic.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if backoff_s < 0:
        raise ConfigurationError(
            f"backoff_s must be >= 0, got {backoff_s}"
        )
    traced = tracer is not None and getattr(tracer, "enabled", False)
    wait = sleep if sleep is not None else time.sleep
    for attempt in range(retries + 1):
        try:
            return collector.poll(slot)
        except CollectorTimeoutError:
            if traced:
                tracer.emit(
                    "poll_retry",
                    collector=collector.collector_id,
                    slot=slot,
                    attempt=attempt,
                    gave_up=attempt == retries,
                )
            if attempt < retries and backoff_s > 0.0:
                wait(backoff_s * (2.0**attempt))
    return None


# -- in-process push feed ----------------------------------------------


class PushCollector:
    """In-process synthetic-push adapter: producers push, the engine polls.

    A producer thread (or the test harness) calls :meth:`push` with a
    batch of samples and the slot at which they become pollable; the
    engine's polls drain everything whose availability slot has passed,
    in (availability, push-order) order — the same out-of-order
    delivery semantics as the file-replay collector.  :meth:`set_offline`
    simulates a dropout window: polls raise
    :class:`~repro.errors.CollectorTimeoutError` until the feed comes
    back, and the queued samples arrive as one burst afterwards.

    Push and poll are lock-serialized so a live producer thread never
    races the service loop.

    Args:
        collector_id: this collector's id within the feed.
    """

    def __init__(self, collector_id: int) -> None:
        self._id = int(collector_id)
        self._lock = threading.Lock()
        # (available-at slot, push sequence, batch); kept sorted lazily
        # at poll time so pushes stay O(1).
        self._queue: List[Tuple[int, int, TelemetryBatch]] = []
        self._pushed = 0
        self._consumed = 0
        self._offline = False
        self._last_success = 0

    @property
    def collector_id(self) -> int:
        """This collector's id within the feed."""
        return self._id

    def push(
        self,
        vm_rows: np.ndarray,
        samples: np.ndarray,
        cpu: np.ndarray,
        mem: np.ndarray,
        available_at: int,
    ) -> None:
        """Queue a batch of samples, pollable from slot ``available_at``.

        Raises:
            ConfigurationError: if the parallel arrays disagree in
                length.
        """
        batch = TelemetryBatch(
            vm_rows=np.asarray(vm_rows, dtype=np.intp),
            samples=np.asarray(samples, dtype=np.intp),
            cpu=np.asarray(cpu, dtype=float),
            mem=np.asarray(mem, dtype=float),
        )
        n = batch.vm_rows.size
        if not (
            batch.samples.size == n
            and batch.cpu.size == n
            and batch.mem.size == n
        ):
            raise ConfigurationError(
                "push arrays must be parallel (one entry per sample)"
            )
        with self._lock:
            # A retroactive availability ("should already be there")
            # delivers at the next poll: clamping keeps the sorted
            # cursor consistent, so consumed batches always precede
            # unconsumed ones in (availability, push-order) order.
            avail = max(int(available_at), self._last_success + 1)
            self._queue.append((avail, self._pushed, batch))
            self._pushed += 1

    def set_offline(self, offline: bool) -> None:
        """Enter/leave a dropout window (polls time out while offline)."""
        with self._lock:
            self._offline = bool(offline)

    def poll(self, slot: int) -> TelemetryBatch:
        """Everything pushed with ``available_at <= slot``, in order.

        Raises:
            CollectorTimeoutError: while :meth:`set_offline` holds the
                feed down (nothing is consumed).
        """
        with self._lock:
            if self._offline:
                raise CollectorTimeoutError(
                    f"collector {self._id} timed out polling slot {slot} "
                    f"(offline)"
                )
            self._queue.sort(key=lambda item: (item[0], item[1]))
            ready = [
                batch
                for avail, _, batch in self._queue[self._consumed :]
                if avail <= slot
            ]
            self._consumed += len(ready)
            self._last_success = max(self._last_success, int(slot))
        if not ready:
            return _empty_batch()
        return TelemetryBatch(
            vm_rows=np.concatenate([b.vm_rows for b in ready]),
            samples=np.concatenate([b.samples for b in ready]),
            cpu=np.concatenate([b.cpu for b in ready]),
            mem=np.concatenate([b.mem for b in ready]),
        )

    # -- checkpoint ----------------------------------------------------

    def state(self) -> Tuple[int, int]:
        """Cursor snapshot: ``(batches consumed, last successful poll)``."""
        with self._lock:
            return (self._consumed, self._last_success)

    def restore(self, state: Tuple[int, int]) -> None:
        """Reset the cursor; pushed-but-unconsumed batches replay."""
        consumed, last_success = state
        with self._lock:
            self._consumed = int(consumed)
            self._last_success = int(last_success)


# -- HTTP feed ---------------------------------------------------------


#: A feed body's lists and the NumPy kinds each may hold: integer
#: indices, integer or float readings.
_BODY_FIELDS = (
    ("vm_rows", "iu"),
    ("samples", "iu"),
    ("cpu", "iuf"),
    ("mem", "iuf"),
)


def _batch_from_body(payload) -> TelemetryBatch:
    """A feed body's batch.

    Raises:
        ValueError: naming the defect, for a body that is not an
            object, lacks a list, or holds a ragged, nested or
            non-numeric list, non-integer indices or lists of unequal
            length.
    """
    if not isinstance(payload, dict):
        raise ValueError("the body is not a JSON object")
    arrays = {}
    for name, kinds in _BODY_FIELDS:
        if name not in payload:
            raise ValueError(f"the body has no {name!r} list")
        try:
            values = np.asarray(payload[name])
        except ValueError as exc:  # a ragged nesting
            raise ValueError(f"{name!r} is ragged") from exc
        if values.ndim != 1 or (values.size and values.dtype.kind not in kinds):
            what = "integers" if kinds == "iu" else "numbers"
            raise ValueError(f"{name!r} is not a flat list of {what}")
        arrays[name] = values.astype(np.intp if kinds == "iu" else float)
    if len({values.size for values in arrays.values()}) > 1:
        raise ValueError("the body's lists differ in length")
    return TelemetryBatch(**arrays)


class HttpCollector:
    """Network adapter: polls a feed service over HTTP.

    Speaks the JSON protocol of :class:`TelemetryFeedServer`:
    ``GET <base_url>/poll?collector=<id>&slot=<slot>`` returns the
    batch as parallel lists, HTTP 503 means the backing collector is
    inside a dropout window, and any transport failure (refused
    connection, socket timeout) is treated the same way — from the
    engine's side a dead network leg *is* a down collector, and
    :func:`poll_with_retry` applies its usual bounded backoff.  So is
    a malformed body: one that does not parse, is not an object, lacks
    a list, or holds ragged or non-numeric lists, non-integer indices
    or lists of unequal length.

    The cursor lives server-side (the feed knows what it has already
    delivered), so :meth:`state` only snapshots the last successful
    poll; on resume the feed's own cursor is authoritative.

    Args:
        collector_id: this collector's id at the feed service.
        base_url: feed service root, e.g. ``http://127.0.0.1:8431``.
        timeout_s: per-request socket timeout in seconds (> 0).
    """

    def __init__(
        self,
        collector_id: int,
        base_url: str,
        timeout_s: float = 5.0,
    ) -> None:
        if timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be > 0, got {timeout_s}"
            )
        self._id = int(collector_id)
        self._base = base_url.rstrip("/")
        self._timeout = float(timeout_s)
        self._last_success = 0

    @property
    def collector_id(self) -> int:
        """This collector's id at the feed service."""
        return self._id

    def poll(self, slot: int) -> TelemetryBatch:
        """One HTTP round-trip; see the class docstring for the protocol.

        Raises:
            CollectorTimeoutError: on HTTP 503 (feed-declared dropout),
                any transport failure or a malformed body.
        """
        url = f"{self._base}/poll?collector={self._id}&slot={int(slot)}"
        try:
            with urlopen(url, timeout=self._timeout) as response:
                body = response.read()
        except HTTPError as exc:
            raise CollectorTimeoutError(
                f"collector {self._id} timed out polling slot {slot} "
                f"(feed returned HTTP {exc.code})"
            ) from exc
        except (URLError, TimeoutError, OSError) as exc:
            raise CollectorTimeoutError(
                f"collector {self._id} timed out polling slot {slot} "
                f"({exc})"
            ) from exc
        try:
            batch = _batch_from_body(json.loads(body))
        except ValueError as exc:  # JSONDecodeError included
            raise CollectorTimeoutError(
                f"collector {self._id} got a malformed body polling slot "
                f"{slot} ({exc})"
            ) from exc
        self._last_success = max(self._last_success, int(slot))
        return batch

    # -- checkpoint ----------------------------------------------------

    def state(self) -> Tuple[str, int]:
        """``("http", last successful poll)`` — the feed owns the cursor."""
        return ("http", self._last_success)

    def restore(self, state: Tuple[str, int]) -> None:
        """Restore the last-success mark; the feed's cursor is remote."""
        self._last_success = int(state[1])


class TelemetryFeedServer:
    """Tiny in-process HTTP feed fronting any collector adapters.

    Serves the :class:`HttpCollector` protocol over a real socket
    (``ThreadingHTTPServer`` on ``127.0.0.1``, ephemeral port) from a
    daemon thread, delegating each ``/poll`` to the backing adapter
    with the same id — typically file-replay
    :class:`~repro.cloud.telemetry.TraceCollector` instances, which
    turns any recorded scenario into a live HTTP feed for demos and
    integration tests.  A backing
    :class:`~repro.errors.CollectorTimeoutError` becomes HTTP 503.

    Args:
        collectors: the backing adapters, keyed by their own
            ``collector_id``.

    Raises:
        ConfigurationError: with no collectors to serve.
    """

    def __init__(self, collectors) -> None:
        backing = {int(c.collector_id): c for c in collectors}
        if not backing:
            raise ConfigurationError(
                "TelemetryFeedServer needs at least one collector"
            )
        lock = threading.Lock()

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence stderr
                pass

            def do_GET(self) -> None:
                parsed = urlparse(self.path)
                if parsed.path != "/poll":
                    self.send_error(404)
                    return
                query = parse_qs(parsed.query)
                try:
                    cid = int(query["collector"][0])
                    slot = int(query["slot"][0])
                    collector = backing[cid]
                except (KeyError, ValueError, IndexError):
                    self.send_error(400)
                    return
                try:
                    with lock:
                        batch = collector.poll(slot)
                except CollectorTimeoutError:
                    self.send_error(503)
                    return
                body = json.dumps(
                    {
                        "vm_rows": batch.vm_rows.tolist(),
                        "samples": batch.samples.tolist(),
                        "cpu": batch.cpu.tolist(),
                        "mem": batch.mem.tolist(),
                    }
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        """Feed root, e.g. ``http://127.0.0.1:<port>``."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Shut the server down and join its thread."""
        self._server.shutdown()
        self._thread.join(timeout=5.0)
        self._server.server_close()

    def __enter__(self) -> "TelemetryFeedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
