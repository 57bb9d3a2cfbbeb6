"""Streaming cloud simulation: windowed decisions from degraded telemetry.

:class:`StreamingCloudSimulation` turns the batch
:class:`~repro.dcsim.engine.DataCenterSimulation` into the windowed
driver of an operator: instead of planning from the pre-known trace week,
every allocation window first *ingests* — each collector is polled
once per elapsed slot (bounded retry/backoff,
:func:`~repro.serve.adapters.poll_with_retry`), deliveries pass the
imputation/quality stage (:class:`~repro.cloud.telemetry.TelemetryIngest`)
— and then *decides* from whatever rung of the forecast-staleness
fallback ladder (:class:`~repro.cloud.telemetry.ForecastLadder`) the
degradation leaves reachable:

* **fresh** — the history window is clean enough: a day-ahead
  Hannan-Rissanen/companion-matrix fit on the imputed observations of
  the VMs that can still be placed (departed VMs are neither filled
  nor fitted; their rows of the day are NaN);
* **stale** — too gappy to re-fit, but a recent fresh forecast exists:
  re-use it while its age stays within
  :data:`~repro.cloud.telemetry.STALENESS_BUDGET_SLOTS`;
* **persistence** — no usable forecast: flat last-observed patterns,
  built only for a window whose day has no forecast;
* **reactive-only** — telemetry entirely dark for longer than
  :data:`BLIND_AFTER_SLOTS`: skip re-planning and *freeze* the previous
  placement (departed VMs dropped, arrivals spread round-robin), the
  engine's blind-window mode.

Degradation touches only the *decision inputs* — accounting always
runs on the true traces, so the energy/SLA cost of flying blind is
measured, not assumed.  With lossless telemetry every input is
bit-identical to the batch engine's, which is the equivalence the
telemetry test-suite asserts.

The class runs the engine's single window loop
(:meth:`~repro.dcsim.engine.DataCenterSimulation.windows`) and only
fills in its hooks: ingest and the forecast ladder before each
decision, the blind-freeze allocation, the telemetry record fields
and **checkpoint/resume** after each window.  Accounting is per slot
and eager, so at any window boundary the state a resume reads is
small and exact: the loop state (records so far, previous placement
and fault window), policy state, collector cursors, the observation
columns with bit-packed validity, and the ladder decisions from the
boundary's day on.

The checkpoint is one file (format :data:`CHECKPOINT_VERSION`).  A
fixed preamble (magic bytes, version, base length) opens it.  One
**base** follows, then append-only **records**, each length-prefixed
and CRC-checked.  Every part is a JSON header plus named arrays,
written from the live arrays as an uncompressed ``.npz`` and read with
``allow_pickle=False``: the run header and loop arrays at its
boundary, the ladder forecasts not yet in the file, and the ingest's
state, never its inputs.  That state is a range of observation
columns ending at the end of the newest delivered slot (no later
column holds a stored reading): from column 0 in a base, and from the
lowest sample stored since the previous checkpoint in a record.  The
columns are cut into one array per day (``ingest.obs_cpu.<day>`` /
``ingest.obs_mem.<day>``, so ``np.savez`` copies one day at a time),
with validity bit-packed over the same columns.  The first checkpoint
of a run, and the first one after the records have outgrown the base,
writes a new base to ``<path>.tmp`` and renames it onto the path;
every other checkpoint appends one record.  Resume empties the
ingest's buffers and writes each part's columns in order.  A last
record cut short or failing its CRC (a write torn by a crash) is
dropped, so the run resumes from the boundary before it.  Nothing
derived is stored: no imputed history exists (gap-filled reads are
computed from the observations), and a replay collector rebuilds its
day of deliveries from its cursor.  A run resumed from any boundary is
bit-identical to the uninterrupted run, because nothing downstream of
the checkpoint consults a clock or an unseeded RNG.

The engine always reads a feed: either a replay ``telemetry=``
schedule, played back by its own
:class:`~repro.cloud.telemetry.TraceCollector` set, or ``collectors=``,
any sequence of live :class:`~repro.serve.adapters.CollectorAdapter`
implementations (synthetic push, HTTP feed, ...); both are polled with
the same bounded retry.  ``windows()`` exposes the loop one
:class:`~repro.dcsim.engine.WindowDecision` at a time for operator
front ends (``repro.serve.service``).
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.types import Allocation, AllocationPolicy, ServerPlan
from ..errors import CheckpointError, ConfigurationError, DomainError
from ..obs.manifest import config_hash
from ..serve.adapters import CollectorAdapter, poll_with_retry
from ..traces.dataset import TraceDataset
from ..traces.lifecycle import LifecycleSchedule
from ..units import SAMPLES_PER_SLOT, SLOTS_PER_DAY
from ..dcsim.engine import DataCenterSimulation, _LoopState, _Observation
from .telemetry import (
    RUNG_BLIND,
    RUNG_STALE,
    ForecastLadder,
    TelemetryFaultSchedule,
    TelemetryIngest,
    TraceCollector,
)

#: Checkpoint format version; a file of any other version is refused.
CHECKPOINT_VERSION = 4

#: A window whose newest delivery is more than this many slots old
#: takes the reactive-only rung; normal operation has age exactly 1.
BLIND_AFTER_SLOTS = 2

#: The file's preamble: magic bytes, format version, base length.
_PREAMBLE = struct.Struct("<8sIQ")
_MAGIC = b"REPROCKP"
#: A record's frame: payload length and the payload's CRC-32.
_FRAME = struct.Struct("<QI")


def _split(state: Dict[str, object], prefix: str, arrays: Dict) -> Dict:
    """Move a component state's arrays into ``arrays`` as
    ``<prefix>.<key>``; return the rest, its header part."""
    header = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            arrays[f"{prefix}.{key}"] = value
        else:
            header[key] = value
    return header


def _join(header: Dict, prefix: str, arrays: Dict) -> Dict[str, object]:
    """The inverse of :func:`_split`: a component's state again."""
    head = prefix + "."
    state = dict(header)
    state.update(
        (name[len(head):], value)
        for name, value in arrays.items()
        if name.startswith(head)
    )
    return state


def _json_scalar(value):
    """NumPy scalars in a header become their Python values."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


def _pack(fh, header: Dict, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``header`` and ``arrays`` to ``fh`` as one uncompressed
    ``.npz`` (through a handle: given a name, np.savez appends
    ``.npz``)."""
    text = json.dumps(header, default=_json_scalar).encode("utf-8")
    np.savez(fh, header=np.frombuffer(text, dtype=np.uint8), **arrays)


def _unreadable(name: str, detail) -> str:
    return (
        f"checkpoint {name} is not a readable checkpoint (truncated or "
        f"corrupted): {detail}"
    )


def _unpack(source, name: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read one :func:`_pack` archive back, without unpickling."""
    try:
        with np.load(source, allow_pickle=False) as archive:
            header = json.loads(archive["header"].tobytes())
            arrays = {
                key: archive[key] for key in archive.files if key != "header"
            }
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(_unreadable(name, exc)) from exc
    if not isinstance(header, dict):
        raise CheckpointError(_unreadable(name, "its header is not an object"))
    return header, arrays


class _Bounded:
    """A checkpoint file seen only up to the end of its base.

    The base is a zip archive written in place after the preamble, so
    its offsets are file offsets; hiding the records after it lets
    :func:`numpy.load` find the archive's directory at the end.
    """

    def __init__(self, fh, end: int) -> None:
        self._fh = fh
        self._end = end

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._fh.tell()

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        if whence == os.SEEK_END:
            return self._fh.seek(self._end + offset)
        return self._fh.seek(offset, whence)

    def read(self, n: int = -1) -> bytes:
        left = max(self._end - self._fh.tell(), 0)
        return self._fh.read(left if n is None or n < 0 else min(n, left))


def _base_end(fh, name: str, size: int) -> int:
    """Check the preamble; return the file offset where the base ends."""
    head = fh.read(_PREAMBLE.size)
    # Pickle protocol 2+ streams open with the PROTO opcode.
    if head[:1] == b"\x80":
        raise CheckpointError(
            f"checkpoint {name} is an old pickle checkpoint; pickle "
            f"checkpoints are no longer read — start the run again to "
            f"write a new checkpoint"
        )
    if head[:4] in (b"PK\x03\x04", b"PK\x05\x06"):
        raise CheckpointError(
            f"checkpoint {name} is a format-1 .npz checkpoint; this build "
            f"reads version {CHECKPOINT_VERSION} — start the run again to "
            f"write a new checkpoint"
        )
    if len(head) < _PREAMBLE.size or not head.startswith(_MAGIC):
        raise CheckpointError(_unreadable(name, "no checkpoint preamble"))
    _, version, base_len = _PREAMBLE.unpack(head)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {name} has format version {version}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    end = _PREAMBLE.size + base_len
    if end > size:
        raise CheckpointError(
            _unreadable(
                name,
                f"its base is {base_len} bytes, the file holds "
                f"{size - _PREAMBLE.size} after the preamble",
            )
        )
    return end


def _parts(path) -> Iterator[Tuple[dict, Dict[str, np.ndarray]]]:
    """A checkpoint file's base, then each intact record, as
    ``(header, arrays)`` pairs, read one at a time.

    A last record cut short or failing its CRC (a write torn by a
    crash) is dropped.

    Raises:
        CheckpointError: for a missing or unreadable file, an old pickle
            or format-1 checkpoint, another format version, a damaged
            or short base, or a record before the last that fails its
            CRC.
    """
    name = os.fspath(path)
    try:
        fh = open(name, "rb")
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint {name} does not exist") from exc
    except OSError as exc:
        raise CheckpointError(_unreadable(name, exc)) from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        pos = _base_end(fh, name, size)
        yield _unpack(_Bounded(fh, pos), name)
        while pos + _FRAME.size <= size:
            fh.seek(pos)
            length, crc = _FRAME.unpack(fh.read(_FRAME.size))
            end = pos + _FRAME.size + length
            if end > size:
                return  # cut inside the last record
            payload = fh.read(length)
            if zlib.crc32(payload) != crc:
                if end == size:
                    return  # a torn last record
                raise CheckpointError(
                    f"checkpoint {name} has a damaged record at byte {pos} "
                    f"(CRC mismatch) before its last one"
                )
            yield _unpack(io.BytesIO(payload), name)
            pos = end


def read_checkpoint(path) -> List[Tuple[dict, Dict[str, np.ndarray]]]:
    """Read a checkpoint file: its base, then each intact record.

    Each part is ``(header, arrays)``: the decoded JSON header and the
    named arrays, loaded with ``allow_pickle=False``.  Every part's
    arrays hold the loop arrays (``loop.*``), the ladder forecasts it
    added to the file (``ladder.cpu.<day>`` / ``ladder.mem.<day>``) and
    the observation columns from ``header["ingest"]["from_sample"]``
    (0 in the base) to the end of its newest delivered slot, one
    ``ingest.obs_cpu.<day>`` / ``ingest.obs_mem.<day>`` array per day
    they touch, with ``ingest.valid_bits`` packed over the same
    columns.  A torn last record is left out.

    Raises:
        CheckpointError: as :meth:`StreamingCloudSimulation.restore`
            for an unreadable file.
    """
    return list(_parts(path))


class _LadderPredictor:
    """Predictor facade routing the engine through the fallback ladder.

    Quacks like :class:`~repro.forecast.DayAheadPredictor` for the
    engine's ``_window_predictions`` loop: day-rung forecasts come from
    the ladder's decision cache; slots whose day has no usable forecast
    fall back to the window's frozen persistence patterns (flat
    last-observed values).
    :meth:`StreamingCloudSimulation._ladder_begin` sets them only for a
    window whose day has no forecast and clears them otherwise, so
    reading them from a window that did not set them raises.
    """

    def __init__(self, ladder: ForecastLadder, first_day: int) -> None:
        self._ladder = ladder
        self._first_day = int(first_day)
        self._persist: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def first_predictable_day(self) -> int:
        return self._first_day

    def set_persist(
        self, cpu_vals: np.ndarray, mem_vals: np.ndarray
    ) -> None:
        """Freeze the window's persistence patterns (per-VM flats)."""
        self._persist = (
            np.repeat(cpu_vals[:, None], SAMPLES_PER_SLOT, axis=1),
            np.repeat(mem_vals[:, None], SAMPLES_PER_SLOT, axis=1),
        )

    def clear_persist(self) -> None:
        """Drop the persistence patterns (the window's day has a
        forecast)."""
        self._persist = None

    def predicted_slot(self, slot: int):
        _, cpu, mem = self._ladder.day_decision(slot // SLOTS_PER_DAY)
        if cpu is not None:
            lo = (slot % SLOTS_PER_DAY) * SAMPLES_PER_SLOT
            hi = lo + SAMPLES_PER_SLOT
            return cpu[:, lo:hi], mem[:, lo:hi]
        if self._persist is None:  # pragma: no cover - defensive
            raise ConfigurationError(
                "ladder predictor consulted before the window began"
            )
        return self._persist


class StreamingCloudSimulation(DataCenterSimulation):
    """Windowed cloud simulation fed by (possibly degraded) telemetry.

    See the module docstring for the decision ladder.  Everything the
    batch :class:`~repro.dcsim.engine.DataCenterSimulation` supports —
    churn, resizes, heterogeneous fleets, infrastructure faults — runs
    unchanged underneath; this class only swaps where the *decision
    inputs* come from and checkpoints between windows.

    Each day's forecasts are decided at its first window with active
    VMs (inside the ``forecast`` phase), over the VMs whose departure
    lies after that window's first slot — every VM under a fixed
    schedule.  Every VM active later that day, or on a day that plans
    from this one's forecast, is among them; a window whose active VM
    would read an unfitted (NaN) row raises
    :class:`~repro.errors.DomainError` instead.  The reactive signal
    fills only the window's active VMs.

    Args:
        dataset: true utilization traces (accounting ground truth, and
            the stream the file-replay collectors play back).
        predictor: the batch day-ahead predictor.  It contributes its
            configuration (first predictable day, history window) to
            the ladder's fit, which runs on *observed* data instead.
        policy: as in the batch engine.
        schedule: the VM lifecycle schedule (required here; pass
            :func:`~repro.traces.lifecycle.fixed_schedule` for a fixed
            population).
        telemetry: the replay feed: a degradation timeline over
            ``dataset``, played back by one
            :class:`~repro.cloud.telemetry.TraceCollector` per
            collector.  Pass exactly one of ``telemetry`` and
            ``collectors``.
        max_imputed_frac: fresh-fit threshold — highest imputed
            fraction of the forecast history window that still earns a
            re-fit (ladder rung 1 vs 2).
        checkpoint_every_slots: checkpoint the run at the first window
            boundary at or past every multiple of this many slots
            (``None`` disables checkpointing; needs
            ``checkpoint_path``).  A yielded decision's
            ``checkpointed`` is true at each checkpoint; copy the file
            then to keep that boundary.
        checkpoint_path: the checkpoint file (format
            :data:`CHECKPOINT_VERSION`, see the module docstring): a
            base, written to ``<path>.tmp`` and renamed onto exactly
            this path, then records appended to it.
        collectors: the live feed: at least one
            :class:`~repro.serve.adapters.CollectorAdapter`, polled
            with the same once-per-elapsed-slot bounded retry the
            replay collectors get.
        **kwargs: forwarded to the batch engine.

    Raises:
        ConfigurationError: for neither or both of ``telemetry`` and
            ``collectors``, a replay schedule that does not cover the
            dataset's VMs and horizon, an empty collector set, or a
            bad checkpoint cadence.
    """

    def __init__(
        self,
        dataset: TraceDataset,
        predictor,
        policy: AllocationPolicy,
        schedule: LifecycleSchedule,
        telemetry: Optional[TelemetryFaultSchedule] = None,
        max_imputed_frac: float = 0.25,
        checkpoint_every_slots: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        collectors: Optional[Sequence[CollectorAdapter]] = None,
        **kwargs,
    ):
        super().__init__(
            dataset, predictor, policy, schedule=schedule, **kwargs
        )
        self._engine_name = "streaming"
        if checkpoint_every_slots is not None:
            if checkpoint_every_slots < 1:
                raise ConfigurationError(
                    f"checkpoint_every_slots must be >= 1, got "
                    f"{checkpoint_every_slots}"
                )
            if checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every_slots needs checkpoint_path: the "
                    "checkpoint file is the only checkpoint"
                )
        if telemetry is None and collectors is None:
            raise ConfigurationError(
                "the streaming engine reads a feed: pass telemetry= (a "
                "replay degradation schedule) or collectors= (live "
                "adapters)"
            )
        if telemetry is not None and collectors is not None:
            raise ConfigurationError(
                "telemetry= and collectors= are mutually exclusive: a "
                "replay degradation schedule builds its own "
                "TraceCollector set, a live feed brings its own "
                "adapters"
            )
        self._telemetry = telemetry
        self._ckpt_every = checkpoint_every_slots
        self._ckpt_path = checkpoint_path
        self._resume_state: Optional[_LoopState] = None
        self._next_ckpt = 0
        # The file: its base's bytes (0 until this run wrote a base),
        # the bytes appended after it, and the ladder forecast arrays
        # already in it.
        self._base_bytes = 0
        self._appended_bytes = 0
        self._filed: set = set()
        # Readings the ingest dropped since the last telemetry_window.
        self._rejected = 0

        self._window_rung: Optional[str] = None
        self._ingested_until = 0
        if telemetry is not None:
            end = self._start_slot + self._n_slots
            if telemetry.n_vms != dataset.n_vms:
                raise ConfigurationError(
                    f"telemetry schedule covers {telemetry.n_vms} VMs, "
                    f"dataset has {dataset.n_vms}"
                )
            if telemetry.horizon_start != 0 or telemetry.horizon_end < end:
                raise ConfigurationError(
                    f"telemetry schedule must cover the full trace horizon "
                    f"[0, {end}) — the forecaster's history streams in from "
                    f"slot 0 — got [{telemetry.horizon_start}, "
                    f"{telemetry.horizon_end})"
                )
            collectors = [
                TraceCollector(cid, dataset, telemetry)
                for cid in range(telemetry.n_collectors)
            ]
        self._collectors: List[CollectorAdapter] = list(collectors)
        if not self._collectors:
            raise ConfigurationError(
                "collectors= must name at least one adapter"
            )
        self._ingest = TelemetryIngest(dataset)
        self._ladder = ForecastLadder(
            self._ingest,
            history_days=getattr(predictor, "history_days", 7),
            max_imputed_frac=max_imputed_frac,
        )
        self._ladder.tracer = self._tracer
        # The engine plans through the ladder from here on; the user's
        # predictor contributed start slot + fit configuration above.
        self._predictor = _LadderPredictor(
            self._ladder, getattr(predictor, "first_predictable_day", 0)
        )

    # -- ingestion -----------------------------------------------------

    def _ingest_to(self, slot: int) -> None:
        """Poll every collector once per elapsed slot up to ``slot``."""
        for s in range(self._ingested_until + 1, slot + 1):
            for collector in self._collectors:
                batch = poll_with_retry(collector, s, tracer=self._tracer)
                if batch is not None:
                    self._rejected += self._ingest.ingest(batch, s)
        self._ingested_until = max(self._ingested_until, slot)

    def _ladder_begin(self, slot: int) -> Optional[np.ndarray]:
        """Freeze the window's day rung, and its persistence patterns
        when the day has no forecast.

        A day is decided at its first window with active VMs, over the
        VMs that can still be placed that day: those whose departure
        lies after ``slot``.  A window never crosses midnight, so the
        day's rung settles whether any of its slots reads the
        persistence patterns.  Returns the CPU forecast the day plans
        from (``None`` without one).
        """
        rows = np.flatnonzero(self._schedule.departure_slots > slot)
        rung, cpu, _ = self._ladder.day_decision(slot // SLOTS_PER_DAY, rows)
        self._window_rung = rung
        if cpu is None:
            self._predictor.set_persist(
                *self._ingest.last_values(slot * SAMPLES_PER_SLOT)
            )
        else:
            self._predictor.clear_persist()
        return cpu

    def _last_observed(self, slot: int, active: np.ndarray):
        """The reactive signal as *delivered*: imputed where degraded."""
        prev = slot - 1
        if prev < 0:
            return None, None
        lo = prev * SAMPLES_PER_SLOT
        last_cpu, last_mem = self._ingest.filled_window(
            lo, lo + SAMPLES_PER_SLOT, active
        )
        scale_prev = self._schedule.scale_at(prev)
        if scale_prev is not None:
            last_cpu *= scale_prev[0][active][:, None]
            last_mem *= scale_prev[1][active][:, None]
        ran = self._schedule.active_mask(prev)[active]
        last_cpu[~ran] = np.nan
        last_mem[~ran] = np.nan
        return last_cpu, last_mem

    # -- blind windows -------------------------------------------------

    def _blind_allocation(
        self,
        prev_alloc: Allocation,
        prev_active: np.ndarray,
        active: np.ndarray,
    ) -> Allocation:
        """Freeze the previous placement (the reactive-only rung).

        Departed VMs leave their plans; arrivals are spread round-robin
        onto the already-running servers with the fewest VMs (an empty
        plan — a switched-off server — is powered on only when nothing
        is running).  Caps, planned frequencies and pool tags are kept
        verbatim: without telemetry there is no basis to re-tune them.
        """
        new_local = {int(g): i for i, g in enumerate(active)}
        plans: List[ServerPlan] = []
        for plan in prev_alloc.plans:
            kept = [
                new_local[int(prev_active[v])]
                for v in plan.vm_ids
                if int(prev_active[v]) in new_local
            ]
            plans.append(
                ServerPlan(
                    vm_ids=kept,
                    cap_cpu_pct=plan.cap_cpu_pct,
                    cap_mem_pct=plan.cap_mem_pct,
                    planned_freq_ghz=plan.planned_freq_ghz,
                )
            )
        placed = {v for plan in plans for v in plan.vm_ids}
        counts = np.array([len(p.vm_ids) for p in plans], dtype=float)
        occupied = counts > 0
        for i in range(len(active)):
            if i in placed:
                continue
            pool = counts.copy()
            if occupied.any():
                pool[~occupied] = np.inf
            j = int(np.argmin(pool))
            plans[j].vm_ids.append(i)
            counts[j] += 1
            occupied[j] = True
        return Allocation(
            policy_name=prev_alloc.policy_name,
            plans=plans,
            dynamic_governor=prev_alloc.dynamic_governor,
            violation_cap_pct=prev_alloc.violation_cap_pct,
            case="blind-freeze",
            f_opt_ghz=prev_alloc.f_opt_ghz,
            forced_placements=0,
            server_pools=(
                None
                if prev_alloc.server_pools is None
                else np.array(prev_alloc.server_pools, copy=True)
            ),
            shed_vm_ids=[],
        )

    # -- loop hooks ----------------------------------------------------

    def _observe(
        self, slot: int, n_window: int, active: np.ndarray, state
    ) -> _Observation:
        """Ingest up to ``slot``, then pick the window's ladder rung."""
        self._ingest_to(slot)
        # A live feed has no fault schedule to consult; dropout shows
        # up as timeouts (poll_retry events), not here.
        down = (
            tuple(
                self._telemetry.down_collectors(s)
                for s in range(slot, slot + n_window)
            )
            if self._telemetry is not None
            else ()
        )
        if not active.size:
            return _Observation(down=down)
        with self._tracer.phase("forecast"):
            cpu = self._ladder_begin(slot)
        if cpu is not None:
            # A forecast row the day did not fit is NaN: refuse to plan
            # from it rather than hand NaN to the policy.
            unfitted = active[np.isnan(cpu[active, 0])]
            if unfitted.size:
                raise DomainError(
                    f"VM {int(unfitted[0])} is active at slot {slot}, "
                    f"but day {slot // SLOTS_PER_DAY}'s forecast did not "
                    f"fit its row ({unfitted.size} such VM(s)): the day "
                    f"was decided without it"
                )
        imputed = 0
        if slot >= 1:
            imputed = self._ingest.missing_count(
                active,
                (slot - 1) * SAMPLES_PER_SLOT,
                slot * SAMPLES_PER_SLOT,
            )
        # Reactive-only rung: the stream has been dark for longer than
        # BLIND_AFTER_SLOTS and there is a placement to freeze.
        blind = (
            state.prev_alloc is not None
            and slot - self._ingest.newest_delivery_slot > BLIND_AFTER_SLOTS
        )
        rung = RUNG_BLIND if blind else self._window_rung
        rejected, self._rejected = self._rejected, 0
        if self._tracer.enabled:
            self._tracer.emit(
                "telemetry_window",
                slot=slot,
                rung=rung,
                imputed_samples=imputed,
                rejected_readings=rejected,
                collectors_down=down[0] if down else 0,
                blind=blind,
            )
        return _Observation(
            rung=rung,
            blind=blind,
            stale=not blind and self._window_rung == RUNG_STALE,
            imputed=imputed,
            down=down,
        )

    def _decide(
        self, slot, n_window, active, scale, fault, obs, state
    ) -> Allocation:
        if obs.blind:
            return self._blind_allocation(
                state.prev_alloc, state.prev_active, active
            )
        return super()._decide(
            slot, n_window, active, scale, fault, obs, state
        )

    def _begin_run(self) -> _LoopState:
        """A fresh loop state, or the one a :meth:`restore` armed."""
        state, self._resume_state = self._resume_state, None
        self._base_bytes = self._rejected = 0
        if state is None:
            state = super()._begin_run()
        if self._ckpt_every is not None:
            self._next_ckpt = self._following_checkpoint(state.slot)
        return state

    def _after_window(self, state: _LoopState) -> bool:
        """Checkpoint the run at the first boundary past each cadence."""
        if self._ckpt_every is None or state.slot < self._next_ckpt:
            return False
        with self._tracer.phase("checkpoint"):
            base = (
                not self._base_bytes
                or self._appended_bytes > self._base_bytes
            )
            written = self._write_part(state, base)
        if self._tracer.enabled:
            self._tracer.emit(
                "checkpoint",
                slot=state.slot,
                n_records=len(state.records),
                bytes=written,
                base=base,
            )
        self._next_ckpt = self._following_checkpoint(state.slot)
        return True

    # -- checkpoint/resume ---------------------------------------------

    def _following_checkpoint(self, slot: int) -> int:
        """The first checkpoint cadence multiple after ``slot``."""
        every = self._ckpt_every
        return self._start_slot + every * (
            (slot - self._start_slot) // every + 1
        )

    def _checkpoint_config(self) -> Dict[str, object]:
        """The engine configuration a resume depends on."""
        return {
            "dataset_shape": list(self._dataset.cpu_pct.shape),
            "start_slot": self._start_slot,
            "n_slots": self._n_slots,
            "fleet_servers": self._max_servers,
            "policy": self._policy.name,
            # Every run reads a feed; the key stays so the config hash,
            # and with it every checkpoint already written, is unchanged.
            "telemetry": True,
            "collectors": len(self._collectors),
        }

    def _write_part(self, state: _LoopState, base: bool) -> int:
        """Write one checkpoint part; returns its bytes.

        A base goes to a new file renamed onto the path; a record is
        appended to the file in one CRC frame.  Either holds the run
        header, the loop arrays, the ingest's state (every observation
        column for a base, the columns changed since the previous part
        for a record) and the ladder forecasts not yet in the file.
        """
        if base:
            self._filed = set()
        arrays: Dict[str, np.ndarray] = {}
        forecasts: Dict[str, np.ndarray] = {}
        config = self._checkpoint_config()
        header = {
            "config": config,
            "config_hash": config_hash(config),
            "loop": _split(state.state(), "loop", arrays),
            "policy": self._policy.state(),
            "ingested_until": self._ingested_until,
            "collectors": [c.state() for c in self._collectors],
            "ladder": _split(
                self._ladder.state(state.slot // SLOTS_PER_DAY),
                "ladder",
                forecasts,
            ),
            "ingest": _split(self._ingest.state(full=base), "ingest", arrays),
        }
        new = {k: v for k, v in forecasts.items() if k not in self._filed}
        arrays.update(new)
        if base:
            tmp = f"{self._ckpt_path}.tmp"
            with open(tmp, "wb") as fh:
                fh.write(_PREAMBLE.pack(_MAGIC, CHECKPOINT_VERSION, 0))
                _pack(fh, header, arrays)
                written = fh.tell()
                fh.seek(0)
                fh.write(
                    _PREAMBLE.pack(
                        _MAGIC, CHECKPOINT_VERSION, written - _PREAMBLE.size
                    )
                )
            os.replace(tmp, self._ckpt_path)
            self._base_bytes, self._appended_bytes = written, 0
        else:
            buf = io.BytesIO()
            _pack(buf, header, arrays)
            payload = buf.getbuffer()
            with open(self._ckpt_path, "ab") as fh:
                fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
                fh.write(payload)
            written = _FRAME.size + len(payload)
            self._appended_bytes += written
        self._filed.update(new)
        return written

    def restore(self, path) -> None:
        """Load a checkpoint file and arm the next :meth:`run` (or
        :meth:`windows`) to resume from its last intact boundary.

        The base's observation columns replace the ingest's buffers and
        each record's are written over them, in order; the last part's
        header restores the loop, policy, collector cursors and ladder.
        A failed restore may leave the simulation half loaded: build a
        new one.

        Raises:
            CheckpointError: if the file is missing, unreadable, an old
                pickle or format-1 ``.npz`` checkpoint, of another
                format version, has a damaged or short base or a
                damaged record before its last, or was written under a
                different engine configuration.
        """
        label = f"checkpoint {os.fspath(path)}"
        forecasts: Dict[str, np.ndarray] = {}
        for i, (header, arrays) in enumerate(_parts(path)):
            self._check_config(header, label)
            try:
                self._ingest.restore(
                    _join(header["ingest"], "ingest", arrays), full=i == 0
                )
            except (
                AttributeError, IndexError, KeyError, TypeError, ValueError
            ) as exc:
                raise CheckpointError(
                    f"{label} is malformed: {exc!r}"
                ) from exc
            forecasts.update(
                (key, value)
                for key, value in arrays.items()
                if key.startswith("ladder.")
            )
        self._resume_state = self._apply_state(
            header, arrays, forecasts, label
        )

    def _check_config(self, header: dict, label: str) -> None:
        """Refuse a part written under another engine configuration."""
        config = self._checkpoint_config()
        if header.get("config_hash") == config_hash(config):
            return
        theirs = header.get("config") or {}
        differ = "; ".join(
            f"{key} {theirs.get(key)!r} in the checkpoint vs "
            f"{value!r} in this run"
            for key, value in config.items()
            if theirs.get(key) != value
        ) or (
            f"config hash {header.get('config_hash')!r} in the "
            f"checkpoint vs {config_hash(config)!r} in this run"
        )
        raise CheckpointError(
            f"{label} was taken under a different configuration "
            f"({differ}); resume with the configuration that wrote it"
        )

    def _apply_state(
        self, header: dict, arrays: Dict, forecasts: Dict, label: str
    ) -> _LoopState:
        """Load the last part's header into this simulation.

        Returns the loop state the resumed run continues from.
        """
        try:
            loop = _LoopState.from_state(_join(header["loop"], "loop", arrays))
            self._policy.restore(header["policy"])
            self._ingested_until = int(header["ingested_until"])
            for collector, cstate in zip(
                self._collectors, header["collectors"]
            ):
                collector.restore(cstate)
            self._ladder.restore(_join(header["ladder"], "ladder", forecasts))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{label} is malformed: {exc!r}") from exc
        return loop
