"""``repro-serve`` — the operator front end of the service loop.

Usage (run as ``python -m repro.serve.cli``)::

    python -m repro.serve.cli                        # clean replay
    python -m repro.serve.cli --telemetry lossy-10pct --policy reactive
    python -m repro.serve.cli --out runs/serve       # decision stream
                                                     # to trace.jsonl
    python -m repro.serve.cli --checkpoint run.ckpt --checkpoint-every 12
    python -m repro.serve.cli --checkpoint run.ckpt --resume
    python -m repro.serve.cli --mode live --demo-feed
    python -m repro.serve.cli --mode live --feed http://host:8931

Replay mode re-plays a registered degradation scenario over the seeded
workload; with the ``clean`` scenario the run is bit-identical to the
batch engine (the equivalence
``tests/test_serve_equivalence.py::TestServeReplayEquivalence::test_clean_replay_bit_identical_to_batch``
asserts).  Live mode polls HTTP
collector feeds (one ``--feed`` URL per collector); ``--demo-feed``
spins up an in-process :class:`~repro.serve.adapters.TelemetryFeedServer`
over the same seeded traces, so the full HTTP path is exercised without
external infrastructure.

Every window's decision is printed as one line and, with ``--out``,
emitted as ``decision_*`` events beside the engine's streaming events
(one ``trace.jsonl`` per run, schema-validated at emit time); the
engine's phase times land on ``timing.jsonl`` when the run ends.

A checkpoint is one versioned file: a base (a JSON header plus named
arrays, loaded without pickle) followed by appended, CRC-checked
records (see :mod:`repro.cloud.streaming`).  ``--resume`` continues
from its last intact record; a torn last record is dropped.  A
missing or damaged file, an old pickle or format-1 ``.npz``
checkpoint, or one written under another configuration makes
``--resume`` exit 2 with a one-line ``repro-serve:`` message, as does
``--checkpoint-every`` without ``--checkpoint``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..errors import ConfigurationError, ReproError
from .service import POLICIES, ServeConfig, _build_workload, serve


def _decision_line(decision) -> str:
    parts = [
        f"slot {decision.slot:>4}",
        f"win {decision.n_window:>2}",
        f"case {decision.case or '-':<14}",
        f"vms {decision.n_active_vms:>4}",
        f"srv {decision.active_servers:>3}",
        f"mig {decision.migrations:>3}",
        f"viol {decision.violations:>3}",
        f"E {decision.energy_j / 1e6:7.3f} MJ",
    ]
    if decision.rung is not None:
        parts.append(f"rung {decision.rung}")
    if decision.blind:
        parts.append("BLIND")
    if decision.checkpointed:
        parts.append("ckpt")
    return "  ".join(parts)


def _build_live_collectors(args, config: ServeConfig):
    """The live-mode collector set, the demo feed to close, and the
    workload the demo feed built (``None`` for external feeds)."""
    from ..cloud import zero_telemetry_faults
    from ..cloud.telemetry import TraceCollector
    from .adapters import HttpCollector, TelemetryFeedServer

    if args.demo_feed:
        # The seeded build the simulation accounts on, handed to it, so
        # the demo feed reports the true traces over a real HTTP
        # round-trip.
        workload = _build_workload(config)
        dataset = workload[0]
        schedule = zero_telemetry_faults(
            dataset.n_vms, 0, dataset.n_slots, n_collectors=args.collectors
        )
        feed = TelemetryFeedServer(
            [
                TraceCollector(cid, dataset, schedule)
                for cid in range(args.collectors)
            ]
        )
        collectors = [
            HttpCollector(cid, feed.url) for cid in range(args.collectors)
        ]
        return collectors, feed, workload
    if not args.feed:
        raise ConfigurationError(
            "live mode needs a feed: pass --feed URL (one per "
            "collector) or --demo-feed"
        )
    return (
        [HttpCollector(cid, url) for cid, url in enumerate(args.feed)],
        None,
        None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Drive the streaming consolidation engine window-by-window, "
            "emitting structured placement/migration/forecast-rung/SLA "
            "decision events"
        ),
    )
    parser.add_argument(
        "--mode",
        choices=["replay", "live"],
        default="replay",
        help="replay a degradation scenario or poll live collectors",
    )
    parser.add_argument(
        "--workload",
        default="zero-churn",
        help="cloud workload scenario (default: zero-churn)",
    )
    parser.add_argument(
        "--telemetry",
        default="clean",
        help=(
            "degradation scenario for replay mode (default: clean — "
            "the batch bit-identity control)"
        ),
    )
    parser.add_argument(
        "--policy",
        choices=list(POLICIES),
        default="epact",
        help="allocation policy (default: epact)",
    )
    parser.add_argument("--n-vms", type=int, default=120, metavar="N")
    parser.add_argument("--n-days", type=int, default=9, metavar="N")
    parser.add_argument(
        "--n-slots",
        type=int,
        default=None,
        metavar="N",
        help="evaluated slots (default: everything after training)",
    )
    parser.add_argument("--max-servers", type=int, default=24, metavar="N")
    parser.add_argument("--seed", type=int, default=2018, metavar="N")
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="the checkpoint file, written at window boundaries",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="SLOTS",
        help="checkpoint cadence (default: 12 when --checkpoint is set)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint file before streaming",
    )
    parser.add_argument(
        "--feed",
        action="append",
        metavar="URL",
        default=None,
        help="live mode: one collector feed base URL (repeatable)",
    )
    parser.add_argument(
        "--demo-feed",
        action="store_true",
        help=(
            "live mode: serve the seeded traces over an in-process "
            "HTTP feed and poll it (self-contained demo)"
        ),
    )
    parser.add_argument(
        "--collectors",
        type=int,
        default=2,
        metavar="N",
        help="collector count for --demo-feed (default: 2)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=(
            "write run artifacts to DIR: manifest.json, trace.jsonl "
            "(engine + decision_* events), timing.jsonl (phase times), "
            "summary.json"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-window decision lines",
    )
    args = parser.parse_args(argv)

    checkpoint_every = args.checkpoint_every
    if args.checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 12
    try:
        config = ServeConfig(
            workload=args.workload,
            telemetry_scenario=args.telemetry,
            policy=args.policy,
            n_vms=args.n_vms,
            n_days=args.n_days,
            seed=args.seed,
            n_slots=args.n_slots,
            max_servers=args.max_servers,
            checkpoint_every_slots=checkpoint_every,
            checkpoint_path=args.checkpoint,
        )
    except ReproError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.out is not None:
        from ..obs import RunTracer, write_manifest

        os.makedirs(args.out, exist_ok=True)
        write_manifest(
            args.out,
            config={
                "mode": args.mode,
                "workload": config.workload,
                "telemetry": (
                    config.telemetry_scenario
                    if args.mode == "replay"
                    else "live"
                ),
                "policy": config.policy,
                "n_vms": config.n_vms,
                "n_days": config.n_days,
                "n_slots": config.n_slots,
            },
            seed=config.seed,
        )
        tracer = RunTracer.for_run_dir(args.out)

    collectors = None
    feed = None
    workload = None
    on_decision = None
    if not args.quiet:
        def on_decision(decision):
            print(_decision_line(decision))

    try:
        if args.mode == "live":
            collectors, feed, workload = _build_live_collectors(
                args, config
            )
        result = serve(
            config,
            collectors=collectors,
            tracer=tracer,
            resume=args.resume,
            on_decision=on_decision,
            workload=workload,
        )
    except ReproError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    finally:
        if feed is not None:
            feed.close()
        if tracer is not None:
            tracer.close()

    from ..cloud.sla import summarize
    import dataclasses

    summary = summarize(result)
    print(
        f"{result.policy_name}: {len(result.records)} slots, "
        f"{summary.total_energy_mj:.3f} MJ, "
        f"{summary.total_violations} violations, "
        f"{summary.total_migrations} migrations"
    )
    if args.out is not None:
        with open(
            os.path.join(args.out, "summary.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(
                dataclasses.asdict(summary), fh, indent=2, sort_keys=True
            )
            fh.write("\n")
        print(f"wrote run artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
