"""Run-everything CLI: regenerates every table and figure of the paper.

Usage (installed as the ``repro-experiments`` console script)::

    repro-experiments                # all experiments, quick scale
    repro-experiments --full         # paper scale (minutes)
    repro-experiments table1 fig2    # a subset
    repro-experiments --jobs 4       # fan the data-center policy runs
                                     # and sweep points over 4 processes
    repro-experiments cloud --out runs/today
                                     # also write run artifacts: manifest,
                                     # JSONL trace + timing channels
                                     # (phase times included),
                                     # per-experiment text reports,
                                     # summary.json
    repro-experiments report runs/today
                                     # scored audit report from a run dir

The exit code reflects sweep health: any run that a ``--jobs N`` fan
could not complete (a :class:`~repro.dcsim.engine.FailedRun`
surviving its retry) makes the process exit non-zero, so CI catches
partial sweeps instead of green-lighting a report full of ``FAILED``
lines.

Observability (``--out DIR``) never changes results: tracing is
engine-level for serial runs and task-level for parallel sweeps, and
the simulation outputs are bit-identical either way (see
:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..dcsim.engine import FailedRun
from . import (
    cloud,
    faults,
    fig1,
    fig2,
    fig3,
    fig456,
    fig7,
    hybrid,
    table1,
    telemetry,
)


@dataclass(frozen=True)
class ObsOptions:
    """Observability knobs the CLI threads into experiment wrappers.

    Attributes:
        tracer: optional :class:`~repro.obs.tracer.RunTracer`.
        scenarios: optional scenario-name subset for the scenario-sweep
            experiments (cloud / faults / telemetry).  Names are
            registry-specific, so this is meant for single-experiment
            invocations (e.g. the CI smoke run).
    """

    tracer: Any = None
    scenarios: Optional[List[str]] = None


def count_failures(value: Any) -> int:
    """Count :class:`~repro.dcsim.engine.FailedRun` markers in a result.

    Experiments return nested containers (dicts of dicts, dataclasses
    holding result mappings); this walks dicts, lists, tuples and
    dataclass fields, so the CLI turns "any run failed after retry"
    into a non-zero exit code without each experiment growing its own
    traversal.
    """
    if isinstance(value, FailedRun):
        return 1
    if isinstance(value, dict):
        return sum(count_failures(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(count_failures(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            count_failures(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return 0

#: One wrapper per experiment: (full, jobs, obs) -> (text, n_failed,
#: result-or-None).  The result feeds the ``--out`` summary walker.
ExperimentFn = Callable[[bool, int, ObsOptions], Tuple[str, int, Any]]


def _run_table1(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    return table1.render(table1.run_table1()), 0, None


def _run_fig1(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    return fig1.render(fig1.run_fig1()), 0, None


def _run_fig2(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    return fig2.render(fig2.run_fig2()), 0, None


def _run_fig3(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    return fig3.render(fig3.run_fig3()), 0, None


def _run_fig456(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    result = fig456.run_fig456(quick=not full, jobs=jobs, tracer=obs.tracer)
    return fig456.render(result), count_failures(result), result


def _run_fig7(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    result = fig7.run_fig7(quick=not full, jobs=jobs, tracer=obs.tracer)
    return fig7.render(result), count_failures(result), result


def _run_cloud(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    result = cloud.run_cloud(
        quick=not full,
        jobs=jobs,
        scenario_names=obs.scenarios,
        tracer=obs.tracer,
    )
    return cloud.render(result), count_failures(result), result


def _run_hybrid(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    result = hybrid.run_hybrid(quick=not full, jobs=jobs, tracer=obs.tracer)
    return hybrid.render(result), count_failures(result), result


def _run_faults(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    result = faults.run_faults(
        quick=not full,
        jobs=jobs,
        fault_names=obs.scenarios,
        tracer=obs.tracer,
    )
    return faults.render(result), count_failures(result), result


def _run_telemetry(
    full: bool, jobs: int, obs: ObsOptions
) -> Tuple[str, int, Any]:
    result = telemetry.run_telemetry(
        quick=not full,
        jobs=jobs,
        scenario_names=obs.scenarios,
        tracer=obs.tracer,
    )
    return telemetry.render(result), count_failures(result), result


def _run_hyperscale(
    full: bool, jobs: int, obs: ObsOptions
) -> Tuple[str, int, Any]:
    from . import hyperscale

    # The scenario knob doubles as the profile selector here (the
    # hyperscale registry is its profile ladder): `--scenarios tiny`
    # is the CI smoke run, the default is the 50k-VM quick rung and
    # `--full` the 100k-VM, 4-region rung.
    profile = (
        obs.scenarios[0]
        if obs.scenarios
        else ("full" if full else "quick")
    )
    result = hyperscale.run_hyperscale(
        profile=profile,
        jobs=jobs,
        tracer=obs.tracer,
    )
    return hyperscale.render(result), count_failures(result), result[1]


def _run_thunderx(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    from . import thunderx

    return thunderx.render(thunderx.run_thunderx()), 0, None


def _run_validate(full: bool, jobs: int, obs: ObsOptions) -> Tuple[str, int, Any]:
    from ..validation import validate_reproduction

    return validate_reproduction().summary(), 0, None


EXPERIMENTS: Dict[str, ExperimentFn] = {
    "table1": _run_table1,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig456": _run_fig456,
    "fig7": _run_fig7,
    "cloud": _run_cloud,
    "hybrid": _run_hybrid,
    "faults": _run_faults,
    "telemetry": _run_telemetry,
    "hyperscale": _run_hyperscale,
    "thunderx": _run_thunderx,
    "validate": _run_validate,
}


def collect_summaries(value: Any) -> Any:
    """Reduce an experiment result to a JSON-able summary tree.

    Walks dicts and dataclass fields, turning every
    :class:`~repro.dcsim.SimulationResult` leaf into its
    :func:`~repro.cloud.sla.summarize` dict and every
    :class:`~repro.dcsim.engine.FailedRun` into a failure marker;
    everything else (schedules, raw arrays, rendered strings) is
    dropped.  Returns ``None`` when nothing summarizable remains, so
    figure experiments without simulation runs simply don't appear in
    ``summary.json``.
    """
    from ..cloud.sla import summarize
    from ..dcsim import SimulationResult

    if isinstance(value, SimulationResult):
        return dataclasses.asdict(summarize(value))
    if isinstance(value, FailedRun):
        return {
            "failed": True,
            "error": value.error,
            "attempts": value.attempts,
            "elapsed_s": value.elapsed_s,
        }
    if isinstance(value, dict):
        out = {}
        for key, child in value.items():
            reduced = collect_summaries(child)
            if reduced is not None:
                out[str(key)] = reduced
        return out or None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for field in dataclasses.fields(value):
            reduced = collect_summaries(getattr(value, field.name))
            if reduced is not None:
                out[field.name] = reduced
        # A dataclass with exactly one summarizable field (the usual
        # `results` mapping) collapses to that field, keeping the
        # summary tree shallow.
        if len(out) == 1:
            return next(iter(out.values()))
        return out or None
    return None


def _scenario_registries() -> Dict[str, Tuple[str, Dict[str, Any]]]:
    """The registry each ``--scenarios`` experiment reads names from."""
    from ..cloud import FAULT_SCENARIOS, SCENARIOS, TELEMETRY_SCENARIOS
    from .hyperscale import PROFILES

    return {
        "cloud": ("SCENARIOS", SCENARIOS),
        "faults": ("FAULT_SCENARIOS", FAULT_SCENARIOS),
        "telemetry": ("TELEMETRY_SCENARIOS", TELEMETRY_SCENARIOS),
        "hyperscale": ("PROFILES", PROFILES),
    }


def _unknown_scenario(names: List[str], scenarios: List[str]) -> Optional[str]:
    """Why a ``--scenarios`` name fails a selected experiment, or
    ``None`` when every name is in every selected registry."""
    registries = _scenario_registries()
    for name in names:
        if name not in registries:
            continue
        label, registry = registries[name]
        for scenario in scenarios:
            if scenario in registry:
                continue
            holders = [
                f"{other_label} ({other})"
                for other, (other_label, other_registry) in registries.items()
                if scenario in other_registry
            ]
            where = (
                f"it is in {', '.join(holders)}"
                if holders
                else "no registry holds it"
            )
            return (
                f"--scenarios name {scenario!r} is not in {label}, the "
                f"registry of the {name} experiment; {where}"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arg_list = list(sys.argv[1:]) if argv is None else list(argv)
    if arg_list and arg_list[0] == "report":
        # The audit-report subcommand has its own tiny CLI; dispatch
        # before argparse so `report` never collides with experiment
        # names.
        from ..obs.report import main as report_main

        return report_main(arg_list[1:])

    parser = argparse.ArgumentParser(
        description=(
            "Regenerate the tables and figures of 'Energy Proportionality "
            "in Near-Threshold Computing Servers and Cloud Data Centers' "
            "(DATE 2018)"
        )
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, []],
        help="subset to run (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale configurations (600 VMs, one-week horizon)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also export every experiment's rows/series as CSV files",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=(
            "write run artifacts to DIR: manifest.json (seed, config "
            "hash, git rev, versions), trace.jsonl + timing.jsonl "
            "(structured events; deterministic and wall-clock channels, "
            "the latter with the forecast/policy/prepare/account phase "
            "times, plus checkpoint for a checkpointing streaming run), "
            "per-experiment text reports and summary.json; "
            "render them later with `repro-experiments report DIR`"
        ),
    )
    parser.add_argument(
        "--scenarios",
        metavar="NAMES",
        default=None,
        help=(
            "comma-separated scenario subset for the cloud / faults / "
            "telemetry sweeps (registry-specific names — combine with a "
            "single experiment, e.g. `telemetry --scenarios lossy-10pct` "
            "for a tiny traced smoke run)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the data-center experiments: fig456 "
            "fans its policies, fig7 its sweep points, cloud, faults "
            "and telemetry their (scenario, policy) pairs, hybrid each "
            "protocol's (mix, policy) runs and hyperscale its (policy, "
            "region) runs over a process pool, sharing the day-ahead "
            "predictions (default: serial)"
        ),
    )
    args = parser.parse_args(arg_list)
    names = args.experiments or list(EXPERIMENTS)
    scenarios = (
        [s for s in args.scenarios.split(",") if s]
        if args.scenarios
        else None
    )
    if scenarios:
        problem = _unknown_scenario(names, scenarios)
        if problem is not None:
            print(f"repro-experiments: {problem}", file=sys.stderr)
            return 2

    tracer = None
    if args.out is not None:
        from ..obs import RunTracer, write_manifest

        os.makedirs(args.out, exist_ok=True)
        write_manifest(
            args.out,
            config={
                "experiments": names,
                "full": args.full,
                "jobs": args.jobs,
                "scenarios": scenarios,
            },
            seed=2018,
        )
        tracer = RunTracer.for_run_dir(args.out)
    obs = ObsOptions(tracer=tracer, scenarios=scenarios)

    failures = 0
    summaries: Dict[str, Any] = {}
    try:
        for name in names:
            print("=" * 72)
            if tracer is not None:
                tracer.emit(
                    "experiment_start",
                    name=name,
                    full=args.full,
                    jobs=args.jobs,
                )
            output, n_failed, result = EXPERIMENTS[name](
                args.full, args.jobs, obs
            )
            print(output)
            print()
            failures += n_failed
            if tracer is not None:
                tracer.emit("experiment_end", name=name, failures=n_failed)
            if args.out is not None:
                with open(
                    os.path.join(args.out, f"{name}.txt"),
                    "w",
                    encoding="utf-8",
                ) as fh:
                    fh.write(output + "\n")
                summary = collect_summaries(result)
                if summary is not None:
                    summaries[name] = summary
    finally:
        if args.out is not None:
            tracer.close()
            with open(
                os.path.join(args.out, "summary.json"),
                "w",
                encoding="utf-8",
            ) as fh:
                json.dump(summaries, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote run artifacts to {args.out}")

    if args.csv is not None:
        from .export import export_all

        paths = export_all(args.csv, quick=not args.full)
        print(f"wrote {len(paths)} CSV files to {args.csv}")
    if failures:
        print(
            f"{failures} run(s) FAILED after retry — see the report "
            f"above",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
