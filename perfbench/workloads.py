"""The benchmark's three workloads, built from a seed.

Each workload has a set-up step (traces or scenario, telemetry
schedule, fleet or geo spec, predictor, policies, engine constructors)
and a run step (from the first engine call to the result).  The program
receives only the generated inputs; the seed stays here.

``small=True`` shrinks every workload to a size the helper tests can
run in about a second; the benchmark itself always runs full size.

See ``perfbench/README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

clock = time.perf_counter

#: Span names of the policy layer (a decision starts at each outermost one).
POLICY_SPANS = frozenset(
    {"policy.epact", "baselines.coat", "baselines.coat_opt", "shard.policy"}
)


def is_policy(name: str) -> bool:
    return name in POLICY_SPANS


def is_forecast(name: str) -> bool:
    return name.startswith("forecast.")


# -- probe targets -----------------------------------------------------------


def _coat_name(args) -> str:
    from repro.baselines import CoatOptPolicy

    return (
        "baselines.coat_opt"
        if isinstance(args[0], CoatOptPolicy)
        else "baselines.coat"
    )


def _window_info(args, result) -> int:
    """Slots in the window an ``allocate(self, ctx)`` call decides."""
    from repro.units import SAMPLES_PER_SLOT

    return int(args[1].pred_cpu.shape[1]) // SAMPLES_PER_SLOT


def _placement_info(args, result):
    """``(vms placed, forced placements)`` of one allocator call."""
    return [int(args[0].shape[0]), int(result[1])]


def _policy_targets() -> Dict[str, tuple]:
    from repro.baselines import CoatPolicy
    from repro.core import EpactPolicy
    from repro.shard import ShardedPolicy

    return {
        "epact": (EpactPolicy, "allocate", "policy.epact", _window_info),
        "coat": (CoatPolicy, "allocate", _coat_name, _window_info),
        "sharded": (ShardedPolicy, "allocate", "shard.policy", _window_info),
    }


def layer_targets() -> List[tuple]:
    """Every layer boundary a traced run wraps (same for all workloads)."""
    import repro.core.epact as epact
    import repro.shard.policy as shard_policy
    from repro.cloud.telemetry import ForecastLadder
    from repro.forecast.predictor import DayAheadPredictor, PerfectPredictor

    return list(_policy_targets().values()) + [
        (DayAheadPredictor, "predicted_slot", "forecast.predicted_slot", None),
        (PerfectPredictor, "predicted_slot", "forecast.predicted_slot", None),
        (ForecastLadder, "day_decision", "forecast.day_decision", None),
        (epact, "size_slot", "core.size_slot", None),
        (epact, "allocate_1d", "core.allocate_1d", _placement_info),
        (epact, "allocate_2d", "core.allocate_2d", _placement_info),
        (shard_policy, "cluster_vms", "shard.cluster_vms", None),
    ]


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: as listed in ``BENCHMARK.json`` (which says why).
        setup: ``setup(seed, workdir, small) -> (state, parts)``;
            ``parts`` maps ``traces`` and ``telemetry`` to the
            ``(start, end)`` clock intervals spent building them; the
            rest of the set-up is the engine part.
        run: ``run(state) -> (outputs, extras)``; ``outputs`` maps a
            label (policy, or policy/region) to its slot records.
        decision_policies: keys of :func:`_policy_targets` whose
            outermost calls start a decision (batch engines); empty
            when the run itself reports decision times.
        check: ``check(state, outputs, extras) -> [problem, ...]``.
    """

    name: str
    setup: Callable
    run: Callable
    decision_policies: Tuple[str, ...]
    check: Callable

    def decision_targets(self) -> List[tuple]:
        targets = _policy_targets()
        return [targets[key] for key in self.decision_policies]


def _record_problems(
    label: str, records, n_slots: int, max_servers: int
) -> List[str]:
    problems = []
    if len(records) != n_slots:
        problems.append(f"{label}: {len(records)} records, want {n_slots}")
    for r in records:
        if not (math.isfinite(r.energy_j) and r.energy_j >= 0.0):
            problems.append(f"{label}: slot {r.slot_index} energy {r.energy_j}")
            break
        if not 0 <= r.n_active_servers <= max_servers:
            problems.append(
                f"{label}: slot {r.slot_index} has {r.n_active_servers} "
                f"active servers (fleet {max_servers})"
            )
            break
    slots = [r.slot_index for r in records]
    if slots and slots != list(range(slots[0], slots[0] + len(slots))):
        problems.append(f"{label}: slot indices are not consecutive")
    return problems


# paper-week ----------------------------------------------------------------


def _paper_size(small: bool):
    # (n_vms, n_days, max_servers, evaluated slots)
    return (24, 9, 24, 48) if small else (600, 14, 600, 168)


def _paper_setup(seed: int, workdir: str, small: bool):
    from repro.baselines import CoatOptPolicy, CoatPolicy
    from repro.core import EpactPolicy
    from repro.forecast import DayAheadPredictor
    from repro.traces import default_dataset

    n_vms, n_days, max_servers, n_slots = _paper_size(small)
    t0 = clock()
    dataset = default_dataset(n_vms=n_vms, n_days=n_days, seed=seed)
    t1 = clock()
    predictor = DayAheadPredictor(dataset)
    policies = [EpactPolicy(), CoatPolicy(), CoatOptPolicy()]
    state = dict(
        dataset=dataset,
        predictor=predictor,
        policies=policies,
        max_servers=max_servers,
        n_slots=n_slots if small else None,
    )
    return state, {"traces": [(t0, t1)], "telemetry": []}


def _paper_run(state):
    from repro.dcsim import run_policies

    results = run_policies(
        state["dataset"],
        state["predictor"],
        state["policies"],
        jobs=1,
        max_servers=state["max_servers"],
        n_slots=state["n_slots"],
    )
    return {name: res.records for name, res in results.items()}, {}


def _paper_check(state, outputs, extras) -> List[str]:
    _, _, max_servers, n_slots = _paper_size(state["n_slots"] is not None)
    problems = []
    if sorted(outputs) != ["COAT", "COAT-OPT", "EPACT"]:
        problems.append(f"policies {sorted(outputs)}")
    for label, records in outputs.items():
        problems += _record_problems(label, records, n_slots, max_servers)
    return problems


# hyperscale-20k ------------------------------------------------------------


def _hyper_profile(small: bool):
    from repro.experiments.hyperscale import HyperscaleProfile

    if small:
        return HyperscaleProfile("bench-small", 2, 150, 60, 4, 2)
    return HyperscaleProfile("bench-20k", 2, 10_000, 2_000, 8, 4)


def _hyper_setup(seed: int, workdir: str, small: bool):
    from repro.core import EpactPolicy
    from repro.experiments.hyperscale import build_geo, synthetic_dataset

    profile = _hyper_profile(small)
    t0 = clock()
    dataset = synthetic_dataset(
        profile.n_regions * profile.vms_per_region, n_days=1, seed=seed
    )
    t1 = clock()
    geo = build_geo(profile)
    policies = [EpactPolicy()]
    state = dict(
        dataset=dataset, geo=geo, policies=policies, profile=profile, seed=seed
    )
    return state, {"traces": [(t0, t1)], "telemetry": []}


def _hyper_run(state):
    from repro.forecast.predictor import PerfectPredictor
    from repro.shard import run_geo_policies

    profile = state["profile"]
    result = run_geo_policies(
        state["dataset"],
        PerfectPredictor,
        state["policies"],
        state["geo"],
        seed=state["seed"],
        shards=profile.shards,
        jobs=1,
        n_slots=profile.n_slots,
    )
    outputs = {
        f"{policy}/{region}": sim.records
        for policy, regions in result.results.items()
        for region, sim in regions.items()
    }
    return outputs, {"routes": dict(result.routes), "fleets": profile.n_regions}


def _hyper_check(state, outputs, extras) -> List[str]:
    profile = state["profile"]
    problems = []
    if len(outputs) != profile.n_regions:
        problems.append(f"{len(outputs)} region runs, want {profile.n_regions}")
    if sum(extras["routes"].values()) != state["dataset"].n_vms:
        problems.append(f"routes {extras['routes']} lose VMs")
    for label, records in outputs.items():
        problems += _record_problems(
            label, records, profile.n_slots, profile.servers_per_region
        )
    return problems


# serve-lossy-churn ---------------------------------------------------------


def _serve_config(seed: int, path: str, small: bool):
    from repro.serve import ServeConfig

    if small:
        size = dict(
            n_vms=24, n_days=9, max_servers=12, n_slots=24,
            checkpoint_every_slots=8,
        )
    else:
        size = dict(
            n_vms=400, n_days=16, max_servers=160, checkpoint_every_slots=24
        )
    return ServeConfig(
        workload="diurnal-burst",
        telemetry_scenario="lossy-10pct",
        policy="epact",
        seed=seed,
        checkpoint_path=path,
        **size,
    )


def _serve_setup(seed: int, workdir: str, small: bool):
    from repro.cloud.scenarios import CloudScenario
    from repro.cloud.telemetry import TelemetryScenario
    from repro.serve import build_simulation

    from .probe import END, NAME, START, Recorder, patched

    path = os.path.join(workdir, f"serve-ckpt-{os.getpid()}.pkl")
    config = _serve_config(seed, path, small)
    recorder = Recorder()
    targets = [
        (CloudScenario, "build", "traces", None),
        (TelemetryScenario, "build", "telemetry", None),
    ]
    with patched(recorder, targets):
        sim = build_simulation(config)
    parts = {"traces": [], "telemetry": []}
    for span in recorder.spans:
        parts[span[NAME]].append((span[START], span[END]))
    return dict(sim=sim, config=config, path=path), parts


def _serve_run(state):
    sim = state["sim"]
    decisions = []
    yields = []
    for decision in sim.windows():
        yields.append(clock())
        decisions.append(decision)
    result = sim.result
    path = state["path"]
    size = 0
    if os.path.exists(path):
        size = os.path.getsize(path)
        os.remove(path)
    return {result.policy_name: result.records}, {
        "decisions": decisions,
        "yields": yields,
        "checkpoint_bytes": size,
    }


def _serve_check(state, outputs, extras) -> List[str]:
    config = state["config"]
    n_slots = config.n_slots or (config.n_days - 7) * 24
    problems = []
    for label, records in outputs.items():
        problems += _record_problems(
            label, records, n_slots, config.max_servers
        )
        decisions = extras["decisions"]
        if sum(d.n_window for d in decisions) != len(records):
            problems.append(f"{label}: decisions do not cover the records")
        window_energy = math.fsum(d.energy_j for d in decisions)
        record_energy = math.fsum(r.energy_j for r in records)
        if not math.isclose(window_energy, record_energy, rel_tol=1e-9):
            problems.append(
                f"{label}: decision energy {window_energy} != "
                f"record energy {record_energy}"
            )
    if not any(d.checkpointed for d in extras["decisions"]):
        problems.append("no checkpoint was taken")
    if extras["checkpoint_bytes"] <= 0:
        problems.append("no checkpoint file was persisted")
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-week",
            setup=_paper_setup,
            run=_paper_run,
            decision_policies=("epact", "coat"),
            check=_paper_check,
        ),
        Workload(
            name="hyperscale-20k",
            setup=_hyper_setup,
            run=_hyper_run,
            decision_policies=("sharded",),
            check=_hyper_check,
        ),
        Workload(
            name="serve-lossy-churn",
            setup=_serve_setup,
            run=_serve_run,
            decision_policies=(),
            check=_serve_check,
        ),
    )
}


# -- outputs -----------------------------------------------------------------


def digest(outputs: Dict[str, Sequence]) -> str:
    """One SHA-256 over every label's per-slot simulated records.

    Per slot: active servers, violations, migrations and energy (the
    energy to ten significant digits, so the digest pins the simulated
    result rather than the last bit of a float sum).
    """
    h = hashlib.sha256()
    for label in sorted(outputs):
        for r in outputs[label]:
            h.update(
                f"{label}|{r.slot_index}|{r.n_active_servers}|"
                f"{r.violations}|{r.migrations}|{r.energy_j:.9e}\n".encode()
            )
    return h.hexdigest()
