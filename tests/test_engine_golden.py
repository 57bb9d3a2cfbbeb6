"""Golden per-slot records across every engine configuration.

Each case runs one engine configuration and hashes every
:class:`~repro.dcsim.metrics.SlotRecord` field with SHA-256, floats
through ``float.hex`` so the digest pins every bit.  The digests are
literals recorded from the engines before they shared one window loop
and one per-slot accounting path; any change to a record — energy,
violations, migrations, churn or fault fields — changes a digest.

Fixed-population runs hash every field except ``n_active_vms``: the
fixed-population engine used to leave it 0, the shared loop fills in
the VM count (see :class:`~repro.dcsim.metrics.SlotRecord`).

The matrix covers:

* fixed EPACT (1-slot windows), COAT and COAT-OPT (24-slot windows)
  over a horizon that is not a multiple of 24;
* ``diurnal-burst`` churn with an empty-cloud gap mid-horizon;
* ``batch-latency`` resizes with wall-plug (PSU) accounting and a
  per-migration energy charge;
* two-pool and ``fixed-opt`` heterogeneous fleets, fixed and churning;
* a server outage plus a 5% power-cap window, fixed and churning;
* streaming over clean and 10%-lossy telemetry, and a checkpoint
  resume (in memory and from disk) of the lossy run.
"""

import dataclasses
import hashlib
import shutil

import numpy as np
import pytest

from repro.baselines import (
    CoatOptPolicy,
    CoatPolicy,
    OnlineReactivePolicy,
)
from repro.cloud import (
    StreamingCloudSimulation,
    fixed_schedule,
    get_scenario,
)
from repro.cloud.faults import FaultSchedule
from repro.cloud.telemetry import get_telemetry_scenario
from repro.core import EpactPolicy, FleetSpec, PoolSpec
from repro.dcsim import DataCenterSimulation, SlotRecord
from repro.forecast import DayAheadPredictor
from repro.power import ntc_psu
from repro.power.server_power import (
    conventional_server_power_model,
    ntc_server_power_model,
)
from repro.traces import LifecycleSchedule, default_dataset
from repro.traces.lifecycle import ChurnConfig, generate_lifecycle

START = 168
FIELDS = tuple(f.name for f in dataclasses.fields(SlotRecord))


def records_digest(records, skip=()):
    """SHA-256 over every record field (floats via ``float.hex``)."""
    h = hashlib.sha256()
    for record in records:
        for name in FIELDS:
            if name in skip:
                continue
            value = getattr(record, name)
            text = value.hex() if isinstance(value, float) else repr(value)
            h.update(f"{name}={text};".encode())
        h.update(b"\n")
    return h.hexdigest()


def fixed_digest(result):
    return records_digest(result.records, skip=("n_active_vms",))


def cloud_digest(result):
    return records_digest(result.records)


@pytest.fixture(scope="module")
def ds():
    return default_dataset(n_vms=30, n_days=9, seed=77)


@pytest.fixture(scope="module")
def pred(ds):
    predictor = DayAheadPredictor(ds)
    for day in range(7, ds.n_days):
        predictor.forecast_day(day)
    return predictor


def _two_pool(opp_policy="governor", n_ntc=3):
    # A tight NTC pool, so demand spills onto the conventional pool and
    # both models account servers every slot.
    return FleetSpec(
        pools=(
            PoolSpec("ntc", ntc_server_power_model(), n_ntc),
            PoolSpec(
                "conventional",
                conventional_server_power_model(),
                30,
                perf_platform="x86",
                opp_policy=opp_policy,
            ),
        )
    )


def _churn(ds):
    return generate_lifecycle(
        ds.n_vms,
        START,
        START + 24,
        config=ChurnConfig(
            initial_fraction=0.6,
            arrival_rate_frac=0.01,
            lifetime_mean_slots=20.0,
        ),
        seed=31,
    )


def _faults(ds):
    return FaultSchedule(
        20,
        0,
        ds.n_slots,
        server_outages=((2, 170, 176), (7, 173, 180), (19, 0, 300)),
        cap_windows=((174, 182, 0.05),),
    )


def _with_gap(schedule, lo, hi):
    """The schedule with nobody active in ``[lo, hi)``.

    VMs arriving before the gap leave by ``lo``; later arrivals are
    pushed to ``hi`` or later.
    """
    arrival = schedule.arrival_slots.copy()
    departure = schedule.departure_slots.copy()
    early = arrival < lo
    departure[early] = np.minimum(departure[early], lo)
    late = ~early
    arrival[late] = np.maximum(arrival[late], hi)
    departure[late] = np.maximum(departure[late], arrival[late])
    return LifecycleSchedule(
        arrival,
        departure,
        horizon_start=schedule.horizon_start,
        horizon_end=schedule.horizon_end,
    )


# -- fixed population --------------------------------------------------------


@pytest.mark.parametrize(
    "name, policy_factory",
    [
        ("fixed-epact", EpactPolicy),
        ("fixed-coat", lambda: CoatPolicy(reallocation_period_slots=24)),
        ("fixed-coat-opt", CoatOptPolicy),
    ],
)
def test_fixed_population(ds, pred, name, policy_factory):
    result = DataCenterSimulation(
        ds, pred, policy_factory(), max_servers=25, n_slots=29
    ).run()
    assert fixed_digest(result) == GOLDEN[name]


@pytest.mark.parametrize(
    "name, opp_policy", [("hetero-two-pool", "governor"), ("hetero-fixed-opt", "fixed-opt")]
)
def test_hetero_fixed_population(ds, pred, name, opp_policy):
    result = DataCenterSimulation(
        ds,
        pred,
        EpactPolicy(),
        fleet=_two_pool(opp_policy, n_ntc=1),
        n_slots=13,
    ).run()
    assert fixed_digest(result) == GOLDEN[name]


def test_faults_fixed_population(ds, pred):
    result = DataCenterSimulation(
        ds, pred, EpactPolicy(), max_servers=20, n_slots=24, faults=_faults(ds)
    ).run()
    assert result.total_capped_samples > 0
    assert fixed_digest(result) == GOLDEN["faults-fixed"]


# -- churn -------------------------------------------------------------------


@pytest.fixture(scope="module")
def diurnal():
    dataset, schedule = get_scenario("diurnal-burst").build(
        n_vms=40, n_days=9, seed=13, n_slots=30
    )
    predictor = DayAheadPredictor(dataset)
    return dataset, predictor, _with_gap(schedule, 180, 184)


@pytest.mark.parametrize(
    "name, policy_factory",
    [("diurnal-gap-epact", EpactPolicy), ("diurnal-gap-reactive", OnlineReactivePolicy)],
)
def test_diurnal_burst_with_empty_gap(diurnal, name, policy_factory):
    dataset, predictor, schedule = diurnal
    result = DataCenterSimulation(
        dataset,
        predictor,
        policy_factory(),
        schedule=schedule,
        max_servers=40,
        n_slots=30,
    ).run()
    gap = [r for r in result.records if 180 <= r.slot_index < 184]
    assert gap and all(r.n_active_vms == 0 and r.energy_j == 0.0 for r in gap)
    assert cloud_digest(result) == GOLDEN[name]


@pytest.mark.parametrize(
    "name, policy_factory",
    [("batch-latency-epact", EpactPolicy), ("batch-latency-reactive", OnlineReactivePolicy)],
)
def test_batch_latency_resizes_psu_migration_energy(name, policy_factory):
    dataset, schedule = get_scenario("batch-latency").build(
        n_vms=40, n_days=9, seed=21, n_slots=24
    )
    assert schedule.has_resizes
    result = DataCenterSimulation(
        dataset,
        DayAheadPredictor(dataset),
        policy_factory(),
        schedule=schedule,
        max_servers=40,
        n_slots=24,
        psu=ntc_psu(),
        migration_energy_j=250.0,
    ).run()
    assert result.total_migrations > 0
    assert cloud_digest(result) == GOLDEN[name]


@pytest.mark.parametrize(
    "name, opp_policy, policy_factory",
    [
        ("hetero-churn-two-pool-epact", "governor", EpactPolicy),
        ("hetero-churn-two-pool-reactive", "governor", OnlineReactivePolicy),
        ("hetero-churn-fixed-opt-epact", "fixed-opt", EpactPolicy),
    ],
)
def test_hetero_churn(ds, pred, name, opp_policy, policy_factory):
    result = DataCenterSimulation(
        ds,
        pred,
        policy_factory(),
        schedule=_churn(ds),
        fleet=_two_pool(opp_policy, n_ntc=1),
        n_slots=24,
    ).run()
    assert cloud_digest(result) == GOLDEN[name]


@pytest.mark.parametrize(
    "name, policy_factory",
    [("faults-epact", EpactPolicy), ("faults-reactive", OnlineReactivePolicy)],
)
def test_outage_and_power_cap(ds, pred, name, policy_factory):
    result = DataCenterSimulation(
        ds,
        pred,
        policy_factory(),
        schedule=fixed_schedule(ds.n_vms, START, START + 24),
        max_servers=20,
        n_slots=24,
        faults=_faults(ds),
    ).run()
    assert result.total_capped_samples > 0
    assert result.total_failed_server_slots > 0
    assert cloud_digest(result) == GOLDEN[name]


# -- streaming ---------------------------------------------------------------


def _streaming(ds, scenario, **kwargs):
    return StreamingCloudSimulation(
        ds,
        DayAheadPredictor(ds),
        OnlineReactivePolicy(),
        _churn(ds),
        telemetry=get_telemetry_scenario(scenario).build(
            ds.n_vms, 0, ds.n_slots, seed=4
        ),
        max_servers=20,
        n_slots=24,
        **kwargs,
    )


@pytest.mark.parametrize(
    "name, scenario",
    [("streaming-clean", "clean"), ("streaming-lossy-10pct", "lossy-10pct")],
)
def test_streaming(ds, name, scenario):
    result = _streaming(ds, scenario).run()
    assert cloud_digest(result) == GOLDEN[name]


def test_streaming_checkpoint_resume(ds, tmp_path):
    path = tmp_path / "ckpt"
    full = _streaming(
        ds,
        "lossy-10pct",
        checkpoint_every_slots=7,
        checkpoint_path=str(path),
    )
    copies = []
    for decision in full.windows():
        if decision.checkpointed:
            copies.append(tmp_path / f"boundary-{len(copies)}")
            shutil.copyfile(path, copies[-1])
    assert len(copies) >= 2
    resumed = _streaming(ds, "lossy-10pct")
    resumed.restore(str(copies[1]))
    assert cloud_digest(resumed.run()) == GOLDEN["streaming-lossy-10pct"]
    from_disk = _streaming(ds, "lossy-10pct")
    from_disk.restore(str(path))
    assert cloud_digest(from_disk.run()) == GOLDEN["streaming-lossy-10pct"]


GOLDEN = {
    "batch-latency-epact": (
        "17fae62d0de8f2f9feefcd116b3682566afdbdb06d0cfb5b18d5c34af57b3499"
    ),
    "batch-latency-reactive": (
        "cc0f774c9e39e119ef2cdee0467893daa163666acbb033baeab9bc6a49eb8542"
    ),
    "diurnal-gap-epact": (
        "a678795e406a51e96c227a75389d7cc8159b36797b3d94a347d6beeaca7d49bb"
    ),
    "diurnal-gap-reactive": (
        "fea5c273ccfbef2c11f6ea69ae820b0daac270da6c8ae9f69b0724f2382cd7e1"
    ),
    "faults-epact": (
        "edb350c2adeb1efb06a170959652a499c37805d97a88324af3155473c4824f99"
    ),
    "faults-fixed": (
        "f33ab082f20e12888bbf61407fbfaf074021ce3d6b650d266deefa961db30b05"
    ),
    "faults-reactive": (
        "ed635b88a2886b38cff97c58a9359a5e3e46fd863501836f5fe819c1e188f64e"
    ),
    "fixed-coat": (
        "42c43b7a8883a61361f55700b1d8bc6d74c73bfaba95b75362553103795bed0d"
    ),
    "fixed-coat-opt": (
        "8e2ac1cdb14e4b23eee88627ad321c5d9691c1f6d8bdcb59a374b215e076f24a"
    ),
    "fixed-epact": (
        "d7d6f6e7ea01521521835efe86fc07c7e5559a54ec46eb0ac2e278aeda71e208"
    ),
    "hetero-churn-fixed-opt-epact": (
        "00db3432ba8374eff58e5e2811daecc3391f4f1ac34e1445f9f36387cfd7bdcb"
    ),
    "hetero-churn-two-pool-epact": (
        "e1132edfb7b48dbcff818cd3216702b0a9e2ba04b033ec66d19fc1660fc451b3"
    ),
    "hetero-churn-two-pool-reactive": (
        "28f86f4be36c609733487d4d1a9682f119c97b468a17a0c801537a782c396ac4"
    ),
    "hetero-fixed-opt": (
        "174072a9d9546e89db03a76c1f7083f87e1702db57774174af77123ac4f0693a"
    ),
    "hetero-two-pool": (
        "c007f4832e3259cc2b9dc4abf949a1f250586e73ac847ae9a82b276c1d8c686b"
    ),
    "streaming-clean": (
        "f663e32e07aeaf134ac07664784dd38d56ca4f03be90bd8974cd37181feb10c9"
    ),
    "streaming-lossy-10pct": (
        "92da90fa6451d467f8d0dcf70a818f25b7d687c668d0c6fcc0cc82e5ac36cc42"
    ),
}
