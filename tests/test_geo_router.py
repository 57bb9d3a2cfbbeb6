"""Geo-routing determinism and multi-region run suite.

The router is the determinism-critical piece of the geo layer: the same
seed, spec and population must always produce the identical regional
split, and the split must partition the fleet.  The run layer's trace
events must validate against the observability schemas.
"""

import numpy as np
import pytest

from repro.baselines import CoatOptPolicy
from repro.core import EpactPolicy, FleetSpec, PoolSpec
from repro.errors import ConfigurationError
from repro.forecast.predictor import PerfectPredictor
from repro.obs import RunTracer
from repro.power.server_power import (
    conventional_server_power_model,
    ntc_server_power_model,
)
from repro.shard import GeoFleetSpec, RegionSpec, route_vms, run_geo_policies
from repro.traces import default_dataset


def region(name, n_servers, weight=None):
    return RegionSpec(
        name=name,
        fleet=FleetSpec(
            pools=(PoolSpec("ntc", ntc_server_power_model(), n_servers),)
        ),
        weight=weight,
    )


@pytest.fixture(scope="module")
def geo():
    return GeoFleetSpec(regions=(region("eu", 30), region("us", 10)))


class TestRouterDeterminism:
    def test_same_seed_identical_routes(self, geo):
        first = route_vms(100, geo, seed=7)
        second = route_vms(100, geo, seed=7)
        assert len(first) == len(second) == 2
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self, geo):
        first = route_vms(100, geo, seed=7)
        second = route_vms(100, geo, seed=8)
        assert any(
            not np.array_equal(a, b) for a, b in zip(first, second)
        )

    def test_routes_partition_population(self, geo):
        routes = route_vms(100, geo, seed=3)
        joined = np.concatenate(routes)
        assert np.array_equal(np.sort(joined), np.arange(100))
        for rows in routes:
            assert np.array_equal(rows, np.sort(rows))

    def test_capacity_proportional_split(self, geo):
        """Default weights are server counts: 30/10 ⇒ a 75/25 split."""
        routes = route_vms(100, geo, seed=1)
        assert routes[0].size == 75
        assert routes[1].size == 25

    def test_explicit_weights_override_capacity(self):
        weighted = GeoFleetSpec(
            regions=(
                region("eu", 30, weight=1.0),
                region("us", 10, weight=1.0),
            )
        )
        routes = route_vms(100, weighted, seed=1)
        assert routes[0].size == routes[1].size == 50

    def test_every_region_gets_a_vm(self, geo):
        routes = route_vms(2, geo, seed=5)
        assert all(rows.size == 1 for rows in routes)

    def test_too_few_vms_rejected(self, geo):
        with pytest.raises(ConfigurationError, match="at least one VM"):
            route_vms(1, geo)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="unique"):
            GeoFleetSpec(regions=(region("dup", 4), region("dup", 4)))
        with pytest.raises(ConfigurationError, match="at least one"):
            GeoFleetSpec(regions=())
        with pytest.raises(ConfigurationError, match="positive"):
            region("bad", 4, weight=0.0)


class TestGeoRun:
    def test_run_geo_policies_and_events(self):
        """A tiny two-region run: per-region results, valid events."""
        dataset = default_dataset(n_vms=24, n_days=1, seed=808)
        geo = GeoFleetSpec(regions=(region("eu", 12), region("us", 12)))

        # RunTracer validates every event against its schema on emit.
        tracer = RunTracer()
        result = run_geo_policies(
            dataset,
            PerfectPredictor,
            [EpactPolicy()],
            geo,
            seed=11,
            shards=2,
            tracer=tracer,
            n_slots=2,
        )
        assert set(result.results["EPACT"]) == {"eu", "us"}
        assert sum(result.routes.values()) == 24
        assert result.total_energy_j("EPACT") > 0.0
        assert len(tracer.of_type("region_route")) == 2
        assert tracer.of_type("shard_window")

    def test_jobs_fan_equals_serial(self):
        """The (policy, region) process fan reproduces the serial run."""
        dataset = default_dataset(n_vms=24, n_days=1, seed=808)
        geo = GeoFleetSpec(regions=(region("eu", 12), region("us", 12)))
        serial = run_geo_policies(
            dataset, PerfectPredictor, [EpactPolicy()], geo,
            seed=11, n_slots=2,
        )
        fanned = run_geo_policies(
            dataset, PerfectPredictor, [EpactPolicy()], geo,
            seed=11, n_slots=2, jobs=2,
        )
        assert fanned.routes == serial.routes
        for name in serial.results["EPACT"]:
            assert (
                fanned.results["EPACT"][name].records
                == serial.results["EPACT"][name].records
            )

    def test_mixed_platform_jobs_equal_serial(self):
        """A serial run reuses each policy instance across regions, so
        every region's F_opt must come from its own platform: an NTC
        and a conventional site give the same records serially and in
        separate worker processes."""
        dataset = default_dataset(n_vms=40, n_days=2, seed=5)
        conventional = FleetSpec(
            pools=(
                PoolSpec(
                    "conventional",
                    conventional_server_power_model(),
                    20,
                    perf_platform="x86",
                ),
            )
        )
        geo = GeoFleetSpec(
            regions=(region("eu", 20), RegionSpec("us", conventional))
        )
        serial, fanned = (
            run_geo_policies(
                dataset,
                PerfectPredictor,
                [EpactPolicy(), CoatOptPolicy()],
                geo,
                n_slots=24,
                jobs=jobs,
            )
            for jobs in (1, 2)
        )
        for policy in ("EPACT", "COAT-OPT"):
            for name in ("eu", "us"):
                assert (
                    fanned.results[policy][name].records
                    == serial.results[policy][name].records
                ), (policy, name)
