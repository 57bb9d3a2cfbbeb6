"""Unified simulation-config API suite.

:class:`SimulationConfig` is pure packaging: a config-built engine must
be **bit-identical** to the same engine built with loose keywords, for
both the fixed-population and the churning engine, and the config's
validation must reject exactly what the engine constructor rejects.
"""

import dataclasses

import pytest

from repro.core import EpactPolicy, FleetEpactPolicy, FleetSpec, PoolSpec
from repro.dcsim import (
    CloudSimulation,
    DataCenterSimulation,
    SimulationConfig,
)
from repro.errors import ConfigurationError
from repro.forecast import DayAheadPredictor
from repro.power.server_power import ntc_server_power_model
from repro.traces import default_dataset
from repro.traces.lifecycle import ChurnConfig, generate_lifecycle
from repro.units import SLOTS_PER_DAY


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def dataset():
    return default_dataset(n_vms=40, n_days=9, seed=606)


@pytest.fixture(scope="module")
def predictor(dataset):
    predictor = DayAheadPredictor(dataset)
    for day in range(7, dataset.n_days):
        predictor.forecast_day(day)
    return predictor


@pytest.fixture(scope="module")
def schedule(dataset):
    start = 7 * SLOTS_PER_DAY
    return generate_lifecycle(
        dataset.n_vms,
        start,
        start + 24,
        config=ChurnConfig(
            initial_fraction=0.6,
            arrival_rate_frac=0.01,
            lifetime_mean_slots=20.0,
        ),
        seed=32,
    )


class TestConfigBitIdentity:
    def test_fixed_population_config_equals_kwargs(
        self, dataset, predictor
    ):
        """from_config == loose kwargs, record for record."""
        loose = DataCenterSimulation(
            dataset,
            predictor,
            EpactPolicy(),
            max_servers=40,
            n_slots=16,
            migration_energy_j=150.0,
        ).run()
        config = SimulationConfig(
            max_servers=40, n_slots=16, migration_energy_j=150.0
        )
        configured = DataCenterSimulation.from_config(
            dataset, predictor, EpactPolicy(), config=config
        ).run()
        assert records_equal(loose.records, configured.records)

    def test_fleet_config_equals_kwargs(self, dataset, predictor):
        fleet = FleetSpec(
            pools=(PoolSpec("ntc", ntc_server_power_model(), 40),)
        )
        loose = DataCenterSimulation(
            dataset,
            predictor,
            FleetEpactPolicy(),
            fleet=fleet,
            n_slots=8,
        ).run()
        configured = DataCenterSimulation.from_config(
            dataset,
            predictor,
            FleetEpactPolicy(),
            config=SimulationConfig(fleet=fleet, n_slots=8),
        ).run()
        assert records_equal(loose.records, configured.records)

    def test_cloud_config_equals_kwargs(
        self, dataset, predictor, schedule
    ):
        """from_config is inherited by the churning engine unchanged."""
        loose = CloudSimulation(
            dataset,
            predictor,
            EpactPolicy(),
            schedule,
            max_servers=40,
            n_slots=24,
        ).run()
        configured = CloudSimulation.from_config(
            dataset,
            predictor,
            EpactPolicy(),
            schedule,
            config=SimulationConfig(max_servers=40, n_slots=24),
        ).run()
        assert records_equal(loose.records, configured.records)

    def test_default_config_equals_defaults(self, dataset, predictor):
        loose = DataCenterSimulation(
            dataset, predictor, EpactPolicy(), max_servers=40, n_slots=4
        ).run()
        configured = DataCenterSimulation.from_config(
            dataset,
            predictor,
            EpactPolicy(),
            config=SimulationConfig(max_servers=40).replace(n_slots=4),
        ).run()
        assert records_equal(loose.records, configured.records)


class TestConfigValidation:
    def test_kwargs_round_trip(self):
        """kwargs() exposes every engine keyword, nothing more."""
        config = SimulationConfig(max_servers=12, n_slots=3)
        kwargs = config.kwargs()
        assert kwargs["max_servers"] == 12
        assert kwargs["n_slots"] == 3
        assert set(kwargs) == {
            f.name for f in dataclasses.fields(SimulationConfig)
        }

    def test_replace_preserves_frozen_validation(self):
        config = SimulationConfig(max_servers=10)
        with pytest.raises(ConfigurationError):
            config.replace(migration_energy_j=-1.0)

    def test_fleet_excludes_max_servers(self):
        fleet = FleetSpec(
            pools=(PoolSpec("ntc", ntc_server_power_model(), 4),)
        )
        with pytest.raises(ConfigurationError, match="max_servers"):
            SimulationConfig(fleet=fleet, max_servers=4)

    def test_fleet_excludes_power_model(self):
        fleet = FleetSpec(
            pools=(PoolSpec("ntc", ntc_server_power_model(), 4),)
        )
        with pytest.raises(ConfigurationError, match="power_model"):
            SimulationConfig(
                fleet=fleet, power_model=ntc_server_power_model()
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_servers": 0},
            {"max_servers": 4, "n_slots": 0},
            {"max_servers": 4, "start_slot": -1},
            {"max_servers": 4, "migration_energy_j": -0.5},
        ],
    )
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**bad)

    def test_config_error_matches_engine_error(
        self, dataset, predictor
    ):
        """The config front-loads exactly the engine's own complaint."""
        fleet = FleetSpec(
            pools=(PoolSpec("ntc", ntc_server_power_model(), 4),)
        )
        with pytest.raises(ConfigurationError) as config_err:
            SimulationConfig(fleet=fleet, max_servers=4)
        with pytest.raises(ConfigurationError) as engine_err:
            DataCenterSimulation(
                dataset,
                predictor,
                EpactPolicy(),
                fleet=fleet,
                max_servers=4,
            )
        assert str(config_err.value) == str(engine_err.value)
