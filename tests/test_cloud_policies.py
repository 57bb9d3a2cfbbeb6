"""Online policies: placement, thresholds, signals, validation."""

import numpy as np
import pytest

from repro.baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from repro.core.types import AllocationContext
from repro.errors import ConfigurationError
from repro.power import ntc_server_power_model


def make_ctx(
    pred_cpu,
    pred_mem=None,
    max_servers=10,
    vm_ids=None,
    last_cpu=None,
    last_mem=None,
):
    pred_cpu = np.asarray(pred_cpu, dtype=float)
    if pred_mem is None:
        pred_mem = np.full_like(pred_cpu, 5.0)
    n = pred_cpu.shape[0]
    return AllocationContext(
        pred_cpu=pred_cpu,
        pred_mem=np.asarray(pred_mem, dtype=float),
        power_model=ntc_server_power_model(),
        max_servers=max_servers,
        qos_floor_ghz=np.full(n, 0.5),
        vm_ids=np.arange(n) if vm_ids is None else np.asarray(vm_ids),
        last_cpu=last_cpu,
        last_mem=last_mem,
    )


def pattern(level, k=12):
    return np.full(k, float(level))


class TestOnlineBestFit:
    def test_places_every_vm_once(self):
        policy = OnlineBestFitPolicy()
        policy.reset()
        ctx = make_ctx(np.stack([pattern(30), pattern(40), pattern(35)]))
        allocation = policy.allocate(ctx)
        mapping = allocation.vm_to_server(3)
        assert mapping.shape == (3,)

    def test_consolidates_under_cap(self):
        """Three 30%-peak VMs fit one 90%-cap server via best-fit."""
        policy = OnlineBestFitPolicy(cap_cpu_pct=90.0, cap_mem_pct=90.0)
        policy.reset()
        ctx = make_ctx(np.stack([pattern(30)] * 3), np.stack([pattern(5)] * 3))
        allocation = policy.allocate(ctx)
        assert allocation.n_servers == 1

    def test_opens_servers_when_needed(self):
        policy = OnlineBestFitPolicy(cap_cpu_pct=50.0)
        policy.reset()
        ctx = make_ctx(np.stack([pattern(40)] * 3), np.stack([pattern(5)] * 3))
        allocation = policy.allocate(ctx)
        assert allocation.n_servers == 3
        assert allocation.forced_placements == 0

    def test_force_places_when_fleet_exhausted(self):
        policy = OnlineBestFitPolicy(cap_cpu_pct=50.0)
        policy.reset()
        ctx = make_ctx(
            np.stack([pattern(40)] * 3),
            np.stack([pattern(5)] * 3),
            max_servers=2,
        )
        allocation = policy.allocate(ctx)
        assert allocation.forced_placements == 1
        assert allocation.n_servers == 2

    def test_placement_sticky_across_slots(self):
        """Persisting VMs stay put; an arrival joins without reshuffling."""
        policy = OnlineBestFitPolicy(cap_cpu_pct=90.0)
        policy.reset()
        first = policy.allocate(
            make_ctx(np.stack([pattern(30), pattern(20)]), vm_ids=[7, 9])
        )
        m1 = first.vm_to_server(2)
        second = policy.allocate(
            make_ctx(
                np.stack([pattern(30), pattern(20), pattern(10)]),
                vm_ids=[7, 9, 12],
            )
        )
        m2 = second.vm_to_server(3)
        # VMs 7 and 9 keep sharing (or not sharing) the same server.
        assert (m1[0] == m1[1]) == (m2[0] == m2[1])

    def test_departed_vm_state_dropped(self):
        policy = OnlineBestFitPolicy()
        policy.reset()
        policy.allocate(make_ctx(np.stack([pattern(30)]), vm_ids=[3]))
        allocation = policy.allocate(
            make_ctx(np.stack([pattern(20)]), vm_ids=[4])
        )
        assert allocation.vm_to_server(1).shape == (1,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineBestFitPolicy(cap_cpu_pct=0.0)
        with pytest.raises(ConfigurationError):
            OnlineBestFitPolicy(signal="psychic")


class TestOnlineReactive:
    def test_overload_shedding(self):
        """A server pushed over the threshold sheds its largest VM."""
        policy = OnlineReactivePolicy(
            cap_cpu_pct=90.0, overload_pct=60.0, signal="forecast"
        )
        policy.reset()
        # Slot 1: two VMs at 25% each land on one server (50% < 60%).
        first = policy.allocate(
            make_ctx(np.stack([pattern(25), pattern(25)]), vm_ids=[0, 1])
        )
        assert first.n_servers == 1
        # Slot 2: their predicted demand grows to 35% each (70% > 60%).
        second = policy.allocate(
            make_ctx(np.stack([pattern(35), pattern(35)]), vm_ids=[0, 1])
        )
        assert second.n_servers == 2

    def test_underload_drain(self):
        """A cold server is drained whole into a loaded one."""
        policy = OnlineReactivePolicy(
            cap_cpu_pct=90.0,
            overload_pct=90.0,
            underload_pct=20.0,
            signal="forecast",
        )
        policy.reset()
        # Slot 1: two 45% VMs must occupy two servers (90% cap).
        first = policy.allocate(
            make_ctx(np.stack([pattern(45), pattern(48)]), vm_ids=[0, 1])
        )
        assert first.n_servers == 2
        # Slot 2: VM 0 collapses to 5% -> its server is underloaded and
        # drains into VM 1's server (48 + 5 < 90).
        second = policy.allocate(
            make_ctx(np.stack([pattern(5), pattern(48)]), vm_ids=[0, 1])
        )
        assert second.n_servers == 1

    def test_migration_budget_bounds_moves(self):
        policy = OnlineReactivePolicy(
            cap_cpu_pct=90.0,
            underload_pct=20.0,
            max_migrations_per_slot=0,
            signal="forecast",
        )
        policy.reset()
        first = policy.allocate(
            make_ctx(np.stack([pattern(45), pattern(48)]), vm_ids=[0, 1])
        )
        assert first.n_servers == 2
        second = policy.allocate(
            make_ctx(np.stack([pattern(5), pattern(48)]), vm_ids=[0, 1])
        )
        assert second.n_servers == 2  # budget 0: no drain allowed

    def test_reactive_signal_uses_history(self):
        """With observed overload, the reactive detector reacts even if
        the forecast says everything is fine."""
        policy = OnlineReactivePolicy(
            cap_cpu_pct=90.0, overload_pct=60.0, signal="reactive"
        )
        policy.reset()
        pred = np.stack([pattern(20), pattern(20)])
        policy.allocate(make_ctx(pred, vm_ids=[0, 1]))
        observed = np.stack([pattern(40), pattern(40)])
        second = policy.allocate(
            make_ctx(
                pred,
                vm_ids=[0, 1],
                last_cpu=observed,
                last_mem=np.stack([pattern(5)] * 2),
            )
        )
        assert second.n_servers == 2

    def test_reactive_signal_falls_back_to_forecast_for_arrivals(self):
        policy = OnlineReactivePolicy(signal="reactive")
        policy.reset()
        last_cpu = np.stack([pattern(30), pattern(np.nan)])
        last_mem = np.stack([pattern(5), pattern(np.nan)])
        allocation = policy.allocate(
            make_ctx(
                np.stack([pattern(25), pattern(25)]),
                vm_ids=[0, 1],
                last_cpu=last_cpu,
                last_mem=last_mem,
            )
        )
        # The NaN history row must not poison the placement.
        mapping = allocation.vm_to_server(2)
        assert mapping.shape == (2,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineReactivePolicy(overload_pct=0.0)
        with pytest.raises(ConfigurationError):
            OnlineReactivePolicy(underload_pct=95.0, overload_pct=90.0)
        with pytest.raises(ConfigurationError):
            OnlineReactivePolicy(max_migrations_per_slot=-1)
