"""Tests for the leakage power models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DomainError
from repro.technology.leakage import (
    LeakageModel,
    bulk_core_leakage,
    fdsoi28_core_leakage,
    fdsoi28_sram_leakage,
)


class TestLeakageModel:
    def test_reference_point_reproduced(self):
        model = LeakageModel(name="t", p_ref_w=10.0, v_ref=1.0, v_slope=0.5)
        assert model.power_w(1.0) == pytest.approx(10.0)

    @given(st.floats(min_value=0.3, max_value=1.29))
    def test_monotone_increasing_in_voltage(self, voltage):
        model = fdsoi28_core_leakage()
        assert model.power_w(voltage + 0.01) > model.power_w(voltage)

    def test_nonpositive_voltage_rejected(self):
        model = fdsoi28_core_leakage()
        with pytest.raises(DomainError):
            model.power_w(0.0)
        with pytest.raises(DomainError):
            model.power_w(-1.0)

    def test_scaled_multiplies_power(self):
        model = LeakageModel(name="t", p_ref_w=4.0, v_ref=1.0, v_slope=0.5)
        assert model.scaled(2.5).power_w(0.8) == pytest.approx(
            2.5 * model.power_w(0.8)
        )

    def test_negative_scale_rejected(self):
        model = LeakageModel(name="t", p_ref_w=4.0, v_ref=1.0, v_slope=0.5)
        with pytest.raises(ConfigurationError):
            model.scaled(-1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LeakageModel(name="t", p_ref_w=-1.0, v_ref=1.0, v_slope=0.5)
        with pytest.raises(ConfigurationError):
            LeakageModel(name="t", p_ref_w=1.0, v_ref=0.0, v_slope=0.5)
        with pytest.raises(ConfigurationError):
            LeakageModel(name="t", p_ref_w=1.0, v_ref=1.0, v_slope=0.0)


class TestNtcLeakage:
    def test_core_region_anchor(self):
        """~14 W for 16 cores at the 1.30 V corner, the calibration
        anchor ``fdsoi28_core_leakage`` documents."""
        model = fdsoi28_core_leakage(cores=16)
        assert model.power_w(1.30) == pytest.approx(14.0, rel=1e-6)

    def test_near_threshold_collapse(self):
        """Leakage collapses by >4x from 1.3 V to the ~1.9 GHz voltage."""
        model = fdsoi28_core_leakage()
        assert model.power_w(1.30) / model.power_w(0.70) > 4.0

    def test_scales_with_core_count(self):
        assert fdsoi28_core_leakage(cores=8).power_w(1.0) == pytest.approx(
            fdsoi28_core_leakage(cores=16).power_w(1.0) / 2.0
        )

    def test_sram_scales_with_capacity(self):
        small = fdsoi28_sram_leakage(size_mb=1.0)
        big = fdsoi28_sram_leakage(size_mb=16.0)
        assert big.power_w(1.0) == pytest.approx(16.0 * small.power_w(1.0))

    def test_sram_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            fdsoi28_sram_leakage(size_mb=0.0)


class TestBulkLeakage:
    def test_flat_across_dvfs_window(self):
        """Bulk leakage varies < 2x over the narrow voltage window, vs the
        >4x collapse FD-SOI achieves over its NTC range."""
        model = bulk_core_leakage()
        ratio = model.power_w(1.35) / model.power_w(1.04)
        assert 1.0 < ratio < 2.0

    def test_heavier_than_ntc_at_operating_point(self):
        """The 'large static power' premise of conventional servers."""
        bulk = bulk_core_leakage(cores=6)
        ntc = fdsoi28_core_leakage(cores=16)
        # Compare at each platform's ~2 GHz voltage.
        assert bulk.power_w(1.2) > ntc.power_w(0.73)
