"""Tests for the temporal pattern primitives."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traces import default_dataset
from repro.traces.patterns import (
    _ar1_filter,
    ar1_noise,
    burst_events,
    diurnal_profile,
    weekly_modulation,
)
from repro.units import SAMPLES_PER_DAY


class TestDiurnalProfile:
    def test_range_is_unit_interval(self):
        profile = diurnal_profile(SAMPLES_PER_DAY, peak_sample=144)
        assert profile.min() >= 0.0
        assert profile.max() <= 1.0

    def test_peaks_at_requested_sample(self):
        profile = diurnal_profile(SAMPLES_PER_DAY, peak_sample=100)
        assert abs(int(np.argmax(profile)) - 100) <= 1

    def test_daily_periodicity(self):
        profile = diurnal_profile(2 * SAMPLES_PER_DAY, peak_sample=50)
        np.testing.assert_allclose(
            profile[:SAMPLES_PER_DAY], profile[SAMPLES_PER_DAY:], atol=1e-12
        )

    def test_sharpness_narrows_peak(self):
        soft = diurnal_profile(SAMPLES_PER_DAY, 144, sharpness=1.0)
        sharp = diurnal_profile(SAMPLES_PER_DAY, 144, sharpness=4.0)
        assert sharp.mean() < soft.mean()
        assert sharp.max() == pytest.approx(soft.max())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            diurnal_profile(-1, 0)
        with pytest.raises(ConfigurationError):
            diurnal_profile(10, 0, sharpness=-1.0)


class TestWeeklyModulation:
    def test_weekend_days_scaled(self):
        envelope = weekly_modulation(
            7 * SAMPLES_PER_DAY, weekend_factor=0.5
        )
        weekday = envelope[0]
        saturday = envelope[5 * SAMPLES_PER_DAY]
        sunday = envelope[6 * SAMPLES_PER_DAY]
        assert weekday == 1.0
        assert saturday == 0.5
        assert sunday == 0.5

    def test_week_start_day_shifts_weekend(self):
        envelope = weekly_modulation(
            2 * SAMPLES_PER_DAY, weekend_factor=0.5, week_start_day=5
        )
        assert envelope[0] == 0.5  # starts on Saturday

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            weekly_modulation(10, weekend_factor=0.0)


class TestAr1Noise:
    def test_reproducible(self, rng):
        import numpy as np

        a = ar1_noise(500, np.random.default_rng(1), sigma=1.0)
        b = ar1_noise(500, np.random.default_rng(1), sigma=1.0)
        np.testing.assert_array_equal(a, b)

    def test_stationary_sigma_approximately_reached(self):
        import numpy as np

        noise = ar1_noise(
            200_000, np.random.default_rng(2), sigma=2.0, phi=0.8
        )
        assert noise.std() == pytest.approx(2.0, rel=0.05)

    @given(st.floats(min_value=-0.95, max_value=0.95))
    def test_autocorrelation_sign_follows_phi(self, phi):
        import numpy as np

        noise = ar1_noise(
            20_000, np.random.default_rng(3), sigma=1.0, phi=phi
        )
        lag1 = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert lag1 == pytest.approx(phi, abs=0.1)

    def test_zero_length(self, rng):
        assert ar1_noise(0, rng, sigma=1.0).shape == (0,)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ar1_noise(10, rng, sigma=-1.0)
        with pytest.raises(ConfigurationError):
            ar1_noise(10, rng, sigma=1.0, phi=1.0)


class TestAr1Filter:
    """The in-place recursion the generator and ``ar1_noise`` share."""

    @staticmethod
    def _python_recursion(row, phi):
        out = [float(v) for v in row]
        for t in range(1, len(out)):
            out[t] = out[t] + phi * out[t - 1]
        return np.array(out, dtype=float)

    @pytest.mark.parametrize("phi", [0.85, -0.9])
    @pytest.mark.parametrize("rows", [1, 2, 7, 40])
    @pytest.mark.parametrize("n", [0, 1, 2, 333])
    def test_equals_per_series_python_recursion(self, rows, n, phi):
        x = np.random.default_rng(rows * 1000 + n).normal(size=(rows, n))
        y = x.copy()
        _ar1_filter(y, phi)
        for row, out in zip(x, y):
            assert np.array_equal(out, self._python_recursion(row, phi))

    @pytest.mark.parametrize("rows", [1, 25])
    def test_equals_scipy_lfilter(self, rows):
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(rows).normal(size=(rows, 4032))
        for phi in (0.9, 0.85, 0.95, -0.6):
            y = x.copy()
            _ar1_filter(y, phi)
            for row, out in zip(x, y):
                expect = signal.lfilter([1.0], [1.0, -phi], row)
                assert np.array_equal(out, expect)

    def test_generator_output_pinned(self):
        """SHA-256 of ``default_dataset(24, 9, seed=5)`` as generated
        through ``scipy.signal.lfilter`` before the NumPy recursion."""
        ds = default_dataset(24, 9, seed=5)
        h = hashlib.sha256()
        h.update(ds.cpu_pct.tobytes())
        h.update(ds.mem_pct.tobytes())
        specs = [
            (s.vm_id, s.mem_class.label, s.cpu_base_pct, s.mem_base_pct, s.group)
            for s in ds.specs
        ]
        h.update(repr(specs).encode())
        assert h.hexdigest() == (
            "51f942c09679e7c9e5340e11e509853c6c94290efaabf107546fdb992fc44373"
        )


class TestBursts:
    def test_mask_in_unit_interval(self, rng):
        mask = burst_events(5000, rng, rate_per_day=2.0)
        assert mask.min() >= 0.0
        assert mask.max() <= 1.0

    def test_zero_rate_is_silent(self, rng):
        mask = burst_events(5000, rng, rate_per_day=0.0)
        assert mask.sum() == 0.0

    def test_bursts_are_contiguous_plateaus(self):
        import numpy as np

        mask = burst_events(
            SAMPLES_PER_DAY * 20, np.random.default_rng(7), rate_per_day=0.5
        )
        active = mask > 0
        # Bounded durations: no burst run longer than max_duration.
        run = 0
        longest = 0
        for flag in active:
            run = run + 1 if flag else 0
            longest = max(longest, run)
        assert 0 < longest  # some burst exists at this rate/seed
        assert longest <= 36 * 3  # overlapping bursts may chain a little

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            burst_events(10, rng, rate_per_day=-1.0)
        with pytest.raises(ConfigurationError):
            burst_events(10, rng, rate_per_day=1.0, min_duration=0)
