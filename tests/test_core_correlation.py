"""Tests for Pearson correlation and complementary patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.correlation import (
    complementary_pattern,
    euclidean_distance_many,
    pearson,
    pearson_many,
)
from repro.errors import DomainError

vectors = arrays(
    float,
    st.integers(min_value=2, max_value=24),
    elements=st.floats(min_value=-50, max_value=50),
)


class TestComplementaryPattern:
    def test_definition(self):
        pattern = np.array([1.0, 4.0, 2.0])
        np.testing.assert_allclose(
            complementary_pattern(pattern), [3.0, 0.0, 2.0]
        )

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        pattern = rng.uniform(0, 100, 12)
        assert complementary_pattern(pattern).min() >= 0.0

    def test_peak_maps_to_zero(self):
        pattern = np.array([5.0, 9.0, 1.0])
        assert complementary_pattern(pattern)[1] == 0.0

    def test_idempotent_shape(self):
        pattern = np.arange(12.0)
        assert complementary_pattern(pattern).shape == (12,)

    def test_invalid_input(self):
        with pytest.raises(DomainError):
            complementary_pattern(np.array([]))
        with pytest.raises(DomainError):
            complementary_pattern(np.ones((2, 2)))


class TestPearson:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, 2 * x + 5) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_vector_yields_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0
        assert pearson(np.arange(5.0), np.ones(5)) == 0.0

    @given(vectors)
    def test_self_correlation(self, x):
        centered_norm = np.linalg.norm(x - x.mean())
        if centered_norm**2 < 1.0e-10:
            # Degenerate (near-constant) vectors are defined to be 0.
            assert pearson(x, x) in (0.0, pytest.approx(1.0))
        else:
            assert pearson(x, x) == pytest.approx(1.0)

    @given(vectors)
    def test_bounded(self, x):
        rng = np.random.default_rng(0)
        y = rng.normal(size=x.shape)
        assert -1.0 - 1e-9 <= pearson(x, y) <= 1.0 + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=8), rng.normal(size=8)
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DomainError):
            pearson(np.ones(3), np.ones(4))

    def test_complementary_anticorrelation(self):
        """A pattern is perfectly anti-correlated with its complement."""
        rng = np.random.default_rng(2)
        pattern = rng.uniform(0, 10, 12)
        assert pearson(
            pattern, complementary_pattern(pattern)
        ) == pytest.approx(-1.0)


class TestVectorized:
    def test_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(6, 12))
        target = rng.normal(size=12)
        expected = [pearson(row, target) for row in rows]
        np.testing.assert_allclose(
            pearson_many(rows, target), expected, atol=1e-12
        )

    def test_constant_rows_are_zero(self):
        rows = np.vstack([np.ones(6), np.arange(6.0)])
        target = np.arange(6.0)
        result = pearson_many(rows, target)
        assert result[0] == 0.0
        assert result[1] == pytest.approx(1.0)

    def test_constant_target_all_zero(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(3, 6))
        np.testing.assert_array_equal(
            pearson_many(rows, np.full(6, 2.0)), np.zeros(3)
        )

    def test_distance_matches_norm(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(4, 6))
        target = rng.normal(size=6)
        expected = [np.linalg.norm(row - target) for row in rows]
        np.testing.assert_allclose(
            euclidean_distance_many(rows, target), expected
        )

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            pearson_many(np.ones((2, 3)), np.ones(4))
        with pytest.raises(DomainError):
            euclidean_distance_many(np.ones(3), np.ones(3))


def seed_pearson_many(candidates, target):
    """``pearson_many`` as first written, with ``mean`` and ``norm``."""
    c = np.asarray(candidates, dtype=float)
    t = np.asarray(target, dtype=float)
    t_centered = t - t.mean()
    t_norm = np.linalg.norm(t_centered)
    if t_norm < 1.0e-12:
        return np.zeros(c.shape[0])
    c_centered = c - c.mean(axis=1, keepdims=True)
    c_norms = np.linalg.norm(c_centered, axis=1)
    safe = np.where(c_norms < 1.0e-12, 1.0, c_norms)
    corr = (c_centered @ t_centered) / (safe * t_norm)
    corr[c_norms < 1.0e-12] = 0.0
    return corr


@st.composite
def pearson_inputs(draw):
    """Candidate rows and a target, some of them constant or varying
    below the zero-variance cutoff."""
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([1, 2, 3, 12, 288]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    elements = st.floats(-100, 100, width=32)
    rows = draw(arrays(dtype, (n, k), elements=elements))
    target = draw(arrays(dtype, k, elements=elements))
    flat = draw(arrays(bool, n))
    ramp = draw(st.sampled_from([0.0, 1.0e-16])) * np.arange(k)
    rows[flat] = rows[flat, :1] + ramp
    if draw(st.booleans()):
        target[:] = target[0]
    return rows, target


class TestPearsonManyBitExact:
    """``pearson_many`` must equal the seed formula bit for bit: COAT, the
    ``allocate_1d`` reference and ``merit_scores`` in the ``allocate_2d``
    reference compare its values to pick winners."""

    @given(pearson_inputs())
    @settings(max_examples=80, deadline=None)
    def test_matches_seed_formula(self, inputs):
        rows, target = inputs
        np.testing.assert_array_equal(
            pearson_many(rows, target), seed_pearson_many(rows, target)
        )

    def test_matches_seed_formula_random_fleets(self):
        rng = np.random.default_rng(7)
        for n, k in [(1, 12), (40, 12), (300, 12), (200, 288)]:
            rows = rng.uniform(0.0, 100.0, size=(n, k))
            rows[::5] = rows[::5, :1]
            target = rng.uniform(0.0, 30.0, size=k)
            np.testing.assert_array_equal(
                pearson_many(rows, target), seed_pearson_many(rows, target)
            )


class TestDegenerateAndMismatched:
    """Zero-variance rows and mismatched shapes across the vectorized
    correlation helpers (the allocation fast paths rely on these exact
    semantics for their incremental Pearson bookkeeping)."""

    def test_all_rows_zero_variance(self):
        rows = np.vstack([np.zeros(8), np.full(8, 5.0), np.full(8, -2.0)])
        target = np.arange(8.0)
        np.testing.assert_array_equal(pearson_many(rows, target), np.zeros(3))

    def test_mixed_zero_variance_rows(self):
        rng = np.random.default_rng(6)
        live = rng.normal(size=8)
        rows = np.vstack([np.full(8, 4.0), live, np.zeros(8)])
        result = pearson_many(rows, live)
        assert result[0] == 0.0
        assert result[2] == 0.0
        assert result[1] == pytest.approx(1.0)

    def test_zero_variance_target_and_rows_together(self):
        rows = np.vstack([np.ones(5), np.arange(5.0)])
        np.testing.assert_array_equal(
            pearson_many(rows, np.full(5, 9.0)), np.zeros(2)
        )

    def test_near_constant_below_eps_is_zero(self):
        """Variation below the 1e-12 cutoff counts as shapeless."""
        rows = (np.ones(6) + 1e-16 * np.arange(6))[None, :]
        assert pearson_many(rows, np.arange(6.0))[0] == 0.0

    def test_euclidean_zero_variance_rows_plain_distance(self):
        """Distance has no degenerate case: constant rows just measure
        their offset from the target."""
        rows = np.vstack([np.zeros(4), np.full(4, 2.0)])
        target = np.zeros(4)
        np.testing.assert_allclose(
            euclidean_distance_many(rows, target), [0.0, 4.0]
        )

    @pytest.mark.parametrize(
        "rows, target",
        [
            (np.ones((2, 3)), np.ones(4)),   # column mismatch
            (np.ones(3), np.ones(3)),        # 1-D candidates
            (np.ones((2, 2, 2)), np.ones(2)),  # 3-D candidates
            (np.ones((2, 3)), np.ones((3, 1))),  # 2-D target
        ],
    )
    def test_pearson_many_shape_mismatch(self, rows, target):
        with pytest.raises(DomainError):
            pearson_many(rows, target)

    @pytest.mark.parametrize(
        "rows, target",
        [
            (np.ones((2, 3)), np.ones(4)),
            (np.ones(3), np.ones(3)),
            (np.ones((2, 2, 2)), np.ones(2)),
            (np.ones((2, 3)), np.ones((3, 1))),
        ],
    )
    def test_euclidean_many_shape_mismatch(self, rows, target):
        with pytest.raises(DomainError):
            euclidean_distance_many(rows, target)
