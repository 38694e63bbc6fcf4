import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modespect import (
    FixedCount,
    OptimalHardThreshold,
    Tolerance,
    eig,
    hard_threshold_coefficient,
    lstsq,
    svd_econ,
    truncation_rank,
)

small_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestSvd:
    def test_identity_singular_values(self):
        res = svd_econ(np.eye(3))
        np.testing.assert_allclose(res.singular_values, [1.0, 1.0, 1.0])

    def test_rank_one_outer_product(self):
        u = np.array([3.0, 0.0, 0.0])  # norm 3
        v = np.array([0.0, 2.0])  # norm 2
        res = svd_econ(np.outer(u, v))
        assert res.singular_values[0] == pytest.approx(6.0, rel=1e-12)
        assert np.all(res.singular_values[1:] < 1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(8, 5))
        res = svd_econ(m)
        err = np.linalg.norm(m - res.reconstruct()) / np.linalg.norm(m)
        assert err < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        res = svd_econ(rng.normal(size=(6, 9)))
        r = res.singular_values.size
        np.testing.assert_allclose(
            res.left_vectors.conj().T @ res.left_vectors, np.eye(r), atol=1e-10
        )
        np.testing.assert_allclose(
            res.right_vectors.conj().T @ res.right_vectors, np.eye(r), atol=1e-10
        )

    def test_descending_values(self):
        rng = np.random.default_rng(3)
        res = svd_econ(rng.normal(size=(7, 7)))
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)

    @settings(max_examples=60, deadline=None)
    @given(m=small_matrices)
    def test_frobenius_identity(self, m):
        res = svd_econ(m)
        fro2 = float(np.sum(m * m))
        sq = float(np.sum(res.singular_values**2))
        assert sq == pytest.approx(fro2, rel=1e-10, abs=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            svd_econ(np.array([[1.0, math.nan]]))


class TestTruncationRank:
    def test_tolerance_example(self):
        assert truncation_rank(np.array([1.0, 0.5, 1e-12]), Tolerance(1e-8), (3, 3)) == 2

    def test_tolerance_boundary_keeps(self):
        # equality with eps*sigma_1 keeps the value
        assert truncation_rank(np.array([1.0, 0.1]), Tolerance(0.1), (2, 5)) == 2

    def test_fixed_count(self):
        assert truncation_rank(np.array([5.0, 4.0, 3.0]), FixedCount(1), (3, 4)) == 1
        assert truncation_rank(np.array([5.0, 4.0, 3.0]), FixedCount(9), (3, 4)) == 3

    def test_hard_threshold_coefficient_square(self):
        # cubic fit at beta=1: 0.56 - 0.95 + 1.82 + 1.43
        assert hard_threshold_coefficient(1.0) == pytest.approx(2.86, abs=1e-12)
        # tabulated value of the rule is 2.858
        assert hard_threshold_coefficient(1.0) == pytest.approx(2.858, abs=5e-3)

    def test_optimal_threshold_square_matrix(self):
        s = np.array([10.0, 4.0, 1.0, 0.9, 0.8, 0.7, 0.6])  # median 0.9
        cut = 2.86 * 0.9
        expected = int(np.sum(s > cut))
        assert truncation_rank(s, OptimalHardThreshold(), (7, 7)) == expected

    def test_optimal_threshold_uses_aspect_ratio(self):
        s = np.array([10.0, 1.0])
        beta = 2 / 100
        cut = hard_threshold_coefficient(beta) * np.median(s)
        expected = max(int(np.sum(s > cut)), 1)
        assert truncation_rank(s, OptimalHardThreshold(), (100, 2)) == expected

    def test_always_at_least_one(self):
        s = np.array([1.0, 1e-30])
        assert truncation_rank(s, Tolerance(0.5), (2, 2)) == 1
        assert truncation_rank(np.array([0.0, 0.0]), FixedCount(1), (2, 3)) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=1e-12, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        eps1=st.floats(min_value=1e-10, max_value=0.99),
        eps2=st.floats(min_value=1e-10, max_value=0.99),
    )
    def test_tolerance_monotone(self, data, eps1, eps2):
        s = np.sort(np.asarray(data))[::-1]
        shape = (s.size, s.size + 2)
        lo, hi = sorted((eps1, eps2))
        assert truncation_rank(s, Tolerance(lo), shape) >= truncation_rank(
            s, Tolerance(hi), shape
        )

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0, 2.0]), FixedCount(1), (2, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([]), FixedCount(1), (0, 0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0, 0.5]), FixedCount(1), (3, 3))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            Tolerance(0.0)
        with pytest.raises(ValueError):
            Tolerance(1.0)
        with pytest.raises(ValueError):
            FixedCount(0)


class TestLstsq:
    def test_invertible_square(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=(4, 2))
        np.testing.assert_allclose(lstsq(a, b), np.linalg.solve(a, b), atol=1e-10)

    def test_zero_matrix_gives_zero(self):
        x = lstsq(np.zeros((3, 2)), np.ones(3))
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_consistent_overdetermined_recovers(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 4))
        x0 = rng.normal(size=(4, 3))
        x = lstsq(a, a @ x0)
        assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lstsq(np.ones((3, 2)), np.ones(4))

    def test_rcond_drops_small_singular_values(self):
        # diag(1, 1e-13): kept at the default cut-off, 2 eps; dropped at 1e-12
        a = np.diag([1.0, 1e-13])
        b = np.ones(2)
        np.testing.assert_allclose(lstsq(a, b), [1.0, 1e13])
        np.testing.assert_array_equal(lstsq(a, b, rcond=1e-12), [1.0, 0.0])


class TestEig:
    def test_diagonal(self):
        values, _ = eig(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(sorted(values.real, reverse=True), [3, 2, 1])
        np.testing.assert_allclose(values.imag, 0, atol=1e-14)

    def test_rotation_eigenvalues(self):
        theta = math.pi / 3
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        values, _ = eig(rot)
        expected = {complex(math.cos(theta), math.sin(theta)),
                    complex(math.cos(theta), -math.sin(theta))}
        for v in values:
            assert min(abs(v - e) for e in expected) < 1e-12

    def test_residual_random(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(10, 10))
        values, vectors = eig(a)
        scale = np.linalg.norm(a)
        for i in range(10):
            residual = np.linalg.norm(a @ vectors[:, i] - values[i] * vectors[:, i])
            assert residual < 1e-8 * scale

    def test_unit_norm_and_pivot_phase(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6))
        _, vectors = eig(a)
        norms = np.linalg.norm(vectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for i in range(vectors.shape[1]):
            pivot = vectors[np.argmax(np.abs(vectors[:, i])), i]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12 * abs(pivot)

    def test_values_only(self):
        a = np.random.default_rng(10).normal(size=(7, 7))
        values, vectors = eig(a, vectors=False)
        assert vectors is None
        np.testing.assert_allclose(np.sort_complex(values), np.sort_complex(eig(a)[0]))
        with pytest.raises(ValueError, match="non-finite"):
            eig(np.full((2, 2), np.nan), vectors=False)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eig(np.ones((2, 3)))
