"""Tests for the dense linear algebra kernels."""

import numpy as np
import pytest

from clusterup.errors import (
    AllZeroSpectrum,
    DegenerateData,
    NotPositiveDefinite,
)
from clusterup.linalg import (
    cholesky_lower,
    effective_rank,
    frobenius_sq,
    pca_fit_transform,
    pseudoinverse,
    svd_full,
)


class TestCholesky:
    def test_identity(self):
        low = cholesky_lower(np.eye(3), 0.0)
        np.testing.assert_allclose(low, np.eye(3))

    def test_hand_checked_2x2(self):
        gram = np.array([[4.0, 2.0], [2.0, 5.0]])
        low = cholesky_lower(gram, 0.0)
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(low @ low.T, gram)

    def test_rank_deficient_needs_jitter(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(gram, 0.0)
        low = cholesky_lower(gram, 1e-6)
        np.testing.assert_allclose(low @ low.T, gram + 1e-6 * np.eye(2), atol=1e-12)

    def test_diagonal_strictly_positive(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        low = cholesky_lower(a @ a.T + 0.1 * np.eye(6))
        assert (np.diag(low) > 0).all()

    def test_reconstruction_relative_error(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((8, 8))
            gram = a @ a.T + 0.5 * np.eye(8)
            low = cholesky_lower(gram)
            err = np.linalg.norm(low @ low.T - gram) / np.linalg.norm(gram)
            assert err < 1e-6

    def test_roundtrip_recovers_factor(self):
        # cholesky(L @ L.T) gives back L for lower-triangular L with positive diag
        rng = np.random.default_rng(2)
        for _ in range(20):
            low = np.tril(rng.standard_normal((5, 5)))
            np.fill_diagonal(low, np.abs(np.diag(low)) + 0.5)
            rec = cholesky_lower(low @ low.T, 0.0)
            np.testing.assert_allclose(rec, low, atol=1e-6)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky_lower(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            cholesky_lower(np.eye(2), -1.0)


class TestSvd:
    def test_diagonal_matrix(self):
        f = svd_full(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 1.0])
        np.testing.assert_allclose(f.u, np.eye(2))
        np.testing.assert_allclose(f.v_t, np.eye(2))

    def test_zero_matrix(self):
        f = svd_full(np.zeros((2, 3)))
        np.testing.assert_allclose(f.sigma, [0.0, 0.0])

    def test_reconstruction_and_energy(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((5, 4))
        f = svd_full(w)
        rec = (f.u * f.sigma) @ f.v_t
        assert np.linalg.norm(rec - w) / np.linalg.norm(w) < 1e-6
        assert abs(np.sum(f.sigma**2) - frobenius_sq(w)) / frobenius_sq(w) < 1e-6

    def test_energy_identity_many_shapes(self):
        rng = np.random.default_rng(4)
        for m, n in [(3, 7), (7, 3), (6, 6), (1, 5), (5, 1)]:
            w = rng.standard_normal((m, n))
            f = svd_full(w)
            assert abs(np.sum(f.sigma**2) - frobenius_sq(w)) / frobenius_sq(w) < 1e-6

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 4))
        f = svd_full(w)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(f.v_t @ f.v_t.T, np.eye(4), atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((5, 5))
        f = svd_full(w)
        for j in range(5):
            col = f.u[:, j]
            first = col[np.nonzero(col)[0][0]]
            assert first > 0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((8, 8))
        f1, f2 = svd_full(w), svd_full(w.copy())
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v_t, f2.v_t)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd_full(np.array([[1.0, np.nan]]))


class TestEffectiveRank:
    def test_hand_cumulative_energy(self):
        prof = effective_rank([2.0, 1.0, 1.0], 0.95)
        assert prof.chosen_rank == 3
        assert prof.retained_energy == 1.0

    def test_floor_rule(self):
        prof = effective_rank([1.0, 0.0, 0.0, 0.0], 0.95)
        assert prof.chosen_rank == 3  # energy rank 1 raised to 4//2 + 1

    def test_tau_one_keeps_full_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = np.sort(np.abs(rng.standard_normal(6)))[::-1]
            prof = effective_rank(s, 1.0)
            assert prof.chosen_rank == 6
        prof = effective_rank([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0)
        assert prof.chosen_rank == 6

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = np.sort(np.abs(rng.standard_normal(10)))[::-1]
            ranks = [
                effective_rank(s, tau).chosen_rank
                for tau in (0.5, 0.7, 0.9, 0.95, 0.99, 1.0)
            ]
            assert ranks == sorted(ranks)

    def test_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = np.sort(np.abs(rng.standard_normal(9)))[::-1]
            tau = rng.uniform(0.3, 1.0)
            prof = effective_rank(s, tau)
            assert prof.chosen_rank <= prof.full_rank
            assert prof.chosen_rank > prof.full_rank / 2
            assert prof.retained_energy >= tau or prof.chosen_rank == prof.full_rank

    def test_all_zero_spectrum(self):
        with pytest.raises(AllZeroSpectrum):
            effective_rank([0.0, 0.0], 0.9)

    def test_rejects_increasing_sigma(self):
        with pytest.raises(ValueError):
            effective_rank([1.0, 2.0], 0.9)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            effective_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            effective_rank([1.0], 1.5)


class TestPca:
    def test_factor_of_eight_reduction(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((64, 200))
        projection, projected = pca_fit_transform(x, 8)
        assert projection.shape == (8, 64)
        assert projected.shape == (8, 200)

    def test_full_dimension_is_isometry(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 50))
        projection, projected = pca_fit_transform(x, 6)
        np.testing.assert_allclose(projection @ projection.T, np.eye(6), atol=1e-8)
        for a, b in [(0, 1), (3, 17), (20, 44)]:
            orig = np.linalg.norm(x[:, a] - x[:, b])
            proj = np.linalg.norm(projected[:, a] - projected[:, b])
            assert abs(orig - proj) < 1e-6

    def test_planar_data_exact(self):
        rng = np.random.default_rng(13)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        coeffs = rng.standard_normal((2, 40))
        x = basis @ coeffs
        projection, projected = pca_fit_transform(x, 2)
        centered = x - x.mean(axis=1, keepdims=True)
        residual = centered - projection.T @ projected
        assert np.abs(residual).max() < 1e-8

    def test_rotation_invariance_of_subspace(self):
        import scipy.linalg

        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 80)) * np.array([5, 4, 3, 1, 0.5, 0.1])[:, None]
        rot = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        p1, _ = pca_fit_transform(x, 3)
        p2, _ = pca_fit_transform(rot @ x, 3)
        angles = scipy.linalg.subspace_angles((rot @ p1.T), p2.T)
        assert np.max(angles) < 1e-6

    def test_degenerate_data(self):
        x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        with pytest.raises(DegenerateData):
            pca_fit_transform(x, 1)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            pca_fit_transform(np.random.default_rng(0).standard_normal((3, 5)), 4)


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_truncation(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
        )

    def test_penrose_condition_low_rank(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        pinv = pseudoinverse(a)
        np.testing.assert_allclose(a @ pinv @ a, a, atol=1e-6)
        np.testing.assert_allclose(pinv @ a @ pinv, pinv, atol=1e-6)

    def test_zero_matrix(self):
        np.testing.assert_allclose(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))
