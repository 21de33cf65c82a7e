"""Tests for spherical k-means, including a brute-force oracle."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from clusterup.clustering import _assign_all, normalize_rows, spherical_kmeans
from clusterup.errors import InsufficientData


def assign_cluster(centroids, x) -> int:
    """The cluster ``spherical_kmeans``'s assignment step gives the single
    vector ``x``."""
    return int(_assign_all(np.asarray(centroids), np.asarray(x).reshape(-1, 1))[0])


def brute_force_two_clusters(x_cols):
    """Exact optimum of the summed max-cosine objective for two clusters.

    Enumerates every non-trivial bipartition, places each centroid at the
    normalized sum of its side, and scores the free reassignment. Only usable
    for a handful of points.
    """
    n = x_cols.shape[1]
    best = -np.inf
    for bits in itertools.product([0, 1], repeat=n):
        labels = np.array(bits)
        if labels.min() == labels.max():
            continue
        centroids = []
        for c in (0, 1):
            s = x_cols[:, labels == c].sum(axis=1)
            norm = np.linalg.norm(s)
            if norm < 1e-12:
                break
            centroids.append(s / norm)
        if len(centroids) != 2:
            continue
        score = np.max(np.stack(centroids) @ x_cols, axis=0).sum()
        best = max(best, score)
    return best


def two_group_instance(rng, n_points, dim=2, gap=1.2):
    """Two angular bundles on the sphere with a clear separation."""
    center_a = rng.standard_normal(dim)
    center_a /= np.linalg.norm(center_a)
    # Rotate by a large angle to get the second bundle.
    perp = rng.standard_normal(dim)
    perp -= center_a * (perp @ center_a)
    perp /= np.linalg.norm(perp)
    center_b = np.cos(gap) * center_a + np.sin(gap) * perp
    points = []
    for i in range(n_points):
        base = center_a if i % 2 == 0 else center_b
        p = base + 0.15 * rng.standard_normal(dim)
        points.append(p / np.linalg.norm(p))
    return np.stack(points, axis=1)


class TestNormalizeRows:
    def test_three_four_five(self):
        out, zeros = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])
        assert zeros == 0

    def test_zero_row_reported(self):
        out, zeros = normalize_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0]])
        assert zeros == 1

    def test_unit_rows_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        out, zeros = normalize_rows(x)
        assert zeros == 0
        assert np.abs(out - x).max() < 1e-12


class TestAssignCluster:
    def test_self_similarity(self):
        rng = np.random.default_rng(1)
        centroids = rng.standard_normal((5, 4))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        assert assign_cluster(centroids, centroids[3]) == 3

    def test_orthogonal_separation(self):
        centroids = np.eye(4)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert assign_cluster(centroids, x) == 0

    def test_tie_goes_to_lowest_index(self):
        centroids = np.array([
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        x = np.array([1.0, 1.0, 0.0])  # equal cosine to centroids 1 and 2
        assert assign_cluster(centroids, x) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        centroids = rng.standard_normal((6, 5))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        for _ in range(20):
            x = rng.standard_normal(5)
            c = rng.uniform(0.1, 10.0)
            assert assign_cluster(centroids, x) == assign_cluster(centroids, c * x)


class TestSphericalKmeans:
    def test_single_cluster_analytic_optimum(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 30))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        model = spherical_kmeans(x, 1, seed=0)
        expected = x.sum(axis=1)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(model.centroids[0], expected, atol=1e-12)

    def test_antipodal_groups_exact(self):
        # Two antipodal bundles; optimum assigns each bundle its own centroid.
        rng = np.random.default_rng(4)
        base = np.array([1.0, 0.0])
        pts = []
        for i in range(10):
            sign = 1.0 if i < 5 else -1.0
            angle = 0.05 * rng.standard_normal()
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            pts.append(sign * (rot @ base))
        x = np.stack(pts, axis=1)
        model = spherical_kmeans(x, 2, seed=0)
        oracle = brute_force_two_clusters(x)
        achieved = model.objective_trace[-1]
        assert abs(achieved - oracle) < 1e-9
        groups = {tuple(sorted(np.nonzero(model.assignments == c)[0])) for c in (0, 1)}
        assert groups == {tuple(range(5)), tuple(range(5, 10))}

    def test_brute_force_oracle_20_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(6, 11))
            x = two_group_instance(rng, n)
            model = spherical_kmeans(x, 2, seed=int(rng.integers(1000)))
            oracle = brute_force_two_clusters(x)
            assert model.objective_trace[-1] <= oracle + 1e-9
            assert abs(model.objective_trace[-1] - oracle) < 1e-9

    def test_separated_gaussian_directions_recovered(self):
        rng = np.random.default_rng(6)
        dirs = np.linalg.qr(rng.standard_normal((16, 8)))[0].T  # 8 orthonormal rows
        assert np.abs(dirs @ dirs.T - np.eye(8)).max() < 0.3
        labels = rng.integers(0, 8, size=400)
        pts = dirs[labels].T + 0.05 * rng.standard_normal((16, 400))
        pts /= np.linalg.norm(pts, axis=0, keepdims=True)
        model = spherical_kmeans(pts, 8, seed=7)
        # Match predicted clusters to generating labels, then demand 100%.
        confusion = np.zeros((8, 8), dtype=int)
        for pred, true in zip(model.assignments, labels):
            confusion[pred, true] += 1
        rows, cols = linear_sum_assignment(-confusion)
        matched = confusion[rows, cols].sum()
        assert matched == 400

    def test_objective_trace_non_decreasing(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 120))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        model = spherical_kmeans(x, 5, seed=9)
        diffs = np.diff(model.objective_trace)
        assert (diffs >= -1e-12).all()

    def test_determinism(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 60))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        a = spherical_kmeans(x, 4, seed=11)
        b = spherical_kmeans(x.copy(), 4, seed=11)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective_trace == b.objective_trace

    def test_partition_complete_and_nonempty(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 100))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        model = spherical_kmeans(x, 6, seed=13)
        counts = np.bincount(model.assignments, minlength=6)
        assert counts.sum() == 100
        assert counts.min() >= 1

    def test_assignments_match_final_centroids(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 80))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        model = spherical_kmeans(x, 5, seed=15)
        recomputed = np.argmax(model.centroids @ x, axis=0)
        assert np.array_equal(model.assignments, recomputed)

    def test_unit_norm_centroids(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((7, 90))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        model = spherical_kmeans(x, 4, seed=17)
        norms = np.linalg.norm(model.centroids, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            spherical_kmeans(np.eye(3), 4, seed=0)

    def test_warm_start_centroids(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 50))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        warm = x[:, :4].T.copy()
        model = spherical_kmeans(x, 4, seed=0, init_centroids=warm)
        assert model.centroids.shape == (4, 3)
        assert np.bincount(model.assignments, minlength=4).min() >= 1
