"""Spherical k-means over unit-norm activation vectors.

Clusters are found by maximizing the summed cosine similarity between each
vector and its nearest centroid. Centroid updates are normalized cluster
means, the classical spherical k-means step, so the objective never decreases.
Initialization is k-means++ adapted to cosine distance and fully seeded;
identical inputs and seed give a bit-identical result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .linalg import Array, as_matrix


@dataclass
class ClusterModel:
    """Result of spherical k-means.

    ``centroids`` has unit-norm rows; ``assignments[j]`` is the index of the
    centroid with the highest cosine to column j (ties to the lowest index),
    consistent with the final centroids. ``objective_trace`` holds the summed
    max-cosine objective after every assignment pass and is non-decreasing.
    ``pca_projection`` is set when clustering ran in a reduced space.
    """

    centroids: Array
    assignments: np.ndarray
    objective_trace: list[float]
    pca_projection: Array | None
    seed: int

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def normalize_rows(x) -> tuple[Array, int]:
    """Scale each row to unit L2 norm.

    Rows with norm <= 1e-12 are left untouched and counted; the count is
    returned alongside the normalized matrix.
    """
    m = as_matrix(x, "x")
    out = m.copy()
    norms = np.linalg.norm(out, axis=1)
    live = norms > 1e-12
    out[live] /= norms[live, None]
    return out, int(np.count_nonzero(~live))


def _assign_all(centroids: Array, x_cols: Array) -> np.ndarray:
    # argmax returns the first maximum, which is the lowest index on ties.
    return np.argmax(centroids @ x_cols, axis=0)


def _objective(centroids: Array, x_cols: Array) -> float:
    return float(np.max(centroids @ x_cols, axis=0).sum())


def _kmeans_pp_init(x_cols: Array, n_clusters: int, rng: np.random.Generator) -> Array:
    """k-means++ seeding with cosine distance 1 - mu.x as the spread measure."""
    n_points = x_cols.shape[1]
    first = int(rng.integers(n_points))
    chosen = [first]
    best_sim = x_cols.T @ x_cols[:, first]
    for _ in range(1, n_clusters):
        dist = np.maximum(0.0, 1.0 - best_sim)
        weights = dist * dist
        total = float(weights.sum())
        if total <= 0.0:
            # All points coincide with a chosen centroid; take the next
            # unchosen index for a deterministic, well-defined start.
            remaining = sorted(set(range(n_points)) - set(chosen))
            nxt = remaining[0] if remaining else chosen[-1]
        else:
            nxt = int(rng.choice(n_points, p=weights / total))
        chosen.append(nxt)
        best_sim = np.maximum(best_sim, x_cols.T @ x_cols[:, nxt])
    return x_cols[:, chosen].T.copy()


def _update_centroids(
    x_cols: Array, assignments: np.ndarray, old: Array
) -> Array:
    """Normalized cluster means; empty clusters re-seed from the worst point."""
    n_clusters, _ = old.shape
    new = old.copy()
    empty = []
    for i in range(n_clusters):
        members = x_cols[:, assignments == i]
        if members.shape[1] == 0:
            empty.append(i)
            continue
        s = members.sum(axis=1)
        norm = float(np.linalg.norm(s))
        if norm > 1e-12:
            new[i] = s / norm
        # A perfectly cancelling cluster keeps its previous centroid.
    if empty:
        sim_to_own = np.einsum("ij,ij->j", new[assignments].T, x_cols)
        for i in empty:
            worst = int(np.argmin(sim_to_own))
            new[i] = x_cols[:, worst]
            sim_to_own[worst] = np.inf  # not reusable for another empty cluster
    return new


def spherical_kmeans(
    x,
    n_clusters: int,
    max_iters: int = 100,
    seed: int = 0,
    init_centroids=None,
) -> ClusterModel:
    """Cluster the unit-norm columns of ``x`` (d x M) on the sphere.

    Columns are expected to be normalized by the caller. Iteration stops on an
    assignment fixpoint or after ``max_iters`` centroid updates; either way the
    returned assignments are the argmax against the returned centroids and no
    cluster is empty (``InsufficientData`` if too few distinct directions
    fill them). ``init_centroids`` (n_clusters x d) warm-starts the iteration
    in place of k-means++ seeding.
    """
    x_cols = as_matrix(x, "x")
    _, n_points = x_cols.shape
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if n_points < n_clusters:
        raise InsufficientData(
            f"{n_points} points cannot fill {n_clusters} clusters"
        )

    rng = np.random.default_rng(seed)
    if init_centroids is not None:
        centroids = as_matrix(init_centroids, "init_centroids").copy()
        if centroids.shape != (n_clusters, x_cols.shape[0]):
            raise ValueError(
                f"init_centroids shape {centroids.shape} != "
                f"({n_clusters}, {x_cols.shape[0]})"
            )
    else:
        centroids = _kmeans_pp_init(x_cols, n_clusters, rng)

    assignments = _assign_all(centroids, x_cols)
    trace = [_objective(centroids, x_cols)]
    for _ in range(max_iters):
        centroids = _update_centroids(x_cols, assignments, centroids)
        new_assignments = _assign_all(centroids, x_cols)
        trace.append(_objective(centroids, x_cols))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments

    # Re-seeding guarantee: repair any cluster the final pass left empty.
    for _ in range(n_clusters):
        if np.bincount(assignments, minlength=n_clusters).min() > 0:
            break
        centroids = _update_centroids(x_cols, assignments, centroids)
        assignments = _assign_all(centroids, x_cols)
        trace.append(_objective(centroids, x_cols))
    filled = np.count_nonzero(np.bincount(assignments, minlength=n_clusters))
    if filled < n_clusters:
        raise InsufficientData(
            f"{n_points} points filled only {filled} of {n_clusters} clusters: "
            "too few distinct directions"
        )

    return ClusterModel(
        centroids=centroids,
        assignments=assignments.astype(np.int64),
        objective_trace=trace,
        pca_projection=None,
        seed=int(seed),
    )
