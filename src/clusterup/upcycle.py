"""Dense-to-MoE initialization strategies and calibration capture.

Four ways to turn one pretrained FFN into an MoE layer:

* ``sparse_init``: every expert is a copy, router is random gaussian.
* ``drop_init``: copies, then a random fraction of intermediate channels per
  expert is resampled from per-tensor gaussian statistics.
* ``drop_svd_init``: copies, then the lowest-energy singular directions of the
  first linear layer are replaced with fresh random orthonormal directions.
* ``cluster_aware_init``: calibration activations are clustered on the sphere,
  each expert's first linear layer is rebuilt from a whitened truncated SVD of
  its cluster, and the router rows are the cluster centroids.

Only the first linear layer is ever reshaped; biases and the second linear
layer are copied verbatim in every strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .clustering import ClusterModel, normalize_rows, spherical_kmeans
from .config import INIT_METHODS
from .errors import EmptyCalibration, InsufficientData, NotPositiveDefinite
from .linalg import (
    Array,
    as_matrix,
    cholesky_lower,
    effective_rank,
    frobenius_sq,
    pca_fit_transform,
    svd_full,
)
from .moe import DenseFfn, MoeLayer
from .seeding import derive_seed, substream
from .train import ToyModel, model_forward


# ---------------------------------------------------------------------------
# calibration capture
# ---------------------------------------------------------------------------

@dataclass
class ActivationBank:
    """FFN-input activations per upcycling site, capped per site."""

    per_site: dict[int, Array]  # site -> (d, M)
    token_cap: int


def capture_activations(
    model: ToyModel, data, sites, token_cap: int, seed: int
) -> ActivationBank:
    """Record the block-input vectors the listed blocks would see.

    Runs the model once over ``data`` (d x N) and stores, for each site, the
    residual-stream vectors entering that block, uniformly subsampled to
    ``token_cap`` columns with a per-site stream of ``seed``.
    """
    xm = as_matrix(data, "data")
    if xm.shape[1] == 0:
        raise EmptyCalibration("calibration data has zero tokens")
    if token_cap < 1:
        raise ValueError(f"token_cap must be >= 1, got {token_cap}")
    sites = list(sites)
    for b in sites:
        if not 0 <= b < len(model.blocks):
            raise ValueError(f"site {b} out of range for {len(model.blocks)} blocks")
    state = model_forward(model, xm)
    per_site = {}
    for b in sites:
        acts = state.block_inputs[b]
        n = acts.shape[1]
        if n > token_cap:
            rng = substream(seed, f"capture:{b}")
            idx = np.sort(rng.choice(n, size=token_cap, replace=False))
            acts = acts[:, idx]
        per_site[b] = acts.copy()
    return ActivationBank(per_site=per_site, token_cap=token_cap)


# ---------------------------------------------------------------------------
# whitening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JitterPolicy:
    """Escalation schedule for regularizing rank-deficient Gram matrices.

    Jitter values are ``scale * trace(gram) / d`` with scale stepping from
    ``initial_scale`` by factors of ``growth`` up to ``max_scale``; plain
    factorization (zero jitter) is always tried first.
    """

    initial_scale: float = 1e-8
    growth: float = 10.0
    max_scale: float = 1e-2

    def jitters(self, gram: Array) -> list[float]:
        d = gram.shape[0]
        base = float(np.trace(gram)) / d
        if base <= 0.0:
            base = 1.0
        out = [0.0]
        scale = self.initial_scale
        while scale <= self.max_scale * (1 + 1e-12):
            out.append(scale * base)
            scale *= self.growth
        return out


@dataclass
class WhiteningFactor:
    """Lower-triangular S with S @ S.T = X @ X.T + jitter_used * I."""

    s: Array
    jitter_used: float


def whitening_matrix(x_cluster, jitter_policy: JitterPolicy | None = None) -> WhiteningFactor:
    """Cholesky factor of a cluster's Gram matrix, with jitter escalation."""
    x = as_matrix(x_cluster, "x_cluster")
    if x.shape[1] < 1:
        raise ValueError("cluster must contain at least one token")
    policy = jitter_policy or JitterPolicy()
    gram = x @ x.T
    gram = 0.5 * (gram + gram.T)
    last_exc = None
    for jitter in policy.jitters(gram):
        try:
            return WhiteningFactor(s=cholesky_lower(gram, jitter), jitter_used=jitter)
        except NotPositiveDefinite as exc:
            last_exc = exc
    raise NotPositiveDefinite(
        f"Gram matrix not factorizable up to jitter scale {policy.max_scale:g}"
    ) from last_exc


# ---------------------------------------------------------------------------
# init reports
# ---------------------------------------------------------------------------

@dataclass
class InitReport:
    """What an initializer did to each expert.

    For cluster-aware init, ``per_expert_truncation_loss[i]`` equals the sum
    of squared discarded singular values of the whitened first-layer matrix,
    which is exactly the within-cluster reconstruction error of the truncation.
    ``joint_objective`` evaluates the within-cluster error minus the
    gamma-weighted cross-expert diversity term at the produced experts; it is
    None for methods that use no calibration clusters.
    """

    method: str
    per_expert_rank: list[int]
    per_expert_truncation_loss: list[float]
    joint_objective: float | None
    gamma: float
    per_expert_jitter: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "per_expert_rank": self.per_expert_rank,
            "per_expert_truncation_loss": self.per_expert_truncation_loss,
            "joint_objective": self.joint_objective,
            "gamma": self.gamma,
            "per_expert_jitter": self.per_expert_jitter,
        }


def _random_router(n_experts: int, d: int, seed: int, scale: float) -> Array:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n_experts, d))


def _full_rank(ffn: DenseFfn) -> int:
    return min(ffn.h, ffn.d)


# ---------------------------------------------------------------------------
# baseline initializers
# ---------------------------------------------------------------------------

def sparse_init(
    dense: DenseFfn,
    n_experts: int,
    router_seed: int,
    router_scale: float = 0.02,
    k: int = 1,
    capacity_factor: float = 1.5,
) -> MoeLayer:
    """All experts are bit-identical copies; the router is random gaussian."""
    if n_experts < 1:
        raise ValueError(f"n_experts must be >= 1, got {n_experts}")
    return MoeLayer(
        experts=[dense.copy() for _ in range(n_experts)],
        router=_random_router(n_experts, dense.d, router_seed, router_scale),
        k=k,
        capacity_factor=capacity_factor,
    )


def drop_init(
    dense: DenseFfn,
    n_experts: int,
    ratio: float,
    seed: int,
    router_scale: float = 0.02,
    k: int = 1,
    capacity_factor: float = 1.5,
) -> MoeLayer:
    """Resample a random fraction of intermediate channels per expert.

    Each expert draws its own channel subset of size floor(ratio * h); the
    matching first-layer rows, first biases, and second-layer columns are
    redrawn i.i.d. gaussian with the mean and std of the dense tensor they
    replace. The channel set is shared across the three tensors so the
    perturbation stays channel-coherent.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    h = dense.h
    n_drop = int(math.floor(ratio * h))
    stats = {
        "w1": (float(dense.w1.mean()), float(dense.w1.std())),
        "b1": (float(dense.b1.mean()), float(dense.b1.std())),
        "w2": (float(dense.w2.mean()), float(dense.w2.std())),
    }
    experts = []
    for i in range(n_experts):
        expert = dense.copy()
        if n_drop > 0:
            rng = substream(seed, f"expert:{i}")
            channels = rng.choice(h, size=n_drop, replace=False)
            expert.w1[channels, :] = rng.normal(*stats["w1"], size=(n_drop, dense.d))
            expert.b1[channels] = rng.normal(*stats["b1"], size=n_drop)
            expert.w2[:, channels] = rng.normal(*stats["w2"], size=(dense.d, n_drop))
        experts.append(expert)
    return MoeLayer(
        experts=experts,
        router=_random_router(n_experts, dense.d, derive_seed(seed, "router"), router_scale),
        k=k,
        capacity_factor=capacity_factor,
    )


def _orthonormal_complement(
    basis: Array, n_new: int, dim: int, rng: np.random.Generator
) -> Array:
    """n_new random orthonormal columns orthogonal to the given basis columns."""
    raw = rng.standard_normal((dim, n_new))
    if basis.shape[1]:
        raw -= basis @ (basis.T @ raw)
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def drop_svd_init(
    dense: DenseFfn,
    n_experts: int,
    fraction: float,
    seed: int,
    router_scale: float = 0.02,
    k: int = 1,
    capacity_factor: float = 1.5,
) -> MoeLayer:
    """Replace the lowest-energy singular directions of w1 per expert.

    The top ceil((1 - fraction) * r) singular triplets are kept; the remaining
    directions are redrawn as random orthonormal vectors orthogonal to the
    kept ones (fresh per expert), reusing the discarded singular values.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    factors = svd_full(dense.w1)
    r = factors.sigma.size
    n_keep = int(math.ceil((1.0 - fraction) * r))
    experts = []
    for i in range(n_experts):
        expert = dense.copy()
        if n_keep < r:
            rng = substream(seed, f"expert:{i}")
            u_keep = factors.u[:, :n_keep]
            v_keep = factors.v_t[:n_keep, :].T
            u_new = _orthonormal_complement(u_keep, r - n_keep, dense.h, rng)
            v_new = _orthonormal_complement(v_keep, r - n_keep, dense.d, rng)
            kept = (u_keep * factors.sigma[:n_keep]) @ factors.v_t[:n_keep, :]
            fresh = (u_new * factors.sigma[n_keep:]) @ v_new.T
            expert.w1 = kept + fresh
        else:
            expert.w1 = (factors.u * factors.sigma) @ factors.v_t
        experts.append(expert)
    return MoeLayer(
        experts=experts,
        router=_random_router(n_experts, dense.d, derive_seed(seed, "router"), router_scale),
        k=k,
        capacity_factor=capacity_factor,
    )


# ---------------------------------------------------------------------------
# cluster-aware initializer
# ---------------------------------------------------------------------------

def joint_objective_eval(experts_w1, dense_w1, clusters, gamma: float) -> float:
    """Within-cluster reconstruction error minus the diversity credit.

    ``sum_i [ ||W X_i - W_i X_i||_F^2 - gamma * sum_{j != i} ||W X_i - W_j X_i||_F^2 ]``.
    A diagnostic only; nothing optimizes it directly.
    """
    if len(experts_w1) != len(clusters):
        raise ValueError("need one cluster per expert")
    w = as_matrix(dense_w1, "dense_w1")
    total = 0.0
    for i, x_i in enumerate(clusters):
        x = as_matrix(x_i, f"cluster {i}")
        base = w @ x
        own = frobenius_sq(base - experts_w1[i] @ x)
        cross = 0.0
        for j, w_j in enumerate(experts_w1):
            if j != i:
                cross += frobenius_sq(base - w_j @ x)
        total += own - gamma * cross
    return float(total)


def _recovered_centroids(
    x_norm_cols: Array, assignments: np.ndarray, n_clusters: int
) -> Array:
    """Unit-normalized means of each cluster's original-space vectors."""
    d = x_norm_cols.shape[0]
    centroids = np.zeros((n_clusters, d))
    for i in range(n_clusters):
        members = x_norm_cols[:, assignments == i]
        if members.shape[1] == 0:
            continue
        s = members.sum(axis=1)
        norm = float(np.linalg.norm(s))
        centroids[i] = s / norm if norm > 1e-12 else s
    return centroids


def cluster_aware_init(
    dense: DenseFfn,
    bank_site,
    n_experts: int,
    tau: float = 0.95,
    seed: int = 0,
    k: int = 1,
    capacity_factor: float = 1.5,
    jitter_policy: JitterPolicy | None = None,
    max_iters: int = 100,
) -> tuple[MoeLayer, ClusterModel, InitReport]:
    """Initialize experts from the activation clusters they will serve.

    Pipeline per site: normalize the calibration columns, reduce to ceil(d/8)
    dimensions with PCA (at least 2), run spherical k-means there, then refine
    assignments in the original space so they are consistent with the
    recovered unit centroids. Per cluster i the first linear layer is rebuilt
    as ``T_r(svd(w1 @ S_i)) @ inv(S_i)`` where S_i is the Cholesky whitening
    factor of the cluster Gram and r keeps a ``tau`` fraction of spectral
    energy (with the half-rank floor). The router rows are the centroids.
    """
    x = as_matrix(bank_site, "bank_site")
    d, n_tokens = x.shape
    if d != dense.d:
        raise ValueError(f"activations have dim {d}, FFN expects {dense.d}")
    if n_tokens < n_experts:
        raise InsufficientData(f"{n_tokens} tokens cannot seed {n_experts} experts")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")

    # Cluster on the sphere in a PCA-reduced space, then refine in the
    # original space so assignments match the router's centroid geometry.
    x_norm = normalize_rows(x.T)[0].T
    target_dim = min(d, max(2, math.ceil(d / 8)))
    projection, projected = pca_fit_transform(x_norm, target_dim)
    projected_norm = normalize_rows(projected.T)[0].T
    reduced = spherical_kmeans(projected_norm, n_experts, max_iters, seed)
    warm = _recovered_centroids(x_norm, reduced.assignments, n_experts)
    refined = spherical_kmeans(
        x_norm, n_experts, max_iters, seed, init_centroids=warm
    )
    clusters_raw = [x[:, refined.assignments == i] for i in range(n_experts)]

    experts = []
    ranks, losses, jitters = [], [], []
    for i in range(n_experts):
        factor = whitening_matrix(clusters_raw[i], jitter_policy)
        whitened = dense.w1 @ factor.s
        svd = svd_full(whitened)
        profile = effective_rank(svd.sigma, tau, svd.sigma.size)
        r = profile.chosen_rank
        truncated = (svd.u[:, :r] * svd.sigma[:r]) @ svd.v_t[:r, :]
        # w1_i = truncated @ inv(S): solve S.T @ w1_i.T = truncated.T instead
        # of forming the inverse, since the Gram factor may be ill conditioned.
        w1_i = scipy.linalg.solve_triangular(
            factor.s, truncated.T, lower=True, trans="T"
        ).T
        expert = dense.copy()
        expert.w1 = w1_i
        experts.append(expert)
        ranks.append(r)
        losses.append(float(np.sum(svd.sigma[r:] ** 2)))
        jitters.append(factor.jitter_used)

    gamma = 1.0 / (n_experts - 1) if n_experts > 1 else 0.0
    joint = joint_objective_eval(
        [e.w1 for e in experts], dense.w1, clusters_raw, gamma
    )
    layer = MoeLayer(
        experts=experts,
        router=refined.centroids.copy(),
        k=k,
        capacity_factor=capacity_factor,
    )
    model = ClusterModel(
        centroids=refined.centroids,
        assignments=refined.assignments,
        objective_trace=refined.objective_trace,
        pca_projection=projection,
        seed=refined.seed,
    )
    report = InitReport(
        method="cluster_aware",
        per_expert_rank=ranks,
        per_expert_truncation_loss=losses,
        joint_objective=joint,
        gamma=gamma,
        per_expert_jitter=jitters,
    )
    return layer, model, report


# ---------------------------------------------------------------------------
# model-level upcycling
# ---------------------------------------------------------------------------

def upcycle_model(
    dense_model: ToyModel,
    method: str,
    *,
    n_experts: int,
    k: int,
    capacity_factor: float,
    seed: int,
    bank: ActivationBank | None = None,
    ratio: float = 0.5,
    fraction: float = 0.25,
    tau: float = 0.95,
    router_scale: float = 0.02,
) -> tuple[ToyModel, dict[int, InitReport], dict[int, ClusterModel]]:
    """Replace every other FFN block (indices 1, 3, ...) with an MoE layer.

    ``bank`` must cover every upcycled site for the cluster method. Returns
    the new model plus per-site init reports and cluster models (the latter
    only for the cluster method).
    """
    if method not in INIT_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {INIT_METHODS}")
    sites = default_moe_sites(len(dense_model.blocks))
    model = dense_model.copy()
    reports: dict[int, InitReport] = {}
    cluster_models: dict[int, ClusterModel] = {}
    for b in sites:
        dense_ffn = model.blocks[b]
        site_seed = derive_seed(seed, f"site:{b}")
        if method == "sparse":
            layer = sparse_init(
                dense_ffn, n_experts, derive_seed(site_seed, "router"),
                router_scale, k=k, capacity_factor=capacity_factor,
            )
            reports[b] = _copy_report("sparse", dense_ffn, n_experts)
        elif method == "drop":
            layer = drop_init(
                dense_ffn, n_experts, ratio, derive_seed(site_seed, "drop"),
                router_scale, k=k, capacity_factor=capacity_factor,
            )
            reports[b] = _copy_report("drop", dense_ffn, n_experts)
        elif method == "drop_svd":
            layer = drop_svd_init(
                dense_ffn, n_experts, fraction, derive_seed(site_seed, "drop_svd"),
                router_scale, k=k, capacity_factor=capacity_factor,
            )
            full = _full_rank(dense_ffn)
            kept = int(math.ceil((1.0 - fraction) * full))
            sigma = svd_full(dense_ffn.w1).sigma
            reports[b] = InitReport(
                method="drop_svd",
                per_expert_rank=[kept] * n_experts,
                per_expert_truncation_loss=[float(np.sum(sigma[kept:] ** 2))] * n_experts,
                joint_objective=None,
                gamma=0.0,
            )
        else:
            if bank is None or b not in bank.per_site:
                raise ValueError(f"cluster method needs calibration activations for site {b}")
            layer, cluster_model, report = cluster_aware_init(
                dense_ffn, bank.per_site[b], n_experts, tau,
                derive_seed(site_seed, "clustering"),
                k=k, capacity_factor=capacity_factor,
            )
            reports[b] = report
            cluster_models[b] = cluster_model
        model.blocks[b] = layer
    return model, reports, cluster_models


def default_moe_sites(n_blocks: int) -> list[int]:
    """Every other block, starting from the second."""
    return list(range(1, n_blocks, 2))


def _copy_report(method: str, dense: DenseFfn, n_experts: int) -> InitReport:
    full = _full_rank(dense)
    return InitReport(
        method=method,
        per_expert_rank=[full] * n_experts,
        per_expert_truncation_loss=[0.0] * n_experts,
        joint_objective=None,
        gamma=0.0,
    )
