"""Dense-to-MoE initialization strategies and calibration capture.

Four ways to turn one pretrained FFN into an MoE layer:

* ``sparse_init``: every expert is a copy, router is random gaussian
  (sparse upcycling, arXiv:2212.05055).
* ``drop_init``: copies, then a random fraction of intermediate channels per
  expert is resampled from per-tensor gaussian statistics.
* ``drop_svd_init``: copies, then the lowest-energy singular directions of the
  first linear layer are replaced with fresh random orthonormal directions.
* ``cluster_aware_init``: calibration activations are clustered on the sphere,
  each expert's first linear layer is rebuilt from a whitened truncated SVD of
  its cluster, and the router rows are the cluster centroids.

Every initializer has one signature,
``init_fn(dense, n_experts, seed, init, bank_site=None)
-> (experts, router, report, cluster_model | None)``: it reads its knobs from
the ``InitConfig`` ``init``, only the cluster method reads the site's
calibration activations ``bank_site``, and each builds its own ``InitReport``.
``INITIALIZERS`` maps each ``config.INIT_METHODS`` name to
``(init_fn, seed_stream)``. ``upcycle_model(dense, method, *, n_experts, k,
capacity_factor, seed, bank=None, init=InitConfig())`` runs one loop over the
sites: it seeds site ``b`` with
``derive_seed(derive_seed(seed, f"site:{b}"), seed_stream)``, calls the table
entry, and wraps the experts and router in an ``MoeLayer``.

Only the first linear layer is ever reshaped; biases and the second linear
layer are copied verbatim in every strategy.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .clustering import ClusterModel, normalize_rows, spherical_kmeans
from .config import InitConfig
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

# Jitter scales tried after plain factorization, as fractions of trace(G)/d:
# 1e-8 stepping by factors of 10 up to 1e-2. Built by repeated multiplication,
# so each is the float that ``scale *= 10`` from 1e-8 produces.
_JITTER_SCALES = tuple(itertools.accumulate([1e-8] + [10.0] * 6, operator.mul))


@dataclass
class WhiteningFactor:
    """Lower-triangular S with S @ S.T = X @ X.T + jitter_used * I."""

    s: Array
    jitter_used: float


def whitening_matrix(x_cluster) -> WhiteningFactor:
    """Cholesky factor of a cluster's Gram matrix G.

    Tries zero jitter first, then ``scale * trace(G) / d`` for each of
    ``_JITTER_SCALES`` (``trace(G) / d`` taken as 1 if not positive).
    """
    x = as_matrix(x_cluster, "x_cluster")
    if x.shape[1] < 1:
        raise ValueError("cluster must contain at least one token")
    gram = x @ x.T
    gram = 0.5 * (gram + gram.T)
    base = float(np.trace(gram)) / x.shape[0]
    if base <= 0.0:
        base = 1.0
    last_exc = None
    for jitter in [0.0] + [scale * base for scale in _JITTER_SCALES]:
        try:
            return WhiteningFactor(s=cholesky_lower(gram, jitter), jitter_used=jitter)
        except NotPositiveDefinite as exc:
            last_exc = exc
    raise NotPositiveDefinite(
        f"Gram matrix not factorizable up to jitter scale {_JITTER_SCALES[-1]:g}"
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


# What every initializer returns: (experts, router, report, cluster model or None).
InitResult = tuple[list[DenseFfn], Array, InitReport, ClusterModel | None]


def _random_router(n_experts: int, d: int, seed: int, scale: float) -> Array:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n_experts, d))


def _copy_report(method: str, dense: DenseFfn, n_experts: int) -> InitReport:
    """Full rank and no truncation loss: the first layer is not truncated."""
    return InitReport(
        method=method,
        per_expert_rank=[min(dense.h, dense.d)] * n_experts,
        per_expert_truncation_loss=[0.0] * n_experts,
        joint_objective=None,
        gamma=0.0,
    )


# ---------------------------------------------------------------------------
# baseline initializers
# ---------------------------------------------------------------------------

def sparse_init(dense: DenseFfn, n_experts: int, seed: int, init: InitConfig,
                bank_site=None) -> InitResult:
    """All experts are bit-identical copies; the router is random gaussian
    with std ``init.router_scale``, drawn from ``seed`` itself."""
    experts = [dense.copy() for _ in range(n_experts)]
    router = _random_router(n_experts, dense.d, seed, init.router_scale)
    return experts, router, _copy_report("sparse", dense, n_experts), None


def drop_init(dense: DenseFfn, n_experts: int, seed: int, init: InitConfig,
              bank_site=None) -> InitResult:
    """Resample a random fraction ``init.ratio`` of intermediate channels per
    expert.

    Each expert draws its own channel subset of size floor(ratio * h); the
    matching first-layer rows, first biases, and second-layer columns are
    redrawn i.i.d. gaussian with the mean and std of the dense tensor they
    replace. The channel set is shared across the three tensors so the
    perturbation stays channel-coherent.
    """
    ratio = init.ratio
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
    router = _random_router(n_experts, dense.d, derive_seed(seed, "router"), init.router_scale)
    return experts, router, _copy_report("drop", dense, n_experts), None


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


def drop_svd_init(dense: DenseFfn, n_experts: int, seed: int, init: InitConfig,
                  bank_site=None) -> InitResult:
    """Replace the lowest-energy singular directions of w1 per expert.

    The top ceil((1 - init.fraction) * r) singular triplets are kept; the
    remaining directions are redrawn as random orthonormal vectors orthogonal
    to the kept ones (fresh per expert), reusing the discarded singular
    values. The report's truncation loss is the discarded energy
    ``sum(sigma[n_keep:] ** 2)``.
    """
    fraction = init.fraction
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
            expert.w1[...] = kept + fresh
        else:
            expert.w1[...] = (factors.u * factors.sigma) @ factors.v_t
        experts.append(expert)
    router = _random_router(n_experts, dense.d, derive_seed(seed, "router"), init.router_scale)
    report = InitReport(
        method="drop_svd",
        per_expert_rank=[n_keep] * n_experts,
        per_expert_truncation_loss=[float(np.sum(factors.sigma[n_keep:] ** 2))] * n_experts,
        joint_objective=None,
        gamma=0.0,
    )
    return experts, router, report, None


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


def cluster_aware_init(dense: DenseFfn, n_experts: int, seed: int, init: InitConfig,
                       bank_site=None) -> InitResult:
    """Initialize experts from the calibration clusters ``bank_site`` (d x M)
    they will serve.

    Pipeline per site: normalize the calibration columns, reduce to ceil(d/8)
    dimensions with PCA (at least 2), run spherical k-means there, then refine
    assignments in the original space so they are consistent with the
    recovered unit centroids. Per cluster i the first linear layer is rebuilt
    as ``T_r(svd(w1 @ S_i)) @ inv(S_i)`` where S_i is the Cholesky whitening
    factor of the cluster Gram and r keeps an ``init.tau`` fraction of
    spectral energy (with the half-rank floor). The router rows are the
    centroids.
    """
    if bank_site is None:
        raise ValueError("cluster-aware init needs the site's calibration activations")
    tau = init.tau
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
    reduced = spherical_kmeans(projected_norm, n_experts, seed=seed)
    warm = _recovered_centroids(x_norm, reduced.assignments, n_experts)
    refined = spherical_kmeans(x_norm, n_experts, seed=seed, init_centroids=warm)
    clusters_raw = [x[:, refined.assignments == i] for i in range(n_experts)]

    experts = []
    ranks, losses, jitters = [], [], []
    for i in range(n_experts):
        factor = whitening_matrix(clusters_raw[i])
        whitened = dense.w1 @ factor.s
        svd = svd_full(whitened)
        profile = effective_rank(svd.sigma, tau)
        r = profile.chosen_rank
        truncated = (svd.u[:, :r] * svd.sigma[:r]) @ svd.v_t[:r, :]
        # w1_i = truncated @ inv(S): solve S.T @ w1_i.T = truncated.T instead
        # of forming the inverse, since the Gram factor may be ill conditioned.
        w1_i = scipy.linalg.solve_triangular(
            factor.s, truncated.T, lower=True, trans="T"
        ).T
        expert = dense.copy()
        expert.w1[...] = w1_i
        experts.append(expert)
        ranks.append(r)
        losses.append(float(np.sum(svd.sigma[r:] ** 2)))
        jitters.append(factor.jitter_used)

    gamma = 1.0 / (n_experts - 1) if n_experts > 1 else 0.0
    joint = joint_objective_eval(
        [e.w1 for e in experts], dense.w1, clusters_raw, gamma
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
    return experts, refined.centroids.copy(), report, model


# ---------------------------------------------------------------------------
# model-level upcycling
# ---------------------------------------------------------------------------

# method -> (initializer, seed stream under ``site:{b}``), in INIT_METHODS order.
INITIALIZERS = {
    "sparse": (sparse_init, "router"),
    "drop": (drop_init, "drop"),
    "drop_svd": (drop_svd_init, "drop_svd"),
    "cluster": (cluster_aware_init, "clustering"),
}


def upcycle_model(
    dense_model: ToyModel,
    method: str,
    *,
    n_experts: int,
    k: int,
    capacity_factor: float,
    seed: int,
    bank: ActivationBank | None = None,
    init: InitConfig = InitConfig(),
) -> tuple[ToyModel, dict[int, InitReport], dict[int, ClusterModel]]:
    """Replace every other FFN block (indices 1, 3, ...) with an MoE layer.

    ``bank`` must cover every upcycled site for the cluster method. Returns
    the new model plus per-site init reports and cluster models (the latter
    only for the cluster method).
    """
    if method not in INITIALIZERS:
        raise ValueError(f"unknown method {method!r}, expected one of {tuple(INITIALIZERS)}")
    init_fn, stream = INITIALIZERS[method]
    model = dense_model.copy()
    reports: dict[int, InitReport] = {}
    cluster_models: dict[int, ClusterModel] = {}
    for b in default_moe_sites(len(model.blocks)):
        bank_site = bank.per_site.get(b) if bank is not None else None
        experts, router, reports[b], cluster_model = init_fn(
            model.blocks[b], n_experts, derive_seed(derive_seed(seed, f"site:{b}"), stream),
            init, bank_site,
        )
        if cluster_model is not None:
            cluster_models[b] = cluster_model
        model.blocks[b] = MoeLayer(experts, router, k, capacity_factor)
    return model, reports, cluster_models


def default_moe_sites(n_blocks: int) -> list[int]:
    """Every other block, starting from the second."""
    return list(range(1, n_blocks, 2))
