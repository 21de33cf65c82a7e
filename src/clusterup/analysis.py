"""Specialization diagnostics: compactness, similarity, entropy, utilization.

These are the quantities that distinguish a symmetric upcycled layer from a
specialized one. Relative compactness measures how much within-expert output
variance leaks into the directions separating expert means; expert similarity
is pairwise cosine over flattened parameters; routing entropy tracks how
confident the router is; utilization counts top-k slots per expert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTokens, ZeroWeights
from .linalg import Array, as_matrix, pseudoinverse
from .moe import MoeLayer, RoutingRecord


def relative_compactness(expert_outputs) -> float | None:
    """Trace of (within-expert covariance x pseudoinverse of between-expert covariance).

    ``expert_outputs`` is a sequence of (d, T_i) matrices, one per expert.
    The within covariance pools token deviations around their own expert mean
    (token-weighted, population normalization); the between covariance is the
    population covariance of the expert means, equally weighted. Returns None
    when the between covariance is numerically zero.
    """
    mats = [as_matrix(m, f"expert_outputs[{i}]") for i, m in enumerate(expert_outputs)]
    if len(mats) < 2 or any(m.shape[1] < 2 for m in mats):
        raise InsufficientTokens("need >= 2 experts with >= 2 tokens each")
    d = mats[0].shape[0]
    means = np.stack([m.mean(axis=1) for m in mats], axis=1)  # (d, n_experts)
    n_total = sum(m.shape[1] for m in mats)
    within = np.zeros((d, d))
    for m, mu in zip(mats, means.T):
        centered = m - mu[:, None]
        within += centered @ centered.T
    within /= n_total
    mean_centered = means - means.mean(axis=1, keepdims=True)
    between = mean_centered @ mean_centered.T / means.shape[1]

    scale = max(1.0, float(np.abs(means).max()) ** 2)
    if float(np.abs(between).max()) <= 1e-12 * scale:
        return None
    return float(np.trace(within @ pseudoinverse(between)))


def expert_weight_similarity(layer: MoeLayer, w1_only: bool = False) -> Array:
    """Pairwise cosine similarity between flattened expert parameters.

    Bit-identical experts score exactly 1.0 (short-circuited before any
    floating-point dot product), so freshly copied experts report a similarity
    of 1 with no rounding.
    """
    if layer.n_experts < 2:
        raise ValueError("need at least two experts")
    vectors = [
        e.w1.ravel() if w1_only else e.params
        for e in layer.experts
    ]
    norms = [float(np.linalg.norm(v)) for v in vectors]
    for i, n in enumerate(norms):
        if n == 0.0:
            raise ZeroWeights(f"expert {i} has zero parameter norm")
    n_e = layer.n_experts
    sim = np.eye(n_e)
    for i in range(n_e):
        for j in range(i + 1, n_e):
            if np.array_equal(vectors[i], vectors[j]):
                value = 1.0
            else:
                value = float(vectors[i] @ vectors[j] / (norms[i] * norms[j]))
            sim[i, j] = sim[j, i] = value
    return sim


def mean_offdiagonal(sim: Array) -> float:
    n = sim.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(sim[mask].mean())


def routing_entropy(probs) -> float:
    """Mean Shannon entropy (nats) of the per-token routing distributions."""
    p = as_matrix(probs, "probs")
    sums = p.sum(axis=1)
    if float(np.abs(sums - 1.0).max()) > 1e-6:
        raise ValueError("probability rows must sum to 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return float(-terms.sum(axis=1).mean())


@dataclass
class SiteAnalysis:
    rc: float | None
    mean_pairwise_similarity: float
    mean_pairwise_similarity_w1: float
    similarity_matrix: Array
    mean_routing_entropy: float
    utilization: Array

    def to_dict(self) -> dict:
        return {
            "rc": self.rc,
            "mean_pairwise_similarity": self.mean_pairwise_similarity,
            "mean_pairwise_similarity_w1": self.mean_pairwise_similarity_w1,
            "similarity_matrix": self.similarity_matrix.tolist(),
            "mean_routing_entropy": self.mean_routing_entropy,
            "utilization": self.utilization.tolist(),
        }


@dataclass
class AnalysisReport:
    per_site: dict[int, SiteAnalysis]

    def to_dict(self) -> dict:
        return {"per_site": {str(b): s.to_dict() for b, s in self.per_site.items()}}


def analyze_model(model, state) -> AnalysisReport:
    """Every MoE site's diagnostics from one forward pass of ``model``.

    ``state`` is the ``ForwardState`` that ``train.model_forward`` returned
    for ``model``. Each site's cache gives its routing record and each
    expert's outputs on the tokens routed to it (kept slots only); experts
    with fewer than two routed tokens make the compactness statistic
    undefined for that site.
    """
    per_site = {}
    for b in model.moe_sites:
        layer, cache = model.blocks[b], state.caches[b]
        off = cache.plan.offsets
        populated = [cache.outputs[:, lo:hi] for lo, hi in zip(off, off[1:]) if hi - lo >= 2]
        try:
            rc = relative_compactness(populated)
        except InsufficientTokens:
            rc = None
        sim = expert_weight_similarity(layer)
        sim_w1 = expert_weight_similarity(layer, w1_only=True)
        per_site[b] = SiteAnalysis(
            rc=rc,
            mean_pairwise_similarity=mean_offdiagonal(sim),
            mean_pairwise_similarity_w1=mean_offdiagonal(sim_w1),
            similarity_matrix=sim,
            mean_routing_entropy=routing_entropy(cache.record.probs),
            utilization=cache.record.per_expert_fraction,
        )
    return AnalysisReport(per_site=per_site)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

ANALYSIS_CSV_COLUMNS = ("site", "metric", "index", "value")
ROUTING_CSV_COLUMNS = ("site", "expert", "fraction", "mean_prob", "drop_rate")


def analysis_csv_rows(report: AnalysisReport) -> list[tuple]:
    """Flatten a report to (site, metric, index, value) rows.

    Scalar metrics leave ``index`` empty; per-expert metrics emit one row per
    expert index. An undefined compactness leaves ``value`` empty.
    """
    rows = []
    for b in sorted(report.per_site):
        site = report.per_site[b]
        rows.append((b, "rc", "", "" if site.rc is None else site.rc))
        rows.append((b, "mean_pairwise_similarity", "", site.mean_pairwise_similarity))
        rows.append((b, "mean_pairwise_similarity_w1", "", site.mean_pairwise_similarity_w1))
        rows.append((b, "mean_routing_entropy", "", site.mean_routing_entropy))
        for i, u in enumerate(site.utilization):
            rows.append((b, "utilization", i, float(u)))
    return rows


def routing_csv_rows(records: dict[int, RoutingRecord]) -> list[tuple]:
    """Per-expert (site, expert, fraction, mean_prob, drop_rate) rows.

    ``fraction`` is the expert's share of top-k slots, ``mean_prob`` its mean
    routing probability, and ``drop_rate`` the share of its selected slots
    that capacity dropped (0.0 for an expert no token selects).
    """
    rows = []
    for b in sorted(records):
        record = records[b]
        n_e = record.probs.shape[1]
        selected = np.bincount(record.topk_indices.ravel(), minlength=n_e)
        dropped = np.bincount(record.topk_indices[record.dropped].ravel(), minlength=n_e)
        for i in range(n_e):
            rows.append((
                b, i, float(record.per_expert_fraction[i]),
                float(record.per_expert_mean_prob[i]),
                float(dropped[i] / selected[i]) if selected[i] else 0.0,
            ))
    return rows
