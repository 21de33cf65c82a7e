"""Mixture-of-experts layer: expert FFNs, softmax routing, top-k dispatch.

A layer holds ``n_experts`` two-layer ReLU FFNs and a bias-free linear router.
Tokens are columns of a d x T matrix. ``moe_forward`` applies renormalized
top-k gating under a per-expert capacity budget; ``dense_ensemble_forward``
mixes every expert with the full softmax weights and ignores capacity, which
is the teacher-side computation for self-distillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ShapeMismatch
from .linalg import Array, as_matrix

ACTIVATIONS = ("relu",)
FFN_PARAMS = ("w1", "b1", "w2", "b2")


@dataclass
class DenseFfn:
    """Two-layer feed-forward block ``w2 @ act(w1 @ x + b1) + b2``."""

    w1: Array  # (h, d)
    b1: Array  # (h,)
    w2: Array  # (d, h)
    b2: Array  # (d,)
    activation: str = "relu"

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        h, d = self.w1.shape
        if self.w2.shape != (d, h):
            raise ShapeMismatch(f"w2 shape {self.w2.shape} != ({d}, {h})")
        if self.b1.shape != (h,):
            raise ShapeMismatch(f"b1 shape {self.b1.shape} != ({h},)")
        if self.b2.shape != (d,):
            raise ShapeMismatch(f"b2 shape {self.b2.shape} != ({d},)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def h(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "DenseFfn":
        return DenseFfn(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
            activation=self.activation,
        )


@dataclass
class MoeLayer:
    """``n_experts`` FFNs plus a bias-free router (n_experts x d)."""

    experts: list[DenseFfn]
    router: Array
    k: int
    capacity_factor: float

    def __post_init__(self):
        self.router = np.asarray(self.router, dtype=np.float64)
        if not self.experts:
            raise ValueError("MoeLayer needs at least one expert")
        d, h = self.experts[0].d, self.experts[0].h
        for i, e in enumerate(self.experts):
            if (e.d, e.h) != (d, h):
                raise ShapeMismatch(f"expert {i} has shape ({e.h}, {e.d}), expected ({h}, {d})")
        if self.router.shape != (len(self.experts), d):
            raise ShapeMismatch(
                f"router shape {self.router.shape} != ({len(self.experts)}, {d})"
            )
        if not 1 <= self.k <= len(self.experts):
            raise ValueError(f"k must lie in [1, {len(self.experts)}], got {self.k}")
        if self.capacity_factor <= 0:
            raise ValueError(f"capacity_factor must be > 0, got {self.capacity_factor}")

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    @property
    def d(self) -> int:
        return self.experts[0].d

    @property
    def h(self) -> int:
        return self.experts[0].h

    def copy(self) -> "MoeLayer":
        return MoeLayer(
            [e.copy() for e in self.experts], self.router.copy(),
            self.k, self.capacity_factor,
        )


def block_params(block: DenseFfn | MoeLayer, prefix: str = ""):
    """The (name, array) walk over one block's trainable tensors.

    A ``DenseFfn`` yields ``w1, b1, w2, b2``; a ``MoeLayer`` yields ``router``
    and then each expert's walk under ``expert{i}.``. Every name is prefixed
    with ``prefix``. This order is the one SGD, EMA, checkpoints and the
    gradient check all share.
    """
    if isinstance(block, MoeLayer):
        yield prefix + "router", block.router
        ffns = [(f"{prefix}expert{i}.", e) for i, e in enumerate(block.experts)]
    else:
        ffns = [(prefix, block)]
    for ffn_prefix, ffn in ffns:
        for key in FFN_PARAMS:
            yield ffn_prefix + key, getattr(ffn, key)


def block_structure(block: DenseFfn | MoeLayer) -> dict:
    """The non-tensor description ``block_from_tensors`` needs to rebuild a block."""
    if isinstance(block, MoeLayer):
        return {
            "kind": "moe",
            "n_experts": block.n_experts,
            "k": block.k,
            "capacity_factor": block.capacity_factor,
        }
    return {"kind": "dense"}


def block_from_tensors(entry: dict, tensors: dict, prefix: str = "") -> DenseFfn | MoeLayer:
    """Inverse of ``block_params``: rebuild a block from its structure entry.

    Raises ``CheckpointError`` when the entry is malformed or a tensor it names is missing.
    """
    try:
        if entry["kind"] == "moe":
            experts = [
                block_from_tensors({"kind": "dense"}, tensors, f"{prefix}expert{i}.")
                for i in range(entry["n_experts"])
            ]
            return MoeLayer(
                experts=experts, router=tensors[prefix + "router"],
                k=entry["k"], capacity_factor=entry["capacity_factor"],
            )
        return DenseFfn(*(tensors[prefix + key] for key in FFN_PARAMS))
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing {exc} for block {prefix!r}") from None
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"invalid structure for block {prefix!r}: {exc}") from None


@dataclass
class RoutingRecord:
    """Routing decisions for one forward pass of T tokens.

    ``per_expert_fraction`` counts selected top-k slots per expert, dropped or
    not, as a fraction of all T*k slots. ``per_expert_mean_prob`` is the mean
    full-softmax probability per expert over all tokens.
    """

    probs: Array            # (T, n_experts)
    topk_indices: np.ndarray  # (T, k) int
    gates: Array            # (T, k), renormalized over the selection
    dropped: np.ndarray     # (T, k) bool
    per_expert_fraction: Array
    per_expert_mean_prob: Array


@dataclass
class MoeForwardCache:
    """Intermediates retained for the backward pass."""

    x: Array
    record: RoutingRecord
    denom: Array                 # (T,)
    expert_cols: list[np.ndarray]   # token indices routed to each expert (kept slots)
    expert_slots: list[np.ndarray]  # matching slot position within the top-k row
    expert_caches: list["FfnCache | None"]
    expert_outputs: list[Array | None]
    y: Array


@dataclass
class FfnCache:
    x: Array
    pre: Array   # (h, T) pre-activation
    act: Array   # (h, T)


def relu(z: Array) -> Array:
    return np.maximum(z, 0.0)


def ffn_forward(ffn: DenseFfn, x) -> Array:
    """Apply the FFN columnwise to tokens x (d x T)."""
    y, _ = ffn_forward_cached(ffn, x)
    return y


def ffn_forward_cached(ffn: DenseFfn, x) -> tuple[Array, FfnCache]:
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != ffn.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, FFN expects {ffn.d}")
    pre = ffn.w1 @ xm + ffn.b1[:, None]
    act = relu(pre)
    y = ffn.w2 @ act + ffn.b2[:, None]
    return y, FfnCache(x=xm, pre=pre, act=act)


def ffn_backward(ffn: DenseFfn, cache: FfnCache, dy: Array):
    """Gradients of a cached forward pass.

    Returns (dx, grads) with grads keyed 'w1', 'b1', 'w2', 'b2'.
    """
    d_act = ffn.w2.T @ dy
    d_pre = d_act * (cache.pre > 0.0)
    grads = {
        "w2": dy @ cache.act.T,
        "b2": dy.sum(axis=1),
        "w1": d_pre @ cache.x.T,
        "b1": d_pre.sum(axis=1),
    }
    dx = ffn.w1.T @ d_pre
    return dx, grads


def router_probs(router, x) -> Array:
    """Softmax routing probabilities, one row per token (T x n_experts)."""
    r = as_matrix(router, "router", check_finite=False)
    xm = as_matrix(x, "x", check_finite=False)
    if r.shape[1] != xm.shape[0]:
        raise ShapeMismatch(f"router dim {r.shape[1]} != token dim {xm.shape[0]}")
    logits = (r @ xm).T
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def top_k_gates(probs_row, k: int) -> tuple[np.ndarray, Array]:
    """Top-k indices (ties to the lowest index) and renormalized gates."""
    p = np.asarray(probs_row, dtype=np.float64).reshape(-1)
    if not 1 <= k <= p.size:
        raise ValueError(f"k must lie in [1, {p.size}], got {k}")
    order = np.argsort(-p, kind="stable")[:k]
    sel = p[order]
    total = float(sel.sum())
    gates = sel / total if total > 0 else np.full(k, 1.0 / k)
    return order, gates


def expert_capacity(capacity_factor: float, tokens: int, k: int, n_experts: int) -> int:
    """Slot budget per expert: ceil(capacity_factor * tokens * k / n_experts).

    Quotients within 1e-9 of an integer snap to it first, so exact ratios never
    round up from floating-point noise.
    """
    q = capacity_factor * tokens * k / n_experts
    nearest = round(q)
    if abs(q - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(q))


def _route(layer: MoeLayer, x: Array, capacity_factor: float):
    t_tokens = x.shape[1]
    n_e, k = layer.n_experts, layer.k
    probs = router_probs(layer.router, x)
    topk = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    sel_probs = np.take_along_axis(probs, topk, axis=1)
    denom = sel_probs.sum(axis=1)
    gates = sel_probs / denom[:, None]

    cap = expert_capacity(capacity_factor, t_tokens, k, n_e)
    # Capacity fills in token order, then slot order within a token; raveling
    # the (T, k) index matrix row-major reproduces exactly that order.
    flat = topk.ravel()
    dropped_flat = np.zeros(flat.size, dtype=bool)
    counts = np.zeros(n_e, dtype=np.int64)
    for e in range(n_e):
        slots_for_e = np.nonzero(flat == e)[0]
        counts[e] = slots_for_e.size
        if slots_for_e.size > cap:
            dropped_flat[slots_for_e[cap:]] = True
    dropped = dropped_flat.reshape(t_tokens, k)

    record = RoutingRecord(
        probs=probs,
        topk_indices=topk,
        gates=gates,
        dropped=dropped,
        per_expert_fraction=counts.astype(np.float64) / (t_tokens * k),
        per_expert_mean_prob=probs.mean(axis=0),
    )
    return record, denom


def moe_forward_cached(
    layer: MoeLayer, x, capacity_factor: float | None = None
) -> tuple[Array, RoutingRecord, MoeForwardCache]:
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != layer.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, layer expects {layer.d}")
    cf = layer.capacity_factor if capacity_factor is None else capacity_factor
    record, denom = _route(layer, xm, cf)

    y = np.zeros_like(xm)
    expert_cols: list[np.ndarray] = []
    expert_slots: list[np.ndarray] = []
    expert_caches: list[FfnCache | None] = []
    expert_outputs: list[Array | None] = []
    kept = ~record.dropped
    for i, expert in enumerate(layer.experts):
        rows, slots = np.nonzero((record.topk_indices == i) & kept)
        expert_cols.append(rows)
        expert_slots.append(slots)
        if rows.size == 0:
            expert_caches.append(None)
            expert_outputs.append(None)
            continue
        out, cache = ffn_forward_cached(expert, xm[:, rows])
        y[:, rows] += out * record.gates[rows, slots][None, :]
        expert_caches.append(cache)
        expert_outputs.append(out)

    cache = MoeForwardCache(
        x=xm, record=record, denom=denom,
        expert_cols=expert_cols, expert_slots=expert_slots,
        expert_caches=expert_caches, expert_outputs=expert_outputs, y=y,
    )
    return y, record, cache


def moe_forward(
    layer: MoeLayer, x, capacity_factor: float | None = None
) -> tuple[Array, RoutingRecord]:
    """Top-k mixture output and the routing record.

    Each token's output is the gate-weighted sum of its selected experts.
    Slots beyond an expert's capacity are dropped: they contribute nothing and
    their gate mass is not redistributed.
    """
    y, record, _ = moe_forward_cached(layer, x, capacity_factor)
    return y, record


def moe_backward(
    layer: MoeLayer,
    cache: MoeForwardCache,
    dy: Array,
    dprobs_extra: Array | None = None,
):
    """Backward pass matching ``moe_forward_cached``.

    Treats the top-k selection and the drop pattern as constants; gradients
    flow through the gates via the softmax. ``dprobs_extra`` adds a direct
    gradient on the routing probabilities (the load-balancing term).
    Returns (dx, grads) with grads keyed 'router' and 'expert{i}.w1' etc.
    """
    record = cache.record
    t_tokens, k = record.gates.shape
    grads: dict[str, Array] = {}
    dx = np.zeros_like(cache.x)
    dgates = np.zeros((t_tokens, k))

    for i, expert in enumerate(layer.experts):
        rows = cache.expert_cols[i]
        prefix = f"expert{i}."
        if rows.size == 0:
            for key in FFN_PARAMS:
                grads[prefix + key] = np.zeros_like(getattr(expert, key))
            continue
        slots = cache.expert_slots[i]
        g = record.gates[rows, slots]
        out = cache.expert_outputs[i]
        d_out = dy[:, rows] * g[None, :]
        dgates[rows, slots] = np.einsum("dt,dt->t", dy[:, rows], out)
        dxi, egrads = ffn_backward(expert, cache.expert_caches[i], d_out)
        dx[:, rows] += dxi
        for key, val in egrads.items():
            grads[prefix + key] = val

    # gates = sel_probs / denom; dropped slots received zero gate gradient.
    vdotg = np.einsum("tk,tk->t", dgates, record.gates)
    dsel = (dgates - vdotg[:, None]) / cache.denom[:, None]
    dprobs = np.zeros_like(record.probs)
    np.put_along_axis(dprobs, record.topk_indices, dsel, axis=1)
    if dprobs_extra is not None:
        dprobs = dprobs + dprobs_extra

    # softmax backward, rowwise
    dot = np.einsum("te,te->t", dprobs, record.probs)
    dlogits = record.probs * (dprobs - dot[:, None])  # (T, n_experts)
    grads["router"] = dlogits.T @ cache.x.T
    dx += layer.router.T @ dlogits.T
    return dx, grads


def dense_ensemble_forward(layer: MoeLayer, x) -> Array:
    """Full soft mixture: every expert weighted by its softmax probability."""
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != layer.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, layer expects {layer.d}")
    probs = router_probs(layer.router, xm)
    y = np.zeros_like(xm)
    for i, expert in enumerate(layer.experts):
        y += ffn_forward(expert, xm) * probs[:, i][None, :]
    return y


def load_balance_loss(routing: RoutingRecord) -> float:
    """Sum over experts of routed-slot fraction times mean routing probability."""
    return float(np.dot(routing.per_expert_fraction, routing.per_expert_mean_prob))


def routing_summary(routing: RoutingRecord) -> list[dict]:
    """Per-expert routing statistics: slot fraction, mean probability, drop rate."""
    n_e = routing.probs.shape[1]
    selected = np.bincount(routing.topk_indices.ravel(), minlength=n_e)
    dropped = np.bincount(
        routing.topk_indices[routing.dropped].ravel(), minlength=n_e
    )
    rows = []
    for i in range(n_e):
        rows.append({
            "expert": i,
            "fraction": float(routing.per_expert_fraction[i]),
            "mean_prob": float(routing.per_expert_mean_prob[i]),
            "drop_rate": float(dropped[i] / selected[i]) if selected[i] else 0.0,
        })
    return rows
