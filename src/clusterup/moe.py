"""Mixture-of-experts layer: expert FFNs, softmax routing, top-k dispatch.

A layer holds ``n_experts`` two-layer ReLU FFNs and a bias-free linear router.
Tokens are columns of a d x T matrix. ``moe_forward`` applies renormalized
top-k gating under a per-expert capacity budget; ``dense_ensemble_forward``
mixes every expert with the full softmax weights and ignores capacity, which
is the teacher-side computation for self-distillation.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ShapeMismatch
from .linalg import Array, as_matrix

ACTIVATIONS = ("relu",)
FFN_PARAMS = ("w1", "b1", "w2", "b2")


@functools.cache
def _ffn_layout(h: int, d: int) -> tuple:
    """(attribute, slice of ``params``, shape) of each FFN tensor, in
    ``FFN_PARAMS`` order."""
    shapes = [(h, d), (h,), (d, h), (d,)]
    stops = itertools.accumulate(math.prod(shape) for shape in shapes)
    return tuple(
        (key, slice(stop - math.prod(shape), stop), shape)
        for key, shape, stop in zip(FFN_PARAMS, shapes, stops)
    )


@dataclass
class DenseFfn:
    """Two-layer feed-forward block ``w2 @ act(w1 @ x + b1) + b2``.

    Construction copies the four tensors into one float64 buffer ``params``,
    in ``FFN_PARAMS`` order, and makes each attribute a view of it.
    """

    w1: Array  # (h, d)
    b1: Array  # (h,)
    w2: Array  # (d, h)
    b2: Array  # (d,)
    activation: str = "relu"

    def __post_init__(self):
        h, d = np.shape(self.w1)
        layout = _ffn_layout(h, d)
        for key, _, shape in layout:
            actual = np.shape(getattr(self, key))
            if actual != shape:
                raise ShapeMismatch(f"{key} shape {actual} != {shape}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        self._bind(np.empty(layout[-1][1].stop))

    def _bind(self, buf: Array) -> None:
        """Copy the four tensors into ``buf`` and rebind each to its view there."""
        for key, part, shape in _ffn_layout(self.h, self.d):
            view = buf[part].reshape(shape)
            view[...] = getattr(self, key)
            setattr(self, key, view)
        self.params = buf

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def h(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "DenseFfn":
        return DenseFfn(self.w1, self.b1, self.w2, self.b2, activation=self.activation)


@dataclass
class MoeLayer:
    """``n_experts`` FFNs plus a bias-free router (n_experts x d).

    Construction copies the router and the experts into one float64 buffer
    ``params``, in ``block_params`` order, binding copies of the expert
    objects: each one's ``params`` is its contiguous slice of the buffer.
    """

    experts: list[DenseFfn]
    router: Array
    k: int
    capacity_factor: float

    def __post_init__(self):
        router = np.asarray(self.router, dtype=np.float64)
        if not self.experts:
            raise ValueError("MoeLayer needs at least one expert")
        d, h = self.experts[0].d, self.experts[0].h
        for i, e in enumerate(self.experts):
            if (e.d, e.h) != (d, h):
                raise ShapeMismatch(f"expert {i} has shape ({e.h}, {e.d}), expected ({h}, {d})")
        n_e = len(self.experts)
        if router.shape != (n_e, d):
            raise ShapeMismatch(f"router shape {router.shape} != ({n_e}, {d})")
        if not 1 <= self.k <= n_e:
            raise ValueError(f"k must lie in [1, {n_e}], got {self.k}")
        if self.capacity_factor <= 0:
            raise ValueError(f"capacity_factor must be > 0, got {self.capacity_factor}")
        size = self.experts[0].params.size
        self.params = np.empty(n_e * (d + size))
        self.router = self.params[:n_e * d].reshape(n_e, d)
        self.router[...] = router
        self.experts = [copy.copy(e) for e in self.experts]
        for i, e in enumerate(self.experts):
            start = n_e * d + i * size
            e._bind(self.params[start:start + size])

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
        return MoeLayer(self.experts, self.router, self.k, self.capacity_factor)


def block_params(block: DenseFfn | MoeLayer, prefix: str = ""):
    """The (name, array) walk over one block's trainable tensors.

    A ``DenseFfn`` yields ``w1, b1, w2, b2``; a ``MoeLayer`` yields ``router``
    and then each expert's walk under ``expert{i}.``. Every name is prefixed
    with ``prefix``. This order is the one SGD, EMA, checkpoints and the
    gradient check all share, and the layout of the block's ``params``.
    """
    if isinstance(block, MoeLayer):
        yield prefix + "router", block.router
        ffns = [(f"{prefix}expert{i}.", e) for i, e in enumerate(block.experts)]
    else:
        ffns = [(prefix, block)]
    for ffn_prefix, ffn in ffns:
        for key in FFN_PARAMS:
            yield ffn_prefix + key, getattr(ffn, key)


def buffer_views(block: DenseFfn | MoeLayer, buf: Array, prefix: str = ""):
    """``block_params``'s walk with each array replaced by its view of ``buf``,
    a 1-D buffer laid out like ``block.params`` (a gradient buffer, say)."""
    offset = 0
    for name, arr in block_params(block, prefix):
        yield name, buf[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size


def check_views(block: DenseFfn | MoeLayer, prefix: str = "") -> None:
    """Raise ``ValueError`` unless every ``block_params`` tensor is still the
    view of ``block.params`` at its walk offset. A tensor rebound since
    construction would be missed by whole-buffer SGD and EMA updates."""
    walk = zip(block_params(block, prefix), buffer_views(block, block.params, prefix))
    for (name, arr), (_, view) in walk:
        if arr.__array_interface__ != view.__array_interface__:
            raise ValueError(f"{name} is not a view of its block's parameter buffer")


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
    """Intermediates retained for the backward pass; ``expert_cols``,
    ``expert_slots`` and ``expert_gates`` are ``_route``'s dispatch plan."""

    x: Array
    record: RoutingRecord
    denom: Array                    # (T,)
    expert_cols: list[np.ndarray]   # token indices routed to each expert (kept slots)
    expert_slots: list[np.ndarray]  # matching slot position within the top-k row
    expert_gates: list[Array]       # matching gates
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
    pre = ffn.w1 @ xm
    pre += ffn.b1[:, None]
    act = relu(pre)
    y = ffn.w2 @ act
    y += ffn.b2[:, None]
    return y, FfnCache(x=xm, pre=pre, act=act)


def ffn_backward(ffn: DenseFfn, cache: FfnCache, dy: Array, out: Array | None = None):
    """Gradients of a cached forward pass.

    Returns (dx, grads): ``grads`` is ``out``, or a new buffer when it is
    None, laid out like ``ffn.params`` and filled with the gradients.
    """
    grads = np.empty_like(ffn.params) if out is None else out
    g_w1, g_b1, g_w2, g_b2 = [
        grads[part].reshape(shape) for _, part, shape in _ffn_layout(ffn.h, ffn.d)
    ]
    d_pre = ffn.w2.T @ dy
    d_pre *= cache.pre > 0.0
    np.matmul(dy, cache.act.T, out=g_w2)
    np.add.reduce(dy, axis=1, out=g_b2)
    np.matmul(d_pre, cache.x.T, out=g_w1)
    np.add.reduce(d_pre, axis=1, out=g_b1)
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
    """The routing record, the gate denominators and the dispatch plan: per
    expert, its kept slots' tokens, top-k positions and gates, in token order."""
    t_tokens = x.shape[1]
    n_e, k = layer.n_experts, layer.k
    probs = router_probs(layer.router, x)
    topk = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    sel_probs = probs[np.arange(t_tokens)[:, None], topk]
    denom = sel_probs.sum(axis=1)
    gates = sel_probs / denom[:, None]

    cap = expert_capacity(capacity_factor, t_tokens, k, n_e)
    # Capacity fills in token order, then slot order within a token: the
    # row-major ravel of the (T, k) index matrix. A stable sort groups the
    # slots by expert and keeps that order within each group, so each
    # expert's first ``cap`` slots are kept and the rest dropped. The ids are
    # sorted in the smallest integer type that holds them, which numpy sorts
    # by radix.
    flat = topk.ravel()
    order = np.argsort(flat.astype(np.min_scalar_type(n_e)), kind="stable")
    counts = np.bincount(flat, minlength=n_e)
    rows, slots = np.divmod(order, k)
    sorted_gates = gates.ravel()[order]
    dropped_flat = np.zeros(flat.size, dtype=bool)
    expert_rows, expert_slots, expert_gates = [], [], []
    start = 0
    for stop in itertools.accumulate(counts.tolist()):
        kept_stop = min(stop, start + cap)
        if kept_stop < stop:
            dropped_flat[order[kept_stop:stop]] = True
        expert_rows.append(rows[start:kept_stop])
        expert_slots.append(slots[start:kept_stop])
        expert_gates.append(sorted_gates[start:kept_stop])
        start = stop

    record = RoutingRecord(
        probs=probs,
        topk_indices=topk,
        gates=gates,
        dropped=dropped_flat.reshape(t_tokens, k),
        per_expert_fraction=counts.astype(np.float64) / (t_tokens * k),
        per_expert_mean_prob=probs.mean(axis=0),
    )
    return record, denom, (expert_rows, expert_slots, expert_gates)


def moe_forward_cached(
    layer: MoeLayer, x, capacity_factor: float | None = None
) -> tuple[Array, RoutingRecord, MoeForwardCache]:
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != layer.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, layer expects {layer.d}")
    cf = layer.capacity_factor if capacity_factor is None else capacity_factor
    record, denom, (expert_cols, expert_slots, expert_gates) = _route(layer, xm, cf)

    y = np.zeros_like(xm)
    expert_caches: list[FfnCache | None] = []
    expert_outputs: list[Array | None] = []
    for expert, rows, g in zip(layer.experts, expert_cols, expert_gates):
        if rows.size == 0:
            expert_caches.append(None)
            expert_outputs.append(None)
            continue
        out, cache = ffn_forward_cached(expert, xm[:, rows])
        y[:, rows] += out * g[None, :]
        expert_caches.append(cache)
        expert_outputs.append(out)

    cache = MoeForwardCache(
        x=xm, record=record, denom=denom,
        expert_cols=expert_cols, expert_slots=expert_slots, expert_gates=expert_gates,
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
    Returns (dx, grads) with ``grads`` a new buffer laid out like
    ``layer.params``.
    """
    record = cache.record
    t_tokens, k = record.gates.shape
    grads = np.empty_like(layer.params)
    dx = np.zeros_like(cache.x)
    dgates = np.zeros((t_tokens, k))

    n_router, size = layer.router.size, layer.experts[0].params.size
    for i, expert in enumerate(layer.experts):
        rows = cache.expert_cols[i]
        expert_grads = grads[n_router + i * size:n_router + (i + 1) * size]
        if rows.size == 0:
            expert_grads[...] = 0.0
            continue
        dy_rows = dy[:, rows]
        d_out = dy_rows * cache.expert_gates[i][None, :]
        dgates[rows, cache.expert_slots[i]] = np.einsum(
            "dt,dt->t", dy_rows, cache.expert_outputs[i]
        )
        dxi, _ = ffn_backward(expert, cache.expert_caches[i], d_out, expert_grads)
        dx[:, rows] += dxi

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
    np.matmul(dlogits.T, cache.x.T, out=grads[:n_router].reshape(layer.router.shape))
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
        out = ffn_forward(expert, xm)
        out *= probs[:, i]
        y += out
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
