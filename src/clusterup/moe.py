"""Mixture-of-experts layer: expert FFNs, softmax routing, top-k dispatch.

A layer holds ``n_experts`` two-layer ReLU FFNs and a bias-free linear router.
Tokens are columns of a d x T matrix. ``moe_forward`` applies renormalized
top-k gating under a per-expert capacity budget; ``dense_ensemble_forward``
mixes every expert with the full softmax weights and ignores capacity, which
is the teacher-side computation for self-distillation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ShapeMismatch
from .linalg import Array, as_matrix

FFN_PARAMS = ("w1", "b1", "w2", "b2")


@functools.cache
def _layout(n_experts: int, h: int, d: int) -> tuple:
    """(name, slice of ``params``, shape) of each tensor of a block, in walk
    order: a ``DenseFfn``'s (``n_experts == 0``) ``FFN_PARAMS``, or an
    ``MoeLayer``'s ``router`` and then each expert's under ``expert{i}.``."""
    ffn = [("w1", (h, d)), ("b1", (h,)), ("w2", (d, h)), ("b2", (d,))]
    named = ffn if n_experts == 0 else [("router", (n_experts, d))] + [
        (f"expert{i}.{key}", shape) for i in range(n_experts) for key, shape in ffn
    ]
    stops = itertools.accumulate(math.prod(shape) for _, shape in named)
    return tuple(
        (name, slice(stop - math.prod(shape), stop), shape)
        for (name, shape), stop in zip(named, stops)
    )


class _Tensor:
    """A block attribute that is a view of the block's buffer, kept in the
    instance ``__dict__``. Only ``__set__`` is defined, so reading is a plain
    attribute lookup, while assignment copies into the view after a shape
    check: the attribute never leaves the buffer."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __set__(self, block, value):
        view = block.__dict__[self.name]
        if np.shape(value) != view.shape:
            raise ShapeMismatch(f"{self.name} shape {np.shape(value)} != {view.shape}")
        view[...] = value


class DenseFfn:
    """Two-layer feed-forward block ``w2 @ relu(w1 @ x + b1) + b2``.

    ``w1`` (h, d), ``b1`` (h,), ``w2`` (d, h) and ``b2`` (d,) are views of
    one float64 buffer ``params``, in ``block_params`` order. Construction
    copies the tensors into a new buffer.
    """

    w1 = _Tensor()
    b1 = _Tensor()
    w2 = _Tensor()
    b2 = _Tensor()
    params = _Tensor()

    def __init__(self, w1, b1, w2, b2):
        h, d = np.shape(w1)
        self._view(np.empty(_layout(0, h, d)[-1][1].stop), h, d)
        for key, value in zip(FFN_PARAMS, (w1, b1, w2, b2)):
            setattr(self, key, value)

    def _view(self, buf: Array, h: int, d: int) -> "DenseFfn":
        """Make ``buf`` this block's buffer, without copying."""
        self.h, self.d = h, d
        self.__dict__.update(block_params(self, buf=buf), params=buf)
        return self

    def copy(self) -> "DenseFfn":
        return DenseFfn(self.w1, self.b1, self.w2, self.b2)

    def __reduce__(self):
        # Pickle rebuilds the block, so its tensors are views of one buffer
        # again rather than separate copies of each view.
        return DenseFfn, (self.w1, self.b1, self.w2, self.b2)


class MoeLayer:
    """``n_experts`` FFNs plus a bias-free router (n_experts x d).

    Construction copies the router and the experts' tensors into one float64
    buffer ``params``, in ``block_params`` order. ``experts`` is a tuple of
    new ``DenseFfn`` objects whose buffers are contiguous slices of it.
    """

    router = _Tensor()
    params = _Tensor()

    def __init__(self, experts, router, k: int, capacity_factor: float):
        if not experts:
            raise ValueError("MoeLayer needs at least one expert")
        n_e, d, h = len(experts), experts[0].d, experts[0].h
        for i, e in enumerate(experts):
            if (e.d, e.h) != (d, h):
                raise ShapeMismatch(f"expert {i} has shape ({e.h}, {e.d}), expected ({h}, {d})")
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"k must be an integer, got {k!r}")
        if not 1 <= k <= n_e:
            raise ValueError(f"k must lie in [1, {n_e}], got {k}")
        if not 0 < capacity_factor < math.inf:
            raise ValueError(f"capacity_factor must be finite and > 0, got {capacity_factor}")
        self.k, self.capacity_factor = k, capacity_factor
        self.n_experts, self.d, self.h = n_e, d, h
        size = experts[0].params.size
        buf = np.empty(n_e * (d + size))
        self.__dict__.update(router=buf[:n_e * d].reshape(n_e, d), params=buf)
        self.router = router
        self.experts = tuple(
            DenseFfn.__new__(DenseFfn)._view(buf[start:start + size], h, d)
            for start in range(n_e * d, buf.size, size)
        )
        for mine, given in zip(self.experts, experts):
            mine.params = given.params

    def copy(self) -> "MoeLayer":
        return MoeLayer(self.experts, self.router, self.k, self.capacity_factor)

    def __reduce__(self):
        return MoeLayer, (self.experts, self.router, self.k, self.capacity_factor)


def block_params(block: DenseFfn | MoeLayer, prefix: str = "", buf: Array | None = None):
    """The (name, array) walk over one block's trainable tensors, each a view
    of ``buf``, a 1-D buffer laid out like ``block.params`` (by default
    ``block.params`` itself; a gradient buffer, say).

    A ``DenseFfn`` yields ``w1, b1, w2, b2``; a ``MoeLayer`` yields ``router``
    and then each expert's walk under ``expert{i}.``. Every name is prefixed
    with ``prefix``. This order is the one SGD, EMA, checkpoints and the
    gradient check all share, and the layout of the block's ``params``.
    """
    buf = block.params if buf is None else buf
    n_e = block.n_experts if isinstance(block, MoeLayer) else 0
    for name, part, shape in _layout(n_e, block.h, block.d):
        yield prefix + name, buf[part].reshape(shape)


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
    except (ValueError, TypeError, ShapeMismatch) as exc:
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

    @functools.cached_property
    def _resum_plans(self) -> dict[int, tuple]:
        """``resummed``'s plan per expert, each built on its first use, so a
        routed pass never builds one."""
        return {}

    def _resum_plan(self, expert: int) -> tuple[Array, list[tuple[np.ndarray, Array]]]:
        """For expert ``expert``'s tokens, the sum of the gated outputs of
        their kept slots that precede its slot in expert order, added from
        +0.0 (d x tokens), and per later rank the tokens with a kept slot
        there and its gated output."""
        gated = np.concatenate([out * g[None, :] for out, g in
                                zip(self.expert_outputs, self.expert_gates) if out is not None],
                               axis=1)
        starts = [0, *itertools.accumulate(rows.size for rows in self.expert_cols)]
        columns = np.full(self.record.topk_indices.shape, starts[-1])
        for start, rows, slots in zip(starts, self.expert_cols, self.expert_slots):
            columns[rows, slots] = np.arange(start, start + rows.size)
        # An expert's columns all precede the next expert's, so sorting a
        # token's columns puts its kept slots in expert order, padding last.
        columns = np.sort(columns[self.expert_cols[expert]], axis=1)
        rank = np.argmax(columns >= starts[expert], axis=1)  # the slot of ``expert``
        before = np.zeros((gated.shape[0], columns.shape[0]))
        after = []
        for r, col in enumerate(columns.T):
            kept = col < starts[-1]
            tokens = kept & (r < rank)
            before[:, tokens] += gated[:, col[tokens]]
            tokens = kept & (r > rank)
            if tokens.any():
                after.append((tokens, gated[:, col[tokens]]))
        return before, after

    def resummed(self, expert: int, out: Array) -> Array:
        """The output columns of expert ``expert``'s tokens with its output
        replaced by ``out``: each token's kept slots' gated outputs added in
        expert order from +0.0, as ``moe_forward_cached`` sums them, so the
        columns equal a full pass's bit for bit for any ``k`` and drops."""
        if expert not in self._resum_plans:
            self._resum_plans[expert] = self._resum_plan(expert)
        before, after = self._resum_plans[expert]
        acc = before + out * self.expert_gates[expert][None, :]
        for tokens, gated in after:
            acc[:, tokens] += gated
        return acc


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
    g_w1, g_b1, g_w2, g_b2 = [g for _, g in block_params(ffn, buf=grads)]
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


def expert_capacity(capacity_factor: float, tokens: int, k: int, n_experts: int) -> int:
    """Slot budget per expert: ceil(capacity_factor * tokens * k / n_experts),
    at most ``tokens``, since a token selects an expert at most once.

    Quotients within 1e-9 of an integer snap to it first, so exact ratios never
    round up from floating-point noise.
    """
    q = min(capacity_factor * tokens * k / n_experts, tokens)
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
    layer: MoeLayer,
    x,
    capacity_factor: float | None = None,
    *,
    base: MoeForwardCache | None = None,
    expert: int | None = None,
) -> tuple[Array, RoutingRecord, MoeForwardCache]:
    """``moe_forward`` keeping the intermediates ``moe_backward`` needs.

    With ``base``, a cache of this layer on the same ``x`` from before only
    expert ``expert``'s tensors changed, the routing record, the gate
    denominators, the dispatch plan and the other experts' caches and outputs
    are ``base``'s, and only expert ``expert`` runs. ``y`` is a copy of
    ``base.y`` whose columns of that expert's tokens are summed again
    (``MoeForwardCache.resummed``), in the same order as a full pass, so it
    equals a full pass bit for bit.
    """
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != layer.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, layer expects {layer.d}")
    if base is not None:
        expert_caches, expert_outputs = list(base.expert_caches), list(base.expert_outputs)
        y = base.y.copy()
        rows = base.expert_cols[expert]
        if rows.size:
            out, expert_caches[expert] = ffn_forward_cached(layer.experts[expert], xm[:, rows])
            expert_outputs[expert] = out
            y[:, rows] = base.resummed(expert, out)
        cache = MoeForwardCache(
            x=xm, record=base.record, denom=base.denom, expert_cols=base.expert_cols,
            expert_slots=base.expert_slots, expert_gates=base.expert_gates,
            expert_caches=expert_caches, expert_outputs=expert_outputs, y=y,
        )
        return y, base.record, cache

    cf = layer.capacity_factor if capacity_factor is None else capacity_factor
    record, denom, (expert_cols, expert_slots, expert_gates) = _route(layer, xm, cf)
    y = np.zeros_like(xm)
    expert_caches: list[FfnCache | None] = []
    expert_outputs: list[Array | None] = []
    for ffn, rows, g in zip(layer.experts, expert_cols, expert_gates):
        out = cache = None
        if rows.size:
            out, cache = ffn_forward_cached(ffn, xm[:, rows])
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
