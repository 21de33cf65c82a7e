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
        self.experts = tuple(DenseFfn.__new__(DenseFfn) for _ in experts)
        self._view(np.empty(n_e * (d + experts[0].params.size)))
        self.router = router
        for mine, given in zip(self.experts, experts):
            mine.params = given.params

    def _view(self, buf: Array) -> "MoeLayer":
        """Make ``buf`` this layer's buffer, without copying: the router and
        each expert (the same objects) become views of it."""
        n_e, d = self.n_experts, self.d
        size = buf.size // n_e - d
        self.__dict__.update(router=buf[:n_e * d].reshape(n_e, d), params=buf)
        for start, expert in zip(range(n_e * d, buf.size, size), self.experts):
            expert._view(buf[start:start + size], self.h, d)
        return self

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


def param_views(block: DenseFfn | MoeLayer, buf: Array) -> list[Array]:
    """``block_params``' views of ``buf`` without the names, from one
    ``_layout`` lookup: what a backward pass fills."""
    n_e = block.n_experts if isinstance(block, MoeLayer) else 0
    return [buf[part].reshape(shape) for _, part, shape in _layout(n_e, block.h, block.d)]


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
class DispatchPlan:
    """One call's dispatch: a permutation of the kept slots into expert order.

    Column ``c`` of a plan-ordered matrix (the gathered tokens, the expert
    outputs) is kept slot ``c``: token ``rows[c]``'s top-k slot ``slots[c]``
    with gate ``gates[c]``. Expert ``i`` owns columns
    ``offsets[i]:offsets[i + 1]``, its kept slots in token order. Row ``t``
    of ``columns`` is token ``t``'s kept columns in expert order, padded with
    ``n_kept`` per dropped slot: column ``r`` is scatter pass ``r``.
    """

    rows: np.ndarray     # (n_kept,) int
    slots: np.ndarray    # (n_kept,) int
    gates: Array         # (n_kept,)
    offsets: list[int]   # n_experts + 1 column offsets
    columns: np.ndarray  # (T, k) int

    def gated(self, outputs: Array, columns: np.ndarray | None = None) -> Array:
        """``outputs`` (d x n_kept) times their gates, gathered at
        ``columns`` (m x k; by default ``self.columns``) into k ranks of
        d x m, rank r from column r of ``columns``. Padding gives +0.0 (it
        is clipped to a kept column, then masked)."""
        columns = self.columns if columns is None else columns
        block = np.zeros((outputs.shape[0], *columns.shape))
        if self.offsets[-1]:
            np.multiply(outputs.take(columns, axis=1, mode="clip"),
                        self.gates.take(columns, mode="clip"),
                        out=block, where=columns < self.offsets[-1])
        return block.transpose(2, 0, 1)


def _add_ranks(acc: Array, ranks) -> Array:
    """Add to ``acc`` (d x m), in place and in order, each d x m array of
    ``ranks``, so each column sums its terms in rank order. Padding is
    +0.0: a sum begun at +0.0 is never -0.0, so adding +0.0 keeps its
    bits."""
    for rank in ranks:
        acc += rank
    return acc


@dataclass
class MoeForwardCache:
    """Intermediates retained for the backward pass, each stored once.

    ``plan`` is ``_route``'s dispatch plan. A routed pass gathers ``x`` once
    in plan order and runs each expert on its column slice:
    ``expert_caches[i]`` is expert ``i``'s ``FfnCache`` (None when it kept no
    slot), whose ``x`` is a view of the gather, and ``outputs`` (d x n_kept,
    C order) holds every expert's outputs in plan order. ``moe_backward``
    gathers ``dy`` the same way, takes the gate gradients with one einsum,
    and recomputes those of an expert that kept one slot on contiguous
    (d, 1) operands, which einsum reduces in another order.
    """

    x: Array
    record: RoutingRecord
    denom: Array                    # (T,)
    plan: DispatchPlan
    expert_caches: list["FfnCache | None"]
    outputs: Array
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


def ffn_backward(ffn: DenseFfn, cache: FfnCache, dy: Array, grads: list[Array]) -> Array:
    """Gradients of a cached forward pass: fills ``grads``, the four
    ``param_views`` of a gradient buffer laid out like ``ffn.params``, and
    returns dx."""
    g_w1, g_b1, g_w2, g_b2 = grads
    d_pre = ffn.w2.T @ dy
    d_pre *= cache.pre > 0.0
    np.matmul(dy, cache.act.T, out=g_w2)
    np.add.reduce(dy, axis=1, out=g_b2)
    np.matmul(d_pre, cache.x.T, out=g_w1)
    np.add.reduce(d_pre, axis=1, out=g_b1)
    return ffn.w1.T @ d_pre


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
    """The routing record, the gate denominators and the ``DispatchPlan``,
    all from one stable sort of the flat expert ids, whose kept part is the
    plan's permutation, and one stable sort of the tokens of every slot,
    kept slots first, as the per-rank scatter passes."""
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
    # slots by expert and keeps that order within each group, so a slot is
    # kept when it is among its expert's first ``cap``. Small integers (the
    # ids, the tokens) are sorted in the smallest type that holds them,
    # which numpy sorts by radix.
    flat = topk.ravel()
    order = np.argsort(flat.astype(np.min_scalar_type(n_e)), kind="stable")
    counts = np.bincount(flat, minlength=n_e)
    offsets = [0, *itertools.accumulate(np.minimum(counts, cap).tolist())]
    n_kept = offsets[-1]
    if n_kept < flat.size:  # move each expert's slots past its first cap last
        lost, sizes = np.zeros(flat.size, dtype=bool), counts.tolist()
        for end, count in zip(itertools.accumulate(sizes), sizes):
            if count > cap:
                lost[end - count + cap:end] = True
        order = order[np.argsort(lost, kind="stable")]
    tokens, slots = np.divmod(order, k)
    # Each token's slots in plan order: its kept columns, which come in
    # expert order, then its dropped slots, padded with ``n_kept``.
    columns = np.argsort(tokens.astype(np.min_scalar_type(t_tokens - 1)), kind="stable")
    np.minimum(columns, n_kept, out=columns)
    dropped = np.zeros(flat.size, dtype=bool)
    dropped[order[n_kept:]] = True
    perm = order[:n_kept]

    record = RoutingRecord(
        probs=probs,
        topk_indices=topk,
        gates=gates,
        dropped=dropped.reshape(t_tokens, k),
        per_expert_fraction=counts.astype(np.float64) / (t_tokens * k),
        per_expert_mean_prob=probs.mean(axis=0),
    )
    return record, denom, DispatchPlan(tokens[:n_kept], slots[:n_kept], gates.ravel()[perm],
                                       offsets, columns.reshape(t_tokens, k))


def moe_forward_cached(
    layer: MoeLayer,
    x,
    capacity_factor: float | None = None,
    *,
    base: MoeForwardCache | None = None,
    expert: int | None = None,
) -> tuple[Array, RoutingRecord, MoeForwardCache]:
    """``moe_forward`` keeping the intermediates ``moe_backward`` needs.

    A routed pass runs each expert on its column slice of one gather of
    ``x``, gathers every token's slots from the outputs and gates them at
    once (``DispatchPlan.gated``), and adds them up in k passes, one per rank
    (``_add_ranks``), so each token sums its slots in expert order.

    With ``base``, a cache of this layer on the same ``x`` from before only
    expert ``expert``'s tensors changed, the routing record, the gate
    denominators, the dispatch plan and the other experts' caches and outputs
    are ``base``'s, and only expert ``expert`` runs. ``y`` is a copy of
    ``base.y`` whose columns of that expert's tokens are summed again the
    same way, from the slots of those tokens alone, so it equals a full pass
    bit for bit. ``base`` and ``expert`` come together, and ``expert`` must
    index one of the layer's experts (``ValueError`` otherwise).
    """
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != layer.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, layer expects {layer.d}")
    if (base is None) != (expert is None):
        raise ValueError("an expert resume needs both base and expert")
    if base is not None:
        if not 0 <= expert < layer.n_experts:
            raise ValueError(f"expert must lie in [0, {layer.n_experts}), got {expert}")
        plan, caches, outputs, y = base.plan, list(base.expert_caches), base.outputs, base.y.copy()
        lo, hi = plan.offsets[expert:expert + 2]
        if hi > lo:
            outputs, rows = outputs.copy(), plan.rows[lo:hi]
            outputs[:, lo:hi], caches[expert] = ffn_forward_cached(
                layer.experts[expert], caches[expert].x)
            y[:, rows] = _add_ranks(np.zeros((layer.d, hi - lo)),
                                    plan.gated(outputs, plan.columns[rows]))
        return y, base.record, MoeForwardCache(
            xm, base.record, base.denom, plan, caches, outputs, y)

    cf = layer.capacity_factor if capacity_factor is None else capacity_factor
    record, denom, plan = _route(layer, xm, cf)
    gathered = xm[:, plan.rows]
    outputs = np.empty(gathered.shape)  # C order, as each expert's output is
    caches: list[FfnCache | None] = [None] * layer.n_experts
    for i, (lo, hi) in enumerate(zip(plan.offsets, plan.offsets[1:])):
        if hi > lo:
            outputs[:, lo:hi], caches[i] = ffn_forward_cached(layer.experts[i], gathered[:, lo:hi])
    y = _add_ranks(np.zeros_like(xm), plan.gated(outputs))
    return y, record, MoeForwardCache(xm, record, denom, plan, caches, outputs, y)


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
    record, plan = cache.record, cache.plan
    grads = np.empty_like(layer.params)
    views = param_views(layer, grads)  # the router's, then each expert's four
    dy_gathered = dy[:, plan.rows]
    d_out = dy_gathered * plan.gates[None, :]
    dgate = np.einsum("dt,dt->t", dy_gathered, cache.outputs)
    dx_gathered = np.zeros((layer.d, plan.offsets[-1] + 1))
    for i, (lo, hi) in enumerate(zip(plan.offsets, plan.offsets[1:])):
        expert_views = views[1 + 4 * i:5 + 4 * i]
        if hi == lo:
            for g in expert_views:
                g[...] = 0.0
            continue
        if hi - lo == 1:
            # einsum reduces a contiguous (d, 1) pair in another order than
            # the grouped one: keep each width-1 expert's bits.
            dgate[lo] = np.einsum("dt,dt->t", dy_gathered[:, lo:hi],
                                  np.ascontiguousarray(cache.outputs[:, lo:hi]))[0]
        dx_gathered[:, lo:hi] = ffn_backward(
            layer.experts[i], cache.expert_caches[i], d_out[:, lo:hi], expert_views)
    dx = _add_ranks(np.zeros_like(cache.x), (dx_gathered[:, col] for col in plan.columns.T))
    dgates = np.zeros_like(record.gates)
    dgates[plan.rows, plan.slots] = dgate

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
    np.matmul(dlogits.T, cache.x.T, out=views[0])
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
