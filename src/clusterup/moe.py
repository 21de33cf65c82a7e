"""Mixture-of-experts layer: expert FFNs, softmax routing, top-k dispatch.

A layer holds ``n_experts`` two-layer ReLU FFNs and a bias-free linear router.
Tokens are columns of a d x T matrix. ``moe_forward`` applies renormalized
top-k gating under a per-expert capacity budget; ``dense_ensemble_forward``
mixes every expert with the full softmax weights and ignores capacity, which
is the teacher-side computation for self-distillation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .linalg import Array, as_matrix

FFN_PARAMS = ("w1", "b1", "w2", "b2")


def ffn_views(buf: Array, h: int, d: int) -> tuple[Array, Array, Array, Array]:
    """The tensors of an FFN buffer, laid out ``[w1 | b1 | w2 | b2]`` along
    the last axis of ``buf``: ``w1`` (..., h, d), ``b1`` (..., h), ``w2``
    (..., d, h) and ``b2`` (..., d), as views that keep ``buf``'s leading
    axes. Each reshape splits one axis, which never copies."""
    lead, hd = buf.shape[:-1], h * d
    return (buf[..., :hd].reshape(*lead, h, d), buf[..., hd:hd + h],
            buf[..., hd + h:2 * hd + h].reshape(*lead, d, h), buf[..., 2 * hd + h:])


def moe_views(buf: Array, n_experts: int, d: int) -> tuple[Array, Array]:
    """An MoE buffer, laid out ``[router | one FFN buffer per expert]``, as
    views: the router (n_experts, d) and the (n_experts, size) expert rows,
    each an FFN buffer (``ffn_views``)."""
    split = n_experts * d
    return buf[:split].reshape(n_experts, d), buf[split:].reshape(n_experts, -1)


def _check_capacity(capacity_factor: float) -> None:
    """Raise ``ValueError`` unless ``capacity_factor`` is finite and > 0: the
    rule for a layer's capacity and for every per-call one."""
    if not 0 < capacity_factor < math.inf:
        raise ValueError(f"capacity_factor must be finite and > 0, got {capacity_factor}")


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
    one float64 buffer ``params`` (``ffn_views``). Construction copies the
    tensors into a new buffer.
    """

    w1 = _Tensor()
    b1 = _Tensor()
    w2 = _Tensor()
    b2 = _Tensor()
    params = _Tensor()

    def __init__(self, w1, b1, w2, b2):
        h, d = np.shape(w1)
        self._view(np.empty(2 * h * d + h + d), h, d)
        for key, value in zip(FFN_PARAMS, (w1, b1, w2, b2)):
            setattr(self, key, value)

    def _view(self, buf: Array, h: int, d: int) -> "DenseFfn":
        """Make ``buf`` this block's buffer, without copying."""
        self.h, self.d = h, d
        self.__dict__.update(zip(FFN_PARAMS, ffn_views(buf, h, d)), params=buf)
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
    buffer ``params`` (``moe_views``). ``experts`` is a tuple of new
    ``DenseFfn`` objects whose buffers are its expert rows.
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
        _check_capacity(capacity_factor)
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
        router, rows = moe_views(buf, self.n_experts, self.d)
        self.__dict__.update(router=router, params=buf)
        for expert, row in zip(self.experts, rows):
            expert._view(row, self.h, self.d)
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
    gradient check all share, and the order of the block's ``params``.
    """
    buf = block.params if buf is None else buf
    if isinstance(block, DenseFfn):
        yield from zip([prefix + key for key in FFN_PARAMS], ffn_views(buf, block.h, block.d))
        return
    router, rows = moe_views(buf, block.n_experts, block.d)
    yield prefix + "router", router
    stacked = ffn_views(rows, block.h, block.d)
    for i in range(block.n_experts):
        for key, arr in zip(FFN_PARAMS, stacked):
            yield f"{prefix}expert{i}.{key}", arr[i]


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
    with gate ``gates[..., c]``. Expert ``i`` owns columns
    ``offsets[i]:offsets[i + 1]``, its kept slots in token order. Row ``t``
    of ``columns`` is token ``t``'s kept columns in expert order, padded with
    ``n_kept`` per dropped slot: column ``r`` is scatter pass ``r``.
    """

    rows: np.ndarray     # (n_kept,) int
    slots: np.ndarray    # (n_kept,) int
    gates: Array         # (..., n_kept)
    offsets: list[int]   # n_experts + 1 column offsets
    columns: np.ndarray  # (T, k) int

    def combine(self, outputs: Array, acc: Array, keep: bool = True) -> Array:
        """Add to ``acc`` (..., d, T), in place, each token's kept slots of
        ``outputs`` (..., d, n_kept) times their gates, rank by rank (column
        r of ``columns``), so each token sums its slots in expert order. A
        dropped slot adds nothing: the bits of adding +0.0 to a sum begun at
        +0.0. Unless ``keep``, the gated outputs overwrite ``outputs``."""
        if self.offsets[-1]:
            weighted = np.multiply(outputs, self.gates[..., None, :],
                                   out=None if keep else outputs)
            for columns, kept in zip(self.columns.T, (self.columns < self.offsets[-1]).T):
                np.add(acc, weighted.take(columns, axis=-1, mode="clip"), out=acc, where=kept)
        return acc


def _add_ranks(acc: Array, ranks) -> Array:
    """Add to ``acc`` (..., d, m), in place and in order, each array of
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
    outputs: Array | None
    y: Array


@dataclass
class FfnCache:
    """An FFN's input and ReLU output (h, T), positive exactly where its
    input is. A pass with fixed decisions is never differentiated: its
    caches hold no input, and ``act > 0`` in place of ``act``."""

    x: Array | None
    act: Array


def ffn_forward(ffn: DenseFfn, x) -> Array:
    """Apply the FFN columnwise to tokens x (d x T)."""
    y, _ = ffn_forward_cached(ffn, x)
    return y


def _as_tokens(x, d: int, owner: str) -> Array:
    """``x`` as float64 tokens (..., d, T), one d x T matrix per item of a
    leading item axis, if any; not scanned for NaN/Inf."""
    xm = np.asarray(x, dtype=np.float64)
    if xm.ndim < 2:
        raise ValueError(f"x must be 2-D, got shape {xm.shape}")
    if xm.shape[-2] != d:
        raise ShapeMismatch(f"x has {xm.shape[-2]} rows, {owner} expects {d}")
    return xm


def _biased(z: Array, b: Array) -> Array:
    """``z + b[..., None]``, in place unless ``b`` has an item axis ``z`` lacks."""
    return np.add(z, b[..., None], out=z if z.ndim > b.ndim else None)


def ffn_forward_cached(ffn: DenseFfn, x) -> tuple[Array, FfnCache]:
    """``ffn_forward`` and its cache; a leading item axis on ``x`` or a
    tensor gives one GEMM per item, of the unstacked shapes, so its bits."""
    xm = _as_tokens(x, ffn.d, "FFN")
    act = _biased(ffn.w1 @ xm, ffn.b1)
    np.maximum(act, 0.0, out=act)
    y = _biased(ffn.w2 @ act, ffn.b2)
    return y, FfnCache(x=xm, act=act)


def ffn_backward(ffn: DenseFfn, cache: FfnCache, dy: Array, grads: list[Array]) -> Array:
    """Gradients of a cached forward pass: fills ``grads``, the four
    ``ffn_views`` of a gradient buffer laid out like ``ffn.params``, and
    returns dx."""
    g_w1, g_b1, g_w2, g_b2 = grads
    d_pre = ffn.w2.T @ dy
    d_pre *= cache.act > 0.0
    np.matmul(dy, cache.act.T, out=g_w2)
    np.add.reduce(dy, axis=1, out=g_b2)
    np.matmul(d_pre, cache.x.T, out=g_w1)
    np.add.reduce(d_pre, axis=1, out=g_b1)
    return ffn.w1.T @ d_pre


def router_probs(router, x) -> Array:
    """Softmax routing probabilities, one row per token (T x n_experts); a
    router or tokens with a leading item axis give one such matrix per item."""
    r = np.asarray(router, dtype=np.float64)
    logits = (r @ _as_tokens(x, r.shape[-1], "router")).swapaxes(-1, -2)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def expert_capacity(capacity_factor: float, tokens: int, k: int, n_experts: int) -> int:
    """Slot budget per expert: ceil(capacity_factor * tokens * k / n_experts),
    at most ``tokens``, since a token selects an expert at most once.

    Quotients within 1e-9 of an integer snap to it first, so exact ratios never
    round up from floating-point noise. ``capacity_factor`` must pass
    ``_check_capacity``.
    """
    _check_capacity(capacity_factor)
    q = min(capacity_factor * tokens * k / n_experts, tokens)
    nearest = round(q)
    if abs(q - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(q))


def _route(layer: MoeLayer, x: Array, capacity_factor: float,
           fixed: MoeForwardCache | None = None):
    """The routing record, the gate denominators and the ``DispatchPlan``,
    all from one stable sort of the flat expert ids, whose kept part is the
    plan's permutation, and one stable sort of the tokens of every slot,
    kept slots first, as the per-rank scatter passes. With ``fixed``, a
    cache of an earlier pass, only the probabilities, selections and gates
    are computed (with any leading item axis); drops, slot fractions and
    plan are ``fixed``'s, as a pass with its selections would make them."""
    t_tokens = x.shape[-1]
    n_e, k = layer.n_experts, layer.k
    probs = router_probs(layer.router, x)
    topk = np.argsort(-probs, axis=-1, kind="stable")[..., :k]
    # probs[..., t, topk[..., t, :]], as one fancy index over the flat tokens
    sel_probs = probs.reshape(-1, n_e)[np.arange(topk.size // k)[:, None],
                                       topk.reshape(-1, k)].reshape(topk.shape)
    denom = sel_probs.sum(axis=-1)
    gates = sel_probs / denom[..., None]
    if fixed is not None:
        plan, kept = fixed.plan, fixed.record
        record = RoutingRecord(probs, topk, gates, kept.dropped, kept.per_expert_fraction,
                               probs.mean(axis=-2))
        return record, denom, DispatchPlan(plan.rows, plan.slots, gates[..., plan.rows, plan.slots],
                                           plan.offsets, plan.columns)

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
    fixed: MoeForwardCache | None = None,
) -> tuple[Array, RoutingRecord, MoeForwardCache]:
    """``moe_forward`` keeping the intermediates ``moe_backward`` needs.

    A routed pass runs each expert on its column slice of one gather of
    ``x``, gates every slot of the outputs at once, and adds them up in k
    passes, one per rank (``DispatchPlan.combine``), so each token sums its
    slots in expert order.

    With ``fixed``, a cache of an earlier pass, the pass keeps its decisions
    (``_route``) and ``x``, the router or an expert tensor may carry a
    leading item axis; its cache keeps no outputs (see ``FfnCache``).
    """
    xm = _as_tokens(x, layer.d, "layer")
    cf = layer.capacity_factor if capacity_factor is None else capacity_factor
    record, denom, plan = _route(layer, xm, cf, fixed)
    gathered = xm[..., plan.rows]
    caches: list[FfnCache | None] = [None] * layer.n_experts
    # C order, as each expert's output is
    outputs = np.empty(max(gathered.shape[:-2], plan.gates.shape[:-1], key=len) + gathered.shape[-2:])
    for i, (lo, hi) in enumerate(zip(plan.offsets, plan.offsets[1:])):
        if hi > lo:
            y, cache = ffn_forward_cached(layer.experts[i], gathered[..., lo:hi])
            if y.ndim > outputs.ndim:  # an expert tensor with an item axis
                outputs = np.repeat(outputs[None], len(y), axis=0)
            outputs[..., lo:hi] = y
            caches[i] = cache if fixed is None else FfnCache(None, cache.act > 0.0)
    y = plan.combine(outputs, np.zeros_like(xm, shape=outputs.shape[:-2] + xm.shape[-2:]),
                     keep=fixed is None)
    return y, record, MoeForwardCache(xm, record, denom, plan, caches,
                                      outputs if fixed is None else None, y)


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
    g_router, g_rows = moe_views(grads, layer.n_experts, layer.d)
    g_experts = ffn_views(g_rows, layer.h, layer.d)
    dy_gathered = dy[:, plan.rows]
    d_out = dy_gathered * plan.gates[None, :]
    dgate = np.einsum("dt,dt->t", dy_gathered, cache.outputs)
    dx_gathered = np.zeros((layer.d, plan.offsets[-1] + 1))
    for i, (lo, hi) in enumerate(zip(plan.offsets, plan.offsets[1:])):
        if hi == lo:
            g_rows[i] = 0.0
            continue
        if hi - lo == 1:
            # einsum reduces a contiguous (d, 1) pair in another order than
            # the grouped one: keep each width-1 expert's bits.
            dgate[lo] = np.einsum("dt,dt->t", dy_gathered[:, lo:hi],
                                  np.ascontiguousarray(cache.outputs[:, lo:hi]))[0]
        dx_gathered[:, lo:hi] = ffn_backward(
            layer.experts[i], cache.expert_caches[i], d_out[:, lo:hi], [g[i] for g in g_experts])
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
    np.matmul(dlogits.T, cache.x.T, out=g_router)
    dx += layer.router.T @ dlogits.T
    return dx, grads


def dense_ensemble_forward(layer: MoeLayer, x) -> Array:
    """Full soft mixture: every expert weighted by its softmax probability.

    Every expert runs at once, as two batched GEMMs on the stacked
    ``ffn_views`` of the layer's expert rows (no copy), and the weighted
    outputs are added in expert order, so the result has the bits of a loop
    of ``ffn_forward`` over the experts."""
    xm = as_matrix(x, "x", check_finite=False)
    if xm.shape[0] != layer.d:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, layer expects {layer.d}")
    probs = router_probs(layer.router, xm)
    w1, b1, w2, b2 = ffn_views(moe_views(layer.params, layer.n_experts, layer.d)[1],
                               layer.h, layer.d)
    act = np.matmul(w1, xm)
    act += b1[:, :, None]
    np.maximum(act, 0.0, out=act)
    out = np.matmul(w2, act)
    out += b2[:, :, None]
    out *= probs.T[:, None, :]
    return _add_ranks(np.zeros_like(xm), out)


def load_balance_loss(routing: RoutingRecord) -> float | Array:
    """Sum over experts of routed-slot fraction times mean routing probability;
    one per item of mean probabilities with an item axis, each its own
    ``np.dot``, since BLAS picks a dot product's kernel by its shapes."""
    mean_prob = routing.per_expert_mean_prob
    dots = [np.dot(routing.per_expert_fraction, row) for row in np.atleast_2d(mean_prob)]
    return float(dots[0]) if mean_prob.ndim == 1 else np.array(dots)
