"""Toy residual model, synthetic clustered data, and SGD training.

The model is a stack of residual FFN blocks (some replaced by MoE layers
after upcycling) with a linear classification head. Gradients are computed by
hand-rolled reverse mode through the whole stack, using the straight-through
convention for routing: top-k selections and capacity drops are constants
under differentiation, while the gates stay differentiable through the
softmax. ``grad_check`` verifies everything against central finite
differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import workers as _workers  # aliased: ``workers`` is also a parameter here
from .analysis import _routing_entropy
from .distill import EmaTeacher, eesd_terms, ema_update, make_teacher, teacher_forward
from .errors import NonFiniteLoss, SeparationInfeasible, ShapeMismatch
from .linalg import Array, as_matrix
from .moe import (
    FFN_PARAMS,
    DenseFfn,
    FfnCache,
    MoeForwardCache,
    MoeLayer,
    RoutingRecord,
    block_params,
    ffn_backward,
    ffn_forward_cached,
    ffn_views,
    load_balance_loss,
    moe_backward,
    moe_forward_cached,
)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class ToyModel:
    """Residual FFN stack with a linear head; blocks may be MoE layers."""

    input_dim: int
    blocks: list
    head: Array  # (n_classes, input_dim)

    def __post_init__(self):
        self.head = np.asarray(self.head, dtype=np.float64)
        for b, block in enumerate(self.blocks):
            if block.d != self.input_dim:
                raise ShapeMismatch(
                    f"block {b} operates on dim {block.d}, model dim is {self.input_dim}"
                )
        if self.head.ndim != 2 or self.head.shape[1] != self.input_dim:
            raise ShapeMismatch(f"head shape {self.head.shape} != (*, {self.input_dim})")

    @property
    def n_classes(self) -> int:
        return self.head.shape[0]

    @property
    def moe_sites(self) -> list[int]:
        return [b for b, blk in enumerate(self.blocks) if isinstance(blk, MoeLayer)]

    def copy(self) -> "ToyModel":
        return ToyModel(
            input_dim=self.input_dim,
            blocks=[blk.copy() for blk in self.blocks],
            head=self.head.copy(),
        )


def make_dense_model(d: int, h: int, n_blocks: int, n_classes: int, seed: int) -> ToyModel:
    """Fresh dense model with 1/sqrt(fan_in) gaussian weights and zero biases."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_blocks):
        blocks.append(DenseFfn(
            w1=rng.standard_normal((h, d)) / math.sqrt(d),
            b1=np.zeros(h),
            w2=rng.standard_normal((d, h)) / math.sqrt(h),
            b2=np.zeros(d),
        ))
    head = rng.standard_normal((n_classes, d)) / math.sqrt(d)
    return ToyModel(input_dim=d, blocks=blocks, head=head)


def named_params(model: ToyModel, buffers: list[Array] | None = None):
    """Deterministic (name, array) walk over every trainable tensor, each a
    view of ``buffers``, laid out like ``param_buffers(model)`` (by default
    those buffers themselves; gradients, say)."""
    for _, name, arr in _staged_params(model, buffers):
        yield name, arr


def param_buffers(model: ToyModel) -> list[Array]:
    """``head``, then each block's ``params``: every trainable tensor, in
    ``named_params`` order, as arrays SGD updates whole."""
    return [model.head] + [block.params for block in model.blocks]


def _staged_params(model: ToyModel, buffers: list[Array] | None = None):
    """``named_params`` with each tensor's resume point ``(start, expert)``:
    ``start`` is the first block whose output the tensor changes
    (``len(model.blocks)`` for the head, which no block reads), and
    ``expert`` the index of the expert that owns the tensor in that MoE
    block, or None for a router or a dense block's tensor."""
    head, *blocks = param_buffers(model) if buffers is None else buffers
    yield (len(model.blocks), None), "head", head
    for b, (block, buf) in enumerate(zip(model.blocks, blocks)):
        experts = itertools.repeat(None)
        if isinstance(block, MoeLayer):
            # block_params walks the router, then each expert's FFN_PARAMS.
            experts = [None] + [i for i in range(block.n_experts) for _ in FFN_PARAMS]
        for expert, (name, arr) in zip(experts, block_params(block, f"block{b}.", buf)):
            yield (b, expert), name, arr


# ---------------------------------------------------------------------------
# teacher over all MoE sites
# ---------------------------------------------------------------------------

@dataclass
class ModelTeacher:
    """One EMA teacher per MoE site of a model."""

    sites: dict[int, EmaTeacher]


def make_model_teacher(model: ToyModel, beta: float) -> ModelTeacher:
    return ModelTeacher(sites={b: make_teacher(model.blocks[b], beta) for b in model.moe_sites})


def update_model_teacher(teacher: ModelTeacher, model: ToyModel) -> ModelTeacher:
    for b, site_teacher in teacher.sites.items():
        ema_update(site_teacher, model.blocks[b])
    return teacher


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass
class SyntheticDataset:
    """Clustered points on the sphere with class = cluster mod n_classes."""

    inputs: Array          # (d, n)
    labels: np.ndarray     # (n,)
    cluster_ids: np.ndarray
    directions: Array      # (n_clusters, d), unit rows

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    def slice(self, start: int, stop: int) -> "SyntheticDataset":
        """Contiguous sub-sample sharing the same generating distribution."""
        return SyntheticDataset(
            inputs=self.inputs[:, start:stop],
            labels=self.labels[start:stop],
            cluster_ids=self.cluster_ids[start:stop],
            directions=self.directions,
        )


def _sample_directions(
    d: int, k: int, threshold: float, rng: np.random.Generator, budget: int
) -> Array:
    chosen: list[np.ndarray] = []
    attempts = 0
    while len(chosen) < k and attempts < budget:
        attempts += 1
        v = rng.standard_normal(d)
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            continue
        v /= norm
        if all(float(np.dot(v, c)) < threshold for c in chosen):
            chosen.append(v)
    if len(chosen) == k:
        return np.vstack(chosen)
    if k <= d:
        # Orthonormal fallback: pairwise cosines are ~1e-16, under any
        # positive threshold, so extreme separations stay feasible.
        g = rng.standard_normal((d, k))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))[None, :]
        cross = q.T @ q - np.eye(k)
        if float(np.abs(cross).max()) < threshold:
            return q.T.copy()
    raise SeparationInfeasible(
        f"could not draw {k} directions with pairwise cosine < {threshold:g} in {d}-D"
    )


def make_synthetic_dataset(
    d: int,
    n_classes: int,
    n_clusters: int,
    n: int,
    separation: float,
    seed: int,
    retry_budget: int = 5000,
) -> SyntheticDataset:
    """Points = cluster direction + gaussian noise / separation.

    Cluster directions are unit vectors with pairwise cosine below
    1/separation; each point's class is its cluster index mod n_classes.
    """
    if not n_clusters >= n_classes >= 2:
        raise ValueError(f"need n_clusters >= n_classes >= 2, got {n_clusters}, {n_classes}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if separation <= 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    rng = np.random.default_rng(seed)
    directions = _sample_directions(d, n_clusters, 1.0 / separation, rng, retry_budget)
    cluster_ids = rng.integers(0, n_clusters, size=n)
    noise = rng.standard_normal((d, n)) / separation
    inputs = directions[cluster_ids].T + noise
    return SyntheticDataset(
        inputs=inputs,
        labels=(cluster_ids % n_classes).astype(np.int64),
        cluster_ids=cluster_ids.astype(np.int64),
        directions=directions,
    )


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossReport:
    task: float
    lb: float
    eesd: float
    lambda_lb: float
    lambda_eesd: float
    total: float

    @classmethod
    def build(cls, task, lb, eesd, lambda_lb, lambda_eesd) -> "LossReport":
        return cls(
            task=task, lb=lb, eesd=eesd,
            lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
            total=task + lambda_lb * lb + lambda_eesd * eesd,
        )


@dataclass
class ForwardState:
    """Every intermediate of one forward pass, each stored once.

    ``caches[b]`` is block b's ``FfnCache``, or its ``MoeForwardCache`` at an
    MoE site; the latter holds the site's routing record and output. Either
    holds the block's input as ``x``, but an FFN cache of a stacked pass
    (``_forward``'s ``fixed``) holds none.
    """

    caches: list
    final: Array
    logits: Array

    @property
    def records(self) -> dict[int, RoutingRecord]:
        """Each MoE site's routing record, in block order."""
        return {
            b: cache.record for b, cache in enumerate(self.caches)
            if isinstance(cache, MoeForwardCache)
        }


def model_forward(
    model: ToyModel,
    x,
    capacity_factor: float | None = None,
    *,
    on_input=None,
) -> ForwardState:
    """Forward pass keeping every intermediate needed for backward.

    ``on_input(b, x)``, when given, is called just before MoE block ``b``
    runs, on that block's input ``x`` (``total_loss`` starts each site's
    teacher ensemble there).
    """
    xm = as_matrix(x, "x")
    if xm.shape[0] != model.input_dim:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, model expects {model.input_dim}")
    return _forward(model.blocks, model.head, xm, capacity_factor, on_input=on_input)


def _forward(blocks, head, x, capacity_factor, *, start=0, fixed=None, on_input=None):
    """Blocks ``start``… of ``blocks`` from their input ``x``, then ``head``.
    With ``fixed``, a full pass's state, blocks before ``start`` keep its
    caches and each MoE site its decisions (``moe_forward_cached``), so a
    leading item axis on ``x``, ``head`` or a tensor of block ``start``
    carries through to the logits; FFN caches keep only ReLU signs."""
    if start and fixed is None:
        raise ValueError("a pass can resume only from a fixed state")
    caches, cur = [] if fixed is None else fixed.caches[:start], x
    for b, block in enumerate(blocks[start:], start):
        if isinstance(block, MoeLayer):
            if on_input is not None:
                on_input(b, cur)
            y, _, cache = moe_forward_cached(
                block, cur, capacity_factor, fixed=None if fixed is None else fixed.caches[b])
        else:
            y, cache = ffn_forward_cached(block, cur)
            cache = cache if fixed is None else FfnCache(None, cache.act > 0.0)
        caches.append(cache)
        cur = cur + y
    return ForwardState(caches=caches, final=cur, logits=head @ cur)


def _cross_entropy(
    logits: Array, labels: np.ndarray, grad: bool = True
) -> tuple[float, Array | None]:
    """Mean cross-entropy and its gradient wrt the logits (None unless
    ``grad``); logits with an item axis give one loss per item, no gradient."""
    n_tokens = logits.shape[-1]
    labels = np.asarray(labels).reshape(-1)
    if labels.size != n_tokens:
        raise ShapeMismatch(f"{labels.size} labels for {n_tokens} tokens")
    # The ufunc reductions behind ``max``, ``sum`` and ``np.mean`` (the sum,
    # then the division), with their bits and without their Python wrappers.
    shifted = logits - np.maximum.reduce(logits, axis=-2, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=-2))
    token_idx = np.arange(n_tokens)
    loss = np.add.reduce(log_z - shifted[..., labels, token_idx], axis=-1) / n_tokens
    if logits.ndim > 2:
        return loss, None
    loss = float(loss)
    if not grad:
        return loss, None
    probs = np.exp(shifted - log_z[None, :])
    dlogits = probs
    dlogits[labels, token_idx] -= 1.0
    dlogits /= n_tokens
    return loss, dlogits


def _teacher_outputs(
    teacher: ModelTeacher | None, state: ForwardState, sites: list[int],
    replica: _workers.TeacherReplica | None = None,
) -> dict[int, Array] | None:
    """Each site's teacher ensemble output: the one ``replica`` sent, where
    it sent one, else computed here from ``teacher``, once every reply is
    read (``replica.receive``)."""
    if teacher is None:
        return None
    received = {} if replica is None else replica.receive()
    return {
        b: received[b] if b in received else teacher_forward(teacher.sites[b], state.caches[b].x)
        for b in sites
    }


@dataclass(frozen=True)
class SiteTerms:
    """One MoE site's load-balancing and EESD terms, the cache and teacher
    output they were computed from (``eesd`` 0.0 and ``residual`` and
    ``teacher_y`` None without teacher outputs)."""

    cache: MoeForwardCache
    lb: float
    eesd: float
    residual: Array | None
    teacher_y: Array | None


def _objective(
    model: ToyModel,
    state: ForwardState,
    labels,
    teacher_ys: dict[int, Array] | None,
    lambda_lb: float,
    lambda_eesd: float,
    grad: bool = True,
) -> tuple[LossReport, Array | None, dict[int, SiteTerms]]:
    """Task, load-balancing and distillation terms of one forward pass.

    The task term is mean cross-entropy at the head; the load-balancing term
    sums over MoE sites; the distillation term averages ``eesd_terms`` over
    MoE sites and is active only when teacher outputs are supplied. Returns
    the report, the task gradient wrt the logits (None unless ``grad``), and
    each site's ``SiteTerms``. A state with an item axis gives one value
    per item wherever it does, with the bits of the same sums of floats.
    """
    sites = model.moe_sites
    task, dlogits = _cross_entropy(state.logits, labels, grad)
    terms: dict[int, SiteTerms] = {}
    for b in sites:
        cache = state.caches[b]
        site_eesd, residual, teacher_y = 0.0, None, None
        if teacher_ys is not None:
            teacher_y = teacher_ys[b]
            site_eesd, residual = eesd_terms(cache.y, teacher_y)
        terms[b] = SiteTerms(cache, load_balance_loss(cache.record), site_eesd, residual,
                             teacher_y)
    lb = sum((t.lb for t in terms.values()), 0.0)
    eesd = 0.0
    if teacher_ys is not None and sites:
        for t in terms.values():
            eesd += t.eesd
        eesd /= len(sites)
    report = LossReport.build(task, lb, eesd, lambda_lb, lambda_eesd)
    return report, dlogits, terms


def total_loss(
    model: ToyModel,
    teacher: ModelTeacher | None,
    inputs,
    labels,
    *,
    lambda_lb: float = 0.0,
    lambda_eesd: float = 0.0,
    capacity_factor: float | None = None,
    replica: _workers.TeacherReplica | None = None,
) -> tuple[LossReport, list[Array], ForwardState, dict[int, SiteTerms]]:
    """Combined objective (see ``_objective``), its gradients as buffers laid
    out like ``param_buffers(model)`` (``named_params(model, grads)`` names
    them), the forward state they were computed from, and each MoE site's
    ``SiteTerms``.

    Teacher predictions are constants under differentiation. With
    ``replica``, a ``workers.TeacherReplica`` of ``teacher``, each site's
    ensemble starts in the replica as soon as the forward pass reaches the
    site.
    """
    xm = as_matrix(inputs, "inputs")
    state = model_forward(model, xm, capacity_factor,
                          on_input=None if replica is None else replica.submit)
    sites = model.moe_sites
    t_tokens = xm.shape[1]
    teacher_ys = _teacher_outputs(teacher, state, sites, replica)
    report, dlogits, terms = _objective(
        model, state, labels, teacher_ys, lambda_lb, lambda_eesd
    )

    buffers = [dlogits @ state.final.T] + [None] * len(model.blocks)
    dx = model.head.T @ dlogits
    for b in reversed(range(len(model.blocks))):
        block, cache = model.blocks[b], state.caches[b]
        if isinstance(block, MoeLayer):
            dy = dx
            residual = terms[b].residual
            if residual is not None and lambda_eesd != 0.0:
                dy = dx + (2.0 * lambda_eesd / (len(sites) * t_tokens)) * residual
            dprobs_extra = None
            if lambda_lb != 0.0:
                fraction = cache.record.per_expert_fraction
                dprobs_extra = lambda_lb * fraction / t_tokens
            dxi, buffers[b + 1] = moe_backward(block, cache, dy, dprobs_extra)
        else:
            buffers[b + 1] = np.empty_like(block.params)
            dxi = ffn_backward(block, cache, dx, ffn_views(buffers[b + 1], block.h, block.d))
        dx = dx + dxi
    return report, buffers, state, terms


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def train_step(
    model: ToyModel,
    teacher: ModelTeacher | None,
    inputs,
    labels,
    lr: float,
    *,
    lambda_lb: float = 0.0,
    lambda_eesd: float = 0.0,
    capacity_factor: float | None = None,
    replica: _workers.TeacherReplica | None = None,
) -> tuple[LossReport, ForwardState]:
    """One plain gradient-descent step on ``model`` followed by the EMA update
    of ``teacher``, both in place and whole-buffer; returns the loss report
    and forward state. With ``replica`` (see ``total_loss``), the replica
    runs the EMA step instead, on ``teacher``'s shared buffers; its reply is
    read before the next step reads the teacher or writes the student."""
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    report, grads, state, _ = total_loss(
        model, teacher, inputs, labels,
        lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
        capacity_factor=capacity_factor, replica=replica,
    )
    if not math.isfinite(report.total):
        raise NonFiniteLoss(f"non-finite loss at report {report}", report=report)
    for arr, grad in zip(param_buffers(model), grads):
        arr -= lr * grad
    if replica is not None:
        replica.update()
    elif teacher is not None:
        update_model_teacher(teacher, model)
    return report, state


def run_training(
    model: ToyModel,
    teacher: ModelTeacher | None,
    dataset: SyntheticDataset,
    *,
    steps: int,
    batch_size: int,
    lr: float,
    lambda_lb: float = 0.0,
    lambda_eesd: float = 0.0,
    capacity_factor: float | None = None,
    seed: int = 0,
    log_fn=None,
    workers: int = 1,
) -> list[LossReport]:
    """SGD over randomly drawn batches; one log record per step via log_fn.

    With a teacher and ``workers >= 2``, one forked replica
    (``workers.teacher_replica``) runs the teacher's EMA and computes each
    MoE site's teacher ensemble while this process runs the rest of the
    student's forward pass. The replica runs ``teacher_forward`` and
    ``update_model_teacher`` as this module holds them when the run starts.
    If the replica's child fails, this process restores ``model`` and
    ``teacher`` from a copy taken at the fork and redoes the run itself,
    reporting and logging only the steps it had not reported yet. The
    reports, the log, ``model`` and ``teacher`` have the same bits as with
    one worker, whether the run returns or raises."""
    batch = min(batch_size, dataset.n)
    reports = []

    def run(replica) -> None:
        rng = np.random.default_rng(seed)
        for step in range(steps):
            idx = rng.choice(dataset.n, size=batch, replace=False)
            report, state = train_step(
                model, teacher, dataset.inputs[:, idx], dataset.labels[idx], lr,
                lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
                capacity_factor=capacity_factor, replica=replica,
            )
            if step < len(reports):  # reported before a redo
                continue
            reports.append(report)
            if log_fn is not None:
                records = state.records
                entropies = [_routing_entropy(r.probs) for r in records.values()]
                log_fn({
                    "step": step, **vars(report),
                    "routing_entropy": float(np.mean(entropies)) if entropies else 0.0,
                    "drop_rate": {str(b): np.count_nonzero(r.dropped) / r.dropped.size
                                  for b, r in records.items()},
                })

    def buffers() -> list[Array]:
        return param_buffers(model) + [t.mirror.params for t in teacher.sites.values()]

    try:
        with _workers.teacher_replica(model, teacher, batch, workers,
                                      teacher_forward, update_model_teacher) as replica:
            snapshot = None if replica is None else [arr.copy() for arr in buffers()]
            run(replica)
    except _workers.ReplicaLost:
        for arr, saved in zip(buffers(), snapshot):
            arr[...] = saved
        run(None)
    return reports


def evaluate(
    model: ToyModel, inputs, labels, capacity_factor: float | None = None
) -> tuple[LossReport, ForwardState, float]:
    """Task/lb losses, forward state, and accuracy on a fixed batch."""
    state = model_forward(model, inputs, capacity_factor)
    report, _, _ = _objective(model, state, labels, None, 0.0, 0.0, grad=False)
    pred = state.logits.argmax(axis=0)
    accuracy = float(np.mean(pred == np.asarray(labels).reshape(-1)))
    return report, state, accuracy


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

# Samples of one tensor per stacked pass of ``grad_check`` (2 items each): a
# larger chunk shares numpy calls among more items but holds more memory.
GRADCHECK_CHUNK = 4


def _with_tensor(block, expert: int | None, key: str, tensor: Array):
    """A shallow copy of ``block`` whose tensor ``key`` (of expert
    ``expert``, unless None) is ``tensor``; the rest stays ``block``'s."""
    def swap(obj, **attrs):
        new = object.__new__(type(obj))
        new.__dict__.update(obj.__dict__, **attrs)
        return new

    if expert is None:
        return swap(block, **{key: tensor})
    experts = list(block.experts)
    experts[expert] = swap(experts[expert], **{key: tensor})
    return swap(block, experts=tuple(experts))


def _stacked_pass(model: ToyModel, state: ForwardState, resume, name: str, stacked: Array,
                  capacity_factor: float | None) -> ForwardState:
    """``model``'s pass from ``name``'s resume point (``_staged_params``)
    with that tensor replaced by ``stacked``, its copies along an item axis,
    keeping the decisions of ``state``, a full pass."""
    start, expert = resume
    blocks, head = list(model.blocks), model.head
    if name == "head":
        head, x = stacked, state.final
    else:
        blocks[start] = _with_tensor(blocks[start], expert, name.rsplit(".", 1)[1], stacked)
        x = state.caches[start].x
    return _forward(blocks, head, x, capacity_factor, start=start, fixed=state)


def _same_decisions(state: ForwardState, base: ForwardState, items: int) -> Array:
    """Whether each item of ``state``, a stacked pass under ``base``'s
    decisions, made ``base``'s top-k selections and ReLU signs too (so its
    drops, and all its bits, are a full pass's); only stacked arrays differ."""
    same = np.ones(items, dtype=bool)

    def compare(ours: Array, theirs: Array) -> None:
        if ours.ndim > theirs.ndim:
            same[...] &= (ours == theirs).reshape(items, -1).all(axis=1)

    for cache, known in zip(state.caches, base.caches):
        if isinstance(cache, MoeForwardCache):
            compare(cache.record.topk_indices, known.record.topk_indices)
            ffns = zip(cache.expert_caches, known.expert_caches)
        else:
            ffns = [(cache, known)]
        for ours, theirs in ffns:
            if ours is not None and ours.act.ndim > theirs.act.ndim:
                compare(ours.act, theirs.act > 0.0)
    return same


def grad_check(
    model: ToyModel,
    teacher: ModelTeacher | None,
    inputs,
    labels,
    epsilon: float = 1e-5,
    *,
    lambda_lb: float = 0.0,
    lambda_eesd: float = 0.0,
    capacity_factor: float | None = None,
    samples_per_tensor: int = 50,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Compare analytic gradients against central finite differences.

    Samples parameters per tensor and skips any whose perturbation flips a
    top-k selection, capacity decision or ReLU sign at either evaluation
    point, since the objective is only piecewise smooth there. Teacher
    predictions are frozen at their base values (each term's ``teacher_y``)
    for every evaluation, matching the stop-gradient semantics of the
    distillation term; no student block reads a teacher tensor, so the
    objective does not move with one, and ``teacher_max_quotient`` is that
    of the base objective with itself: zero by construction. Returns a dict
    with max_rel_error, per_tensor errors, checked/skipped counts, and
    teacher_max_quotient.

    The whole sample list is drawn first, in ``_staged_params`` order, and
    cut into chunks of at most ``GRADCHECK_CHUNK`` samples of one tensor. One stacked
    evaluation serves a chunk: the tensor's +eps copies and then its -eps
    copies are its items, a leading axis on that tensor alone. From the
    first block the tensor feeds on (``_staged_params``' resume point), the
    blocks run on every item at once with each MoE site's decisions kept
    from the base pass (``_forward``'s ``fixed``), and ``_objective`` gives
    each item's loss without a logits gradient. An item whose selections or
    ReLU signs differ from the base's (``_same_decisions``) skips its
    sample; every other item has the bits of a full pass.

    ``workers.split_map`` evaluates the chunks, over ``workers`` processes,
    each to ``GRADCHECK_CHUNK`` float64 values: a relative error per sample,
    or -1.0 for a skipped sample, since no real value is negative. They are folded here in sample order, so the result does
    not depend on ``workers``.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-6, 1e-3], got {epsilon}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if samples_per_tensor < 1:
        raise ValueError(f"samples_per_tensor must be >= 1, got {samples_per_tensor}")
    xm = as_matrix(inputs, "inputs")
    report, grads, state, base_terms = total_loss(
        model, teacher, xm, labels,
        lambda_lb=lambda_lb, lambda_eesd=lambda_eesd, capacity_factor=capacity_factor,
    )
    named_grads = dict(named_params(model, grads))
    frozen = None if teacher is None else {b: t.teacher_y for b, t in base_terms.items()}

    rng = np.random.default_rng(seed)
    chunks = []
    for resume, name, arr in _staged_params(model):
        picked = rng.choice(arr.size, size=min(samples_per_tensor, arr.size), replace=False)
        chunks += [(name, arr, resume, picked[lo:lo + GRADCHECK_CHUNK])
                   for lo in range(0, picked.size, GRADCHECK_CHUNK)]

    def chunk_values(c: int) -> list[float]:
        """Chunk ``c``'s values: each sample's relative error, or -1.0 where
        it is skipped; padded to ``GRADCHECK_CHUNK``."""
        name, arr, resume, picked = chunks[c]
        n, values = picked.size, [0.0] * GRADCHECK_CHUNK
        stacked = np.repeat(arr[None], 2 * n, axis=0)
        flat, orig, rows = stacked.reshape(2 * n, -1), arr.flat[picked], np.arange(n)
        flat[rows, picked] = orig + epsilon
        flat[n + rows, picked] = orig - epsilon
        forward = _stacked_pass(model, state, resume, name, stacked, capacity_factor)
        # An expert that kept no slot leaves every array unstacked.
        totals = np.broadcast_to(_objective(model, forward, labels, frozen, lambda_lb,
                                            lambda_eesd, grad=False)[0].total, (2 * n,))
        same = _same_decisions(forward, state, 2 * n)
        for j, flat_idx in enumerate(picked):
            if not (same[j] and same[n + j]):
                values[j] = -1.0
                continue
            numeric = (float(totals[j]) - float(totals[n + j])) / (2.0 * epsilon)
            analytic = float(named_grads[name].flat[flat_idx])
            values[j] = abs(analytic - numeric) / max(1.0, abs(numeric))
        return values

    values = _workers.split_map(chunk_values, len(chunks), workers, GRADCHECK_CHUNK)
    per_tensor = dict.fromkeys(named_grads, 0.0)
    checked = skipped = 0
    for c, (name, _, _, picked) in enumerate(chunks):
        for value in values[c * GRADCHECK_CHUNK:c * GRADCHECK_CHUNK + picked.size]:
            if value < 0.0:
                skipped += 1
            else:
                per_tensor[name] = max(per_tensor[name], value)
                checked += 1
    return {
        "max_rel_error": max(per_tensor.values()),
        "per_tensor": per_tensor,
        "checked": checked,
        "skipped": skipped,
        "teacher_max_quotient": None if teacher is None else max(
            0.0, abs(report.total - report.total) / (2.0 * epsilon)),
    }
