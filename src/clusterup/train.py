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
from .analysis import routing_entropy
from .distill import EmaTeacher, eesd_terms, ema_update, make_teacher, teacher_forward
from .errors import NonFiniteLoss, SeparationInfeasible, ShapeMismatch
from .linalg import Array, as_matrix
from .moe import (
    FFN_PARAMS,
    DenseFfn,
    MoeForwardCache,
    MoeLayer,
    RoutingRecord,
    block_params,
    ffn_backward,
    ffn_forward_cached,
    load_balance_loss,
    moe_backward,
    moe_forward_cached,
    param_views,
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
    n_clusters: int
    separation: float
    seed: int

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
            n_clusters=self.n_clusters,
            separation=self.separation,
            seed=self.seed,
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
        n_clusters=n_clusters,
        separation=float(separation),
        seed=int(seed),
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
    holds the block's input as ``x``.
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
    base: ForwardState | None = None,
    start: int = 0,
    expert: int | None = None,
    on_input=None,
) -> ForwardState:
    """Forward pass keeping every intermediate needed for backward.

    ``on_input(b, x)``, when given, is called just before MoE block ``b``
    runs, on that block's input ``x`` (``total_loss`` starts each site's
    teacher ensemble there).

    With ``base``, a state of the same model on the same ``x``, the pass
    resumes at block ``start``: blocks before it keep ``base``'s caches, and
    blocks ``start``… run from ``base.caches[start].x`` (from
    ``base.final`` when ``start`` is ``len(model.blocks)``, which recomputes
    only the logits). With ``expert`` as well, block ``start`` is an MoE
    layer that reruns only that expert and keeps the rest of
    ``base.caches[start]`` (``moe_forward_cached``'s ``base``/``expert``).
    When no tensor before block ``start`` (nor, with ``expert``, in block
    ``start`` outside that expert) changed since ``base`` was computed, the
    result equals a full pass bit for bit.
    """
    if base is None:
        if start or expert is not None:
            raise ValueError("a pass can resume only from a base state")
        xm = as_matrix(x, "x")
        if xm.shape[0] != model.input_dim:
            raise ShapeMismatch(f"x has {xm.shape[0]} rows, model expects {model.input_dim}")
        caches, cur = [], xm
    else:
        caches = base.caches[:start]
        cur = base.caches[start].x if start < len(model.blocks) else base.final
    resumed = None
    if expert is not None:
        if not isinstance(model.blocks[start], MoeLayer):
            raise ValueError(f"block {start} has no experts to resume")
        resumed = base.caches[start]
    for b, block in enumerate(model.blocks[start:], start):
        if isinstance(block, MoeLayer):
            if on_input is not None:
                on_input(b, cur)
            y, _, cache = moe_forward_cached(
                block, cur, capacity_factor, base=resumed, expert=expert)
            resumed = expert = None
        else:
            y, cache = ffn_forward_cached(block, cur)
        caches.append(cache)
        cur = cur + y
    return ForwardState(caches=caches, final=cur, logits=model.head @ cur)


def _cross_entropy(
    logits: Array, labels: np.ndarray, grad: bool = True
) -> tuple[float, Array | None]:
    """Mean cross-entropy and its gradient wrt the logits (None unless ``grad``)."""
    n_tokens = logits.shape[1]
    labels = np.asarray(labels).reshape(-1)
    if labels.size != n_tokens:
        raise ShapeMismatch(f"{labels.size} labels for {n_tokens} tokens")
    # The ufunc reductions behind ``max``, ``sum`` and ``np.mean`` (the sum,
    # then the division), with their bits and without their Python wrappers.
    shifted = logits - np.maximum.reduce(logits, axis=0, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=0))
    token_idx = np.arange(n_tokens)
    loss = float(np.add.reduce(log_z - shifted[labels, token_idx]) / n_tokens)
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
    it sent one, else computed here from ``teacher``."""
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
    base: dict[int, SiteTerms] | None = None,
) -> tuple[LossReport, Array | None, dict[int, SiteTerms]]:
    """Task, load-balancing and distillation terms of one forward pass.

    The task term is mean cross-entropy at the head; the load-balancing term
    sums over MoE sites; the distillation term averages ``eesd_terms`` over
    MoE sites and is active only when teacher outputs are supplied. Returns
    the report, the task gradient wrt the logits (None unless ``grad``), and
    each site's ``SiteTerms``.

    ``base`` holds the site terms of an earlier pass of the same model on the
    same inputs with the same teacher outputs. A site whose cache is the
    base's own object takes both its terms from there, and one whose routing
    record is takes its load-balancing term; the site values are summed in
    the same order either way, so the report has the same bits.
    """
    sites = model.moe_sites
    task, dlogits = _cross_entropy(state.logits, labels, grad)
    terms: dict[int, SiteTerms] = {}
    for b in sites:
        cache, known = state.caches[b], None if base is None else base[b]
        if known is not None and known.cache is cache:
            terms[b] = known
            continue
        if known is not None and known.cache.record is cache.record:
            site_lb = known.lb
        else:
            site_lb = load_balance_loss(cache.record)
        site_eesd, residual, teacher_y = 0.0, None, None
        if teacher_ys is not None:
            teacher_y = teacher_ys[b]
            site_eesd, residual = eesd_terms(cache.y, teacher_y)
        terms[b] = SiteTerms(cache, site_lb, site_eesd, residual, teacher_y)
    lb = float(sum(t.lb for t in terms.values()))
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
            dxi = ffn_backward(block, cache, dx, param_views(block, buffers[b + 1]))
        dx = dx + dxi
    return report, buffers, state, terms


def _decisions(state: ForwardState, start: int = 0, expert: int | None = None) -> bytes:
    """Top-k selections, capacity drops and ReLU signs of blocks ``start``…
    of one forward pass; with ``expert``, block ``start`` contributes only
    that expert's ReLU signs.

    The loss is smooth only while all of them stay fixed. They are packed
    into one byte string, so two passes compare with one equality test; a
    site's selections and drops precede, and fix the sizes of, its expert
    ReLU masks, so equal bytes mean equal decisions. ``expert`` serves a pass
    resumed at that expert (``model_forward``'s ``expert``), whose routing
    record and other experts' caches are its base's own objects.
    """
    caches = state.caches[start:]
    parts = []
    if expert is not None:
        resumed = caches.pop(0).expert_caches[expert]
        parts += [resumed.pre > 0.0] if resumed is not None else []
    for cache in caches:
        if isinstance(cache, MoeForwardCache):
            parts += [cache.record.topk_indices, cache.record.dropped]
            parts += [c.pre > 0.0 for c in cache.expert_caches if c is not None]
        else:
            parts.append(cache.pre > 0.0)
    return b"".join(part.tobytes() for part in parts)


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
    and forward state. With ``replica`` (see ``total_loss``), the student's
    site params go to the replica for its own EMA step before ``teacher``'s."""
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
    if teacher is not None:
        if replica is not None:
            replica.update(model)
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
    (``workers.teacher_replica``) computes each MoE site's teacher ensemble
    while this process runs the rest of the student's forward pass. The
    replica runs ``teacher_forward`` and ``update_model_teacher`` as this
    module holds them when the run starts. ``teacher`` is still updated
    here, in place, every step, and the reports, ``model`` and ``teacher``
    have the same bits as with one worker."""
    rng = np.random.default_rng(seed)
    n = dataset.n
    batch = min(batch_size, n)
    reports = []
    with _workers.teacher_replica(model, teacher, batch, workers,
                                  teacher_forward, update_model_teacher) as replica:
        for step in range(steps):
            idx = rng.choice(n, size=batch, replace=False)
            report, state = train_step(
                model, teacher, dataset.inputs[:, idx], dataset.labels[idx], lr,
                lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
                capacity_factor=capacity_factor, replica=replica,
            )
            reports.append(report)
            if log_fn is not None:
                record = {"step": step}
                record.update(vars(report))
                entropies = [routing_entropy(r.probs) for r in state.records.values()]
                record["routing_entropy"] = float(np.mean(entropies)) if entropies else 0.0
                record["drop_rate"] = {
                    str(b): float(r.dropped.mean()) for b, r in state.records.items()
                }
                log_fn(record)
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
    point, since the objective is only piecewise smooth there. Each +-eps
    pass resumes from the base forward pass at the first block the perturbed
    tensor feeds (``model_forward``'s ``base``/``start``), so a head entry
    recomputes only the logits, and an expert's entry reruns only that expert
    in its block (``expert``); the states equal full passes bit for bit. So
    the blocks before the resume point are the base pass's own caches, and
    only the decisions that can change are compared: those of the blocks
    from the resume point on, or at an expert resume that expert's ReLU signs
    and the blocks after it. The +-eps objectives skip the logits gradient,
    which they do not use, and take from the base pass's ``SiteTerms``, as
    ``total_loss`` returned them, every site term whose inputs are the base's
    own objects (``_objective``'s ``base``), so a head or teacher entry
    computes only the cross-entropy. Teacher predictions are frozen at their
    base values (each term's ``teacher_y``) for every evaluation, matching
    the stop-gradient semantics of the distillation term; no student block
    reads a teacher tensor, so a teacher pair resumes past the last block
    and its quotient is zero by construction, and the objective is still
    evaluated for every teacher sample. Returns a dict with
    max_rel_error, per_tensor errors, checked/skipped counts, and
    teacher_max_quotient.

    The whole sample list is drawn first, student tensors in
    ``_staged_params`` order and then the teacher's. After the base pass
    ``workers.split_map`` evaluates each sample, over ``workers`` processes,
    to one float64: a relative error or teacher quotient, or -1.0 for a
    skipped sample, since no real value is negative. They are folded here in sample
    order, so the result does not depend on ``workers``.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-6, 1e-3], got {epsilon}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if samples_per_tensor < 1:
        raise ValueError(f"samples_per_tensor must be >= 1, got {samples_per_tensor}")
    xm = as_matrix(inputs, "inputs")
    _, grads, state, base_terms = total_loss(
        model, teacher, xm, labels,
        lambda_lb=lambda_lb, lambda_eesd=lambda_eesd, capacity_factor=capacity_factor,
    )
    named_grads = dict(named_params(model, grads))
    frozen = None if teacher is None else {b: t.teacher_y for b, t in base_terms.items()}

    # (name, tensor, resume point); a teacher tensor has no name.
    tensors = [(name, arr, resume) for resume, name, arr in _staged_params(model)]
    base_decisions = {resume: _decisions(state, *resume) for resume in {r for *_, r in tensors}}
    if teacher is not None:
        tensors += [
            (None, arr, (len(model.blocks), None)) for b in sorted(teacher.sites)
            for _, arr in block_params(teacher.sites[b].mirror)
        ]
    rng = np.random.default_rng(seed)
    samples = [
        (name, arr, flat_idx, resume) for name, arr, resume in tensors
        for flat_idx in rng.choice(arr.size, size=min(samples_per_tensor, arr.size),
                                   replace=False)
    ]

    def loss_value(forward: ForwardState) -> float:
        return _objective(
            model, forward, labels, frozen, lambda_lb, lambda_eesd,
            grad=False, base=base_terms,
        )[0].total

    def sample_value(i: int) -> float:
        """The relative error of student sample ``i``, or -1.0 where it is
        skipped, or the quotient of teacher sample ``i``."""
        name, arr, flat_idx, resume = samples[i]
        orig = arr.flat[flat_idx]
        try:
            arr.flat[flat_idx] = orig + epsilon
            state_plus = model_forward(
                model, xm, capacity_factor, base=state, start=resume[0], expert=resume[1])
            arr.flat[flat_idx] = orig - epsilon
            state_minus = model_forward(
                model, xm, capacity_factor, base=state, start=resume[0], expert=resume[1])
        finally:
            arr.flat[flat_idx] = orig
        if name is None:
            return abs(loss_value(state_plus) - loss_value(state_minus)) / (2.0 * epsilon)
        if not (_decisions(state_plus, *resume) == _decisions(state_minus, *resume)
                == base_decisions[resume]):
            return -1.0
        numeric = (loss_value(state_plus) - loss_value(state_minus)) / (2.0 * epsilon)
        analytic = float(named_grads[name].flat[flat_idx])
        return abs(analytic - numeric) / max(1.0, abs(numeric))

    values = _workers.split_map(lambda i: [sample_value(i)], len(samples), workers)
    per_tensor = {name: 0.0 for name, _, _ in tensors if name is not None}
    teacher_max_quotient = None if teacher is None else 0.0
    checked = skipped = 0
    for (name, *_), value in zip(samples, values):
        if name is None:
            teacher_max_quotient = max(teacher_max_quotient, value)
        elif value < 0.0:
            skipped += 1
        else:
            per_tensor[name] = max(per_tensor[name], value)
            checked += 1
    return {
        "max_rel_error": max(per_tensor.values()),
        "per_tensor": per_tensor,
        "checked": checked,
        "skipped": skipped,
        "teacher_max_quotient": teacher_max_quotient,
    }
