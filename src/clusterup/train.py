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

import math
from dataclasses import dataclass

import numpy as np

from .analysis import routing_entropy
from .distill import EmaTeacher, eesd_terms, ema_update, make_teacher, teacher_forward
from .errors import NonFiniteLoss, SeparationInfeasible, ShapeMismatch
from .linalg import Array, as_matrix
from .moe import (
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


def named_params(model: ToyModel):
    """Deterministic (name, array) walk over every trainable tensor."""
    yield "head", model.head
    for b, block in enumerate(model.blocks):
        yield from block_params(block, f"block{b}.")


# ---------------------------------------------------------------------------
# teacher over all MoE sites
# ---------------------------------------------------------------------------

@dataclass
class ModelTeacher:
    """One EMA teacher per MoE site of a model."""

    sites: dict[int, EmaTeacher]
    beta: float


def make_model_teacher(model: ToyModel, beta: float) -> ModelTeacher:
    return ModelTeacher(
        sites={b: make_teacher(model.blocks[b], beta) for b in model.moe_sites},
        beta=beta,
    )


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

    def to_dict(self) -> dict:
        return {
            "task": self.task, "lb": self.lb, "eesd": self.eesd,
            "lambda_lb": self.lambda_lb, "lambda_eesd": self.lambda_eesd,
            "total": self.total,
        }


@dataclass
class ForwardState:
    """Every intermediate of one forward pass, each stored once.

    ``caches[b]`` is block b's ``FfnCache``, or its ``MoeForwardCache`` at an
    MoE site; the latter holds the site's routing record and output.
    """

    block_inputs: list[Array]
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


def model_forward(model: ToyModel, x, capacity_factor: float | None = None) -> ForwardState:
    """Forward pass keeping every intermediate needed for backward."""
    xm = as_matrix(x, "x")
    if xm.shape[0] != model.input_dim:
        raise ShapeMismatch(f"x has {xm.shape[0]} rows, model expects {model.input_dim}")
    block_inputs, caches = [], []
    cur = xm
    for block in model.blocks:
        block_inputs.append(cur)
        if isinstance(block, MoeLayer):
            y, _, cache = moe_forward_cached(block, cur, capacity_factor)
        else:
            y, cache = ffn_forward_cached(block, cur)
        caches.append(cache)
        cur = cur + y
    return ForwardState(
        block_inputs=block_inputs, caches=caches, final=cur, logits=model.head @ cur,
    )


def _cross_entropy(logits: Array, labels: np.ndarray) -> tuple[float, Array]:
    """Mean cross-entropy and its gradient wrt the logits."""
    n_tokens = logits.shape[1]
    labels = np.asarray(labels).reshape(-1)
    if labels.size != n_tokens:
        raise ShapeMismatch(f"{labels.size} labels for {n_tokens} tokens")
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    token_idx = np.arange(n_tokens)
    loss = float(np.mean(log_z - shifted[labels, token_idx]))
    probs = np.exp(shifted - log_z[None, :])
    dlogits = probs
    dlogits[labels, token_idx] -= 1.0
    dlogits /= n_tokens
    return loss, dlogits


def _teacher_outputs(
    teacher: ModelTeacher | None, state: ForwardState, sites: list[int]
) -> dict[int, Array] | None:
    if teacher is None:
        return None
    return {b: teacher_forward(teacher.sites[b], state.block_inputs[b]) for b in sites}


def _objective(
    model: ToyModel,
    state: ForwardState,
    labels,
    teacher_ys: dict[int, Array] | None,
    lambda_lb: float,
    lambda_eesd: float,
) -> tuple[LossReport, Array, dict[int, Array]]:
    """Task, load-balancing and distillation terms of one forward pass.

    The task term is mean cross-entropy at the head; the load-balancing term
    sums over MoE sites; the distillation term averages ``eesd_terms`` over
    MoE sites and is active only when teacher outputs are supplied. Returns
    the report, the task gradient wrt the logits, and each site's EESD
    residual (empty without teacher outputs).
    """
    sites = model.moe_sites
    task, dlogits = _cross_entropy(state.logits, labels)
    lb = float(sum(load_balance_loss(state.caches[b].record) for b in sites))
    eesd = 0.0
    residuals: dict[int, Array] = {}
    if teacher_ys is not None and sites:
        for b in sites:
            value, residuals[b] = eesd_terms(state.caches[b].y, teacher_ys[b])
            eesd += value
        eesd /= len(sites)
    report = LossReport.build(task, lb, eesd, lambda_lb, lambda_eesd)
    return report, dlogits, residuals


def total_loss(
    model: ToyModel,
    teacher: ModelTeacher | None,
    inputs,
    labels,
    *,
    lambda_lb: float = 0.0,
    lambda_eesd: float = 0.0,
    capacity_factor: float | None = None,
) -> tuple[LossReport, dict[str, Array], ForwardState]:
    """Combined objective (see ``_objective``), its gradients for every
    trainable tensor, and the forward state they were computed from.

    Teacher predictions are constants under differentiation.
    """
    xm = as_matrix(inputs, "inputs")
    state = model_forward(model, xm, capacity_factor)
    sites = model.moe_sites
    t_tokens = xm.shape[1]
    teacher_ys = _teacher_outputs(teacher, state, sites)
    report, dlogits, residuals = _objective(
        model, state, labels, teacher_ys, lambda_lb, lambda_eesd
    )

    grads: dict[str, Array] = {"head": dlogits @ state.final.T}
    dx = model.head.T @ dlogits
    for b in reversed(range(len(model.blocks))):
        block, cache = model.blocks[b], state.caches[b]
        prefix = f"block{b}."
        if isinstance(block, MoeLayer):
            dy = dx
            if b in residuals and lambda_eesd != 0.0:
                dy = dx + (2.0 * lambda_eesd / (len(sites) * t_tokens)) * residuals[b]
            dprobs_extra = None
            if lambda_lb != 0.0:
                fraction = cache.record.per_expert_fraction
                dprobs_extra = lambda_lb * fraction / t_tokens
            dxi, block_grads = moe_backward(block, cache, dy, dprobs_extra)
        else:
            dxi, block_grads = ffn_backward(block, cache, dx)
        for key, val in block_grads.items():
            grads[prefix + key] = val
        dx = dx + dxi
    return report, grads, state


def _decisions(state: ForwardState) -> bytes:
    """Top-k selections, capacity drops and ReLU signs of one forward pass.

    The loss is smooth only while all of them stay fixed. They are packed
    into one byte string, so two passes compare with one equality test; a
    site's selections and drops precede, and fix the sizes of, its expert
    ReLU masks, so equal bytes mean equal decisions.
    """
    parts = []
    for cache in state.caches:
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
) -> tuple[LossReport, ForwardState]:
    """One plain gradient-descent step on ``model`` followed by the EMA update
    of ``teacher``, both in place; returns the loss report and forward state."""
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    report, grads, state = total_loss(
        model, teacher, inputs, labels,
        lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
        capacity_factor=capacity_factor,
    )
    if not math.isfinite(report.total):
        raise NonFiniteLoss(f"non-finite loss at report {report}", report=report)
    for name, arr in named_params(model):
        arr -= lr * grads[name]
    if teacher is not None:
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
) -> list[LossReport]:
    """SGD over randomly drawn batches; one log record per step via log_fn."""
    rng = np.random.default_rng(seed)
    n = dataset.n
    batch = min(batch_size, n)
    reports = []
    for step in range(steps):
        idx = rng.choice(n, size=batch, replace=False)
        report, state = train_step(
            model, teacher, dataset.inputs[:, idx], dataset.labels[idx], lr,
            lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
            capacity_factor=capacity_factor,
        )
        reports.append(report)
        if log_fn is not None:
            record = {"step": step}
            record.update(report.to_dict())
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
    report, _, _ = _objective(model, state, labels, None, 0.0, 0.0)
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
) -> dict:
    """Compare analytic gradients against central finite differences.

    Samples parameters per tensor and skips any whose perturbation flips a
    top-k selection, capacity decision or ReLU sign at either evaluation
    point, since the objective is only piecewise smooth there. Teacher
    predictions are frozen at their base values for every evaluation, matching
    the stop-gradient semantics of the distillation term, so teacher-parameter
    quotients are exactly zero. Returns a dict with max_rel_error, per_tensor
    errors, checked/skipped counts, and teacher_max_quotient.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-6, 1e-3], got {epsilon}")
    xm = as_matrix(inputs, "inputs")
    _, grads, state = total_loss(
        model, teacher, xm, labels,
        lambda_lb=lambda_lb, lambda_eesd=lambda_eesd, capacity_factor=capacity_factor,
    )
    frozen = _teacher_outputs(teacher, state, model.moe_sites)
    base_decisions = _decisions(state)

    def loss_value(forward: ForwardState) -> float:
        return _objective(model, forward, labels, frozen, lambda_lb, lambda_eesd)[0].total

    def perturbed(arr: Array, flat_idx) -> tuple[ForwardState, ForwardState]:
        """Forward states with one entry of ``arr`` at +eps and at -eps; the
        entry is restored before returning."""
        orig = arr.flat[flat_idx]
        arr.flat[flat_idx] = orig + epsilon
        state_plus = model_forward(model, xm, capacity_factor)
        arr.flat[flat_idx] = orig - epsilon
        state_minus = model_forward(model, xm, capacity_factor)
        arr.flat[flat_idx] = orig
        return state_plus, state_minus

    rng = np.random.default_rng(seed)
    per_tensor: dict[str, float] = {}
    max_rel = 0.0
    checked = skipped = 0
    for name, arr in named_params(model):
        count = min(samples_per_tensor, arr.size)
        indices = rng.choice(arr.size, size=count, replace=False)
        tensor_err = 0.0
        for flat_idx in indices:
            state_plus, state_minus = perturbed(arr, flat_idx)
            if not _decisions(state_plus) == _decisions(state_minus) == base_decisions:
                skipped += 1
                continue
            numeric = (loss_value(state_plus) - loss_value(state_minus)) / (2.0 * epsilon)
            analytic = float(grads[name].flat[flat_idx])
            rel = abs(analytic - numeric) / max(1.0, abs(numeric))
            tensor_err = max(tensor_err, rel)
            checked += 1
        per_tensor[name] = tensor_err
        max_rel = max(max_rel, tensor_err)

    teacher_max_quotient = None
    if teacher is not None:
        teacher_max_quotient = 0.0
        teacher_params = [
            param for b in sorted(teacher.sites)
            for param in block_params(teacher.sites[b].mirror, f"teacher.block{b}.")
        ]
        for _, arr in teacher_params:
            count = min(samples_per_tensor, arr.size)
            indices = rng.choice(arr.size, size=count, replace=False)
            for flat_idx in indices:
                state_plus, state_minus = perturbed(arr, flat_idx)
                loss_plus, loss_minus = loss_value(state_plus), loss_value(state_minus)
                quotient = abs(loss_plus - loss_minus) / (2.0 * epsilon)
                teacher_max_quotient = max(teacher_max_quotient, quotient)

    return {
        "max_rel_error": max_rel,
        "per_tensor": per_tensor,
        "checked": checked,
        "skipped": skipped,
        "teacher_max_quotient": teacher_max_quotient,
    }
