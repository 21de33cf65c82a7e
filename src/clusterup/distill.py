"""EMA teacher and the expert-ensemble self-distillation loss.

The teacher mirrors one MoE layer and is updated as
``p <- beta * p + (1 - beta) * p_student`` after every training step. At loss
time the teacher runs in dense full-capacity mode (all experts, full softmax
weights) while the student runs sparse top-k; the squared gap between the two
layer outputs is the distillation loss. The teacher prediction is a constant
under differentiation: no gradient ever flows into teacher parameters or
through the teacher branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllMasked, ShapeMismatch
from .linalg import Array
from .moe import MoeLayer, dense_ensemble_forward


@dataclass
class EmaTeacher:
    """Exponential-moving-average mirror of one MoE layer."""

    mirror: MoeLayer
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


def make_teacher(student: MoeLayer, beta: float) -> EmaTeacher:
    """Teacher initialized as a copy of the student at upcycle time."""
    return EmaTeacher(mirror=student.copy(), beta=beta)


def ema_update(teacher: EmaTeacher, student: MoeLayer) -> EmaTeacher:
    """In-place EMA step over the mirror's whole parameter buffer, router
    included.

    ``beta = 1`` leaves the teacher bitwise unchanged; ``beta = 0`` copies the
    student. Returns the mutated teacher.
    """
    t, s = teacher.mirror, student
    if t.n_experts != s.n_experts:
        raise ShapeMismatch("teacher and student expert counts differ")
    if (t.d, t.h) != (s.d, s.h):
        raise ShapeMismatch(f"teacher experts (d, h) = {(t.d, t.h)}, student {(s.d, s.h)}")
    beta, buf = teacher.beta, t.params
    if beta == 0.0:
        buf[...] = s.params
    elif beta != 1.0:
        buf *= beta
        buf += (1.0 - beta) * s.params
    return teacher


def teacher_forward(teacher: EmaTeacher, x) -> Array:
    """Dense all-expert ensemble output of the teacher mirror."""
    return dense_ensemble_forward(teacher.mirror, x)


def eesd_terms(student_y: Array, teacher_y: Array) -> tuple[float, Array]:
    """EESD value and the residual ``student_y - teacher_y`` its gradient needs.

    The value is the squared residual summed over the tokens (columns) and
    divided by their count. Inputs are not scanned for NaN/Inf, so a diverged
    student yields a non-finite value for the caller's loss check to report.
    A student output with a leading item axis gives one value per item.
    """
    if student_y.shape[-2:] != teacher_y.shape:
        raise ShapeMismatch(f"student {student_y.shape} vs teacher {teacher_y.shape}")
    residual = student_y - teacher_y
    n_valid = residual.shape[-1]
    if n_valid == 0:
        raise AllMasked("every token is masked")
    value = np.sum(residual * residual, axis=(-2, -1)) / n_valid
    return (float(value) if value.ndim == 0 else value), residual
