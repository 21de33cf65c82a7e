"""Tests for the EMA teacher and the self-distillation loss."""

import numpy as np
import pytest

from clusterup.distill import (
    EmaTeacher,
    eesd_terms,
    ema_update,
    make_teacher,
    teacher_forward,
)
from clusterup.errors import AllMasked, ShapeMismatch
from clusterup.moe import DenseFfn, MoeLayer, dense_ensemble_forward, moe_forward


def eesd_loss(student_y, teacher_y, mask=None) -> float:
    """``eesd_terms``'s value over the tokens (columns) ``mask`` selects,
    every token without one."""
    if mask is None:
        return eesd_terms(student_y, teacher_y)[0]
    valid = np.asarray(mask, dtype=bool)
    return eesd_terms(student_y[:, valid], teacher_y[:, valid])[0]


def random_layer(rng, n_experts=4, d=4, h=6, k=2):
    experts = [
        DenseFfn(
            rng.standard_normal((h, d)), rng.standard_normal(h),
            rng.standard_normal((d, h)), rng.standard_normal(d),
        )
        for _ in range(n_experts)
    ]
    return MoeLayer(experts, rng.standard_normal((n_experts, d)), k, 1e9)


class TestEmaUpdate:
    def test_default_coefficient_single_step(self):
        rng = np.random.default_rng(0)
        student = random_layer(rng)
        teacher = make_teacher(student, beta=0.999)
        for t_param, _ in zip([teacher.mirror.router], [None]):
            t_param[...] = 0.0
        student.router[...] = 1.0
        ema_update(teacher, student)
        np.testing.assert_allclose(teacher.mirror.router, 0.001, atol=1e-15)

    def test_beta_one_is_frozen_bitwise(self):
        rng = np.random.default_rng(1)
        student = random_layer(rng)
        teacher = make_teacher(student, beta=1.0)
        before = teacher.mirror.router.copy()
        student.router += 5.0
        ema_update(teacher, student)
        assert np.array_equal(teacher.mirror.router, before)

    def test_beta_zero_tracks_student(self):
        rng = np.random.default_rng(2)
        student = random_layer(rng)
        teacher = make_teacher(student, beta=0.0)
        student.router += 3.0
        student.experts[0].w1 *= 2.0
        ema_update(teacher, student)
        assert np.array_equal(teacher.mirror.router, student.router)
        assert np.array_equal(teacher.mirror.experts[0].w1, student.experts[0].w1)

    def test_closed_form_geometric_mixing(self):
        rng = np.random.default_rng(3)
        student = random_layer(rng)
        teacher = make_teacher(student, beta=0.999)
        p0 = {i: e.w1.copy() for i, e in enumerate(teacher.mirror.experts)}
        r0 = teacher.mirror.router.copy()
        # Move the student once, then hold it constant for n updates.
        student.router += 1.5
        for e in student.experts:
            e.w1 -= 0.7
        n = 100
        for _ in range(n):
            ema_update(teacher, student)
        decay = 0.999 ** n
        np.testing.assert_allclose(
            teacher.mirror.router, decay * r0 + (1 - decay) * student.router,
            atol=1e-10,
        )
        for i, e in enumerate(teacher.mirror.experts):
            np.testing.assert_allclose(
                e.w1, decay * p0[i] + (1 - decay) * student.experts[i].w1,
                atol=1e-10,
            )

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        teacher = make_teacher(random_layer(rng, n_experts=3), beta=0.9)
        with pytest.raises(ShapeMismatch):
            ema_update(teacher, random_layer(rng, n_experts=4))

    def test_invalid_beta(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            EmaTeacher(mirror=random_layer(rng), beta=1.5)


class TestEesdLoss:
    def test_identical_predictions(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((4, 9))
        assert eesd_loss(y, y.copy()) == 0.0

    def test_unit_gap_single_token(self):
        student = np.array([[0.0], [0.0]])
        teacher = np.array([[1.0], [0.0]])
        assert eesd_loss(student, teacher) == 1.0

    def test_mask_excludes_tokens(self):
        student = np.array([[0.0, 0.0]])
        teacher = np.array([[1.0, np.sqrt(3.0)]])  # per-token losses 1 and 3
        assert abs(eesd_loss(student, teacher, mask=[True, False]) - 1.0) < 1e-12
        assert abs(eesd_loss(student, teacher, mask=[True, True]) - 2.0) < 1e-12

    def test_all_masked(self):
        with pytest.raises(AllMasked):
            eesd_loss(np.zeros((2, 3)), np.zeros((2, 3)), mask=[False] * 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            eesd_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestTeacherStudentContrast:
    def test_teacher_uses_dense_ensemble(self):
        rng = np.random.default_rng(7)
        student = random_layer(rng)
        teacher = make_teacher(student, beta=0.999)
        x = rng.standard_normal((4, 11))
        np.testing.assert_allclose(
            teacher_forward(teacher, x),
            dense_ensemble_forward(teacher.mirror, x),
            atol=1e-12,
        )

    def test_zero_gap_at_full_k_and_equal_params(self):
        rng = np.random.default_rng(8)
        student = random_layer(rng, n_experts=4, k=4)
        teacher = make_teacher(student, beta=0.999)
        x = rng.standard_normal((4, 13))
        y, _ = moe_forward(student, x)
        assert eesd_loss(y, teacher_forward(teacher, x)) < 1e-10

    def test_gap_non_increasing_in_k(self):
        # Widening the selection moves the student toward the ensemble.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n_e = 6
            experts = [
                DenseFfn(
                    rng.standard_normal((8, 5)) / np.sqrt(5),
                    rng.standard_normal(8) * 0.1,
                    rng.standard_normal((5, 8)) / np.sqrt(8),
                    rng.standard_normal(5) * 0.1,
                )
                for _ in range(n_e)
            ]
            router = rng.standard_normal((n_e, 5)) * 0.5
            x = rng.standard_normal((5, 32))
            losses = []
            for k in range(1, n_e + 1):
                layer = MoeLayer([e.copy() for e in experts], router.copy(), k, 1e9)
                y, _ = moe_forward(layer, x)
                losses.append(eesd_loss(y, dense_ensemble_forward(layer, x)))
            assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
