"""Tests for the toy model, synthetic data, losses, SGD, and grad checks."""

import math

import numpy as np
import pytest

from clusterup.clustering import spherical_kmeans
from clusterup.errors import NonFiniteLoss, SeparationInfeasible
from clusterup import train
from clusterup.moe import DenseFfn, block_params
from clusterup.train import (
    LossReport,
    ToyModel,
    evaluate,
    grad_check,
    make_dense_model,
    make_model_teacher,
    make_synthetic_dataset,
    model_forward,
    named_params,
    run_training,
    total_loss,
    train_step,
    update_model_teacher,
)
from clusterup.upcycle import upcycle_model
from scipy.optimize import linear_sum_assignment


class TestSyntheticDataset:
    def test_noiseless_limit(self):
        ds = make_synthetic_dataset(16, 4, 8, 200, separation=1e9, seed=0)
        gap = np.abs(ds.inputs - ds.directions[ds.cluster_ids].T).max()
        assert gap < 1e-8
        # Nearest-centroid classification is perfect in the noiseless limit.
        sims = ds.directions @ ds.inputs
        predicted_cluster = sims.argmax(axis=0)
        assert (predicted_cluster % 4 == ds.labels).all()

    def test_determinism(self):
        a = make_synthetic_dataset(8, 2, 4, 100, 3.0, seed=5)
        b = make_synthetic_dataset(8, 2, 4, 100, 3.0, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_direction_separation_contract(self):
        ds = make_synthetic_dataset(16, 2, 6, 50, separation=5.0, seed=1)
        sims = ds.directions @ ds.directions.T - np.eye(6)
        assert sims.max() < 1.0 / 5.0

    def test_clustering_recovers_labels(self):
        ds = make_synthetic_dataset(16, 4, 8, 600, separation=5.0, seed=2)
        x = ds.inputs / np.linalg.norm(ds.inputs, axis=0, keepdims=True)
        model = spherical_kmeans(x, 8, seed=3)
        confusion = np.zeros((8, 8), dtype=int)
        for pred, true in zip(model.assignments, ds.cluster_ids):
            confusion[pred, true] += 1
        rows, cols = linear_sum_assignment(-confusion)
        assert confusion[rows, cols].sum() >= 0.95 * ds.n

    def test_labels_are_cluster_mod_classes(self):
        ds = make_synthetic_dataset(8, 3, 6, 120, 2.0, seed=4)
        assert (ds.labels == ds.cluster_ids % 3).all()

    def test_infeasible_separation(self):
        # More clusters than dimensions cannot be orthogonalized.
        with pytest.raises(SeparationInfeasible):
            make_synthetic_dataset(2, 2, 10, 20, separation=1e9, seed=5,
                                   retry_budget=200)

    def test_slice_shares_distribution(self):
        ds = make_synthetic_dataset(8, 2, 4, 100, 3.0, seed=6)
        head, tail = ds.slice(0, 60), ds.slice(60, 100)
        assert head.n == 60 and tail.n == 40
        assert np.array_equal(head.directions, tail.directions)
        assert np.array_equal(np.concatenate([head.labels, tail.labels]), ds.labels)


class TestLossReport:
    def test_total_decomposition_exact(self):
        report = LossReport.build(1.25, 0.125, 0.5, 0.001, 1.0)
        assert report.total == 1.25 + 0.001 * 0.125 + 1.0 * 0.5

    def test_small_lambda_contribution(self):
        report = LossReport.build(0.0, 0.125, 0.0, 0.001, 0.0)
        assert abs(report.total - 1.25e-4) < 1e-18


class TestTotalLoss:
    def test_zero_lambdas_reduce_to_task(self):
        model = make_dense_model(6, 8, 2, 3, seed=0)
        ds = make_synthetic_dataset(6, 3, 3, 40, 3.0, seed=1)
        report, _, _ = total_loss(model, None, ds.inputs, ds.labels)
        assert report.total == report.task
        assert report.lb == 0.0 and report.eesd == 0.0

    def test_uniform_logits_give_log_c(self):
        model = make_dense_model(6, 8, 2, 4, seed=2)
        model.head[...] = 0.0
        ds = make_synthetic_dataset(6, 4, 4, 30, 3.0, seed=3)
        report, _, _ = total_loss(model, None, ds.inputs, ds.labels)
        assert abs(report.task - math.log(4)) < 1e-10

    def test_lb_included_for_moe(self):
        dense = make_dense_model(6, 8, 2, 3, seed=4)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=2,
                                  capacity_factor=2.0, seed=5)
        ds = make_synthetic_dataset(6, 3, 3, 40, 3.0, seed=6)
        report, _, _ = total_loss(moe, None, ds.inputs, ds.labels, lambda_lb=0.01)
        assert report.lb > 0.0
        assert abs(report.total - (report.task + 0.01 * report.lb)) < 1e-15

    def test_eesd_zero_when_teacher_equals_student_full_k(self):
        dense = make_dense_model(6, 8, 2, 3, seed=7)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=4,
                                  capacity_factor=1e9, seed=8)
        teacher = make_model_teacher(moe, beta=0.999)
        ds = make_synthetic_dataset(6, 3, 3, 30, 3.0, seed=9)
        report, _, _ = total_loss(moe, teacher, ds.inputs, ds.labels, lambda_eesd=1.0)
        assert report.eesd < 1e-10


class TestTrainStep:
    def test_zero_lr_keeps_params_and_updates_teacher(self):
        dense = make_dense_model(6, 8, 2, 3, seed=10)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=3, k=1,
                                  capacity_factor=2.0, seed=11)
        teacher = make_model_teacher(moe, beta=0.5)
        ds = make_synthetic_dataset(6, 3, 3, 20, 3.0, seed=12)
        before = {name: arr.copy() for name, arr in named_params(moe)}
        train_step(moe, teacher, ds.inputs, ds.labels, lr=0.0, lambda_lb=0.01)
        for name, arr in named_params(moe):
            assert np.array_equal(arr, before[name]), name
        assert all(t.step_count == 1 for t in teacher.sites.values())

    def test_scalar_quadratic_gradient_descent(self):
        # One-parameter surrogate: d=1 head on fixed input reproduces the
        # closed-form GD update for cross-entropy with two classes.
        model = ToyModel(
            input_dim=1, blocks=[],
            head=np.array([[0.3], [-0.2]]),
        )
        x = np.array([[1.0]])
        labels = np.array([0])
        report, grads, _ = total_loss(model, None, x, labels)
        p = np.exp(model.head @ x)
        p /= p.sum()
        expected_grad = np.array([[p[0, 0] - 1.0], [p[1, 0]]])
        np.testing.assert_allclose(grads["head"], expected_grad, atol=1e-12)
        w0 = model.head.copy()
        train_step(model, None, x, labels, lr=0.1)
        np.testing.assert_allclose(model.head, w0 - 0.1 * expected_grad, atol=1e-12)

    def test_loss_decreases_on_noiseless_data(self):
        model = make_dense_model(8, 12, 2, 2, seed=13)
        ds = make_synthetic_dataset(8, 2, 4, 128, separation=1e6, seed=14)
        reports = run_training(model, None, ds, steps=50, batch_size=128,
                               lr=0.05, seed=15)
        losses = [r.task for r in reports]
        diffs = np.diff(losses)
        assert (diffs <= 1e-6).all()

    def test_non_finite_loss_raises(self):
        model = make_dense_model(4, 6, 1, 2, seed=16)
        model.head[...] = np.nan
        ds = make_synthetic_dataset(4, 2, 2, 10, 3.0, seed=17)
        with pytest.raises(NonFiniteLoss) as err:
            train_step(model, None, ds.inputs, ds.labels, lr=0.1)
        assert err.value.report is not None

    def test_diverged_eesd_step_raises_non_finite_loss(self):
        # The training path does not scan for NaN/Inf, so a diverged expert
        # reaches the loss check through the distillation term.
        dense = make_dense_model(6, 8, 2, 3, seed=16)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=3, k=2,
                                  capacity_factor=1.5, seed=17)
        teacher = make_model_teacher(moe, beta=0.999)
        moe.blocks[moe.moe_sites[0]].experts[0].w1[0, 0] = np.nan
        ds = make_synthetic_dataset(6, 3, 3, 32, 3.0, seed=18)
        with pytest.raises(NonFiniteLoss) as err:
            train_step(moe, teacher, ds.inputs, ds.labels, lr=0.1,
                       lambda_lb=0.001, lambda_eesd=1.0)
        assert not math.isfinite(err.value.report.eesd)

    def test_training_run_bit_reproducible(self):
        outcomes = []
        for _ in range(2):
            dense = make_dense_model(6, 8, 2, 3, seed=18)
            moe, _, _ = upcycle_model(dense, "sparse", n_experts=3, k=2,
                                      capacity_factor=1.5, seed=19)
            ds = make_synthetic_dataset(6, 3, 3, 64, 3.0, seed=20)
            run_training(moe, None, ds, steps=10, batch_size=32, lr=0.05,
                         lambda_lb=0.001, seed=21)
            outcomes.append({name: arr.copy() for name, arr in named_params(moe)})
        for name in outcomes[0]:
            assert np.array_equal(outcomes[0][name], outcomes[1][name]), name


class TestSparseUpcycleEquivalence:
    def test_first_forward_pass_matches_dense(self):
        dense = make_dense_model(8, 12, 4, 3, seed=22)
        ds = make_synthetic_dataset(8, 3, 4, 300, 3.0, seed=23)
        run_training(dense, None, ds, steps=30, batch_size=64, lr=0.05, seed=24)
        rng = np.random.default_rng(25)
        tokens = rng.standard_normal((8, 200))
        dense_out = model_forward(dense, tokens).final
        for k in (1, 2, 4):
            moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=k,
                                      capacity_factor=2.0, seed=26)
            moe_out = model_forward(moe, tokens).final
            assert np.abs(moe_out - dense_out).max() < 1e-6


class TestGradCheck:
    def test_dense_model(self):
        model = make_dense_model(6, 10, 2, 3, seed=27)
        ds = make_synthetic_dataset(6, 3, 3, 24, 3.0, seed=28)
        result = grad_check(model, None, ds.inputs, ds.labels,
                            samples_per_tensor=30, seed=29)
        assert result["max_rel_error"] < 1e-5

    def test_moe_with_lb(self):
        dense = make_dense_model(6, 10, 2, 3, seed=30)
        moe, _, _ = upcycle_model(dense, "drop", n_experts=4, k=2,
                                  capacity_factor=1.5, seed=31)
        ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=32)
        result = grad_check(moe, None, ds.inputs, ds.labels,
                            lambda_lb=0.01, samples_per_tensor=30, seed=33)
        assert result["max_rel_error"] < 1e-4
        assert result["checked"] > 0

    def test_moe_with_teacher(self):
        dense = make_dense_model(6, 10, 2, 3, seed=34)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=2,
                                  capacity_factor=1.5, seed=35)
        teacher = make_model_teacher(moe, beta=0.999)
        for t in teacher.sites.values():
            t.mirror.router += 0.05
            t.mirror.experts[0].w1 += 0.01
        ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=36)
        result = grad_check(moe, teacher, ds.inputs, ds.labels,
                            lambda_lb=0.001, lambda_eesd=1.0,
                            samples_per_tensor=20, seed=37)
        assert result["max_rel_error"] < 1e-4
        assert result["teacher_max_quotient"] == 0.0

    def test_skips_sample_whose_perturbation_flips_a_relu(self):
        # pre[0] = w1[0] @ x + b1[0] = 1e-6 sits within epsilon of the kink, so
        # perturbing w1[0, 0] or b1[0] by +-1e-5 flips that unit's ReLU.
        block = DenseFfn(w1=np.eye(2), b1=np.array([1e-6 - 1.0, 0.5]),
                         w2=np.array([[4.0, 0.0], [0.0, 1.0]]), b2=np.zeros(2))
        model = ToyModel(input_dim=2, blocks=[block], head=np.eye(2))
        x = np.array([[1.0], [0.0]])
        result = grad_check(model, None, x, np.array([1]), samples_per_tensor=4)
        assert result["skipped"] == 2
        assert result["max_rel_error"] < 1e-5

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe-teacher"])
    def test_one_base_forward_pass(self, moe, monkeypatch):
        # One base pass (inside total_loss), then a +-eps pair per sampled
        # student entry, checked or skipped, and per sampled teacher entry.
        model = make_dense_model(6, 10, 2, 3, seed=34)
        teacher = None
        if moe:
            model, _, _ = upcycle_model(model, "sparse", n_experts=4, k=2,
                                        capacity_factor=1.5, seed=35)
            teacher = make_model_teacher(model, beta=0.999)
        ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=36)
        calls = []
        forward = train.model_forward
        monkeypatch.setattr(train, "model_forward",
                            lambda *a, **k: calls.append(1) or forward(*a, **k))
        result = grad_check(model, teacher, ds.inputs, ds.labels, lambda_lb=0.001,
                            lambda_eesd=1.0 if moe else 0.0, samples_per_tensor=5)
        teacher_samples = 0 if teacher is None else sum(
            min(5, arr.size) for t in teacher.sites.values()
            for _, arr in block_params(t.mirror)
        )
        expected = 1 + 2 * (result["checked"] + result["skipped"]) + 2 * teacher_samples
        assert len(calls) == expected

    def test_epsilon_bounds(self):
        model = make_dense_model(4, 6, 1, 2, seed=38)
        ds = make_synthetic_dataset(4, 2, 2, 10, 3.0, seed=39)
        with pytest.raises(ValueError):
            grad_check(model, None, ds.inputs, ds.labels, epsilon=1e-2)


class TestTeacherPlumbing:
    def test_ema_closed_form_at_model_level(self):
        dense = make_dense_model(6, 8, 2, 3, seed=40)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=3, k=1,
                                  capacity_factor=1.5, seed=41)
        teacher = make_model_teacher(moe, beta=0.999)
        site = moe.moe_sites[0]
        p0 = teacher.sites[site].mirror.router.copy()
        moe.blocks[site].router += 2.0
        for _ in range(100):
            update_model_teacher(teacher, moe)
        decay = 0.999 ** 100
        expected = decay * p0 + (1 - decay) * moe.blocks[site].router
        np.testing.assert_allclose(teacher.sites[site].mirror.router, expected,
                                   atol=1e-10)

    def test_evaluate_accuracy_on_separable_data(self):
        model = make_dense_model(8, 12, 2, 2, seed=42)
        ds = make_synthetic_dataset(8, 2, 4, 256, separation=20.0, seed=43)
        run_training(model, None, ds, steps=150, batch_size=128, lr=0.05, seed=44)
        _, _, acc = evaluate(model, ds.inputs, ds.labels)
        assert acc > 0.95
