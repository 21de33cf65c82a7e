"""Tests for the toy model, synthetic data, losses, SGD, and grad checks."""

import dataclasses
import math
import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from clusterup.analysis import routing_entropy
from clusterup.clustering import spherical_kmeans
from clusterup.errors import NonFiniteLoss, SeparationInfeasible, ShapeMismatch
from clusterup import train
import clusterup.workers
from clusterup.config import INIT_METHODS, config_from_dict
from clusterup.moe import FFN_PARAMS, DenseFfn, MoeForwardCache, MoeLayer, block_params
from clusterup.pipeline import load_model_checkpoint, save_model_checkpoint
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
    param_buffers,
    run_training,
    total_loss,
    train_step,
    update_model_teacher,
)
from clusterup.upcycle import capture_activations, upcycle_model
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
        report, _, _, _ = total_loss(model, None, ds.inputs, ds.labels)
        assert report.total == report.task
        assert report.lb == 0.0 and report.eesd == 0.0

    def test_uniform_logits_give_log_c(self):
        model = make_dense_model(6, 8, 2, 4, seed=2)
        model.head[...] = 0.0
        ds = make_synthetic_dataset(6, 4, 4, 30, 3.0, seed=3)
        report, _, _, _ = total_loss(model, None, ds.inputs, ds.labels)
        assert abs(report.task - math.log(4)) < 1e-10

    def test_lb_included_for_moe(self):
        dense = make_dense_model(6, 8, 2, 3, seed=4)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=2,
                                  capacity_factor=2.0, seed=5)
        ds = make_synthetic_dataset(6, 3, 3, 40, 3.0, seed=6)
        report, _, _, _ = total_loss(moe, None, ds.inputs, ds.labels, lambda_lb=0.01)
        assert report.lb > 0.0
        assert abs(report.total - (report.task + 0.01 * report.lb)) < 1e-15

    def test_eesd_zero_when_teacher_equals_student_full_k(self):
        dense = make_dense_model(6, 8, 2, 3, seed=7)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=4,
                                  capacity_factor=1e9, seed=8)
        teacher = make_model_teacher(moe, beta=0.999)
        ds = make_synthetic_dataset(6, 3, 3, 30, 3.0, seed=9)
        report, _, _, _ = total_loss(moe, teacher, ds.inputs, ds.labels, lambda_eesd=1.0)
        assert report.eesd < 1e-10


class TestTrainStep:
    def test_zero_lr_keeps_params_and_updates_teacher(self):
        dense = make_dense_model(6, 8, 2, 3, seed=10)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=3, k=1,
                                  capacity_factor=2.0, seed=11)
        teacher = make_model_teacher(moe, beta=0.5)
        for site_teacher in teacher.sites.values():
            site_teacher.mirror.params += 1.0
        ds = make_synthetic_dataset(6, 3, 3, 20, 3.0, seed=12)
        before = {name: arr.copy() for name, arr in named_params(moe)}
        train_step(moe, teacher, ds.inputs, ds.labels, lr=0.0, lambda_lb=0.01)
        for name, arr in named_params(moe):
            assert np.array_equal(arr, before[name]), name
        for b, site_teacher in teacher.sites.items():
            student = moe.blocks[b].params
            expected = 0.5 * (student + 1.0) + 0.5 * student
            assert np.array_equal(site_teacher.mirror.params, expected)

    def test_scalar_quadratic_gradient_descent(self):
        # One-parameter surrogate: d=1 head on fixed input reproduces the
        # closed-form GD update for cross-entropy with two classes.
        model = ToyModel(
            input_dim=1, blocks=[],
            head=np.array([[0.3], [-0.2]]),
        )
        x = np.array([[1.0]])
        labels = np.array([0])
        report, grads, _, _ = total_loss(model, None, x, labels)
        p = np.exp(model.head @ x)
        p /= p.sum()
        expected_grad = np.array([[p[0, 0] - 1.0], [p[1, 0]]])
        np.testing.assert_allclose(dict(named_params(model, grads))["head"],
                                   expected_grad, atol=1e-12)
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
        # One base pass (inside total_loss); the stacked passes of the
        # chunks are not model_forward calls.
        calls, _, _, _ = _counted_grad_check(moe, monkeypatch, "model_forward")
        assert calls["model_forward"] == 1

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe-teacher"])
    def test_base_objective_and_teacher_outputs_computed_once(self, moe, monkeypatch):
        # total_loss's objective and teacher outputs serve every chunk; each
        # chunk evaluates the objective once, and the teacher's tensors,
        # which no student block reads, none.
        calls, _, model, _ = _counted_grad_check(
            moe, monkeypatch, "_objective", "teacher_forward")
        assert calls["teacher_forward"] == (len(model.moe_sites) if moe else 0)
        assert calls["_objective"] == 1 + len(_chunk_blocks(model, 5))

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe-teacher"])
    def test_passes_resume_at_perturbed_block(self, moe, monkeypatch):
        # The base pass evaluates every block; the stacked pass of a chunk
        # of block b's entries evaluates blocks b.. once, and one of head
        # entries none.
        model = make_dense_model(6, 10, 4, 3, seed=34)
        teacher = None
        if moe:
            model, _, _ = upcycle_model(model, "sparse", n_experts=4, k=2,
                                        capacity_factor=1.5, seed=35)
            teacher = make_model_teacher(model, beta=0.999)
        ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=36)
        calls = []
        for name in ("ffn_forward_cached", "moe_forward_cached"):
            block_forward = getattr(train, name)
            monkeypatch.setattr(train, name, lambda *a, f=block_forward, **k:
                                calls.append(1) or f(*a, **k))
        grad_check(model, teacher, ds.inputs, ds.labels, lambda_lb=0.001,
                   lambda_eesd=1.0 if moe else 0.0, samples_per_tensor=5)
        n_blocks = len(model.blocks)
        expected = n_blocks + sum(n_blocks - b for b in _chunk_blocks(model, 5))
        assert len(calls) == expected

    def test_epsilon_bounds(self):
        model = make_dense_model(4, 6, 1, 2, seed=38)
        ds = make_synthetic_dataset(4, 2, 2, 10, 3.0, seed=39)
        with pytest.raises(ValueError):
            grad_check(model, None, ds.inputs, ds.labels, epsilon=1e-2)


def _chunk_blocks(model, samples_per_tensor) -> list[int]:
    """The resume block of each of ``grad_check``'s chunks on ``model``
    (``len(model.blocks)`` for the head)."""
    n_blocks, chunk = len(model.blocks), train.GRADCHECK_CHUNK
    tensors = [(n_blocks, model.head)] + [
        (b, arr) for b, block in enumerate(model.blocks) for _, arr in block_params(block)]
    return [b for b, arr in tensors for _ in range(-(-min(samples_per_tensor, arr.size) // chunk))]


def _counted_grad_check(moe, monkeypatch, *names, **kwargs):
    """``grad_check`` on a small dense model, or its upcycled MoE model with
    an EMA teacher, counting calls made in this process to each ``train``
    attribute in ``names``; ``kwargs`` go to ``grad_check``. Returns the
    counts, the result, the model and its teacher (None for the dense
    model)."""
    model = make_dense_model(6, 10, 2, 3, seed=34)
    teacher = None
    if moe:
        model, _, _ = upcycle_model(model, "sparse", n_experts=4, k=2,
                                    capacity_factor=1.5, seed=35)
        teacher = make_model_teacher(model, beta=0.999)
    ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=36)
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(train, name, counted(name, getattr(train, name)))
    result = grad_check(model, teacher, ds.inputs, ds.labels, lambda_lb=0.001,
                        lambda_eesd=1.0 if moe else 0.0, samples_per_tensor=5, **kwargs)
    return calls, result, model, teacher


def _stacked_items(model, base, capacity, resume, name, arr, edits):
    """One stacked pass (``train._stacked_pass``) whose items are ``arr``
    with each ``(flat index, value)`` of ``edits`` written in turn, and the
    full pass of ``model`` each item stands for."""
    stacked = np.repeat(arr[None], len(edits), axis=0)
    fulls = []
    for item, (flat_idx, value) in zip(stacked, edits):
        item.flat[flat_idx] = value
        orig = arr.flat[flat_idx]
        arr.flat[flat_idx] = value
        fulls.append(model_forward(model, base.caches[0].x, capacity))
        arr.flat[flat_idx] = orig
    return train._stacked_pass(model, base, resume, name, stacked, capacity), fulls


def _item(arr, i):
    """Item ``i`` of an array of a stacked pass, or the array where it has
    no item axis."""
    return arr[i] if arr.ndim == 3 else arr


def _assert_items_are_full_passes(model, base, stacked, fulls, labels) -> list[bool]:
    """Each item of ``stacked`` made the full pass's decisions exactly when
    ``train._same_decisions`` says so, and then has its logits, output,
    site outputs and objective bit for bit. Returns the flags."""
    same = train._same_decisions(stacked, base, len(fulls)).tolist()
    rng = np.random.default_rng(0)
    frozen = {b: rng.standard_normal(base.caches[b].y.shape) for b in model.moe_sites}
    totals = np.broadcast_to(train._objective(model, stacked, labels, frozen, 0.01, 0.5,
                                              grad=False)[0].total, (len(fulls),))
    for i, full in enumerate(fulls):
        assert same[i] == (_decisions(full) == _decisions(base)), i
        if not same[i]:
            continue
        assert _item(stacked.logits, i).tobytes() == full.logits.tobytes(), i
        assert _item(stacked.final, i).tobytes() == full.final.tobytes(), i
        for b in model.moe_sites:
            assert _item(stacked.caches[b].y, i).tobytes() == full.caches[b].y.tobytes()
        total = train._objective(model, full, labels, frozen, 0.01, 0.5)[0].total
        assert np.float64(totals[i]).tobytes() == np.float64(total).tobytes(), i
    return same


class TestResumedForward:
    """A stacked pass from a tensor's resume point (``grad_check``'s
    chunks) gives each item the bits of a full pass of the model with that
    item's tensor."""

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe-drops"])
    def test_resumed_pass_equals_full_pass(self, moe):
        model = make_dense_model(6, 10, 4, 3, seed=50)
        if moe:
            model, _, _ = upcycle_model(model, "drop", n_experts=4, k=2,
                                        capacity_factor=1.0, seed=51)
        x = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=52).inputs
        labels = np.arange(x.shape[1]) % 3
        base = model_forward(model, x, 1.0)
        if moe:
            assert any(r.dropped.any() for r in base.records.values())
        changed = kept = 0
        for resume, name, arr in train._staged_params(model):
            first, last = arr.flat[0], arr.flat[-1]
            edits = [(0, first + 0.3), (0, first - 0.3), (arr.size - 1, last + 1e-5)]
            stacked, fulls = _stacked_items(model, base, 1.0, resume, name, arr, edits)
            kept += sum(_assert_items_are_full_passes(model, base, stacked, fulls, labels))
            changed += not np.array_equal(fulls[0].logits, base.logits)
        # An entry of an expert that receives no token changes nothing.
        n_tensors = len(list(named_params(model)))
        assert changed > n_tensors // 2
        # Both kinds of item occur: kept decisions and flipped ones.
        assert n_tensors < kept < 3 * n_tensors

    def test_resume_needs_base_state(self):
        model = make_dense_model(4, 6, 2, 2, seed=53)
        with pytest.raises(ValueError, match="fixed state"):
            train._forward(model.blocks, model.head, np.zeros((4, 3)), None, start=1)


class TestStopGradient:
    @staticmethod
    def _model_and_teacher():
        dense = make_dense_model(6, 10, 4, 3, seed=54)
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=4, k=2,
                                  capacity_factor=1.5, seed=55)
        teacher = make_model_teacher(moe, beta=0.999)
        for t in teacher.sites.values():
            t.mirror.router += 0.05
            t.mirror.experts[0].w1 += 0.01
        return moe, teacher, make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=56)

    def test_no_teacher_gradients(self):
        moe, teacher, ds = self._model_and_teacher()
        _, grads, _, _ = total_loss(moe, teacher, ds.inputs, ds.labels,
                                    lambda_lb=0.001, lambda_eesd=1.0)
        # One buffer per student buffer, so no slot for a teacher gradient.
        assert [g.shape for g in grads] == [p.shape for p in param_buffers(moe)]

    def test_eesd_term_matches_finite_difference_in_student_output(self, monkeypatch):
        # Each block's backward passes zero upstream, so at every MoE site
        # dy = head.T @ dlogits + the site's EESD term; that term must equal
        # the derivative of the objective wrt the site's output y with the
        # teacher outputs held fixed.
        moe, teacher, ds = self._model_and_teacher()
        lambda_lb, lambda_eesd, eps = 0.001, 0.7, 1e-5
        site_dy = {}

        def moe_backward(layer, cache, dy, dprobs_extra, f=train.moe_backward):
            site_dy[id(cache)] = dy.copy()
            dxi, grads = f(layer, cache, dy, dprobs_extra)
            return np.zeros_like(dxi), grads

        def ffn_backward(ffn, cache, dy, grads, f=train.ffn_backward):
            return np.zeros_like(f(ffn, cache, dy, grads))

        monkeypatch.setattr(train, "moe_backward", moe_backward)
        monkeypatch.setattr(train, "ffn_backward", ffn_backward)
        _, _, state, _ = total_loss(moe, teacher, ds.inputs, ds.labels,
                                    lambda_lb=lambda_lb, lambda_eesd=lambda_eesd)
        frozen = train._teacher_outputs(teacher, state, moe.moe_sites)

        def objective():
            return train._objective(moe, state, ds.labels, frozen,
                                    lambda_lb, lambda_eesd)[0].total

        dlogits = train._objective(moe, state, ds.labels, frozen,
                                   lambda_lb, lambda_eesd)[1]
        upstream = moe.head.T @ dlogits
        assert len(site_dy) == len(moe.moe_sites) == 2
        for b in moe.moe_sites:
            y = state.caches[b].y
            numeric = np.empty_like(y)
            for i in range(y.size):
                orig = y.flat[i]
                y.flat[i] = orig + eps
                plus = objective()
                y.flat[i] = orig - eps
                minus = objective()
                y.flat[i] = orig
                numeric.flat[i] = (plus - minus) / (2.0 * eps)
            term = site_dy[id(state.caches[b])] - upstream
            assert np.abs(term).max() > 1e-4
            np.testing.assert_allclose(term, numeric, rtol=1e-6, atol=1e-9)


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


def _address(arr) -> int:
    return arr.__array_interface__["data"][0]


def assert_buffer_views(block):
    """Every ``block_params`` tensor is a C-contiguous view of ``block.params``
    at its walk offset, and each expert's ``params`` is its slice."""
    base, offset = _address(block.params), 0
    assert block.params.ndim == 1 and block.params.dtype == np.float64
    for name, arr in block_params(block):
        assert arr.flags.c_contiguous, name
        assert np.shares_memory(arr, block.params), name
        assert _address(arr) == base + 8 * offset, name
        offset += arr.size
    assert offset == block.params.size
    if isinstance(block, MoeLayer):
        offset = block.router.size
        for expert in block.experts:
            assert _address(expert.params) == base + 8 * offset
            assert_buffer_views(expert)
            offset += expert.params.size


def _moe_and_teacher(beta=0.999):
    dense = make_dense_model(6, 8, 4, 3, seed=60)
    moe, _, _ = upcycle_model(dense, "drop", n_experts=3, k=2,
                              capacity_factor=1.5, seed=61)
    teacher = make_model_teacher(moe, beta)
    for site_teacher in teacher.sites.values():
        site_teacher.mirror.params += 0.01
    return moe, teacher, make_synthetic_dataset(6, 3, 4, 40, 3.0, seed=62)


class TestParameterBuffers:
    def test_construction_and_copy(self):
        rng = np.random.default_rng(63)
        ffn = DenseFfn(rng.standard_normal((5, 3)), np.zeros(5),
                       rng.standard_normal((3, 5)), np.ones(3))
        experts = [ffn.copy() for _ in range(3)]
        before = [e.params.copy() for e in experts]
        layer = MoeLayer(experts, rng.standard_normal((3, 3)), k=2, capacity_factor=1.0)
        # __reduce__ makes pickle and copy.deepcopy rebuild each block
        # around one buffer, with equal values.
        pickled = [pickle.loads(pickle.dumps(block)) for block in (ffn, layer)]
        for block in (ffn, ffn.copy(), layer, layer.copy(), *pickled):
            assert_buffer_views(block)
        for original, copy in zip((ffn, layer), pickled):
            assert np.array_equal(copy.params, original.params)
        # The layer copies the experts it is given and leaves them as they were.
        for expert, old in zip(experts, before):
            assert not np.shares_memory(expert.params, layer.params)
            assert np.array_equal(expert.params, old)
        assert not np.shares_memory(layer.copy().params, layer.params)
        for (_, a), (_, b) in zip(block_params(layer.copy()), block_params(layer)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", INIT_METHODS)
    def test_upcycled_and_loaded_blocks(self, method, tmp_path):
        dense = make_dense_model(6, 8, 4, 3, seed=64)
        ds = make_synthetic_dataset(6, 3, 4, 200, 3.0, seed=65)
        bank = capture_activations(dense, ds.inputs, [1, 3], token_cap=200, seed=66)
        moe, _, _ = upcycle_model(dense, method, n_experts=3, k=2,
                                  capacity_factor=1.5, seed=67, bank=bank)
        path = tmp_path / "m.ckpt"
        cfg = config_from_dict({"model": {"d": 6, "h": 8, "blocks": 4, "n_classes": 3},
                                "moe": {"n_experts": 3}})
        save_model_checkpoint(path, moe, cfg, {"root": 0})
        loaded = load_model_checkpoint(path, cfg)
        for model in (moe, loaded):
            for block in model.blocks:
                assert_buffer_views(block)

    @pytest.mark.parametrize("beta", [0.0, 0.999, 1.0])
    def test_step_equals_per_tensor_update(self, beta):
        moe, teacher, ds = _moe_and_teacher(beta)
        ref, ref_teacher = moe.copy(), make_model_teacher(moe, beta)
        for b, site_teacher in teacher.sites.items():
            ref_teacher.sites[b].mirror.params[...] = site_teacher.mirror.params
        lr, kwargs = 0.05, dict(lambda_lb=0.001, lambda_eesd=1.0, capacity_factor=1.5)

        _, grads, _, _ = total_loss(ref, ref_teacher, ds.inputs, ds.labels, **kwargs)
        for (_, arr), (_, grad) in zip(named_params(ref), named_params(ref, grads)):
            arr -= lr * grad
        for b, site_teacher in ref_teacher.sites.items():
            walk = zip(block_params(site_teacher.mirror), block_params(ref.blocks[b]))
            for (_, t_param), (_, s_param) in walk:
                if beta == 0.0:
                    t_param[...] = s_param
                elif beta != 1.0:
                    t_param *= beta
                    t_param += (1.0 - beta) * s_param

        train_step(moe, teacher, ds.inputs, ds.labels, lr, **kwargs)
        for (name, a), (_, b) in zip(named_params(moe), named_params(ref)):
            assert np.array_equal(a, b), name
        for b, site_teacher in teacher.sites.items():
            walk = zip(block_params(site_teacher.mirror),
                       block_params(ref_teacher.sites[b].mirror))
            for (name, t_a), (_, t_b) in walk:
                assert np.array_equal(t_a, t_b), name

    @pytest.mark.parametrize("in_teacher", [False, True])
    def test_assignment_copies_into_buffer(self, in_teacher):
        moe, teacher, _ = _moe_and_teacher()
        layer = teacher.sites[3].mirror if in_teacher else moe.blocks[3]
        expert, rng = layer.experts[1], np.random.default_rng(68)
        targets = [(f"expert1.{key}", expert, key) for key in ("w1", "b1", "w2", "b2")]
        for name, owner, key in targets + [("router", layer, "router")]:
            new = rng.standard_normal(getattr(owner, key).shape)
            setattr(owner, key, new)
            assert_buffer_views(layer)
            assert np.array_equal(dict(block_params(layer))[name], new), name
            assert np.array_equal(getattr(owner, key), new), name
        w1 = expert.w1.copy()
        expert.w1 += 1.0
        assert np.array_equal(dict(block_params(layer))["expert1.w1"], w1 + 1.0)
        new = rng.standard_normal(layer.params.shape)
        layer.params = new
        assert_buffer_views(layer)
        assert np.array_equal(layer.params, new)
        start = layer.router.size + expert.params.size
        assert np.array_equal(expert.params, new[start:start + expert.params.size])

        before = layer.params.copy()
        wrong = [(expert, "w1", expert.w1.T), (expert, "b1", np.zeros(expert.h + 1)),
                 (layer, "router", np.zeros(layer.router.size)),
                 (expert, "params", layer.params), (layer, "params", expert.params)]
        for owner, key, value in wrong:
            with pytest.raises(ShapeMismatch, match=key):
                setattr(owner, key, value)
        assert_buffer_views(layer)
        assert np.array_equal(layer.params, before)


def _state_bytes(node) -> list:
    """Every array of a forward state (or of any cache within it) as
    (dtype, shape, bytes), in walk order, with None and integers kept as
    they are: equal lists mean equal states bit for bit."""
    if node is None or isinstance(node, int):
        return [node]
    if isinstance(node, np.ndarray):
        return [(node.dtype.str, node.shape, node.tobytes())]
    if isinstance(node, (list, tuple)):
        return [part for item in node for part in _state_bytes(item)]
    return [part for field in dataclasses.fields(node)
            for part in _state_bytes(getattr(node, field.name))]


def _expert_width(cache, expert: int) -> int:
    """The number of slots expert ``expert`` kept in an MoE cache."""
    return int(np.diff(cache.plan.offsets)[expert])


def _random_ffn(rng, d, h):
    return DenseFfn(rng.standard_normal((h, d)) / np.sqrt(d), rng.standard_normal(h) * 0.1,
                    rng.standard_normal((d, h)) / np.sqrt(h), rng.standard_normal(d) * 0.1)


def _resume_model(k: int, n_e: int = 4, capacity: float = 0.7, seed: int | None = None):
    """MoE, dense, MoE blocks at ``capacity`` (0.7 drops slots) on positive
    tokens; block 0's last router row is negative, so for ``k < n_e`` the
    tokens never pick its last expert there."""
    rng = np.random.default_rng(70 + k if seed is None else seed)
    d, h = 5, 7

    def moe():
        return MoeLayer([_random_ffn(rng, d, h) for _ in range(n_e)],
                        rng.standard_normal((n_e, d)), k, capacity)

    first = moe()
    first.router[-1] = -5.0
    model = ToyModel(input_dim=d, blocks=[first, _random_ffn(rng, d, h), moe()],
                     head=rng.standard_normal((3, d)))
    return model, np.abs(rng.standard_normal((d, 24))) + 0.1


class TestExpertResume:
    @pytest.mark.parametrize("k", [1, 3])
    def test_resumed_state_equals_full_pass(self, k):
        # One stacked pass per expert tensor, of six items: its first and
        # last entries each moved by 1e-5, -1e-5 and 0.3.
        model, x = _resume_model(k)
        labels = np.arange(x.shape[1]) % 3
        base = model_forward(model, x)
        assert all(r.dropped.any() for r in base.records.values())
        assert _expert_width(base.caches[0], -1) == 0
        experts = 0
        for (start, expert), name, arr in train._staged_params(model):
            if expert is None:
                continue
            experts += 1
            edits = [(i, arr.flat[i] + step) for i in (0, arr.size - 1)
                     for step in (1e-5, -1e-5, 0.3)]
            stacked, fulls = _stacked_items(model, base, None, (start, expert), name, arr, edits)
            _assert_items_are_full_passes(model, base, stacked, fulls, labels)
            # Blocks before the resume point are the base's objects, and
            # the site keeps the base's drops and dispatch plan.
            assert all(r is b for r, b in zip(stacked.caches[:start], base.caches[:start]))
            site, base_site = stacked.caches[start], base.caches[start]
            assert site.record.dropped is base_site.record.dropped
            assert site.plan.rows is base_site.plan.rows
            assert site.plan.columns is base_site.plan.columns
            if _expert_width(base_site, expert) == 0:  # nothing gains an item axis
                for got, want in [(stacked.logits, base.logits), (stacked.final, base.final)] + [
                        (stacked.caches[b].y, base.caches[b].y) for b in model.moe_sites]:
                    assert _state_bytes(got) == _state_bytes(want), name
        assert experts == 2 * 4 * len(FFN_PARAMS)

    def test_loss_only_objective_has_the_same_bits(self):
        model, x = _resume_model(3)
        state = model_forward(model, x)
        labels = np.arange(x.shape[1]) % 3
        with_grad, dlogits, _ = train._objective(model, state, labels, None, 0.01, 0.0)
        loss_only, none, _ = train._objective(model, state, labels, None, 0.01, 0.0,
                                              grad=False)
        assert dlogits is not None and none is None
        assert loss_only == with_grad


class TestExpertResumeProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_e=st.integers(2, 6), capacity=st.floats(0.3, 0.9),
           seed=st.integers(0, 2**16), step=st.sampled_from([1e-5, -1e-5, 0.3]))
    def test_resumed_state_equals_full_pass(self, data, n_e, capacity, seed, step):
        k = data.draw(st.integers(1, n_e), label="k")
        model, x = _resume_model(k, n_e, capacity, seed)
        base = model_forward(model, x)
        assume(all(r.dropped.any() for r in base.records.values()))
        if k < n_e:
            assert _expert_width(base.caches[0], -1) == 0
        rng = np.random.default_rng(seed)
        for resume, name, arr in train._staged_params(model):
            if not name.endswith((".w1", ".router")):
                continue
            flat_idx = rng.integers(arr.size)
            edits = [(flat_idx, arr.flat[flat_idx] + step), (flat_idx, arr.flat[flat_idx] - step)]
            stacked, fulls = _stacked_items(model, base, None, resume, name, arr, edits)
            _assert_items_are_full_passes(model, base, stacked, fulls,
                                          np.arange(x.shape[1]) % 3)


class TestObjective:
    @settings(max_examples=100, deadline=None)
    @given(n_classes=st.integers(2, 10), n_tokens=st.integers(1, 64),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**16))
    def test_cross_entropy_matches_mean_formula(self, n_classes, n_tokens, scale, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n_classes, n_tokens)) * scale
        labels = rng.integers(n_classes, size=n_tokens)
        shifted = logits - logits.max(axis=0, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=0))
        oracle = float(np.mean(log_z - shifted[labels, np.arange(n_tokens)]))
        for grad in (True, False):
            loss, _ = train._cross_entropy(logits, labels, grad)
            assert np.float64(loss).tobytes() == np.float64(oracle).tobytes()

def _decisions(state) -> bytes:
    """Top-k selections, capacity drops and ReLU signs of every block of one
    forward pass, packed into one byte string, so two passes compare with
    one equality test; a site's selections and drops precede, and fix the
    sizes of, its expert ReLU masks, so equal bytes mean equal decisions."""
    parts = []
    for cache in state.caches:
        if isinstance(cache, MoeForwardCache):
            parts += [cache.record.topk_indices, cache.record.dropped]
            parts += [c.act > 0.0 for c in cache.expert_caches if c is not None]
        else:
            parts.append(cache.act > 0.0)
    return b"".join(part.tobytes() for part in parts)


def _full_pass_grad_check(model, teacher, inputs, labels, epsilon, *, lambda_lb,
                          lambda_eesd, capacity_factor, samples_per_tensor, seed):
    """``grad_check`` with a full forward pass for every evaluation, every
    block's decisions compared, and the objective's gradient computed too."""
    _, grads, state, _ = total_loss(model, teacher, inputs, labels, lambda_lb=lambda_lb,
                                    lambda_eesd=lambda_eesd, capacity_factor=capacity_factor)
    named_grads = dict(named_params(model, grads))
    frozen = train._teacher_outputs(teacher, state, model.moe_sites)

    def evaluate_at(arr, flat_idx, value):
        orig = arr.flat[flat_idx]
        arr.flat[flat_idx] = value
        forward = model_forward(model, inputs, capacity_factor)
        arr.flat[flat_idx] = orig
        loss = train._objective(model, forward, labels, frozen, lambda_lb, lambda_eesd)
        return loss[0].total, _decisions(forward)

    rng = np.random.default_rng(seed)
    per_tensor, max_rel, checked, skipped = {}, 0.0, 0, 0
    for name, arr in named_params(model):
        tensor_err = 0.0
        for flat_idx in rng.choice(arr.size, size=min(samples_per_tensor, arr.size),
                                   replace=False):
            orig = arr.flat[flat_idx]
            plus, plus_decisions = evaluate_at(arr, flat_idx, orig + epsilon)
            minus, minus_decisions = evaluate_at(arr, flat_idx, orig - epsilon)
            if not plus_decisions == minus_decisions == _decisions(state):
                skipped += 1
                continue
            numeric = (plus - minus) / (2.0 * epsilon)
            analytic = float(named_grads[name].flat[flat_idx])
            tensor_err = max(tensor_err, abs(analytic - numeric) / max(1.0, abs(numeric)))
            checked += 1
        per_tensor[name] = tensor_err
        max_rel = max(max_rel, tensor_err)
    quotient = None
    if teacher is not None:
        quotient = 0.0
        for b in sorted(teacher.sites):
            for _, arr in block_params(teacher.sites[b].mirror):
                for flat_idx in rng.choice(arr.size, size=min(samples_per_tensor, arr.size),
                                           replace=False):
                    orig = arr.flat[flat_idx]
                    plus, _ = evaluate_at(arr, flat_idx, orig + epsilon)
                    minus, _ = evaluate_at(arr, flat_idx, orig - epsilon)
                    quotient = max(quotient, abs(plus - minus) / (2.0 * epsilon))
    return {"max_rel_error": max_rel, "per_tensor": per_tensor, "checked": checked,
            "skipped": skipped, "teacher_max_quotient": quotient}


FULL_PASS_CASES = [(1, 1, 0.5), (2, 2, 1.0), (3, 3, 0.75)]


def _skipping_moe_case(seed, k, capacity):
    """A drop-upcycled MoE stack with a live EMA teacher, its dataset, and
    ``grad_check`` keyword arguments under which it skips samples."""
    dense = make_dense_model(6, 10, 4, 3, seed=80 + seed)
    moe, _, _ = upcycle_model(dense, "drop", n_experts=4, k=k,
                              capacity_factor=capacity, seed=81 + seed)
    teacher = make_model_teacher(moe, beta=0.999)
    for site_teacher in teacher.sites.values():
        site_teacher.mirror.router += 0.05
    ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=82 + seed)
    kwargs = dict(epsilon=1e-3, lambda_lb=0.01, lambda_eesd=0.5, capacity_factor=capacity,
                  samples_per_tensor=8, seed=83 + seed)
    return moe, teacher, ds, kwargs


class TestGradCheckMatchesFullPasses:
    def _check(self, seed, k, capacity, workers):
        moe, teacher, ds, kwargs = _skipping_moe_case(seed, k, capacity)
        result = grad_check(moe, teacher, ds.inputs, ds.labels, workers=workers, **kwargs)
        assert result["skipped"] > 0
        assert result == _full_pass_grad_check(moe, teacher, ds.inputs, ds.labels, **kwargs)

    @pytest.mark.parametrize("seed,k,capacity", FULL_PASS_CASES)
    def test_same_result_as_full_passes(self, seed, k, capacity):
        self._check(seed, k, capacity, workers=1)

    @pytest.mark.parametrize("seed,k,capacity", FULL_PASS_CASES)
    def test_same_result_as_full_passes_with_two_workers(self, seed, k, capacity):
        self._check(seed, k, capacity, workers=2)


class TestGradCheckProperties:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), d=st.integers(2, 4), h=st.integers(2, 5), n_e=st.integers(2, 4),
           capacity=st.floats(0.3, 1.2), lambda_lb=st.sampled_from([0.0, 0.01]),
           lambda_eesd=st.sampled_from([0.0, 0.5]), with_teacher=st.booleans(),
           samples=st.integers(1, 7), workers=st.integers(1, 3), tie=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_chunked_equals_full_passes(self, data, d, h, n_e, capacity, lambda_lb, lambda_eesd,
                                        with_teacher, samples, workers, tie, seed):
        # MoE, dense, MoE blocks; ``samples`` exceeds the size of some
        # tensors (a bias of 2 entries, say), and low capacities drop slots.
        # With ``tie``, each router's first two rows nearly agree, so +-eps
        # flips top-k selections and samples are skipped.
        k = data.draw(st.integers(1, n_e), label="k")
        rng = np.random.default_rng(seed)

        def moe():
            router = rng.standard_normal((n_e, d))
            if tie:
                router[1] = router[0] + 1e-4 * rng.standard_normal(d)
            return MoeLayer([_random_ffn(rng, d, h) for _ in range(n_e)], router, k, capacity)

        model = ToyModel(input_dim=d, blocks=[moe(), _random_ffn(rng, d, h), moe()],
                         head=rng.standard_normal((3, d)))
        teacher = None
        if with_teacher:
            teacher = make_model_teacher(model, beta=0.999)
            for site_teacher in teacher.sites.values():
                site_teacher.mirror.params += 0.05 * rng.standard_normal(
                    site_teacher.mirror.params.shape)
        x, labels = rng.standard_normal((d, 10)), rng.integers(3, size=10)
        kwargs = dict(epsilon=1e-3, lambda_lb=lambda_lb, lambda_eesd=lambda_eesd,
                      capacity_factor=capacity, samples_per_tensor=samples, seed=seed)
        result = grad_check(model, teacher, x, labels, workers=workers, **kwargs)
        assert result == _full_pass_grad_check(model, teacher, x, labels, **kwargs)


class TestGradCheckMemory:
    def test_peak_at_the_gradcheck_shape(self):
        # The MoE stack of ``gradcheck`` at the package defaults (d=32,
        # h=64, 4 blocks, 8 experts, top-2, T=32, 25 samples per tensor).
        # With its teacher, the base pass and one chunk's stacked pass it
        # peaks at about 2.1 MiB; chunks of 6 samples peaked at about 2.5
        # MiB, chunks of 8 at about 2.9 MiB.
        cfg = config_from_dict({})
        d, h = cfg.model.d, cfg.model.h
        ds = make_synthetic_dataset(d, cfg.model.n_classes, cfg.data.n_clusters, 32,
                                    cfg.data.separation, seed=1)
        dense = make_dense_model(d, h, cfg.model.blocks, cfg.model.n_classes, seed=2)
        model, _, _ = upcycle_model(dense, "sparse", n_experts=cfg.moe.n_experts, k=cfg.moe.k,
                                    capacity_factor=cfg.moe.capacity_train, seed=3)
        teacher = make_model_teacher(model, cfg.train.beta)
        for site_teacher in teacher.sites.values():
            site_teacher.mirror.router += 0.01
        tracemalloc.start()
        try:
            result = grad_check(model, teacher, ds.inputs, ds.labels,
                                lambda_lb=cfg.train.lambda_lb, lambda_eesd=cfg.train.lambda_eesd,
                                capacity_factor=cfg.moe.capacity_train, samples_per_tensor=25,
                                seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["checked"] > 0
        assert peak < 2.5 * 2**20


class TestGradCheckWorkers:
    """``grad_check`` splits its samples over ``workers`` processes: this one
    and forked children."""

    @staticmethod
    def _case(stack):
        if stack == "skips":
            model, teacher, ds, kwargs = _skipping_moe_case(1, 1, 0.5)
            return (model, teacher, ds.inputs, ds.labels), kwargs
        model = make_dense_model(6, 10, 2, 3, seed=27)
        teacher, kwargs = None, dict(samples_per_tensor=30, seed=29)
        if stack == "moe-teacher":
            model, _, _ = upcycle_model(model, "sparse", n_experts=4, k=2,
                                        capacity_factor=1.5, seed=35)
            teacher = make_model_teacher(model, beta=0.999)
            for site_teacher in teacher.sites.values():
                site_teacher.mirror.router += 0.05
            kwargs.update(lambda_lb=0.001, lambda_eesd=1.0, capacity_factor=1.5)
        ds = make_synthetic_dataset(6, 3, 4, 24, 3.0, seed=28)
        return (model, teacher, ds.inputs, ds.labels), kwargs

    @pytest.mark.parametrize("stack", ["dense", "moe-teacher", "skips"])
    def test_result_independent_of_worker_count(self, stack):
        args, kwargs = self._case(stack)
        results = [grad_check(*args, workers=workers, **kwargs) for workers in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert (results[0]["skipped"] > 0) == (stack == "skips")

    def test_failed_child_share_reruns_here(self, monkeypatch):
        # The objective raises only outside this process, so both children
        # finish no sample and their whole shares rerun here: this process
        # evaluates the objective as often as a one-process run, with the
        # same result.
        calls, expected, _, _ = _counted_grad_check(True, monkeypatch, "_objective")
        monkeypatch.undo()
        parent, objective, fork, children = os.getpid(), train._objective, os.fork, []

        def fails_in_child(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("raised outside the parent")
            return objective(*args, **kwargs)

        def recorded_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(train, "_objective", fails_in_child)
        monkeypatch.setattr(os, "fork", recorded_fork)
        assert _counted_grad_check(True, monkeypatch, "_objective", workers=3)[:2] == (
            calls, expected)
        assert len(children) == 2

    def test_child_dying_partway_leaves_only_its_unfinished_samples(self, monkeypatch):
        # With two workers the child's share is the samples i with i % 4 in
        # (1, 2). It finishes three of them and then dies with status 1: the
        # result is the one-process result, and this process evaluated its
        # own share and then only the child's unfinished samples.
        args, kwargs = self._case("dense")
        expected = grad_check(*args, workers=1, **kwargs)
        parent, split_map, sizes, evaluated = os.getpid(), clusterup.workers.split_map, [], []

        def split_map_with_dying_child(evaluate, n, workers, width=1):
            finished = []

            def recorded(i):
                if os.getpid() == parent:
                    evaluated.append(i)
                elif len(finished) == 3:
                    os._exit(1)
                else:
                    finished.append(i)
                return evaluate(i)

            sizes.append(n)
            return split_map(recorded, n, workers, width)

        monkeypatch.setattr(clusterup.workers, "split_map", split_map_with_dying_child)
        assert grad_check(*args, workers=2, **kwargs) == expected
        shares = [[i for i in range(sizes[0]) if (i % 4 in (1, 2)) == child]
                  for child in (False, True)]
        assert evaluated == shares[0] + shares[1][3:]

    def test_failing_samples_raise_the_one_process_error(self, monkeypatch):
        # One sample per tensor, so one chunk per tensor: head, block0.w1,
        # block0.b1, ... A stacked pass of block0.w1 or block0.b1 raises. In
        # snake order, with two workers the one child's share holds both
        # and it fails at block0.w1; with three, one child fails at
        # block0.w1 and the other at block0.b1. Either way the chunks no
        # process finished rerun here in index order and, as in one process,
        # block0.w1's error is the one raised.
        model = make_dense_model(6, 10, 2, 3, seed=27)
        ds = make_synthetic_dataset(6, 3, 3, 24, 3.0, seed=28)
        saved = {name: arr.copy() for name, arr in named_params(model)}
        block0, forward = model.blocks[0], train.ffn_forward_cached

        def failing_forward(ffn, x):
            # A stacked pass's copy of block 0 shares all but one tensor.
            swapped = [key for key in FFN_PARAMS if getattr(ffn, key) is not getattr(block0, key)]
            if swapped in (["w1"], ["b1"]):
                raise NonFiniteLoss(f"block0.{swapped[0]} perturbed")
            return forward(ffn, x)

        monkeypatch.setattr(train, "ffn_forward_cached", failing_forward)
        for workers in (1, 2, 3):
            with pytest.raises(NonFiniteLoss, match=r"^block0\.w1 perturbed$"):
                grad_check(model, None, ds.inputs, ds.labels, samples_per_tensor=1,
                           workers=workers)
        for name, arr in named_params(model):  # no entry was written in place
            np.testing.assert_array_equal(arr, saved[name])

    def test_nothing_forked_without_os_fork(self, monkeypatch):
        # Without fork (Windows) every sample is evaluated in this process.
        calls, expected, _, _ = _counted_grad_check(True, monkeypatch, "_objective")
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        assert _counted_grad_check(True, monkeypatch, "_objective", workers=3)[:2] == (
            calls, expected)

    def test_workers_bounds(self):
        # samples_per_tensor too: 0 would map no sample at all.
        args, kwargs = self._case("dense")
        for name, value in [("workers", 0), ("samples_per_tensor", 0),
                            ("samples_per_tensor", -1)]:
            with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
                grad_check(*args, **{**kwargs, name: value})


class TestSplitMap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_item_of_this_process_is_evaluated_once(self, workers):
        # Item 3 falls in this process's share (0, 3, 4 with two workers) and
        # raises; the rerun of unfinished items raises its error again
        # without evaluating it a second time.
        parent, evaluated = os.getpid(), []

        def evaluate(i):
            if os.getpid() == parent:
                evaluated.append(i)
            if i == 3:
                raise ValueError("item 3 failed")
            return [float(i)]

        with pytest.raises(ValueError, match="^item 3 failed$"):
            clusterup.workers.split_map(evaluate, 6, workers)
        assert evaluated == ([0, 1, 2, 3] if workers == 1 else [0, 3])


class TestTeacherReplica:
    """With a teacher and two workers, ``run_training`` computes each MoE
    site's teacher ensemble in one forked replica; every result keeps the
    one-process bits."""

    STEPS = 6

    @staticmethod
    def _case(first_block_site=False):
        model, teacher, ds = _moe_and_teacher()
        if first_block_site:
            # Sites 0 and 2: block 0's input is the batch itself, which is not
            # C-contiguous, so its ensemble runs in this process.
            model = ToyModel(6, [model.blocks[b].copy() for b in (1, 0, 3)], model.head)
            teacher = make_model_teacher(model, beta=0.999)
            for site_teacher in teacher.sites.values():
                site_teacher.mirror.params += 0.01
        return model, teacher, ds

    def _train(self, case, monkeypatch, workers, **kwargs):
        """The reports, the model and teacher buffers after ``run_training``
        (or the error it raised), and the ``teacher_forward`` calls made in
        this process."""
        model, teacher, ds = case
        parent, calls, forward = os.getpid(), [], train.teacher_forward

        def counted(*args):
            if os.getpid() == parent:
                calls.append(1)
            return forward(*args)

        monkeypatch.setattr(train, "teacher_forward", counted)
        try:
            outcome = run_training(model, teacher, ds, steps=self.STEPS, batch_size=16,
                                   lr=0.05, lambda_lb=0.001, lambda_eesd=1.0,
                                   capacity_factor=1.5, seed=63, workers=workers, **kwargs)
        except NonFiniteLoss as exc:
            outcome = str(exc)
        monkeypatch.setattr(train, "teacher_forward", forward)
        buffers = param_buffers(model) + [t.mirror.params for t in teacher.sites.values()]
        return outcome, [arr.tobytes() for arr in buffers], len(calls)

    @pytest.mark.parametrize("first_block_site", [False, True], ids=["sites-1-3", "sites-0-2"])
    def test_same_bits_as_one_process(self, monkeypatch, first_block_site):
        logs = [[], []]
        one, two = (self._train(self._case(first_block_site), monkeypatch, workers,
                                log_fn=logs[workers - 1].append) for workers in (1, 2))
        assert one[:2] == two[:2]
        assert logs[0] == logs[1]
        assert one[2] == 2 * self.STEPS
        assert two[2] == (self.STEPS if first_block_site else 0)

    def test_non_finite_loss_partway_leaves_the_same_state(self, monkeypatch):
        # The fourth step's task loss is NaN in this process: the run stops
        # there under either worker count, after three SGD and EMA steps.
        cross_entropy, seen = train._cross_entropy, []

        def nan_at_fourth_step(*args, **kwargs):
            loss, grad = cross_entropy(*args, **kwargs)
            seen.append(1)
            return (math.nan if len(seen) == 4 else loss), grad

        monkeypatch.setattr(train, "_cross_entropy", nan_at_fourth_step)
        outcomes = []
        for workers in (1, 2):
            seen.clear()
            outcomes.append(self._train(self._case(), monkeypatch, workers))
        assert outcomes[0][:2] == outcomes[1][:2]
        assert outcomes[0][0].startswith("non-finite loss")

    @pytest.mark.parametrize("dies_in,sent", [("teacher_forward", 5),
                                               ("update_model_teacher", 4)])
    def test_child_dying_partway_leaves_only_its_unsent_outputs(self, monkeypatch,
                                                               dies_in, sent):
        # The replica exits with status 1 in its sixth ensemble, after
        # sending five outputs (steps 0 and 1, and site 1 of step 2), or in
        # its second EMA step, after sending four (steps 0 and 1); the pipe
        # then reads EOF or refuses the next command. Either way this
        # process restores the model and teacher and redoes the run, so it
        # computes all 2 * STEPS ensembles itself, and the run keeps the
        # one-process bits.
        expected = self._train(self._case(), monkeypatch, 1)
        parent, original, replica_calls = os.getpid(), getattr(train, dies_in), []

        def dies_in_replica(*args):
            if os.getpid() != parent:
                if len(replica_calls) == (sent if dies_in == "teacher_forward" else 1):
                    os._exit(1)
                replica_calls.append(1)
            return original(*args)

        monkeypatch.setattr(train, dies_in, dies_in_replica)
        outcome, buffers, calls = self._train(self._case(), monkeypatch, 2)
        assert (outcome, buffers) == expected[:2]
        assert calls == 2 * self.STEPS

    def test_command_to_an_exited_replica_gives_it_up(self):
        # A command the replica took but died before answering leaves its
        # reply at EOF, and a command sent once it has exited meets
        # BrokenPipeError: both raise ReplicaLost, and neither stays pending.
        model, teacher, _ = self._case()
        with clusterup.workers.teacher_replica(model, teacher, 16, 2, train.teacher_forward,
                                               train.update_model_teacher) as replica:
            os.kill(replica.pid, signal.SIGSTOP)
            os.waitpid(replica.pid, os.WUNTRACED)  # stopped before it reads the command
            replica.submit(1, np.zeros((6, 16)))
            assert replica.pending == [1]
            os.kill(replica.pid, signal.SIGKILL)
            with pytest.raises(clusterup.workers.ReplicaLost):
                replica.receive()
            assert os.read(replica.reply, 1) == b""  # its end of the pipes is closed
            with pytest.raises(clusterup.workers.ReplicaLost):
                replica.submit(1, np.zeros((6, 16)))
            assert replica.pending == [] and replica.receive() == {}

    @pytest.mark.parametrize("no_fork", ["raises", "missing"])
    def test_runs_in_process_without_a_fork(self, monkeypatch, no_fork):
        expected = self._train(self._case(), monkeypatch, 1)

        def fork():
            raise OSError("no fork here")

        if no_fork == "raises":
            monkeypatch.setattr(os, "fork", fork)
        else:
            monkeypatch.delattr(os, "fork")
        assert self._train(self._case(), monkeypatch, 2) == expected

    @staticmethod
    def _count_emas(monkeypatch, replica_calls):
        """Count ``update_model_teacher`` calls: this process's in the list
        returned, the replica's as bytes appended to the file
        ``replica_calls``."""
        parent, original, here = os.getpid(), train.update_model_teacher, []

        def counted(*args):
            if os.getpid() == parent:
                here.append(1)
            else:
                with open(replica_calls, "ab") as fh:
                    fh.write(b".")
            return original(*args)

        monkeypatch.setattr(train, "update_model_teacher", counted)
        return here

    def test_only_the_replica_runs_the_ema(self, monkeypatch, tmp_path):
        # With a live replica each EMA step runs once, in the replica.
        expected = self._train(self._case(), monkeypatch, 1)
        here = self._count_emas(monkeypatch, tmp_path / "replica")
        assert self._train(self._case(), monkeypatch, 2)[:2] == expected[:2]
        assert len(here) == 0
        assert (tmp_path / "replica").read_bytes() == b"." * self.STEPS

    @staticmethod
    def _dies_in_ema(monkeypatch, step, point):
        """Make the replica exit with status 1 in EMA step ``step``: before
        it touches the teacher, after it has updated the first site only
        (a torn teacher), or after the whole EMA but before its reply."""
        parent, original, taken = os.getpid(), train.update_model_teacher, []

        def dies(teacher, model):
            if os.getpid() != parent:
                if len(taken) == step:
                    if point == "torn":
                        first = min(teacher.sites)
                        original(train.ModelTeacher({first: teacher.sites[first]}), model)
                    elif point == "after":
                        original(teacher, model)
                    os._exit(1)
                taken.append(1)
            return original(teacher, model)

        monkeypatch.setattr(train, "update_model_teacher", dies)

    @pytest.mark.parametrize("point,step", [("before", 2), ("torn", 2), ("after", 2),
                                            ("torn", STEPS - 1)],
                             ids=["before", "torn", "after", "last"])
    def test_child_dying_in_an_ema_step_is_redone_here(self, monkeypatch, point, step):
        # The replica exits in step 2's EMA at one of three points, or
        # leaves a torn teacher in the last step's, whose reply only
        # ``close`` reads. This process
        # restores the model and teacher from the fork and redoes the run
        # without the replica: the one-process model, teacher, reports and
        # log, each step logged once, and run_training returns normally.
        logs = [[], []]
        expected = self._train(self._case(), monkeypatch, 1, log_fn=logs[0].append)
        self._dies_in_ema(monkeypatch, step, point)
        outcome, buffers, calls = self._train(self._case(), monkeypatch, 2,
                                              log_fn=logs[1].append)
        assert (outcome, buffers) == expected[:2]
        assert logs[0] == logs[1]
        assert calls == 2 * self.STEPS

    def test_interrupt_is_not_redone(self, monkeypatch):
        # An interrupt in step 3's forward pass, after site 1 was submitted,
        # while the replica dies in that site's ensemble (as a child of the
        # same terminal would on Ctrl-C): the interrupt leaves run_training,
        # and the run is not redone.
        parent, forward, moe_forward = os.getpid(), train.teacher_forward, train.moe_forward_cached
        replica_calls, student_calls = [], []

        def dies_in_step_3(*args):
            if os.getpid() != parent:
                if len(replica_calls) == 6:
                    os._exit(1)
                replica_calls.append(1)
            return forward(*args)

        def interrupted_in_step_3(*args, **kwargs):
            student_calls.append(1)
            if len(student_calls) == 7:
                raise KeyboardInterrupt
            return moe_forward(*args, **kwargs)

        monkeypatch.setattr(train, "teacher_forward", dies_in_step_3)
        monkeypatch.setattr(train, "moe_forward_cached", interrupted_in_step_3)
        model, teacher, ds = self._case()
        with pytest.raises(KeyboardInterrupt):
            run_training(model, teacher, ds, steps=self.STEPS, batch_size=16, lr=0.05,
                         lambda_eesd=1.0, seed=63, workers=2)
        assert len(student_calls) == 7

    @pytest.mark.parametrize("end", ["returns", "raises", "redone"])
    def test_student_buffers_are_private_after_the_run(self, monkeypatch, end):
        # During the run the student's and the teacher's site buffers are
        # views of the replica's shared mapping. Once run_training returns,
        # raises NonFiniteLoss (at step 4), or has redone the run after the
        # replica died (in step 2's EMA), they are private again: a forked
        # child's writes to them are not seen here. The experts stay the
        # same objects, each a view of its layer's buffer.
        model, teacher, ds = self._case()
        layers = [layer for b in model.moe_sites
                  for layer in (model.blocks[b], teacher.sites[b].mirror)]
        experts = [layer.experts for layer in layers]
        cross_entropy, seen = train._cross_entropy, []

        def nan_at_step(*args, **kwargs):
            loss, grad = cross_entropy(*args, **kwargs)
            seen.append(1)
            return (math.nan if end == "raises" and len(seen) == 4 else loss), grad

        monkeypatch.setattr(train, "_cross_entropy", nan_at_step)
        if end == "redone":
            self._dies_in_ema(monkeypatch, 2, "after")
        try:
            run_training(model, teacher, ds, steps=self.STEPS, batch_size=16, lr=0.05,
                         lambda_eesd=1.0, seed=63, workers=2)
        except NonFiniteLoss:
            assert end == "raises"
        before = [layer.params.copy() for layer in layers]

        def scribble():
            for layer in layers:
                layer.params[...] = 0.0

        os.waitpid(clusterup.workers.fork(scribble), 0)
        for layer, params, layer_experts in zip(layers, before, experts):
            assert layer.params.tobytes() == params.tobytes()
            assert layer.experts is layer_experts
            assert all(np.shares_memory(e.params, layer.params) for e in layer.experts)
            assert np.shares_memory(layer.router, layer.params)


class TestTrainingLog:
    def test_entropy_and_drop_rate_match_the_step_records(self, monkeypatch):
        # Each record's routing_entropy is the mean over the step's routing
        # records of analysis.routing_entropy, and each site's drop_rate the
        # mean of its dropped mask (some slots drop at capacity 0.75).
        model, teacher, ds = _moe_and_teacher()
        states, step = [], train.train_step

        def keeping_state(*args, **kwargs):
            report, state = step(*args, **kwargs)
            states.append(state)
            return report, state

        monkeypatch.setattr(train, "train_step", keeping_state)
        log = []
        run_training(model, teacher, ds, steps=6, batch_size=16, lr=0.05,
                     lambda_lb=0.001, lambda_eesd=1.0, capacity_factor=0.75, seed=63,
                     log_fn=log.append)
        assert len(log) == len(states) == 6
        assert any(rate > 0.0 for record in log for rate in record["drop_rate"].values())
        for record, state in zip(log, states):
            records = state.records
            entropies = [routing_entropy(r.probs) for r in records.values()]
            assert record["routing_entropy"] == float(np.mean(entropies))
            assert record["drop_rate"] == {
                str(b): float(r.dropped.mean()) for b, r in records.items()}
