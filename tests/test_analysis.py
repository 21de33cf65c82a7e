"""Tests for the specialization diagnostics."""

import math

import numpy as np
import pytest

from clusterup.analysis import (
    analysis_csv_rows,
    analyze_model,
    expert_weight_similarity,
    mean_offdiagonal,
    relative_compactness,
    routing_csv_rows,
    routing_entropy,
)
from clusterup.errors import InsufficientTokens, ZeroWeights
from clusterup.moe import DenseFfn, MoeLayer, moe_forward, moe_forward_cached
from clusterup.train import (
    make_dense_model,
    make_synthetic_dataset,
    model_forward,
    run_training,
)
from clusterup.upcycle import capture_activations, upcycle_model


def routed(router, x, k, capacity_factor=2.0):
    """``moe_forward``'s routing record for tokens ``x`` (columns) under
    ``router``, with zero experts: only the routing matters here."""
    n_e, d = router.shape
    experts = [DenseFfn(np.zeros((1, d)), np.zeros(1), np.zeros((d, 1)), np.zeros(d))
               for _ in range(n_e)]
    return moe_forward(MoeLayer(experts, router, k, capacity_factor), x)[1]


class TestRelativeCompactness:
    def test_identity_covariances_give_dimension(self):
        d = 4
        scale = math.sqrt(d)
        # 2d experts with means +-sqrt(d) e_a: between covariance is I.
        means = np.concatenate([scale * np.eye(d), -scale * np.eye(d)], axis=1)
        outputs = []
        for m in means.T:
            tokens = [m + scale * e for e in np.eye(d)]
            tokens += [m - scale * e for e in np.eye(d)]
            outputs.append(np.stack(tokens, axis=1))
        rc = relative_compactness(outputs)
        assert abs(rc - d) < 1e-8

    def test_orthogonal_subspaces_give_zero(self):
        # Within variance along axis 0, means varying along axis 1.
        e0 = np.array([1.0, 0.0, 0.0])
        outputs = []
        for mean_shift in (-2.0, 0.0, 2.0):
            m = np.array([0.0, mean_shift, 0.0])
            outputs.append(np.stack([m + e0, m - e0], axis=1))
        rc = relative_compactness(outputs)
        assert abs(rc) < 1e-8

    def test_identical_constant_outputs_undefined(self):
        const = np.ones((3, 4))
        assert relative_compactness([const, const.copy()]) is None

    def test_insufficient_tokens(self):
        with pytest.raises(InsufficientTokens):
            relative_compactness([np.ones((3, 1)), np.ones((3, 5))])
        with pytest.raises(InsufficientTokens):
            relative_compactness([np.ones((3, 5))])

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        outputs = [rng.standard_normal((5, 12)) + rng.standard_normal((5, 1))
                   for _ in range(4)]
        rc = relative_compactness(outputs)
        rot = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        rc_rot = relative_compactness([rot @ m for m in outputs])
        assert abs(rc - rc_rot) < 1e-6


class TestExpertSimilarity:
    def layer_from_w1s(self, w1s, zero_rest=True):
        experts = []
        for w1 in w1s:
            h, d = w1.shape
            experts.append(DenseFfn(w1, np.zeros(h), np.zeros((d, h)), np.zeros(d)))
        return MoeLayer(experts, np.zeros((len(experts), w1s[0].shape[1])) + 0.1,
                        k=1, capacity_factor=1.0)

    def test_copies_score_exactly_one(self):
        rng = np.random.default_rng(1)
        w1 = rng.standard_normal((4, 3))
        layer = self.layer_from_w1s([w1.copy() for _ in range(3)])
        sim = expert_weight_similarity(layer)
        assert (sim == 1.0).all()
        assert mean_offdiagonal(sim) == 1.0

    def test_orthogonal_w1_scores_zero(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        b = np.zeros((2, 2))
        b[1, 1] = 1.0
        layer = self.layer_from_w1s([a, b])
        sim = expert_weight_similarity(layer)
        assert abs(sim[0, 1]) < 1e-12

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(2)
        w1 = rng.standard_normal((4, 3))
        layer = self.layer_from_w1s([w1, 2.0 * w1])
        sim = expert_weight_similarity(layer)
        assert abs(sim[0, 1] - 1.0) < 1e-12

    def test_zero_weights_raise(self):
        a = np.ones((2, 2))
        layer = self.layer_from_w1s([a, np.zeros((2, 2))])
        with pytest.raises(ZeroWeights):
            expert_weight_similarity(layer)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        layer = self.layer_from_w1s([rng.standard_normal((4, 3)) for _ in range(4)])
        sim = expert_weight_similarity(layer)
        np.testing.assert_allclose(sim, sim.T, atol=0)
        np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-8)


class TestRoutingEntropy:
    def test_uniform_maximal(self):
        probs = np.full((10, 8), 1 / 8)
        assert abs(routing_entropy(probs) - math.log(8)) < 1e-12

    def test_one_hot_zero(self):
        probs = np.zeros((5, 4))
        probs[:, 2] = 1.0
        assert routing_entropy(probs) == 0.0

    def test_closed_form_two_way(self):
        probs = np.array([[0.75, 0.25]])
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(routing_entropy(probs) - expected) < 1e-12
        assert abs(expected - 0.5623) < 1e-4

    def test_bounded_by_log_n(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, size=(6, 5))
            probs = raw / raw.sum(axis=1, keepdims=True)
            h = routing_entropy(probs)
            assert h <= math.log(5) + 1e-12
            assert h < math.log(5) - 1e-9  # non-uniform rows stay strictly below

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            routing_entropy(np.array([[0.5, 0.6]]))


class TestExpertUtilization:
    """``RoutingRecord.per_expert_fraction``, which ``analyze_model`` reports."""

    def test_concentrated(self):
        record = routed(np.array([[1.0], [0.0], [0.0], [0.0]]), np.ones((1, 6)), k=1)
        np.testing.assert_array_equal(record.topk_indices, np.zeros((6, 1)))
        np.testing.assert_allclose(record.per_expert_fraction, [1.0, 0.0, 0.0, 0.0])

    def test_balanced_top2(self):
        # Token i scores 2 on expert i and 1 on expert i+1 (mod 8).
        router = 2 * np.eye(8) + np.roll(np.eye(8), 1, axis=0)
        record = routed(router, np.eye(8), k=2)
        assert [set(row) for row in record.topk_indices] == \
            [{i, (i + 1) % 8} for i in range(8)]
        np.testing.assert_allclose(record.per_expert_fraction, np.full(8, 0.125))

    def test_hand_counted_slots(self):
        router = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        x = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        record = routed(router, x, k=2)
        np.testing.assert_array_equal(record.topk_indices, [[0, 1], [0, 1], [2, 3], [2, 3]])
        np.testing.assert_allclose(record.per_expert_fraction, [0.25, 0.25, 0.25, 0.25])

    def test_includes_dropped_slots(self):
        # Capacity 0.5 gives expert 0 one slot for its four tokens.
        record = routed(np.array([[1.0], [0.0]]), np.ones((1, 4)), k=1, capacity_factor=0.5)
        np.testing.assert_array_equal(record.dropped.ravel(), [False, True, True, True])
        np.testing.assert_allclose(record.per_expert_fraction, [1.0, 0.0])


class TestRoutingCsvRows:
    def test_hand_counted_rows(self):
        # Tokens 0-2 pick experts {0, 1}, token 3 picks {2, 1}, and no token
        # picks expert 3. Capacity 1.0 keeps 2 slots per expert, in token order.
        router = np.array([[2.0, 0.0], [1.0, 0.5], [0.0, 1.0], [-5.0, -5.0]])
        x = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        experts = [DenseFfn(np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)), np.zeros(2))
                   for _ in range(4)]
        _, record, _ = moe_forward_cached(MoeLayer(experts, router, 2, 1.0), x)
        logits = router @ x
        probs = np.exp(logits) / np.exp(logits).sum(axis=0)
        rows = routing_csv_rows({3: record, 1: record})
        assert [row[:2] for row in rows] == [(b, i) for b in (1, 3) for i in range(4)]
        assert rows[:4] == [(1, *row[1:]) for row in rows[4:]]
        assert [row[2] for row in rows[:4]] == [3 / 8, 4 / 8, 1 / 8, 0.0]
        np.testing.assert_allclose([row[3] for row in rows[:4]], probs.mean(axis=1),
                                   rtol=1e-12)
        assert [row[4] for row in rows[:4]] == [1 / 3, 2 / 4, 0.0, 0.0]
        assert all(type(value) is float for row in rows for value in row[2:])


class TestAnalyzeModel:
    def build(self, method, seed=0):
        dense = make_dense_model(8, 12, 4, 2, seed=seed)
        ds = make_synthetic_dataset(8, 2, 4, 512, 3.0, seed=seed + 1)
        run_training(dense, None, ds, steps=50, batch_size=64, lr=0.05, seed=seed + 2)
        bank = capture_activations(dense, ds.inputs, [1, 3], 400, seed=seed + 3)
        moe, _, _ = upcycle_model(dense, method, n_experts=4, k=2,
                                  capacity_factor=2.0, seed=seed + 4, bank=bank)
        return moe, ds

    def test_sparse_layer_similarity_one(self):
        moe, ds = self.build("sparse")
        report = analyze_model(moe, model_forward(moe, ds.inputs[:, :256], 2.0))
        for site in report.per_site.values():
            assert site.mean_pairwise_similarity == 1.0

    def test_cluster_breaks_symmetry_and_lowers_entropy(self):
        moe_c, ds = self.build("cluster")
        moe_s, _ = self.build("sparse")
        rep_c = analyze_model(moe_c, model_forward(moe_c, ds.inputs[:, :256], 2.0))
        rep_s = analyze_model(moe_s, model_forward(moe_s, ds.inputs[:, :256], 2.0))
        for b in rep_c.per_site:
            assert rep_c.per_site[b].mean_pairwise_similarity < 1 - 1e-3
            assert rep_c.per_site[b].mean_routing_entropy < rep_s.per_site[b].mean_routing_entropy

    def test_report_invariants(self):
        moe, ds = self.build("drop")
        report = analyze_model(moe, model_forward(moe, ds.inputs[:, :256], 2.0))
        for site in report.per_site.values():
            sim = site.similarity_matrix
            np.testing.assert_allclose(sim, sim.T, atol=0)
            np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-8)
            np.testing.assert_allclose(site.utilization.sum(), 1.0, atol=1e-8)
            assert 0.0 <= site.mean_routing_entropy <= math.log(4) + 1e-12

    def test_csv_rows_schema(self):
        moe, ds = self.build("sparse", seed=10)
        report = analyze_model(moe, model_forward(moe, ds.inputs[:, :128], 2.0))
        rows = analysis_csv_rows(report)
        sites = {r[0] for r in rows}
        assert sites == {1, 3}
        metrics = {r[1] for r in rows}
        assert metrics == {
            "rc", "mean_pairwise_similarity", "mean_pairwise_similarity_w1",
            "mean_routing_entropy", "utilization",
        }
        util_rows = [r for r in rows if r[1] == "utilization"]
        assert len(util_rows) == 2 * 4
