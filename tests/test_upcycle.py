"""Tests for the four initialization strategies and calibration capture."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clusterup
from clusterup import upcycle

from clusterup.analysis import expert_weight_similarity, mean_offdiagonal
from clusterup.clustering import _assign_all
from clusterup.errors import EmptyCalibration, InsufficientData, ShapeMismatch
from clusterup.linalg import effective_rank, frobenius_sq, svd_full
from clusterup.config import INIT_METHODS, InitConfig, PipelineConfig
from clusterup.moe import DenseFfn, MoeLayer, ffn_forward, moe_forward, router_probs
from clusterup.seeding import substream
from clusterup.train import ToyModel, make_dense_model, make_synthetic_dataset, model_forward
from clusterup.upcycle import (
    INITIALIZERS,
    capture_activations,
    cluster_aware_init,
    drop_init,
    drop_svd_init,
    joint_objective_eval,
    sparse_init,
    upcycle_model,
    whitening_matrix,
)


def random_ffn(rng, d=8, h=12):
    return DenseFfn(
        w1=rng.standard_normal((h, d)),
        b1=rng.standard_normal(h) * 0.1,
        w2=rng.standard_normal((d, h)),
        b2=rng.standard_normal(d) * 0.1,
    )


def as_layer(experts, router, report, cluster_model, k=1, capacity_factor=1.5):
    """An initializer's result as (MoE layer, cluster model, report)."""
    return MoeLayer(experts, router, k, capacity_factor), cluster_model, report


def clustered_columns(rng, d, n_clusters, per_cluster, spread=0.1):
    """Well-separated unit-direction bundles in d dimensions."""
    dirs = np.linalg.qr(rng.standard_normal((d, n_clusters)))[0].T
    cols, labels = [], []
    for c in range(n_clusters):
        pts = dirs[c][:, None] + spread * rng.standard_normal((d, per_cluster))
        cols.append(pts)
        labels.extend([c] * per_cluster)
    return np.concatenate(cols, axis=1), np.array(labels)


class TestSparseInit:
    def test_experts_are_exact_copies(self):
        rng = np.random.default_rng(0)
        dense = random_ffn(rng)
        layer, _, _ = as_layer(*sparse_init(dense, 8, 1, InitConfig()), k=2, capacity_factor=2.0)
        sim = expert_weight_similarity(layer)
        assert (sim == 1.0).all()
        for e in layer.experts:
            assert np.array_equal(e.w1, dense.w1)

    def test_forward_matches_dense(self):
        rng = np.random.default_rng(1)
        dense = random_ffn(rng)
        layer, _, _ = as_layer(*sparse_init(dense, 4, 2, InitConfig()), k=2, capacity_factor=1e9)
        x = rng.standard_normal((8, 50))
        y, _ = moe_forward(layer, x)
        np.testing.assert_allclose(y, ffn_forward(dense, x), atol=1e-6)

    def test_router_deterministic_per_seed(self):
        dense = random_ffn(np.random.default_rng(2))
        a, _, _ = as_layer(*sparse_init(dense, 4, 7, InitConfig()))
        b, _, _ = as_layer(*sparse_init(dense, 4, 7, InitConfig()))
        c, _, _ = as_layer(*sparse_init(dense, 4, 8, InitConfig()))
        assert np.array_equal(a.router, b.router)
        assert not np.array_equal(a.router, c.router)


class TestDropInit:
    def test_ratio_zero_equals_sparse(self):
        dense = random_ffn(np.random.default_rng(3))
        layer, _, _ = as_layer(*drop_init(dense, 4, 5, InitConfig(ratio=0.0)))
        for e in layer.experts:
            assert np.array_equal(e.w1, dense.w1)
            assert np.array_equal(e.b1, dense.b1)
            assert np.array_equal(e.w2, dense.w2)

    def test_half_ratio_counts_rows(self):
        rng = np.random.default_rng(4)
        dense = random_ffn(rng, d=16, h=64)
        layer, _, _ = as_layer(*drop_init(dense, 4, 6, InitConfig(ratio=0.5)))
        for e in layer.experts:
            differing = int((~np.isclose(e.w1, dense.w1).all(axis=1)).sum())
            assert differing == 32
            changed_cols = int((~np.isclose(e.w2, dense.w2).all(axis=0)).sum())
            assert changed_cols == 32
            # Channel sets are shared between w1 rows and w2 columns.
            rows = set(np.nonzero(~np.isclose(e.w1, dense.w1).all(axis=1))[0])
            cols = set(np.nonzero(~np.isclose(e.w2, dense.w2).all(axis=0))[0])
            assert rows == cols

    def test_full_ratio_matches_moments(self):
        rng = np.random.default_rng(5)
        dense = random_ffn(rng, d=64, h=64)  # 4096 resampled entries
        layer, _, _ = as_layer(*drop_init(dense, 1, 7, InitConfig(ratio=1.0)))
        resampled = layer.experts[0].w1
        n = resampled.size
        mean, std = dense.w1.mean(), dense.w1.std()
        assert abs(resampled.mean() - mean) < 3 * std / np.sqrt(n)
        assert abs(resampled.std() - std) < 3 * std / np.sqrt(2 * n)

    def test_experts_differ_pairwise(self):
        dense = random_ffn(np.random.default_rng(6))
        layer, _, _ = as_layer(*drop_init(dense, 4, 8, InitConfig(ratio=0.5)))
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(layer.experts[i].w1, layer.experts[j].w1)


class TestDropSvdInit:
    def test_fraction_zero_is_roundtrip(self):
        dense = random_ffn(np.random.default_rng(7))
        layer, _, _ = as_layer(*drop_svd_init(dense, 3, 9, InitConfig(fraction=0.0)))
        for e in layer.experts:
            assert np.abs(e.w1 - dense.w1).max() < 1e-6

    def test_kept_subspace_projection_preserved(self):
        rng = np.random.default_rng(8)
        dense = random_ffn(rng, d=12, h=16)
        layer, _, _ = as_layer(*drop_svd_init(dense, 2, 10, InitConfig(fraction=0.25)))
        u, s, vt = np.linalg.svd(dense.w1, full_matrices=False)
        n_keep = int(np.ceil(0.75 * s.size))
        proj = u[:, :n_keep] @ u[:, :n_keep].T
        for e in layer.experts:
            np.testing.assert_allclose(proj @ e.w1, proj @ dense.w1, atol=1e-6)

    def test_experts_differ_but_share_top_subspace(self):
        rng = np.random.default_rng(9)
        dense = random_ffn(rng, d=12, h=16)
        layer, _, _ = as_layer(*drop_svd_init(dense, 2, 11, InitConfig(fraction=0.25)))
        a, b = layer.experts[0].w1, layer.experts[1].w1
        assert np.linalg.norm(a - b) > 1e-6

    def test_spectrum_preserved(self):
        # Replacement directions reuse the discarded singular values.
        rng = np.random.default_rng(10)
        dense = random_ffn(rng, d=10, h=14)
        layer, _, _ = as_layer(*drop_svd_init(dense, 1, 12, InitConfig(fraction=0.5)))
        s_dense = np.linalg.svd(dense.w1, compute_uv=False)
        s_new = np.linalg.svd(layer.experts[0].w1, compute_uv=False)
        np.testing.assert_allclose(np.sort(s_new), np.sort(s_dense), atol=1e-8)


class TestWhitening:
    def test_identity_gram(self):
        factor = whitening_matrix(np.eye(4))
        np.testing.assert_allclose(factor.s, np.eye(4), atol=1e-12)
        assert factor.jitter_used == 0.0

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 30))
        factor = whitening_matrix(x)
        gram = x @ x.T
        err = np.linalg.norm(factor.s @ factor.s.T - gram) / np.linalg.norm(gram)
        assert err < 1e-5
        assert factor.jitter_used == 0.0

    def test_rank_deficient_uses_jitter(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))  # fewer tokens than dims
        factor = whitening_matrix(x)
        assert factor.jitter_used > 0.0
        gram = x @ x.T + factor.jitter_used * np.eye(8)
        err = np.linalg.norm(factor.s @ factor.s.T - gram) / np.linalg.norm(gram)
        assert err < 1e-5


class TestClusterAwareInit:
    def test_tau_one_is_lossless_on_cluster(self):
        rng = np.random.default_rng(13)
        dense = random_ffn(rng, d=8, h=6)
        x, _ = clustered_columns(rng, 8, 4, 12)
        layer, cm, report = as_layer(*cluster_aware_init(dense, 4, 1, InitConfig(tau=1.0), x))
        for i in range(4):
            xi = x[:, cm.assignments == i]
            gap = np.abs(dense.w1 @ xi - layer.experts[i].w1 @ xi).max()
            assert gap < 1e-5

    def test_truncation_loss_identity(self):
        rng = np.random.default_rng(14)
        dense = random_ffn(rng, d=8, h=6)
        x, _ = clustered_columns(rng, 8, 4, 12)
        layer, cm, report = as_layer(*cluster_aware_init(dense, 4, 2, InitConfig(tau=0.9), x))
        for i in range(4):
            xi = x[:, cm.assignments == i]
            lhs = frobenius_sq(dense.w1 @ xi - layer.experts[i].w1 @ xi)
            rhs = report.per_expert_truncation_loss[i]
            total = frobenius_sq(dense.w1 @ xi) + 1e-12
            assert abs(lhs - rhs) / total < 1e-5

    def test_identity_over_random_triples(self):
        # Full-column-rank clusters keep the jitter at zero, where the
        # discarded-energy identity is exact.
        rng = np.random.default_rng(15)
        for trial in range(100):
            d = int(rng.integers(4, 10))
            h = int(rng.integers(3, 12))
            n_clusters = int(rng.integers(2, 5))
            tau = float(rng.uniform(0.6, 1.0))
            dense = random_ffn(rng, d=d, h=h)
            x, _ = clustered_columns(rng, d, n_clusters, per_cluster=2 * d, spread=0.3)
            layer, cm, report = as_layer(
                *cluster_aware_init(dense, n_clusters, trial, InitConfig(tau=tau), x))
            sigma_sq_total = 0.0
            for i in range(n_clusters):
                xi = x[:, cm.assignments == i]
                if xi.shape[1] == 0:
                    continue
                lhs = frobenius_sq(dense.w1 @ xi - layer.experts[i].w1 @ xi)
                rhs = report.per_expert_truncation_loss[i]
                denom = frobenius_sq(dense.w1 @ xi) + 1e-12
                assert abs(lhs - rhs) / denom < 1e-5, (trial, i)

    def test_router_rows_are_centroids(self):
        rng = np.random.default_rng(16)
        dense = random_ffn(rng, d=8, h=6)
        x, _ = clustered_columns(rng, 8, 4, 10)
        layer, cm, _ = as_layer(*cluster_aware_init(dense, 4, 3, InitConfig(), x))
        assert np.array_equal(layer.router, cm.centroids)
        norms = np.linalg.norm(layer.router, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)

    def test_token_at_centroid_routes_to_its_cluster(self):
        rng = np.random.default_rng(17)
        dense = random_ffn(rng, d=8, h=6)
        x, _ = clustered_columns(rng, 8, 4, 10)
        layer, cm, _ = as_layer(*cluster_aware_init(dense, 4, 4, InitConfig(), x))
        token = cm.centroids[2][:, None]
        probs = router_probs(layer.router, token)
        assert int(np.argmax(probs[0])) == 2
        assert _assign_all(cm.centroids, token)[0] == 2

    def test_breaks_symmetry(self):
        rng = np.random.default_rng(18)
        dense = random_ffn(rng, d=8, h=6)
        x, _ = clustered_columns(rng, 8, 3, 15)
        layer, _, _ = as_layer(*cluster_aware_init(dense, 3, 5, InitConfig(), x))
        sim = expert_weight_similarity(layer, w1_only=True)
        assert mean_offdiagonal(sim) < 1 - 1e-3

    def test_diversity_term_dominates_own_error(self):
        # Cross-expert error on a cluster is at least the owner's error.
        rng = np.random.default_rng(19)
        dense = random_ffn(rng, d=10, h=8)
        x, _ = clustered_columns(rng, 10, 4, 25, spread=0.05)
        layer, cm, _ = as_layer(*cluster_aware_init(dense, 4, 6, InitConfig(tau=0.8), x))
        for i in range(4):
            xi = x[:, cm.assignments == i]
            own = frobenius_sq(dense.w1 @ xi - layer.experts[i].w1 @ xi)
            for j in range(4):
                if j != i:
                    cross = frobenius_sq(dense.w1 @ xi - layer.experts[j].w1 @ xi)
                    assert cross >= own - 1e-9

    def test_pca_projection_recorded(self):
        rng = np.random.default_rng(20)
        dense = random_ffn(rng, d=16, h=10)
        x, _ = clustered_columns(rng, 16, 4, 20)
        _, cm, _ = as_layer(*cluster_aware_init(dense, 4, 7, InitConfig(), x))
        assert cm.pca_projection is not None
        assert cm.pca_projection.shape == (2, 16)  # ceil(16 / 8) = 2

    def test_insufficient_data(self):
        dense = random_ffn(np.random.default_rng(21))
        with pytest.raises(InsufficientData):
            cluster_aware_init(dense, 4, 0, InitConfig(), np.ones((8, 2)))


@st.composite
def whitening_cases(draw):
    """An FFN plus calibration columns whose clusters may hold fewer tokens
    than dimensions or span fewer dimensions than they have tokens."""
    d = draw(st.integers(2, 8))
    h = draw(st.integers(2, 10))
    n_clusters = draw(st.integers(2, 4))
    tau = draw(st.floats(0.3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(n_clusters):
        n_tokens = draw(st.integers(1, 2 * d))
        span = draw(st.integers(1, d))  # < d makes the cluster rank deficient
        basis = rng.standard_normal((d, span))
        center = 3.0 * rng.standard_normal((d, 1))
        cols.append(center + basis @ rng.standard_normal((span, n_tokens)))
    x = np.concatenate(cols, axis=1)
    n_experts = min(n_clusters, x.shape[1])
    return random_ffn(rng, d=d, h=h), x, n_experts, tau


class TestWhitenedTruncation:
    @settings(max_examples=100, deadline=None)
    @given(whitening_cases())
    def test_loss_is_whitened_discarded_energy(self, case):
        dense, x, n_experts, tau = case
        d = x.shape[0]
        experts, _, report, cm = cluster_aware_init(dense, n_experts, 0, InitConfig(tau=tau), x)
        for i, expert in enumerate(experts):
            xi = x[:, cm.assignments == i]
            factor = whitening_matrix(xi)
            assert factor.jitter_used == report.per_expert_jitter[i]
            gram = xi @ xi.T
            schedule = [1e-8 * 10.0 ** j * np.trace(gram) / d for j in range(7)]
            assert factor.jitter_used == 0.0 or any(
                math.isclose(factor.jitter_used, value, rel_tol=1e-9) for value in schedule)
            target = gram + factor.jitter_used * np.eye(d)
            assert (np.linalg.norm(factor.s @ factor.s.T - target)
                    <= 1e-9 * np.linalg.norm(target))
            lhs = frobenius_sq((dense.w1 - expert.w1) @ factor.s)
            rhs = report.per_expert_truncation_loss[i]
            assert abs(lhs - rhs) <= 1e-6 * max(rhs, 1e-6 * frobenius_sq(dense.w1 @ factor.s))


def _reference_back_solve(dense, x, init, experts, report, cm):
    """Check each cluster expert against the whitened truncated SVD back-solved
    by ``scipy.linalg.solve_triangular``, bit for bit."""
    import scipy.linalg

    for i, expert in enumerate(experts):
        factor = whitening_matrix(x[:, cm.assignments == i])
        assert factor.jitter_used == report.per_expert_jitter[i]
        svd = svd_full(dense.w1 @ factor.s)
        r = effective_rank(svd.sigma, init.tau).chosen_rank
        assert r == report.per_expert_rank[i]
        truncated = (svd.u[:, :r] * svd.sigma[:r]) @ svd.v_t[:r, :]
        w1 = scipy.linalg.solve_triangular(factor.s, truncated.T, lower=True, trans="T").T
        assert expert.w1.tobytes() == w1.tobytes(), i
        for name in ("b1", "w2", "b2"):
            assert getattr(expert, name).tobytes() == getattr(dense, name).tobytes()


class TestBackSolve:
    """The cluster experts' ``T_r(svd(w1 S)) inv(S)``, solved with numpy
    alone, has the bits of LAPACK's triangular solve: ``S.T`` is upper
    triangular with a positive diagonal, so the LU solve pivots no row."""

    def test_default_shape(self):
        cfg = PipelineConfig()
        m = cfg.model
        dense_model = make_dense_model(m.d, m.h, m.blocks, m.n_classes, seed=3)
        data = make_synthetic_dataset(m.d, m.n_classes, cfg.data.n_clusters, 4096,
                                      cfg.data.separation, seed=4)
        bank = capture_activations(dense_model, data.inputs, [1], cfg.calibration.token_cap,
                                   seed=5)
        dense, x = dense_model.blocks[1], bank.per_site[1]
        experts, _, report, cm = cluster_aware_init(dense, cfg.moe.n_experts, 6, cfg.init, x)
        assert x.shape == (m.d, cfg.calibration.token_cap)
        _reference_back_solve(dense, x, cfg.init, experts, report, cm)

    def test_clusters_smaller_than_dim_use_jitter(self):
        rng = np.random.default_rng(30)
        dense = random_ffn(rng, d=16, h=10)
        x, _ = clustered_columns(rng, 16, 4, 6)
        init = InitConfig(tau=0.9)
        experts, _, report, cm = cluster_aware_init(dense, 4, 8, init, x)
        assert all(j > 0 for j in report.per_expert_jitter)
        _reference_back_solve(dense, x, init, experts, report, cm)

    @settings(max_examples=100, deadline=None)
    @given(whitening_cases(), st.sampled_from([1e-3, 1.0, 1e3]))
    def test_hypothesis_banks(self, case, scale):
        dense, x, n_experts, tau = case
        x = scale * x
        init = InitConfig(tau=tau)
        experts, _, report, cm = cluster_aware_init(dense, n_experts, 0, init, x)
        _reference_back_solve(dense, x, init, experts, report, cm)

    def test_no_scipy_at_run_time(self):
        # The package, its CLI and a cluster-aware init import numpy alone.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import clusterup, clusterup.cli\n"
            "from clusterup.config import InitConfig\n"
            "from clusterup.moe import DenseFfn\n"
            "from clusterup.upcycle import cluster_aware_init\n"
            "rng = np.random.default_rng(0)\n"
            "dense = DenseFfn(w1=rng.standard_normal((6, 4)), b1=np.zeros(6),\n"
            "                 w2=rng.standard_normal((4, 6)), b2=np.zeros(4))\n"
            "cluster_aware_init(dense, 2, 0, InitConfig(), rng.standard_normal((4, 40)))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(clusterup.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestJointObjective:
    def test_all_experts_equal_dense_is_zero(self):
        rng = np.random.default_rng(22)
        w = rng.standard_normal((4, 3))
        clusters = [rng.standard_normal((3, 5)) for _ in range(3)]
        assert joint_objective_eval([w, w, w], w, clusters, gamma=0.5) == 0.0

    def test_single_expert_equal_dense_is_zero(self):
        rng = np.random.default_rng(23)
        w = rng.standard_normal((4, 3))
        assert joint_objective_eval([w], w, [rng.standard_normal((3, 6))], gamma=0.0) == 0.0

    def test_scalar_hand_computation(self):
        w = np.array([[2.0]])
        w1 = np.array([[1.0]])
        w2 = np.array([[3.0]])
        x1 = np.array([[1.0, 2.0]])
        x2 = np.array([[1.0]])
        gamma = 1.0
        # cluster 1: own (2-1)^2*(1+4)=5, cross (2-3)^2*(1+4)=5 -> 0
        # cluster 2: own (2-3)^2*1=1, cross (2-1)^2*1=1 -> 0
        val = joint_objective_eval([w1, w2], w, [x1, x2], gamma)
        assert abs(val - 0.0) < 1e-12
        val2 = joint_objective_eval([w1, w2], w, [x1, x2], gamma=0.5)
        assert abs(val2 - (5 - 2.5 + 1 - 0.5)) < 1e-12


class TestCapture:
    def test_shapes_and_cap(self):
        rng = np.random.default_rng(24)
        model = make_dense_model(6, 8, 3, 2, seed=0)
        data = rng.standard_normal((6, 100))
        bank = capture_activations(model, data, [1], token_cap=1000, seed=0)
        assert bank.per_site[1].shape == (6, 100)
        bank_capped = capture_activations(model, data, [1], token_cap=50, seed=0)
        assert bank_capped.per_site[1].shape == (6, 50)
        bank_again = capture_activations(model, data, [1], token_cap=50, seed=0)
        assert np.array_equal(bank_capped.per_site[1], bank_again.per_site[1])

    def test_first_block_sees_raw_inputs(self):
        rng = np.random.default_rng(25)
        model = make_dense_model(5, 7, 2, 2, seed=1)
        data = rng.standard_normal((5, 40))
        bank = capture_activations(model, data, [0], token_cap=1000, seed=0)
        assert np.abs(bank.per_site[0] - data).max() < 1e-10

    def test_site_activation_is_residual_stream(self):
        rng = np.random.default_rng(26)
        model = make_dense_model(5, 7, 3, 2, seed=2)
        data = rng.standard_normal((5, 30))
        bank = capture_activations(model, data, [1, 2], token_cap=1000, seed=0)
        state = model_forward(model, data)
        np.testing.assert_allclose(bank.per_site[1], state.caches[1].x, atol=0)
        np.testing.assert_allclose(bank.per_site[2], state.caches[2].x, atol=0)

    def test_empty_calibration(self):
        model = make_dense_model(4, 6, 2, 2, seed=3)
        with pytest.raises(EmptyCalibration):
            capture_activations(model, np.zeros((4, 0)), [1], token_cap=10, seed=0)

    def test_no_sites_runs_no_block(self, monkeypatch):
        model = make_dense_model(4, 6, 3, 2, seed=3)
        monkeypatch.setattr(upcycle, "ffn_forward", None)  # any call would raise
        bank = capture_activations(model, np.ones((4, 7)), [], token_cap=3, seed=0)
        assert bank.per_site == {}
        # The data is still checked against the model.
        with pytest.raises(ShapeMismatch, match="data has 5 rows, model expects 4"):
            capture_activations(model, np.ones((5, 7)), [], token_cap=3, seed=0)

    def test_runs_only_the_blocks_before_the_last_site(self, monkeypatch):
        model = make_dense_model(4, 6, 4, 2, seed=3)
        ran = []
        forward = upcycle.ffn_forward
        monkeypatch.setattr(upcycle, "ffn_forward",
                            lambda block, x: ran.append(block) or forward(block, x))
        capture_activations(model, np.ones((4, 7)), [2, 0], token_cap=3, seed=0)
        assert ran == model.blocks[:2]

    def test_moe_block_before_a_site_runs_at_its_own_capacity(self):
        # Block 1 is an MoE layer that drops slots; site 3's inputs are those
        # of model_forward, which runs it at the layer's capacity too.
        rng = np.random.default_rng(27)
        model = make_dense_model(5, 7, 4, 2, seed=4)
        model.blocks[1] = MoeLayer([random_ffn(rng, 5, 7) for _ in range(3)],
                                   rng.standard_normal((3, 5)), k=2, capacity_factor=0.5)
        data = rng.standard_normal((5, 60))
        assert model_forward(model, data).records[1].dropped.any()
        bank = capture_activations(model, data, [3], token_cap=1000, seed=0)
        assert bank.per_site[3].tobytes() == model_forward(model, data).caches[3].x.tobytes()
        model.blocks[1].capacity_factor = 2.0
        assert not np.array_equal(
            capture_activations(model, data, [3], token_cap=1000, seed=0).per_site[3],
            bank.per_site[3])

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_subsampled_full_forward(self, data):
        """Each site's bank is ``model_forward(...).caches[b].x``, subsampled
        as capture always did, bit for bit and in the same layout."""
        d, h = data.draw(st.integers(1, 6), label="d"), data.draw(st.integers(1, 8), label="h")
        n_blocks = data.draw(st.integers(1, 5), label="blocks")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        blocks = []
        for _ in range(n_blocks):
            if data.draw(st.booleans(), label="MoE block"):
                n_e = data.draw(st.integers(1, 4), label="experts")
                blocks.append(MoeLayer([random_ffn(rng, d, h) for _ in range(n_e)],
                                       rng.standard_normal((n_e, d)),
                                       k=data.draw(st.integers(1, n_e), label="k"),
                                       capacity_factor=data.draw(st.sampled_from([0.5, 1.5]),
                                                                 label="capacity")))
            else:
                blocks.append(random_ffn(rng, d, h))
        model = ToyModel(input_dim=d, blocks=blocks, head=rng.standard_normal((2, d)))
        sites = data.draw(st.lists(st.integers(0, n_blocks - 1), unique=True), label="sites")
        n = data.draw(st.integers(1, 40), label="N")
        token_cap = data.draw(st.one_of(st.integers(1, n), st.integers(n, 2 * n)), label="cap")
        layout = data.draw(st.sampled_from(["C", "F", "strided"]), label="layout")
        x = rng.standard_normal((d, 2 * n))
        x = {"C": x[:, :n].copy(), "F": np.asfortranarray(x[:, :n]), "strided": x[:, ::2]}[layout]
        seed = data.draw(st.integers(0, 2**32 - 1), label="capture seed")

        bank = capture_activations(model, x, sites, token_cap, seed)
        state = model_forward(model, x)
        assert list(bank.per_site) == sites
        for b in sites:
            acts = state.caches[b].x
            if n > token_cap:
                rng_b = substream(seed, f"capture:{b}")
                acts = acts[:, np.sort(rng_b.choice(n, size=token_cap, replace=False))]
            want, got = acts.copy(), bank.per_site[b]
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_under_half_the_forward_record(self):
        """At the default shape (d 32, h 64, 4 blocks, 4096 tokens, sites 1
        and 3, a cap of 2048), capture allocates under half of what
        ``model_forward``'s record of every block does."""
        cfg = PipelineConfig()
        model = make_dense_model(cfg.model.d, cfg.model.h, cfg.model.blocks,
                                 cfg.model.n_classes, seed=0)
        data = np.random.default_rng(28).standard_normal((cfg.model.d, cfg.data.n))
        tracemalloc.start()
        try:
            bank = capture_activations(model, data, [1, 3], cfg.calibration.token_cap, seed=0)
            capture_peak = tracemalloc.get_traced_memory()[1]
            del bank
            tracemalloc.reset_peak()
            state = model_forward(model, data)
            forward_peak = tracemalloc.get_traced_memory()[1]
            del state
        finally:
            tracemalloc.stop()
        assert capture_peak < forward_peak / 2


class TestUpcycleModel:
    def test_every_other_block(self):
        model = make_dense_model(8, 10, 4, 3, seed=4)
        moe, reports, _ = upcycle_model(
            model, "sparse", n_experts=4, k=2, capacity_factor=1.5, seed=5
        )
        assert moe.moe_sites == [1, 3]
        assert set(reports) == {1, 3}

    def test_shapes_preserved(self):
        model = make_dense_model(8, 10, 4, 3, seed=6)
        for method in ("sparse", "drop", "drop_svd"):
            moe, _, _ = upcycle_model(
                model, method, n_experts=4, k=2, capacity_factor=1.5, seed=7
            )
            for b in moe.moe_sites:
                layer = moe.blocks[b]
                assert (layer.d, layer.h) == (8, 10)

    def test_cluster_method_requires_bank(self):
        model = make_dense_model(8, 10, 4, 3, seed=8)
        with pytest.raises(ValueError):
            upcycle_model(model, "cluster", n_experts=4, k=2, capacity_factor=1.5, seed=9)

    def test_cluster_method_end_to_end(self):
        ds = make_synthetic_dataset(8, 2, 4, 200, 3.0, seed=10)
        model = make_dense_model(8, 10, 4, 2, seed=11)
        bank = capture_activations(model, ds.inputs, [1, 3], token_cap=150, seed=12)
        moe, reports, cms = upcycle_model(
            model, "cluster", n_experts=4, k=2, capacity_factor=1.5, seed=13, bank=bank
        )
        assert set(cms) == {1, 3}
        for b in (1, 3):
            assert reports[b].method == "cluster_aware"
            assert len(reports[b].per_expert_rank) == 4
            assert reports[b].joint_objective is not None
            assert abs(reports[b].gamma - 1 / 3) < 1e-12


class TestInitializerContract:
    def test_table_follows_init_methods(self):
        assert tuple(INITIALIZERS) == INIT_METHODS

    @pytest.mark.parametrize("method", ["sparse", "drop"])
    def test_copy_methods_report_full_rank(self, method):
        model = make_dense_model(8, 10, 4, 3, seed=14)
        _, reports, cms = upcycle_model(
            model, method, n_experts=4, k=2, capacity_factor=1.5, seed=15
        )
        assert cms == {}
        for report in reports.values():
            assert report.method == method
            assert report.per_expert_rank == [8] * 4
            assert report.per_expert_truncation_loss == [0.0] * 4

    def test_drop_svd_reports_discarded_energy(self):
        model = make_dense_model(8, 10, 4, 3, seed=16)
        init = InitConfig(fraction=0.4)
        _, reports, _ = upcycle_model(
            model, "drop_svd", n_experts=4, k=2, capacity_factor=1.5, seed=17, init=init
        )
        for b, report in reports.items():
            sigma = svd_full(model.blocks[b].w1).sigma
            n_keep = math.ceil((1 - init.fraction) * sigma.size)
            assert report.per_expert_rank == [n_keep] * 4
            assert report.per_expert_truncation_loss == [float(np.sum(sigma[n_keep:] ** 2))] * 4

    def test_drop_svd_decomposes_once_per_site(self, monkeypatch):
        calls = []

        def counting_svd(w):
            calls.append(w.shape)
            return svd_full(w)

        monkeypatch.setattr(upcycle, "svd_full", counting_svd)
        model = make_dense_model(8, 10, 4, 3, seed=18)
        moe, _, _ = upcycle_model(
            model, "drop_svd", n_experts=4, k=2, capacity_factor=1.5, seed=19
        )
        assert len(calls) == len(moe.moe_sites)
