"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test pins its tolerance and asserts its runtime budget.
"""

import time

import numpy as np

from clusterup.analysis import (
    expert_weight_similarity,
    mean_offdiagonal,
    routing_entropy,
)
from clusterup.clustering import spherical_kmeans
from clusterup.config import InitConfig, PipelineConfig
from clusterup.distill import ema_update, make_teacher
from clusterup.linalg import frobenius_sq
from clusterup.moe import (
    DenseFfn,
    MoeLayer,
    RoutingRecord,
    load_balance_loss,
    router_probs,
)
from clusterup.pipeline import _compare_rows
from clusterup.seeding import derive_seed
from clusterup.train import (
    grad_check,
    make_dense_model,
    make_model_teacher,
    make_synthetic_dataset,
    model_forward,
    run_training,
)
from clusterup.upcycle import capture_activations, cluster_aware_init, upcycle_model

from tests.test_clustering import brute_force_two_clusters, two_group_instance


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def random_ffn(rng, d, h):
    return DenseFfn(
        w1=rng.standard_normal((h, d)),
        b1=rng.standard_normal(h) * 0.1,
        w2=rng.standard_normal((d, h)),
        b2=rng.standard_normal(d) * 0.1,
    )


def pretrained_pipeline(seed: int, cfg: PipelineConfig):
    """Dense pretraining, calibration capture, and cluster upcycling."""
    full = make_synthetic_dataset(
        cfg.model.d, cfg.model.n_classes, cfg.data.n_clusters,
        cfg.data.n + cfg.data.n_eval, cfg.data.separation,
        seed=derive_seed(seed, "data"),
    )
    train = full.slice(0, cfg.data.n)
    dense = make_dense_model(
        cfg.model.d, cfg.model.h, cfg.model.blocks, cfg.model.n_classes,
        seed=derive_seed(seed, "model_init"),
    )
    run_training(dense, None, train, steps=cfg.train.steps_dense,
                 batch_size=cfg.train.batch_size, lr=cfg.train.lr,
                 seed=derive_seed(seed, "dense_batches"))
    bank = capture_activations(
        dense, train.inputs, [1, 3], cfg.calibration.token_cap,
        seed=derive_seed(seed, "calibration"),
    )
    return train, dense, bank


def test_criterion_1_truncation_identity():
    """Whitened-SVD truncation loss equals the discarded spectral energy."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(4, 12))
        h = int(rng.integers(3, 14))
        n_clusters = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.6, 1.0))
        dense = random_ffn(rng, d, h)
        dirs = np.linalg.qr(rng.standard_normal((d, n_clusters)))[0].T
        cols = [dirs[c][:, None] + 0.3 * rng.standard_normal((d, 2 * d + 3))
                for c in range(n_clusters)]
        x = np.concatenate(cols, axis=1)
        experts, _, rep, cm = cluster_aware_init(dense, n_clusters, trial,
                                                 InitConfig(tau=tau), x)
        for i in range(n_clusters):
            xi = x[:, cm.assignments == i]
            if xi.shape[1] == 0:
                continue
            lhs = frobenius_sq(dense.w1 @ xi - experts[i].w1 @ xi)
            rhs = rep.per_expert_truncation_loss[i]
            whitened_energy = frobenius_sq(dense.w1 @ xi) + rhs + 1e-12
            worst = max(worst, abs(lhs - rhs) / whitened_energy)
    elapsed = time.time() - start
    report(1, "truncation loss equals discarded energy over 100 triples",
           worst < 1e-5 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_functional_equivalence():
    """Sparse-upcycled forward equals the dense forward for k in {1, 2, N_e}.

    Capacity is ample so no slot is dropped: the equivalence claim is about
    copied experts and renormalized gates, not about capacity events.
    """
    start = time.time()
    cfg = PipelineConfig()
    full = make_synthetic_dataset(32, 8, 8, 1024, 2.0, seed=derive_seed(7, "data"))
    dense = make_dense_model(32, 64, 4, 8, seed=derive_seed(7, "model_init"))
    run_training(dense, None, full, steps=60, batch_size=128, lr=cfg.train.lr,
                 seed=derive_seed(7, "dense_batches"))
    rng = np.random.default_rng(derive_seed(7, "tokens"))
    tokens = rng.standard_normal((32, 1000))
    dense_out = model_forward(dense, tokens).final
    worst = 0.0
    for k in (1, 2, 8):
        moe, _, _ = upcycle_model(dense, "sparse", n_experts=8, k=k,
                                  capacity_factor=1e9,
                                  seed=derive_seed(7, "upcycle"))
        state = model_forward(moe, tokens)
        assert all(not r.dropped.any() for r in state.records.values())
        worst = max(worst, float(np.abs(state.final - dense_out).max()))
    elapsed = time.time() - start
    report(2, "sparse upcycling is functionally equivalent at init",
           worst < 1e-6 and elapsed < 5.0,
           f"max abs dev {worst:.2e} over k in (1, 2, 8), {elapsed:.1f}s")


def test_criterion_3_symmetry_breaking():
    """Copies score similarity 1.0 exactly; cluster-aware init breaks it."""
    start = time.time()
    cfg = PipelineConfig()
    _, dense, bank = pretrained_pipeline(0, cfg)
    sparse, _, _ = upcycle_model(dense, "sparse", n_experts=8, k=2,
                                 capacity_factor=1.5, seed=derive_seed(0, "u:s"))
    cluster, _, _ = upcycle_model(dense, "cluster", n_experts=8, k=2,
                                  capacity_factor=1.5, seed=derive_seed(0, "u:c"),
                                  bank=bank, init=cfg.init)
    sparse_sims = [mean_offdiagonal(expert_weight_similarity(sparse.blocks[b]))
                   for b in sparse.moe_sites]
    cluster_sims = [mean_offdiagonal(expert_weight_similarity(cluster.blocks[b]))
                    for b in cluster.moe_sites]
    exact = all(s == 1.0 for s in sparse_sims)
    broken = max(cluster_sims) < 0.999
    elapsed = time.time() - start
    report(3, "sparse similarity is exactly 1.0 and cluster-aware is below 0.999",
           exact and broken and elapsed < 30.0,
           f"sparse {sparse_sims}, cluster max {max(cluster_sims):.4f}, {elapsed:.1f}s")


def test_criterion_4_routing_entropy_gap():
    """Centroid routers are more decisive than gaussian routers, every seed."""
    start = time.time()
    cfg = PipelineConfig()
    gaps = []
    for seed in range(5):
        _, dense, bank = pretrained_pipeline(seed, cfg)
        cluster, _, _ = upcycle_model(
            dense, "cluster", n_experts=8, k=2, capacity_factor=1.5,
            seed=derive_seed(seed, "u:c"), bank=bank, init=cfg.init,
        )
        rng = np.random.default_rng(derive_seed(seed, "gaussian_router"))
        ok = True
        for b in cluster.moe_sites:
            acts = bank.per_site[b]
            ent_cluster = routing_entropy(router_probs(cluster.blocks[b].router, acts))
            gaussian = rng.normal(0.0, cfg.init.router_scale,
                                  cluster.blocks[b].router.shape)
            ent_random = routing_entropy(router_probs(gaussian, acts))
            gaps.append(ent_random - ent_cluster)
            ok = ok and ent_cluster < ent_random
        assert ok, f"seed {seed} entropy gap violated"
    elapsed = time.time() - start
    report(4, "cluster router entropy below gaussian router entropy for 5 seeds",
           min(gaps) > 0 and elapsed < 30.0,
           f"min gap {min(gaps):.4f} nats, {elapsed:.1f}s")


def test_criterion_5_gradient_correctness():
    """Analytic gradients match finite differences; teacher gradients vanish."""
    start = time.time()
    cfg = PipelineConfig()
    full = make_synthetic_dataset(32, 8, 8, 64, 2.0, seed=derive_seed(11, "data"))
    dense = make_dense_model(32, 64, 4, 8, seed=derive_seed(11, "model_init"))
    run_training(dense, None, full, steps=30, batch_size=64, lr=cfg.train.lr,
                 seed=derive_seed(11, "dense_batches"))
    moe, _, _ = upcycle_model(dense, "sparse", n_experts=8, k=2,
                              capacity_factor=1.5, seed=derive_seed(11, "u"))
    teacher = make_model_teacher(moe, beta=cfg.train.beta)
    for t in teacher.sites.values():
        t.mirror.router += 0.05
        t.mirror.experts[0].w1 += 0.01
    result = grad_check(
        moe, teacher, full.inputs[:, :16], full.labels[:16],
        lambda_lb=cfg.train.lambda_lb, lambda_eesd=cfg.train.lambda_eesd,
        capacity_factor=1.5, samples_per_tensor=50,
        seed=derive_seed(11, "gradcheck"),
    )
    elapsed = time.time() - start
    report(5, "combined-objective gradients verified by finite differences",
           result["max_rel_error"] < 1e-4
           and result["teacher_max_quotient"] == 0.0
           and elapsed < 60.0,
           f"max rel {result['max_rel_error']:.2e}, teacher quotient "
           f"{result['teacher_max_quotient']:.1e}, checked {result['checked']}, "
           f"skipped {result['skipped']}, {elapsed:.1f}s")


def test_criterion_6_ema_closed_form():
    """100 EMA steps with a constant student match the geometric closed form."""
    rng = np.random.default_rng(201)
    student = MoeLayer(
        experts=[random_ffn(rng, 6, 9) for _ in range(4)],
        router=rng.standard_normal((4, 6)),
        k=2, capacity_factor=1.5,
    )
    teacher = make_teacher(student, beta=0.999)
    start_params = {
        "router": teacher.mirror.router.copy(),
        "w1": [e.w1.copy() for e in teacher.mirror.experts],
    }
    student.router += 1.0
    for e in student.experts:
        e.w1 -= 0.3
        e.b2 += 0.2
    for _ in range(100):
        ema_update(teacher, student)
    decay = 0.999 ** 100
    worst = float(np.abs(
        teacher.mirror.router
        - (decay * start_params["router"] + (1 - decay) * student.router)
    ).max())
    for i, e in enumerate(teacher.mirror.experts):
        expected = decay * start_params["w1"][i] + (1 - decay) * student.experts[i].w1
        worst = max(worst, float(np.abs(e.w1 - expected).max()))
    report(6, "teacher equals beta^100 p0 + (1 - beta^100) ps after 100 updates",
           worst < 1e-10, f"max abs dev {worst:.1e}")


def test_criterion_7_directional_end_to_end():
    """Cluster-aware upcycling beats sparse on final task loss, 4 of 5 seeds.

    Cluster-aware runs as the full proposed method (cluster init plus the
    ensemble distillation loss); sparse upcycling is the plain baseline.
    Utilization of the cluster-aware models must stay collapse-free.
    """
    start = time.time()
    cfg = PipelineConfig()
    assert cfg.model.d == 32 and cfg.model.blocks == 4
    assert cfg.moe.n_experts == 8 and cfg.moe.k == 2
    assert cfg.train.steps == 2000 and cfg.data.n_clusters == 8
    wins = 0
    util_ok = True
    lines = []
    rows = _compare_rows(cfg, range(5), [("sparse", False), ("cluster", True)])
    for seed in range(5):
        sparse, cluster = rows[2 * seed:2 * seed + 2]
        assert (sparse["method"], cluster["method"]) == ("sparse", "cluster")
        win = cluster["task_loss"] <= sparse["task_loss"]
        wins += win
        util_ok = util_ok and (0.05 <= cluster["utilization_min"]
                               and cluster["utilization_max"] <= 0.25)
        lines.append(
            f"seed {seed}: sparse {sparse['task_loss']:.4f} vs cluster "
            f"{cluster['task_loss']:.4f}, util [{cluster['utilization_min']:.3f}, "
            f"{cluster['utilization_max']:.3f}]"
        )
    elapsed = time.time() - start
    for line in lines:
        print("  " + line)
    report(7, "cluster-aware final task loss <= sparse in >= 4/5 seeds, no collapse",
           wins >= 4 and util_ok and elapsed < 600.0,
           f"{wins}/5 wins, utilization ok {util_ok}, {elapsed:.0f}s")


def test_criterion_8_kmeans_oracle():
    """Spherical k-means reaches the brute-force optimum on small instances."""
    start = time.time()
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 11))
        x = two_group_instance(rng, n)
        model = spherical_kmeans(x, 2, seed=int(rng.integers(10_000)))
        oracle = brute_force_two_clusters(x)
        achieved = model.objective_trace[-1]
        assert achieved <= oracle + 1e-9
        worst = max(worst, abs(achieved - oracle))
    elapsed = time.time() - start
    report(8, "exact optimum on 20 two-cluster instances vs enumeration",
           worst < 1e-9 and elapsed < 10.0,
           f"worst gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_9_load_balance_boundaries():
    """Uniform routing scores exactly 1/N_e; full concentration scores 1."""
    n_e, t, k = 8, 16, 2
    probs = np.full((t, n_e), 1.0 / n_e)
    topk = np.stack([(np.arange(t) * k) % n_e, (np.arange(t) * k + 1) % n_e],
                    axis=1)
    counts = np.bincount(topk.ravel(), minlength=n_e)
    uniform = RoutingRecord(
        probs=probs, topk_indices=topk, gates=np.full((t, k), 0.5),
        dropped=np.zeros((t, k), dtype=bool),
        per_expert_fraction=counts / (t * k),
        per_expert_mean_prob=probs.mean(axis=0),
    )
    concentrated_probs = np.zeros((t, n_e))
    concentrated_probs[:, 0] = 1.0
    concentrated = RoutingRecord(
        probs=concentrated_probs, topk_indices=np.zeros((t, 1), dtype=int),
        gates=np.ones((t, 1)), dropped=np.zeros((t, 1), dtype=bool),
        per_expert_fraction=np.eye(n_e)[0],
        per_expert_mean_prob=concentrated_probs.mean(axis=0),
    )
    uniform_val = load_balance_loss(uniform)
    concentrated_val = load_balance_loss(concentrated)
    report(9, "load-balancing loss boundary cases are exact",
           uniform_val == 1.0 / n_e and concentrated_val == 1.0,
           f"uniform {uniform_val}, concentrated {concentrated_val}")
