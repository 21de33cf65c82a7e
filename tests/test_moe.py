"""Tests for the MoE layer: FFN, routing, gating, capacity, ensemble, loss."""

import math

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from clusterup.errors import ShapeMismatch
from clusterup.moe import (
    DenseFfn,
    MoeLayer,
    block_params,
    dense_ensemble_forward,
    expert_capacity,
    ffn_forward,
    ffn_forward_cached,
    ffn_views,
    load_balance_loss,
    moe_backward,
    moe_forward,
    moe_forward_cached,
    router_probs,
)
from clusterup.train import ToyModel, evaluate


def random_ffn(rng, d=4, h=6, scale=1.0):
    return DenseFfn(
        w1=scale * rng.standard_normal((h, d)),
        b1=scale * rng.standard_normal(h),
        w2=scale * rng.standard_normal((d, h)),
        b2=scale * rng.standard_normal(d),
    )


def random_layer(rng, n_experts=4, d=4, h=6, k=2, capacity_factor=1e9):
    return MoeLayer(
        experts=[random_ffn(rng, d, h) for _ in range(n_experts)],
        router=rng.standard_normal((n_experts, d)),
        k=k,
        capacity_factor=capacity_factor,
    )


class TestFfnForward:
    def test_identity_on_positive_orthant(self):
        ffn = DenseFfn(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        x = np.abs(np.random.default_rng(0).standard_normal((3, 5))) + 0.1
        np.testing.assert_allclose(ffn_forward(ffn, x), x)

    def test_bias_passthrough(self):
        c = np.array([1.0, -2.0, 3.0])
        ffn = DenseFfn(np.ones((4, 3)), np.zeros(4), np.ones((3, 4)), c)
        y = ffn_forward(ffn, np.zeros((3, 6)))
        np.testing.assert_allclose(y, np.tile(c[:, None], (1, 6)))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(1)
        ffn = random_ffn(rng)
        x = rng.standard_normal((4, 3))
        y = ffn_forward(ffn, x)
        for t in range(3):
            hidden = np.zeros(6)
            for i in range(6):
                for j in range(4):
                    hidden[i] += ffn.w1[i, j] * x[j, t]
                hidden[i] = max(hidden[i] + ffn.b1[i], 0.0)
            out = np.zeros(4)
            for i in range(4):
                for j in range(6):
                    out[i] += ffn.w2[i, j] * hidden[j]
                out[i] += ffn.b2[i]
            np.testing.assert_allclose(y[:, t], out, atol=1e-10)

    def test_shape_mismatch(self):
        ffn = random_ffn(np.random.default_rng(2))
        with pytest.raises(ShapeMismatch):
            ffn_forward(ffn, np.zeros((5, 2)))


class TestRouterProbs:
    def test_zero_router_is_uniform(self):
        probs = router_probs(np.zeros((8, 4)), np.random.default_rng(3).standard_normal((4, 5)))
        np.testing.assert_allclose(probs, np.full((5, 8), 1 / 8))

    def test_closed_form_softmax(self):
        # logits (ln 3, 0) for a single token
        router = np.array([[math.log(3.0)], [0.0]])
        probs = router_probs(router, np.array([[1.0]]))
        np.testing.assert_allclose(probs, [[0.75, 0.25]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        probs = router_probs(rng.standard_normal((6, 5)) * 10, rng.standard_normal((5, 40)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-8)


def top_k_gates(probs_row, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for one token's routing: its top-k experts (ties to the lowest
    index) and their gates renormalized over the selection."""
    p = np.asarray(probs_row, dtype=np.float64)
    order = np.argsort(-p, kind="stable")[:k]
    return order, p[order] / p[order].sum()


class TestTopKGates:
    """The oracle on hand-worked rows, and the layer's routing of one token
    whose routing probabilities are those rows, against the oracle."""

    @staticmethod
    def assert_layer_routes_like_oracle(p, k):
        rng = np.random.default_rng(6)
        layer = MoeLayer([random_ffn(rng, d=1, h=2) for _ in p],
                         np.log(np.asarray(p))[:, None], k, 1e9)
        _, record = moe_forward(layer, np.ones((1, 1)))
        np.testing.assert_allclose(record.probs[0], p, rtol=1e-12)
        idx, gates = top_k_gates(record.probs[0], k)
        np.testing.assert_array_equal(record.topk_indices[0], idx)
        np.testing.assert_allclose(record.gates[0], gates, rtol=1e-15)

    def test_renormalization(self):
        idx, gates = top_k_gates(np.array([0.5, 0.3, 0.2]), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(gates, [0.625, 0.375])
        self.assert_layer_routes_like_oracle([0.5, 0.3, 0.2], 2)

    def test_tie_to_lowest_index(self):
        idx, gates = top_k_gates(np.array([0.4, 0.4, 0.2]), 1)
        assert idx[0] == 0
        np.testing.assert_allclose(gates, [1.0])
        self.assert_layer_routes_like_oracle([0.4, 0.4, 0.2], 1)

    def test_full_selection_equals_probs(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 1.0, size=6)
        p /= p.sum()
        idx, gates = top_k_gates(p, 6)
        np.testing.assert_allclose(np.sort(gates), np.sort(p), atol=1e-12)
        np.testing.assert_allclose(gates, p[idx], atol=1e-12)
        self.assert_layer_routes_like_oracle(p, 6)


class TestCapacity:
    def test_exact_quotients(self):
        assert expert_capacity(0.5, 4, 1, 2) == 1
        assert expert_capacity(1.5, 128, 2, 8) == 48
        assert expert_capacity(2.0, 1000, 1, 8) == 250

    def test_rounds_up(self):
        assert expert_capacity(1.0, 5, 1, 2) == 3

    def test_at_most_one_slot_per_token(self):
        assert expert_capacity(3.0, 5, 2, 2) == 5
        assert expert_capacity(1e308, 5, 2, 4) == 5  # the product overflows to inf

    @pytest.mark.parametrize("capacity_factor", [0.0, -1.0, math.nan, math.inf])
    def test_one_rule_for_every_capacity(self, capacity_factor):
        # A layer's capacity and a per-call one, through moe_forward and
        # evaluate, all refuse a capacity that is not finite and > 0.
        rng = np.random.default_rng(3)
        layer = random_layer(rng, capacity_factor=1.5)
        x = rng.standard_normal((4, 32))
        match = "capacity_factor must be finite and > 0"
        with pytest.raises(ValueError, match=match):
            random_layer(rng, capacity_factor=capacity_factor)
        with pytest.raises(ValueError, match=match):
            moe_forward(layer, x, capacity_factor)
        model = ToyModel(input_dim=4, blocks=[layer], head=rng.standard_normal((2, 4)))
        with pytest.raises(ValueError, match=match):
            evaluate(model, x, np.zeros(32, dtype=int), capacity_factor)


class TestMoeForward:
    def test_identical_experts_equal_dense(self):
        rng = np.random.default_rng(6)
        base = random_ffn(rng)
        for k in (1, 2, 4):
            layer = MoeLayer(
                experts=[base.copy() for _ in range(4)],
                router=rng.standard_normal((4, 4)),
                k=k,
                capacity_factor=1e9,
            )
            x = rng.standard_normal((4, 20))
            y, _ = moe_forward(layer, x)
            np.testing.assert_allclose(y, ffn_forward(base, x), atol=1e-6)

    def test_k1_selects_single_expert(self):
        rng = np.random.default_rng(7)
        layer = random_layer(rng, n_experts=2, k=1)
        x = rng.standard_normal((4, 10))
        y, record = moe_forward(layer, x)
        for t in range(10):
            e = record.topk_indices[t, 0]
            expected = ffn_forward(layer.experts[e], x[:, t:t + 1])
            np.testing.assert_allclose(y[:, t:t + 1], expected, atol=1e-12)

    def test_capacity_drops_in_token_order(self):
        # Router forces every token onto expert 0; capacity 1 keeps only token 0.
        d = 3
        experts = [
            DenseFfn(np.zeros((2, d)), np.zeros(2), np.zeros((d, 2)), np.full(d, fill))
            for fill in (1.0, 2.0)
        ]
        router = np.array([[10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        layer = MoeLayer(experts, router, k=1, capacity_factor=0.5)
        x = np.tile(np.array([[1.0], [0.0], [0.0]]), (1, 4))
        y, record = moe_forward(layer, x)
        assert expert_capacity(0.5, 4, 1, 2) == 1
        np.testing.assert_array_equal(record.topk_indices[:, 0], [0, 0, 0, 0])
        np.testing.assert_array_equal(record.dropped[:, 0], [False, True, True, True])
        assert np.abs(y[:, 0] - 1.0).max() < 1e-12  # served by expert 0
        np.testing.assert_allclose(y[:, 1:], 0.0)   # dropped tokens emit zero

    def test_drop_count_accounting(self):
        rng = np.random.default_rng(8)
        layer = random_layer(rng, n_experts=4, k=2, capacity_factor=0.6)
        x = rng.standard_normal((4, 40))
        _, record = moe_forward(layer, x)
        cap = expert_capacity(0.6, 40, 2, 4)
        for e in range(4):
            selected = int((record.topk_indices == e).sum())
            dropped = int((record.topk_indices[record.dropped] == e).sum())
            assert dropped == max(0, selected - cap)

    def test_gates_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        layer = random_layer(rng, n_experts=5, k=3)
        _, record = moe_forward(layer, rng.standard_normal((4, 30)))
        np.testing.assert_allclose(record.gates.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_allclose(record.probs.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_allclose(record.per_expert_fraction.sum(), 1.0, atol=1e-8)

    def test_expert_permutation_symmetry(self):
        rng = np.random.default_rng(10)
        layer = random_layer(rng, n_experts=4, k=2)
        x = rng.standard_normal((4, 25))
        y, _ = moe_forward(layer, x)
        perm = np.array([2, 0, 3, 1])
        permuted = MoeLayer(
            experts=[layer.experts[p].copy() for p in perm],
            router=layer.router[perm].copy(),
            k=2,
            capacity_factor=layer.capacity_factor,
        )
        y2, _ = moe_forward(permuted, x)
        np.testing.assert_allclose(y, y2, atol=1e-10)

    def test_full_k_equals_dense_ensemble(self):
        rng = np.random.default_rng(11)
        layer = random_layer(rng, n_experts=4, k=4)
        x = rng.standard_normal((4, 15))
        y, _ = moe_forward(layer, x)
        np.testing.assert_allclose(y, dense_ensemble_forward(layer, x), atol=1e-8)


class TestDenseEnsemble:
    def test_single_expert(self):
        rng = np.random.default_rng(12)
        layer = random_layer(rng, n_experts=1, k=1)
        x = rng.standard_normal((4, 8))
        np.testing.assert_allclose(
            dense_ensemble_forward(layer, x),
            ffn_forward(layer.experts[0], x),
            atol=1e-12,
        )

    def test_identical_experts_convexity(self):
        rng = np.random.default_rng(13)
        base = random_ffn(rng)
        layer = MoeLayer(
            experts=[base.copy() for _ in range(3)],
            router=rng.standard_normal((3, 4)),
            k=1,
            capacity_factor=1.0,
        )
        x = rng.standard_normal((4, 12))
        np.testing.assert_allclose(
            dense_ensemble_forward(layer, x), ffn_forward(base, x), atol=1e-10
        )


class TestLoadBalanceLoss:
    def test_uniform_is_one_over_n(self):
        n_e, t, k = 8, 16, 2
        probs = np.full((t, n_e), 1.0 / n_e)
        topk = np.tile(np.arange(k), (t, 1))
        # Build a perfectly balanced selection: rotate pairs across tokens.
        topk = np.stack([(np.arange(t) * k) % n_e, (np.arange(t) * k + 1) % n_e], axis=1)
        from clusterup.moe import RoutingRecord

        counts = np.bincount(topk.ravel(), minlength=n_e)
        record = RoutingRecord(
            probs=probs, topk_indices=topk,
            gates=np.full((t, k), 0.5), dropped=np.zeros((t, k), dtype=bool),
            per_expert_fraction=counts / (t * k),
            per_expert_mean_prob=probs.mean(axis=0),
        )
        assert load_balance_loss(record) == 1.0 / n_e

    def test_concentrated_is_one(self):
        from clusterup.moe import RoutingRecord

        t, n_e = 10, 4
        probs = np.zeros((t, n_e))
        probs[:, 0] = 1.0
        topk = np.zeros((t, 1), dtype=int)
        record = RoutingRecord(
            probs=probs, topk_indices=topk,
            gates=np.ones((t, 1)), dropped=np.zeros((t, 1), dtype=bool),
            per_expert_fraction=np.array([1.0, 0.0, 0.0, 0.0]),
            per_expert_mean_prob=probs.mean(axis=0),
        )
        assert load_balance_loss(record) == 1.0

    def test_hand_computed_mixture(self):
        from clusterup.moe import RoutingRecord

        record = RoutingRecord(
            probs=np.array([[0.6, 0.4]]), topk_indices=np.array([[0]]),
            gates=np.array([[1.0]]), dropped=np.array([[False]]),
            per_expert_fraction=np.array([0.75, 0.25]),
            per_expert_mean_prob=np.array([0.6, 0.4]),
        )
        assert abs(load_balance_loss(record) - 0.55) < 1e-15


@st.composite
def routed_layers(draw):
    """A random layer, its tokens and a capacity factor. Router rows come from
    a pool of three (one all zero), so repeated rows make exact probability
    ties common."""
    n_e = draw(st.integers(1, 8))
    k = draw(st.integers(1, n_e))
    d = draw(st.integers(1, 5))
    t = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.vstack([np.zeros(d), rng.standard_normal((2, d))])
    rows = draw(st.lists(st.integers(0, 2), min_size=n_e, max_size=n_e))
    layer = MoeLayer(
        experts=[random_ffn(rng, d, 3) for _ in range(n_e)],
        router=pool[rows], k=k, capacity_factor=1.0,
    )
    capacity_factor = draw(st.floats(0.05, 4.0))
    return layer, rng.standard_normal((d, t)), capacity_factor


class TestRoutingProperties:
    @settings(max_examples=150, deadline=None)
    @given(routed_layers())
    def test_routing_invariants(self, case):
        layer, x, capacity_factor = case
        _, record, cache = moe_forward_cached(layer, x, capacity_factor)
        t, k, n_e = x.shape[1], layer.k, layer.n_experts
        cap = expert_capacity(capacity_factor, t, k, n_e)
        topk, dropped = record.topk_indices, record.dropped

        kept = np.bincount(topk[~dropped], minlength=n_e)
        assert (kept <= cap).all()

        for row, probs in zip(topk, record.probs):
            expected = sorted(range(n_e), key=lambda e: (-probs[e], e))[:k]
            assert row.tolist() == expected

        # Slots fill in token order, then slot order: for each expert the
        # first ``cap`` of its slots are kept and the rest dropped.
        flat, flat_dropped = topk.ravel(), dropped.ravel()
        for e in range(n_e):
            slots = np.nonzero(flat == e)[0]
            assert flat_dropped[slots].tolist() == [i >= cap for i in range(slots.size)]

        assert np.abs(record.gates.sum(axis=1) - 1.0).max() <= 1e-12
        assert (record.gates >= 0.0).all()

        # The dispatch plan holds each expert's kept slots in token-then-slot
        # order, with their gates.
        plan = cache.plan
        for e in range(n_e):
            rows, slots = np.nonzero((topk == e) & ~dropped)
            span = slice(*plan.offsets[e:e + 2])
            assert np.array_equal(plan.rows[span], rows)
            assert np.array_equal(plan.slots[span], slots)
            assert np.array_equal(plan.gates[span], record.gates[rows, slots])
        assert plan.offsets[-1] == plan.rows.size == (~dropped).sum()


def reference_moe(layer, x, capacity_factor, dy, dprobs_extra):
    """The MoE layer as a loop over the experts, each gathering its own
    tokens, scattering its gated outputs and its dx in expert order, and
    writing its gradient views by name: the oracle for the grouped dispatch.
    Returns (y, dx, grads, (topk, gates, dropped))."""
    t_tokens, n_e, k = x.shape[1], layer.n_experts, layer.k
    probs = router_probs(layer.router, x)
    topk = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    sel_probs = probs[np.arange(t_tokens)[:, None], topk]
    denom = sel_probs.sum(axis=1)
    gates = sel_probs / denom[:, None]
    cap = expert_capacity(capacity_factor, t_tokens, k, n_e)
    dropped = np.zeros((t_tokens, k), dtype=bool)
    plan = []
    for e in range(n_e):
        rows, slots = np.nonzero(topk == e)
        dropped[rows[cap:], slots[cap:]] = True
        plan.append((rows[:cap], slots[:cap], gates[rows[:cap], slots[:cap]]))

    y, dx = np.zeros_like(x), np.zeros_like(x)
    dgates = np.zeros((t_tokens, k))
    grads = np.empty_like(layer.params)
    n_router, size = layer.router.size, layer.experts[0].params.size
    for i, (ffn, (rows, slots, g)) in enumerate(zip(layer.experts, plan)):
        expert_grads = grads[n_router + i * size:n_router + (i + 1) * size]
        if rows.size == 0:
            expert_grads[...] = 0.0
            continue
        out, cache = ffn_forward_cached(ffn, x[:, rows])
        y[:, rows] += out * g[None, :]
        dy_rows = dy[:, rows]
        d_out = dy_rows * g[None, :]
        dgates[rows, slots] = np.einsum("dt,dt->t", dy_rows, out)
        views = dict(block_params(ffn, buf=expert_grads))
        d_pre = ffn.w2.T @ d_out
        d_pre *= cache.act > 0.0
        np.matmul(d_out, cache.act.T, out=views["w2"])
        np.add.reduce(d_out, axis=1, out=views["b2"])
        np.matmul(d_pre, cache.x.T, out=views["w1"])
        np.add.reduce(d_pre, axis=1, out=views["b1"])
        dx[:, rows] += ffn.w1.T @ d_pre

    vdotg = np.einsum("tk,tk->t", dgates, gates)
    dsel = (dgates - vdotg[:, None]) / denom[:, None]
    dprobs = np.zeros_like(probs)
    np.put_along_axis(dprobs, topk, dsel, axis=1)
    if dprobs_extra is not None:
        dprobs = dprobs + dprobs_extra
    dot = np.einsum("te,te->t", dprobs, probs)
    dlogits = probs * (dprobs - dot[:, None])
    np.matmul(dlogits.T, x.T, out=grads[:n_router].reshape(layer.router.shape))
    dx += layer.router.T @ dlogits.T
    return y, dx, grads, (topk, gates, dropped)


@st.composite
def dispatch_cases(draw):
    """A layer, tokens (first row >= 1), output gradient, capacity factor and
    optional ``dprobs_extra``. Half the draws set the capacity to one slot,
    so every routed expert keeps exactly one token; a drawn number of
    experts, at most ``n_experts - k``, get a router weight of -1000 on the
    first row and are never selected, so they stay empty; any other capacity
    below the load drops slots."""
    n_e = draw(st.integers(1, 6), label="n_experts")
    k = draw(st.integers(1, n_e), label="k")
    d = draw(st.integers(1, 5), label="d")
    t = draw(st.integers(1, 24), label="T")
    cap = draw(st.one_of(st.just(1), st.integers(1, t)), label="capacity")
    shunned = draw(st.integers(0, n_e - k), label="empty experts")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    router = rng.standard_normal((n_e, d))
    router[n_e - shunned:, 0] = -1000.0
    layer = MoeLayer([random_ffn(rng, d, 3) for _ in range(n_e)],
                     router[rng.permutation(n_e)], k, 1.0)
    x = rng.standard_normal((d, t))
    x[0] = np.abs(x[0]) + 1.0
    if draw(st.booleans(), label="F-ordered x"):
        x = np.asfortranarray(x)
    extra = rng.standard_normal((t, n_e)) if draw(st.booleans(), label="dprobs_extra") else None
    return layer, x, cap * n_e / (t * k), rng.standard_normal((d, t)), extra


class TestGroupedDispatchOracle:
    @settings(max_examples=400, deadline=None)
    @given(dispatch_cases())
    def test_matches_per_expert_loop_bit_for_bit(self, case):
        layer, x, capacity_factor, dy, extra = case
        y, record, cache = moe_forward_cached(layer, x, capacity_factor)
        dx, grads = moe_backward(layer, cache, dy, extra)
        ref_y, ref_dx, ref_grads, (topk, gates, dropped) = reference_moe(
            layer, x, capacity_factor, dy, extra)
        assert np.array_equal(record.topk_indices, topk)
        assert np.array_equal(record.gates, gates)
        assert np.array_equal(record.dropped, dropped)
        for got, want in ((y, ref_y), (dx, ref_dx), (grads, ref_grads)):
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_strategy_reaches_every_forced_case(self):
        def widths(case):
            layer, x, capacity_factor, _, _ = case
            return np.diff(moe_forward_cached(layer, x, capacity_factor)[2].plan.offsets)

        for holds in (lambda case: 1 in widths(case), lambda case: 0 in widths(case),
                      lambda case: moe_forward(*case[:3])[1].dropped.any(),
                      lambda case: case[0].k == case[0].n_experts > 1,
                      lambda case: case[4] is not None):
            find(dispatch_cases(), holds, settings=settings(max_examples=300, database=None))


def reference_ensemble(layer, x):
    """The dense ensemble as a loop of ``ffn_forward`` over the experts, each
    output weighted by its softmax column and added in expert order: the
    oracle for the stacked ensemble."""
    probs = router_probs(layer.router, x)
    y = np.zeros_like(x)
    for i, expert in enumerate(layer.experts):
        out = ffn_forward(expert, x)
        out *= probs[:, i]
        y += out
    return y


def laid_out(x, layout):
    """``x`` as a C-ordered copy, an F-ordered copy, or a view with a column
    stride of two."""
    if layout == "C":
        return x.copy()
    if layout == "F":
        return np.asfortranarray(x)
    wide = np.empty((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return wide[:, ::2]


@st.composite
def ensemble_cases(draw):
    """A layer of 1-9 experts with tiny d and h, and 1-40 tokens laid out C,
    F or strided."""
    n_e = draw(st.integers(1, 9), label="n_experts")
    d, h = draw(st.integers(1, 6), label="d"), draw(st.integers(1, 8), label="h")
    t = draw(st.integers(1, 40), label="T")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = random_layer(rng, n_experts=n_e, d=d, h=h, k=1)
    layout = draw(st.sampled_from(["C", "F", "strided"]), label="layout")
    return layer, laid_out(rng.standard_normal((d, t)), layout)


class TestStackedEnsembleOracle:
    """``dense_ensemble_forward`` runs every expert in two batched GEMMs on
    the stacked views of the layer's buffer, with the loop's bits."""

    @settings(max_examples=400, deadline=None)
    @given(ensemble_cases())
    def test_matches_per_expert_loop_bit_for_bit(self, case):
        layer, x = case
        got, want = dense_ensemble_forward(layer, x), reference_ensemble(layer, x)
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous == want.flags.f_contiguous

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_default_shape(self, layout):
        rng = np.random.default_rng(41)
        layer = random_layer(rng, n_experts=8, d=32, h=64, k=2)
        x = laid_out(rng.standard_normal((32, 128)), layout)
        assert dense_ensemble_forward(layer, x).tobytes() == reference_ensemble(layer, x).tobytes()

    def test_strategy_reaches_every_edge_case(self):
        def f_ordered(x):
            return x.flags.f_contiguous and not x.flags.c_contiguous

        def strided(x):
            return not (x.flags.c_contiguous or x.flags.f_contiguous)

        for holds in (lambda case: case[0].n_experts == 1, lambda case: case[1].shape[1] == 1,
                      lambda case: case[0].d == case[0].h == 1,
                      lambda case: f_ordered(case[1]), lambda case: strided(case[1])):
            find(ensemble_cases(), holds, settings=settings(max_examples=300, database=None))


class TestLayoutRule:
    """One rule lays out every block buffer: an FFN's is ``[w1 | b1 | w2 |
    b2]`` and an MoE layer's is ``[router | one FFN buffer per expert]``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_views_walk_and_gradients(self, n_e, h, d, seed):
        rng = np.random.default_rng(seed)
        layer = random_layer(rng, n_experts=n_e, d=d, h=h, k=1, capacity_factor=1.0)
        stacked = ffn_views(layer.params[n_e * d:].reshape(n_e, -1), h, d)
        for i, expert in enumerate(layer.experts):
            for j, key in enumerate(("w1", "b1", "w2", "b2")):
                mine = getattr(expert, key)
                assert np.shares_memory(stacked[j][i], mine)
                assert np.array_equal(stacked[j][i], mine)

        ffn = [("w1", (h, d)), ("b1", (h,)), ("w2", (d, h)), ("b2", (d,))]
        walk = [("router", (n_e, d))] + [
            (f"expert{i}.{key}", shape) for i in range(n_e) for key, shape in ffn]
        for block, expected in ((layer, walk), (layer.experts[0], ffn)):
            got = list(block_params(block))
            assert [(name, arr.shape) for name, arr in got] == expected
            assert all(np.shares_memory(arr, block.params) for _, arr in got)
            assert sum(arr.size for _, arr in got) == block.params.size

        x, dy = rng.standard_normal((d, 9)), rng.standard_normal((d, 9))
        _, grads = moe_backward(layer, moe_forward_cached(layer, x)[2], dy)
        assert grads.tobytes() == reference_moe(layer, x, 1.0, dy, None)[2].tobytes()
