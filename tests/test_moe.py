"""Routing, sparse dispatch, and the balance loss."""

import tracemalloc

import numpy as np
import pytest

from avmoe.errors import ConfigError
from avmoe.moe import (
    LoadStats,
    MoEConfig,
    MoELayer,
    expert_mixture,
    load_balance_loss,
)
from avmoe.nn import FeedForward
from avmoe.optim import Adam
from avmoe.tensor import Tensor, _record, _sigmoid_stable, gather_rows, matmul, tsum

from helpers import (
    ADAM_CONSTANTS, check_grad, copy_ffn_weights, div, reference_ffn,
    reshape, retained_bytes, row_sum, take_along_cols,
)


def make_layer(num_experts=8, top_k=4, hidden=6, ffn_hidden=12, seed=0):
    cfg = MoEConfig(num_experts=num_experts, top_k=top_k, hidden=hidden, ffn_hidden=ffn_hidden)
    return MoELayer(cfg, np.random.default_rng(seed))


def reference_mixture(x, weights, indices, experts):
    """Per-expert gather, FFN and weighting: the path ``expert_mixture`` replaces.

    Each expert's FFN is built from Tensor ops (``reference_ffn``), not from
    the kernel that ``expert_mixture`` calls. A constant one-hot matrix puts
    each expert's rows back in token order.
    """
    tokens, k = indices.shape
    flat_weights = reshape(weights, (tokens * k,))
    out = None
    for e, expert in enumerate(experts):
        rows, slots = np.nonzero(indices == e)
        if rows.size == 0:
            continue
        w = reshape(gather_rows(flat_weights, rows * k + slots), (rows.size, 1))
        place = np.zeros((tokens, rows.size))
        place[rows, np.arange(rows.size)] = 1.0
        part = matmul(Tensor(place), reference_ffn(expert, gather_rows(x, rows)) * w)
        out = part if out is None else out + part
    return out


def renormalised_weights(probs, indices):
    """Each row's chosen probabilities over their sum, from the gather, row-sum and
    quotient nodes that ``expert_mixture`` took in."""
    picked = take_along_cols(probs, indices)
    return div(picked, row_sum(picked))


def mixture_of_weights(x, weights, indices, experts):
    """The ``expert_mixture`` node as it was when its parent was the renormalised
    ``weights``, not the probabilities: its backward ends at their gradient."""
    order = np.argsort(indices.reshape(-1), kind="stable")
    bounds = np.searchsorted(indices.reshape(-1)[order], np.arange(len(experts) + 1))
    flat_w = weights.data.reshape(-1)
    out, saved = np.zeros(x.shape), []
    for e, expert in enumerate(experts):
        pairs = order[bounds[e] : bounds[e + 1]]
        if pairs.size == 0:
            saved.append(None)
            continue
        rows = pairs // indices.shape[1]
        y, ffn_saved = expert.forward(x.data[rows])
        out[rows] += y * flat_w[pairs][:, None]
        saved.append((pairs, rows, y, ffn_saved))

    def backward(g):
        dx, dw, grads = np.zeros(x.shape), np.zeros(flat_w.shape), []
        for expert, rec in zip(experts, saved):
            if rec is None:
                grads.extend([None] * 4)
                continue
            pairs, rows, y, ffn_saved = rec
            gr = g[rows]
            dw[pairs] = (gr * y).sum(axis=1)
            dxr, *expert_grads = expert.backward(
                gr * flat_w[pairs][:, None], x.data[rows], ffn_saved
            )
            dx[rows] += dxr
            grads.extend(expert_grads)
        return (dx, dw.reshape(weights.shape), *grads)

    params = tuple(p for expert in experts for p in expert.weights)
    return _record(out, (x, weights) + params, backward)


def stats_from_probs(probs: np.ndarray) -> LoadStats:
    tokens, num_experts = probs.shape
    counts = np.bincount(probs.argmax(axis=1), minlength=num_experts).astype(np.float64)
    return LoadStats(
        hard_counts=counts,
        prob_sum=Tensor(probs.sum(axis=0)),
        tokens=tokens,
        dispatched=0,
    )


class TestRouting:
    def test_zero_router_routes_uniformly(self):
        layer = make_layer()
        x = Tensor(np.random.default_rng(1).normal(size=(5, 6)))
        decision = layer.route(x)
        np.testing.assert_allclose(decision.probs.data, 0.125, atol=1e-15)
        np.testing.assert_array_equal(decision.indices, np.tile([0, 1, 2, 3], (5, 1)))

    def test_two_expert_closed_form(self):
        layer = make_layer(num_experts=2, top_k=1, hidden=2, ffn_hidden=4)
        # logits = x @ router = (0, ln 3) for x = (1, 0)
        layer.router.data = np.array([[0.0, np.log(3.0)], [0.0, 0.0]])
        x = Tensor([[1.0, 0.0]])
        decision = layer.route(x)
        np.testing.assert_allclose(decision.probs.data, [[0.25, 0.75]], atol=1e-12)
        assert decision.indices.tolist() == [[1]]
        # The one chosen expert's renormalised weight is 1.
        np.testing.assert_allclose(layer(x)[0].data, layer.experts[1](x).data, atol=1e-12)

    def test_router_logit_shift_invariance(self):
        layer = make_layer(hidden=4, ffn_hidden=8)
        rng = np.random.default_rng(2)
        layer.router.data = rng.normal(size=(4, 8))
        x = Tensor(np.ones((3, 4)))
        base = layer.route(x)
        # Adding c/hidden to every router entry shifts each logit by c.
        shifted_layer = make_layer(hidden=4, ffn_hidden=8)
        shifted_layer.router.data = layer.router.data + 2.5 / 4
        shifted = shifted_layer.route(x)
        np.testing.assert_allclose(shifted.probs.data, base.probs.data, atol=1e-12)
        np.testing.assert_array_equal(shifted.indices, base.indices)
        # Same experts (seed 0 for both layers), so the same weights give the same output.
        np.testing.assert_allclose(shifted_layer(x)[0].data, layer(x)[0].data, atol=1e-12)

    def test_probability_rows_sum_to_one(self):
        layer = make_layer(hidden=4, ffn_hidden=8)
        layer.router.data = np.random.default_rng(3).normal(size=(4, 8))
        x = Tensor(np.random.default_rng(4).normal(size=(9, 4)))
        decision = layer.route(x)
        np.testing.assert_allclose(decision.probs.data.sum(axis=1), 1.0, atol=1e-12)
        # With every expert the same FFN, the layer is that FFN exactly when each
        # token's renormalised weights sum to one.
        donor = layer.experts[0]
        for expert in layer.experts:
            copy_ffn_weights(expert, donor)
        np.testing.assert_allclose(layer(x)[0].data, donor(x).data, atol=1e-12)

    def test_hard_counts_are_the_argmax_counts_on_tied_rows(self):
        # Each x row picks router rows, so its logits tie at the maximum: experts
        # 2 and 5, all eight, 6 and 7, and 0, 3 and 7. The count goes to the
        # lowest tied index, as argmax gives it.
        layer = make_layer(top_k=3, hidden=4, ffn_hidden=8)
        layer.router.data = np.array([
            [0, 0, 1, 0, 0, 1, 0, 0], [0] * 8, [0, 0, 0, 0, 0, 0, 2, 2], [3, 0, 0, 3, 0, 0, 0, 3],
        ], dtype=np.float64)
        x = Tensor(np.vstack([np.eye(4), [[1.0, 1.0, 0.0, 0.0]]]))
        _, stats = layer(x)
        argmax = np.bincount(layer.route(x).probs.data.argmax(axis=1), minlength=8)
        np.testing.assert_array_equal(stats.hard_counts, argmax)
        np.testing.assert_array_equal(stats.hard_counts, [2, 0, 2, 0, 0, 0, 1, 0])

    def test_matches_sort_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            k = seed % 8 + 1
            layer = make_layer(top_k=k, hidden=4, ffn_hidden=8)
            layer.router.data = rng.normal(size=(4, 8))
            decision = layer.route(Tensor(rng.normal(size=(5, 4))))
            for row, picked in zip(decision.probs.data, decision.indices):
                assert picked.tolist() == sorted(range(8), key=lambda i: (-row[i], i))[:k]


class TestForward:
    def test_full_ensemble_of_identical_experts_is_dense(self):
        layer = make_layer(num_experts=4, top_k=4)
        donor = layer.experts[0]
        for expert in layer.experts:
            copy_ffn_weights(expert, donor)
        x = Tensor(np.random.default_rng(5).normal(size=(7, 6)))
        out, _ = layer(x)
        np.testing.assert_allclose(out.data, donor(x).data, atol=1e-12)

    def test_renormalized_top4_of_uniform_is_identity(self):
        layer = make_layer(num_experts=8, top_k=4)
        donor = layer.experts[0]
        for expert in layer.experts:
            copy_ffn_weights(expert, donor)
        x = Tensor(np.random.default_rng(7).normal(size=(5, 6)))
        out, _ = layer(x)
        np.testing.assert_allclose(out.data, donor(x).data, atol=1e-12)

    def test_sparsity_dispatch_count_is_k_times_tokens(self):
        for seed in range(5):
            layer = make_layer()
            layer.router.data = np.random.default_rng(seed).normal(size=(6, 8))
            tokens = 3 + seed
            x = Tensor(np.random.default_rng(seed + 10).normal(size=(tokens, 6)))
            _, stats = layer(x)
            assert stats.dispatched == 4 * tokens

    def test_expert_permutation_leaves_output_unchanged(self):
        layer = make_layer(hidden=4, ffn_hidden=8)
        rng = np.random.default_rng(8)
        layer.router.data = rng.normal(size=(4, 8))
        x = Tensor(rng.normal(size=(6, 4)))
        base, _ = layer(x)

        perm = rng.permutation(8)
        permuted = make_layer(hidden=4, ffn_hidden=8)
        permuted.router.data = layer.router.data[:, perm]
        for new_pos, old_pos in enumerate(perm):
            copy_ffn_weights(permuted.experts[new_pos], layer.experts[old_pos])
        out, _ = permuted(x)
        np.testing.assert_allclose(out.data, base.data, atol=1e-12, rtol=0)

    def test_gradients_reach_experts_and_router(self):
        layer = make_layer(num_experts=3, top_k=2, hidden=4, ffn_hidden=6)
        rng = np.random.default_rng(9)
        layer.router.data = rng.normal(size=(4, 3))
        x = Tensor(rng.uniform(-1, 1, (5, 4)))
        weights = Tensor(rng.normal(size=(5, 4)))
        check_grad(lambda: tsum(layer(x)[0] * weights), layer.parameters(), tol=1e-4)


class TestExpertMixture:
    @pytest.mark.parametrize("top_k", [1, 2, 5])
    def test_matches_per_expert_composition(self, top_k):
        layer = make_layer(num_experts=5, top_k=top_k, hidden=4, ffn_hidden=6)
        rng = np.random.default_rng(20 + top_k)
        layer.router.data = rng.normal(size=(4, 5))
        x = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(9, 4)))
        params = [x] + layer.parameters()
        results = []
        for mixture in (
            expert_mixture,
            lambda x, probs, indices, experts: (
                reference_mixture(x, renormalised_weights(probs, indices), indices, experts), None
            ),
        ):
            for p in params:
                p.grad = None
            decision = layer.route(x)
            out, _ = mixture(x, decision.probs, decision.indices, layer.experts)
            loss = tsum(out * weights)
            loss.backward()
            results.append((loss.item(), [p.grad for p in params]))
        (loss_k, grads_k), (loss_r, grads_r) = results
        assert abs(loss_k - loss_r) <= 1e-10 * abs(loss_r)
        for param, got, want in zip(params, grads_k, grads_r):
            if want is None:
                assert got is None
            elif param is layer.router and top_k == 1:
                # One choice per token: every renormalised weight is exactly 1, so the
                # router's exact gradient is 0, and on each path it is rounding only.
                for x_grad, router_grad in ((grads_k[0], got), (grads_r[0], want)):
                    assert np.abs(router_grad).max() <= 1e-15 * np.abs(x_grad).max()
            else:
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_gradient_matches_finite_differences(self):
        layer = make_layer(num_experts=3, top_k=2, hidden=3, ffn_hidden=4)
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        probs = Tensor(rng.uniform(0.1, 1.0, size=(5, 3)), requires_grad=True)
        indices = np.array([[0, 1], [2, 0], [1, 2], [0, 2], [1, 0]])
        weights = Tensor(rng.normal(size=(5, 3)))
        check_grad(
            lambda: tsum(expert_mixture(x, probs, indices, layer.experts)[0] * weights),
            [x, probs] + layer.parameters()[1:],
        )

    @pytest.mark.parametrize("top_k", [1, 2, 5])
    def test_probability_gradient_is_bit_identical_to_renormalising_nodes(self, top_k):
        layer = make_layer(num_experts=5, top_k=top_k, hidden=4, ffn_hidden=6)
        rng = np.random.default_rng(30 + top_k)
        layer.router.data = rng.normal(size=(4, 5))
        x = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(9, 4)))
        params = [x] + layer.parameters()  # the router's gradient comes through dprobs
        results = []
        for mixture in (
            lambda probs, indices: expert_mixture(x, probs, indices, layer.experts)[0],
            lambda probs, indices: mixture_of_weights(
                x, renormalised_weights(probs, indices), indices, layer.experts
            ),
        ):
            for p in params:
                p.grad = None
            decision = layer.route(x)
            out = mixture(decision.probs, decision.indices)
            tsum(out * weights).backward()
            results.append((out.data, [p.grad for p in params]))
        (out_k, grads_k), (out_r, grads_r) = results
        np.testing.assert_array_equal(out_k, out_r)
        for got, want in zip(grads_k, grads_r):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_backward_is_bit_identical_to_recomputing_from_the_pre_activation(
        self, monkeypatch
    ):
        # The FFN kernel saves the sigmoid; this is the kernel that saved the
        # pre-activation and took the sigmoid again.
        def forward_saving_pre(ffn, x):
            pre = x @ ffn.lin1.weight.data + ffn.lin1.bias.data
            act = pre * _sigmoid_stable(pre)
            return act @ ffn.lin2.weight.data + ffn.lin2.bias.data, (act, pre)

        def backward_from_pre(ffn, g, x, saved):
            act, pre = saved
            s = _sigmoid_stable(pre)
            da = (g @ ffn.lin2.weight.data.T) * (s + pre * s * (1.0 - s))
            return da @ ffn.lin1.weight.data.T, x.T @ da, da.sum(axis=0), act.T @ g, g.sum(axis=0)

        layer = make_layer(num_experts=5, top_k=3, hidden=4, ffn_hidden=6)
        rng = np.random.default_rng(26)
        layer.router.data = rng.normal(size=(4, 5))
        x = Tensor(rng.normal(scale=3.0, size=(11, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(11, 4)))
        params = [x] + layer.parameters()
        grads = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(FeedForward, "forward", forward_saving_pre)
                monkeypatch.setattr(FeedForward, "backward", backward_from_pre)
            for p in params:
                p.grad = None
            tsum(layer(x)[0] * weights).backward()
            grads.append([p.grad for p in params])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_backward_is_bit_identical_to_keeping_the_gathered_rows(self, monkeypatch):
        # This is the kernel that kept each expert's x[rows] from the forward.
        kernel_forward, kernel_backward = FeedForward.forward, FeedForward.backward

        def forward_keeping_rows(ffn, x):
            y, saved = kernel_forward(ffn, x)
            return y, (x, saved)

        def backward_from_kept_rows(ffn, g, x_again, saved):
            x, kernel_saved = saved
            return kernel_backward(ffn, g, x, kernel_saved)

        layer = make_layer(num_experts=5, top_k=3, hidden=4, ffn_hidden=6)
        rng = np.random.default_rng(27)
        layer.router.data = rng.normal(size=(4, 5))
        x = Tensor(rng.normal(size=(13, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(13, 4)))
        params = [x] + layer.parameters()
        grads = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(FeedForward, "forward", forward_keeping_rows)
                monkeypatch.setattr(FeedForward, "backward", backward_from_kept_rows)
            for p in params:
                p.grad = None
            tsum(layer(x)[0] * weights).backward()
            grads.append([p.grad for p in params])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_node_keeps_no_gather_of_its_input(self):
        tokens, top_k, dim, hidden = 128, 2, 64, 32
        layer = make_layer(num_experts=4, top_k=top_k, hidden=dim, ffn_hidden=hidden)
        rng = np.random.default_rng(28)
        layer.router.data = rng.normal(size=(dim, 4))
        x = Tensor(rng.normal(size=(tokens, dim)), requires_grad=True)
        decision = layer.route(x)
        pairs = tokens * top_k
        # Per (token, expert) pair: the expert's output row, its s row, the pair
        # id, the row index, and the chosen probability and its weight; per token,
        # the chosen probabilities' sum. x[rows] would add pairs * dim floats, and
        # the act rows that the backward rebuilds pairs * hidden.
        kept = pairs * (dim + hidden) * 8 + 4 * pairs * 8 + tokens * 8
        retained = retained_bytes(
            lambda: expert_mixture(x, decision.probs, decision.indices, layer.experts)[0]
        )
        assert retained <= kept

    def test_backward_holds_one_expert_at_a_time(self):
        tokens, experts, dim, hidden = 512, 8, 64, 256  # the default MoE layer's shape
        layer = make_layer(num_experts=experts, top_k=4, hidden=dim, ffn_hidden=hidden)
        rng = np.random.default_rng(29)
        layer.router.data = rng.normal(size=(dim, experts))
        x = Tensor(rng.normal(size=(tokens, dim)), requires_grad=True)
        decision = layer.route(x)
        g = rng.normal(size=(tokens, dim))
        tracemalloc.start()
        try:
            out = expert_mixture(x, decision.probs, decision.indices, layer.experts)[0]
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each expert's output and s go once its backward is done, which more than
        # pays for its four gradients. Kept to the end, they make the peak every
        # gradient plus the last expert's temporaries (its rebuilt act among them),
        # which are larger than two hidden widths of its rows.
        rows = np.bincount(decision.indices.reshape(-1)).max()
        bound = rows * 2 * hidden * 8 + sum(a.nbytes for a in grads if a is not None)
        assert peak - start <= bound

    def test_silent_expert_gets_no_gradient_and_no_adam_update(self):
        layer = make_layer(num_experts=4, top_k=2, hidden=4, ffn_hidden=6)
        rng = np.random.default_rng(25)
        layer.router.data = rng.normal(size=(4, 4))
        layer.router.data[:, 3] = -50.0  # with positive x, expert 3 is in no token's top 2
        x = Tensor(rng.uniform(0.5, 1.5, size=(6, 4)))
        out, stats = layer(x)
        assert stats.dispatched == 2 * 6
        tsum(out * Tensor(rng.normal(size=out.shape))).backward()
        used = set(np.unique(layer.route(x).indices).tolist())
        assert 3 not in used
        for e, expert in enumerate(layer.experts):
            assert all((p.grad is not None) == (e in used) for p in expert.parameters())
        silent = layer.experts[3].parameters()
        before = [p.data.copy() for p in silent]
        opt = Adam(layer.named_parameters(), lr=1e-2, **ADAM_CONSTANTS)
        opt.step(1, 1.0)
        for name, _ in layer.experts[3].named_parameters():
            assert not opt.m[f"experts.3.{name}"].any()
            assert not opt.v[f"experts.3.{name}"].any()
        for p, keep in zip(silent, before):
            np.testing.assert_array_equal(p.data, keep)


class TestBalanceLoss:
    def test_uniform_routing_scores_one(self):
        probs = np.full((10, 8), 0.125)
        loss = load_balance_loss(stats_from_probs(probs), 8)
        np.testing.assert_allclose(loss.item(), 1.0, atol=1e-12)

    def test_collapse_scores_num_experts(self):
        probs = np.zeros((10, 8))
        probs[:, 2] = 1.0
        loss = load_balance_loss(stats_from_probs(probs), 8)
        np.testing.assert_allclose(loss.item(), 8.0, atol=1e-12)

    def test_two_expert_hand_case(self):
        probs = np.array([[0.8, 0.2], [0.6, 0.4]])
        loss = load_balance_loss(stats_from_probs(probs), 2)
        np.testing.assert_allclose(loss.item(), 1.4, atol=1e-12)

    def test_at_least_one_when_fractions_match_probs(self):
        # E * sum(p^2) >= 1 by Cauchy-Schwarz, equality only at uniform.
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            stats = LoadStats(
                hard_counts=p * 100, prob_sum=Tensor(p * 100), tokens=100, dispatched=0
            )
            assert load_balance_loss(stats, 6).item() >= 1.0 - 1e-12

    def test_gradient_flows_through_probabilities_only(self):
        probs = Tensor(np.array([[0.7, 0.3], [0.4, 0.6]]), requires_grad=True)
        stats = LoadStats(
            hard_counts=np.array([1.0, 1.0]),
            prob_sum=tsum(probs, axis=0),
            tokens=2,
            dispatched=0,
        )
        load_balance_loss(stats, 2).backward()
        # d/dp of 2 * (0.5*F dot mean) -> each entry sees num_experts * F_i / T
        np.testing.assert_allclose(probs.grad, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_invariants_of_collected_stats(self):
        layer = make_layer(hidden=4, ffn_hidden=8)
        layer.router.data = np.random.default_rng(14).normal(size=(4, 8))
        x = Tensor(np.random.default_rng(15).normal(size=(11, 4)))
        _, stats = layer(x)
        np.testing.assert_allclose(stats.assign_fraction.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(stats.mean_prob.data.sum(), 1.0, atol=1e-12)
        assert (stats.assign_fraction >= 0).all() and (stats.mean_prob.data >= 0).all()

    def test_merge_accumulates(self):
        a = stats_from_probs(np.full((4, 2), 0.5))
        b = stats_from_probs(np.array([[0.9, 0.1]]))
        merged = LoadStats.merge([a, b])
        assert merged.tokens == 5
        np.testing.assert_allclose(merged.prob_sum.data, [2.9, 2.1], atol=1e-12)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            MoEConfig(num_experts=4, top_k=5).validate()
        with pytest.raises(ConfigError):
            MoEConfig(top_k=0).validate()


def test_default_recipe_is_pinned():
    # The layer that `--config default` trains: 8 experts, top 4, widths 64 and 256.
    assert MoEConfig() == MoEConfig(num_experts=8, top_k=4, hidden=64, ffn_hidden=256)


def test_config_at_its_lower_bounds_is_valid():
    MoEConfig(num_experts=1, top_k=1, hidden=1, ffn_hidden=1).validate()
    for field in ("num_experts", "hidden", "ffn_hidden"):
        bounds = {"num_experts": 1, "top_k": 1, "hidden": 1, "ffn_hidden": 1, field: 0}
        with pytest.raises(ConfigError):
            MoEConfig(**bounds).validate()
