"""Whole-model checks: the size of the loss graph, a sampled gradcheck, what
a backward pass frees, and the no-grad encoder on arrays against the graph."""

import tracemalloc

import numpy as np
import pytest

from avmoe.losses import batch_balance_losses, total_loss
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.tensor import Tensor, no_grad
from avmoe.train import TrainConfig, Utterance, batch_losses, utterance_losses

from helpers import numeric_grad_at, rel_error


def tiny_config(moe: MoEConfig | None = None) -> ModelConfig:
    return ModelConfig(
        vocab_size=8, hidden=8, heads=2, d_ff=16, encoder_blocks=1, decoder_blocks=1,
        visual_dim=4, n_mels=6, stack_factor=2, moe=moe,
    )


def fixed_utterance() -> Utterance:
    rng = np.random.default_rng(30)
    mel = rng.normal(size=(14, 6))
    return Utterance("u0", mel, rng.normal(size=(2, 4)), ["a", "b", "b"], [4, 5, 5])


def graph_nodes(loss) -> dict:
    """The recorded (non-leaf) nodes that ``loss`` depends on, by id."""
    seen: dict = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    return seen


def test_loss_graph_size_is_pinned():
    # A change to the number of graph nodes must update these counts.
    cfg = MoEConfig(num_experts=2, top_k=1, hidden=8, ffn_hidden=16)
    model = Model(tiny_config(cfg), np.random.default_rng(32))
    l_att, l_ctc, stats = utterance_losses(model, fixed_utterance())
    aux = batch_balance_losses([[s] for s in stats], cfg.num_experts)
    bundle = total_loss(l_att, l_ctc, aux, TrainConfig.alpha, TrainConfig.beta)
    ctc_only = graph_nodes(l_ctc).keys() - graph_nodes(l_att).keys()
    # The CTC head's row gather and affine, and the CTC node on its logits.
    assert len(ctc_only) == 3
    # One utterance runs the packed code, so fusion gathers the concatenated
    # visual and speech rows into packed order: one node more than a bare concat.
    # Each dense FFN (here ffn1 and the decoder's) is one node, and so are the
    # visual projection and the cgMLP branch; the MoE routing weights are part
    # of the dispatch node. Each training objective is one node on its logits.
    assert len(graph_nodes(bundle.l_total)) == 63


def routed_model() -> Model:
    """The gradcheck's model: with this router both experts receive tokens."""
    model = Model(tiny_config(MoEConfig(num_experts=2, top_k=1, hidden=8, ffn_hidden=16)),
                  np.random.default_rng(33))
    model.enc_blocks[0].ffn2.router.data = np.random.default_rng(34).normal(size=(8, 2))
    return model


def routed_total_loss(model: Model, utt: Utterance):
    l_att, l_ctc, stats = utterance_losses(model, utt)
    aux = batch_balance_losses([[s] for s in stats], 2)
    return total_loss(l_att, l_ctc, aux, TrainConfig.alpha, TrainConfig.beta).l_total


def test_total_loss_gradient_matches_finite_differences():
    # Sampled coordinates of the attention, cgMLP-kernel and expert parameters,
    # checked through the residuals and layer norms of the whole model.
    model = routed_model()
    utt = fixed_utterance()
    routed_total_loss(model, utt).backward()
    params = dict(model.named_parameters())
    rng = np.random.default_rng(35)
    for group in ("attn.", "local.kernel", "ffn2.experts."):
        names = sorted(name for name in params if group in name)
        for name in rng.choice(names, size=7):
            p = params[name]
            assert p.grad is not None, name
            coord = int(rng.integers(p.data.size))
            numeric = numeric_grad_at(
                lambda: routed_total_loss(model, utt).item(), p.data, [coord]
            )
            # Central differences of a loss near 14 carry a few 1e-9 of roundoff.
            assert rel_error(p.grad.reshape(-1)[[coord]], numeric) < 1e-5, (name, coord)


def reference_leaf_grads(loss, params) -> list:
    """Leaf gradients by the walk that keeps every closure and interior gradient.

    The same reverse topological order and the same accumulation order as
    ``Tensor.backward``, with the interior gradients held in a dict until
    the end; ``loss``'s graph is left as it was.
    """
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in seen)
    grads = {id(loss): np.ones(())}
    for node in reversed(order):
        if node._backward is None or id(node) not in grads:
            continue
        for parent, g in zip(node._parents, node._backward(grads[id(node)])):
            if g is not None and parent.requires_grad:
                grads[id(parent)] = g if id(parent) not in grads else grads[id(parent)] + g
    return [grads.get(id(p)) for p in params]


def test_backward_frees_interior_grads_and_keeps_leaf_grads_bit_identical():
    model = routed_model()
    utt = fixed_utterance()
    params = model.parameters()
    want = reference_leaf_grads(routed_total_loss(model, utt), params)
    total = routed_total_loss(model, utt)
    interior = [node for node in graph_nodes(total).values() if node is not total]
    total.backward()
    assert interior and all(node._grad is None for node in interior)
    np.testing.assert_array_equal(total.grad, 1.0)
    assert all(w is not None for w in want)
    for p, w in zip(params, want):
        np.testing.assert_array_equal(p.grad, w)


def test_backward_peak_stays_near_the_forward_graph():
    # Freeing each node's saved arrays and gradient as the walk passes it
    # keeps the backward's extra allocation at about 10% of what the forward
    # graph holds on this model; keeping them all to the end costs about 50%.
    cfg = tiny_config(MoEConfig(num_experts=4, top_k=2, hidden=8, ffn_hidden=16))
    model = Model(cfg, np.random.default_rng(36))
    rng = np.random.default_rng(37)
    batch = [
        Utterance(f"u{i}", rng.normal(size=(40, 6)),
                  rng.normal(size=(2, 4)), ["a", "b", "b"], [4, 5, 5])
        for i in range(4)
    ]

    def loss():
        l_att, l_ctc, stats = batch_losses(model, batch)
        aux = batch_balance_losses([[s] for s in stats], 4)
        return total_loss(l_att, l_ctc, aux, TrainConfig.alpha, TrainConfig.beta).l_total

    loss().backward()  # fills the lazy caches before anything is measured
    for p in model.parameters():
        p.grad = None
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        total = loss()
        forward_end = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    graph = forward_end - start
    assert graph > 0
    assert backward_peak - forward_end <= 0.25 * graph, (backward_peak - forward_end) / graph


def encoder_model(moe: bool) -> Model:
    """Two encoder blocks; with ``moe``, routers drawn so that the experts' loads differ."""
    cfg = tiny_config(MoEConfig(num_experts=4, top_k=2, hidden=8, ffn_hidden=16) if moe else None)
    cfg.encoder_blocks = 2
    model = Model(cfg, np.random.default_rng(38))
    if moe:
        rng = np.random.default_rng(39)
        for block in model.enc_blocks:
            block.ffn2.router.data = rng.normal(size=(8, 4))
    return model


ENCODER_BATCHES = {
    # Three lengths, so two utterances are padded in attention: with visual rows
    # in two of them, and with none.
    "three_av": ([14, 9, 21], [2, None, 3]),
    "three_audio_only": ([14, 9, 21], [None, None, None]),
    "one": ([14], [2]),
}


def encoder_input(model: Model, batch: str):
    rng = np.random.default_rng(40)
    frames, visual_rows = ENCODER_BATCHES[batch]
    mels = [rng.normal(size=(n, 6)) for n in frames]
    visuals = [None if n is None else rng.normal(size=(n, 4)) for n in visual_rows]
    return model.fuse(mels, visuals)


@pytest.mark.parametrize("moe", [True, False], ids=["moe", "dense"])
@pytest.mark.parametrize("batch", sorted(ENCODER_BATCHES))
def test_array_encoder_equals_the_graph_encoder_to_the_bit(batch, moe):
    model = encoder_model(moe)
    fused = encoder_input(model, batch)
    graph_states, graph_stats = model.encode(fused)
    with no_grad():
        states, stats = model.encode(fused)
    assert graph_states.requires_grad and not states.requires_grad
    np.testing.assert_array_equal(states.data, graph_states.data)
    assert len(stats) == len(graph_stats) == (2 if moe else 0)
    for got, want in zip(stats, graph_stats):
        np.testing.assert_array_equal(got.hard_counts, want.hard_counts)
        np.testing.assert_array_equal(got.prob_sum.data, want.prob_sum.data)
        assert (got.tokens, got.dispatched) == (want.tokens, want.dispatched)
        assert got.tokens == fused.segments.total
        assert got.dispatched == model.cfg.moe.top_k * got.tokens


@pytest.mark.parametrize("moe", [True, False], ids=["moe", "dense"])
def test_a_no_grad_encode_constructs_only_its_states_and_prob_sums(monkeypatch, moe):
    # The blocks run on arrays: no graph-engine object besides the results.
    model = encoder_model(moe)
    fused = encoder_input(model, "three_av")
    built = []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with no_grad():
        monkeypatch.setattr(Tensor, "__init__", counted)
        states, stats = model.encode(fused)
        monkeypatch.undo()
    assert built == [s.prob_sum for s in stats] + [states]
    assert len(built) == 1 + (2 if moe else 0)
