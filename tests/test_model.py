"""Whole-model checks: the size of the loss graph and a sampled gradcheck."""

import numpy as np

from avmoe.frontend import LogMelSpectrogram
from avmoe.losses import batch_balance_losses, total_loss
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.train import Utterance, utterance_losses

from helpers import numeric_grad_at, rel_error


def tiny_config(moe: MoEConfig | None = None) -> ModelConfig:
    return ModelConfig(
        vocab_size=8, hidden=8, heads=2, d_ff=16, encoder_blocks=1, decoder_blocks=1,
        visual_dim=4, n_mels=6, stack_factor=2, moe=moe,
    )


def fixed_utterance() -> Utterance:
    rng = np.random.default_rng(30)
    mel = LogMelSpectrogram(frames=rng.normal(size=(14, 6)), n_mels=6, sample_rate=16000)
    return Utterance("u0", mel, rng.normal(size=(2, 4)), ["a", "b", "b"], [4, 5, 5])


def graph_nodes(loss) -> set[int]:
    """Ids of the recorded (non-leaf) nodes that ``loss`` depends on."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return seen


def test_loss_graph_size_is_pinned():
    # A change to the number of graph nodes must update these counts.
    cfg = MoEConfig(num_experts=2, top_k=1, hidden=8, ffn_hidden=16)
    model = Model(tiny_config(cfg), np.random.default_rng(32))
    l_att, l_ctc, stats = utterance_losses(model, fixed_utterance())
    aux = batch_balance_losses([[s] for s in stats], cfg.num_experts)
    bundle = total_loss(l_att, l_ctc, aux)
    ctc_only = graph_nodes(l_ctc) - graph_nodes(l_att)
    # The CTC head's row gather and affine, the log-softmax, and the lattice node.
    assert len(ctc_only) == 4
    # One utterance runs the packed code, so fusion gathers the concatenated
    # visual and speech rows into packed order: one node more than a bare concat.
    # Each dense FFN (here ffn1 and the decoder's) is one node.
    assert len(graph_nodes(bundle.l_total)) == 78


def test_total_loss_gradient_matches_finite_differences():
    # Sampled coordinates of the attention, cgMLP-kernel and expert parameters,
    # checked through the residuals and layer norms of the whole model.
    cfg = MoEConfig(num_experts=2, top_k=1, hidden=8, ffn_hidden=16)
    model = Model(tiny_config(cfg), np.random.default_rng(33))
    model.enc_blocks[0].ffn2.router.data = np.random.default_rng(34).normal(size=(8, 2))
    utt = fixed_utterance()

    def loss():
        l_att, l_ctc, stats = utterance_losses(model, utt)
        return total_loss(l_att, l_ctc, batch_balance_losses([[s] for s in stats], 2)).l_total

    loss().backward()
    params = dict(model.named_parameters())
    rng = np.random.default_rng(35)
    for group in ("attn.", "local.kernel", "ffn2.experts."):
        names = sorted(name for name in params if group in name)
        for name in rng.choice(names, size=7):
            p = params[name]
            assert p.grad is not None, name  # with this router both experts receive tokens
            coord = int(rng.integers(p.data.size))
            numeric = numeric_grad_at(lambda: loss().item(), p.data, [coord])
            # Central differences of a loss near 14 carry a few 1e-9 of roundoff.
            assert rel_error(p.grad.reshape(-1)[[coord]], numeric) < 1e-5, (name, coord)
