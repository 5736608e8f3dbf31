"""One packed training step against the per-utterance losses it replaces."""

import json

import numpy as np
import pytest

from avmoe.errors import DataError
from avmoe.losses import batch_balance_losses, total_loss
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.optim import Adam
from avmoe.tensor import Tensor
from avmoe.train import (
    TrainConfig, TrainState, Utterance, _train_batch, batch_losses, model_config_from_json,
    model_config_json, utterance_losses,
)

from helpers import ADAM_CONSTANTS, expression_adam_step

TOP_K = 2


def moe_model(seed: int) -> Model:
    cfg = ModelConfig(
        vocab_size=9, hidden=8, heads=2, d_ff=16, encoder_blocks=2, decoder_blocks=1,
        visual_dim=4, n_mels=6, stack_factor=2,
        moe=MoEConfig(num_experts=4, top_k=TOP_K, hidden=8, ffn_hidden=16),
    )
    model = Model(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for block in model.enc_blocks:  # a router that has learnt something: uneven routing
        block.ffn2.router.data = rng.normal(scale=2.0, size=block.ffn2.router.shape)
    return model


def ragged_batch(seed: int) -> list[Utterance]:
    """Utterances of different lengths, with 0 (audio only), 1 or 3 visual rows."""
    rng = np.random.default_rng(seed)
    batch = []
    for i, (frames, visual_rows, words) in enumerate(
        [(17, 3, 3), (9, 0, 2), (24, 1, 4), (12, 3, 1), (20, 0, 3)]
    ):
        mel = rng.normal(size=(frames, 6))
        visual = rng.normal(size=(visual_rows, 4)) if visual_rows else None
        target = [int(t) for t in rng.integers(4, 9, size=words)]
        batch.append(Utterance(f"u{i}", mel, visual, ["w"] * words, target))
    return batch


class GradRecorder:
    """Stands in for Adam: keeps the gradients that ``step`` would apply."""

    def __init__(self, model: Model):
        self.params = model.named_parameters()
        self.grads: dict = {}

    def step(self, t: int, warm: float) -> None:
        self.grads = {n: None if p.grad is None else p.grad.copy() for n, p in self.params}
        self.warm = warm

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


def per_utterance_step(model: Model, batch: list[Utterance], cfg: TrainConfig):
    """The loss terms and gradients of the step as a sum of one-utterance graphs."""
    att, ctc, stats = zip(*(utterance_losses(model, utt) for utt in batch))
    scale = 1.0 / len(batch)
    aux = batch_balance_losses([list(layer) for layer in zip(*stats)], model.cfg.moe.num_experts)
    bundle = total_loss(sum(att[1:], att[0]) * scale, sum(ctc[1:], ctc[0]) * scale, aux,
                        alpha=cfg.alpha, beta=cfg.beta)
    bundle.l_total.backward()
    grads = {n: None if p.grad is None else p.grad.copy() for n, p in model.named_parameters()}
    for p in model.parameters():
        p.grad = None
    logs = {"l_att": bundle.l_att.item(), "l_ctc": bundle.l_ctc.item(),
            "l_aux_per_layer": [a.item() for a in aux]}
    return logs, grads


def test_packed_step_matches_the_per_utterance_sum():
    model, batch, cfg = moe_model(80), ragged_batch(81), TrainConfig(warmup_steps=0)
    want_logs, want_grads = per_utterance_step(model, batch, cfg)
    recorder = GradRecorder(model)
    logs = _train_batch(TrainState(model, recorder, np.random.default_rng(0)), batch, cfg)

    for key in ("l_att", "l_ctc"):
        assert abs(logs[key] - want_logs[key]) <= 1e-10 * abs(want_logs[key]), key
    np.testing.assert_allclose(logs["l_aux_per_layer"], want_logs["l_aux_per_layer"],
                               rtol=1e-10, atol=0)
    # One scale for all parameters: some gradients are zero analytically (every
    # k_proj bias, by the softmax's shift invariance) and hold only rounding noise.
    scale = max(np.abs(g).max() for g in want_grads.values() if g is not None)
    assert recorder.grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        got = recorder.grads[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.abs(got - want).max() <= 1e-10 * scale, name


def test_packed_load_stats_are_the_batch_totals():
    model, batch = moe_model(82), ragged_batch(83)
    _, _, stats = batch_losses(model, batch)
    per_utt = [utterance_losses(model, utt)[2] for utt in batch]
    assert len(stats) == len(model.enc_blocks)
    for layer, packed in enumerate(stats):
        parts = [utt_stats[layer] for utt_stats in per_utt]
        assert packed.tokens == sum(p.tokens for p in parts)
        assert packed.dispatched == TOP_K * packed.tokens
        np.testing.assert_array_equal(packed.hard_counts, sum(p.hard_counts for p in parts))


def test_silent_expert_gets_no_gradient_and_no_adam_update():
    model, batch = moe_model(84), ragged_batch(85)
    layer = model.enc_blocks[0].ffn2
    # Every token reaches the router as the all-ones row, and expert 3's
    # column scores lowest, so no token of the batch selects it.
    model.enc_blocks[0].ffn2_norm.gain.data[:] = 0.0
    model.enc_blocks[0].ffn2_norm.shift.data[:] = 1.0
    layer.router.data[:, 3] = -5.0
    silent = [p for _, p in layer.experts[3].named_parameters()]
    before = [p.data.copy() for p in silent]
    optimizer = Adam(model.named_parameters(), lr=1e-2, **ADAM_CONSTANTS)
    _train_batch(TrainState(model, optimizer, np.random.default_rng(0)), batch,
                 TrainConfig(warmup_steps=0))
    for p, keep in zip(silent, before):
        np.testing.assert_array_equal(p.data, keep)
    for name, _ in layer.experts[3].named_parameters():
        assert not optimizer.m[f"enc_blocks.0.ffn2.experts.3.{name}"].any()
    moments = [optimizer.m[f"enc_blocks.0.ffn2.experts.{e}.lin1.weight"] for e in range(4)]
    trained = [e for e, m in enumerate(moments) if m.any()]
    assert len(trained) == TOP_K and 3 not in trained


def test_no_warmup_trains_at_the_full_rate_from_the_first_step():
    model = moe_model(86)
    recorder = GradRecorder(model)
    state = TrainState(model, recorder, np.random.default_rng(0))
    _train_batch(state, ragged_batch(87), TrainConfig(warmup_steps=0))
    assert (state.step, recorder.warm) == (1, 1.0)


def test_update_after_a_restore_takes_its_bias_correction_from_the_state_step():
    # A restore builds the state at step k around an Adam holding the read's
    # moments; the next update is step k + 1, warm-up and bias corrections alike.
    k, cfg = 7, TrainConfig(lr=2e-3, warmup_steps=10)
    batch, twin = ragged_batch(89), moe_model(88)
    recorder = GradRecorder(twin)
    _train_batch(TrainState(twin, recorder, np.random.default_rng(0)), batch, cfg)
    model = moe_model(88)
    unused = Tensor(np.ones((2, 3)), requires_grad=True)  # never gets a gradient
    named = model.named_parameters() + [("unused", unused)]
    rng = np.random.default_rng(90)
    moments = tuple({name: scale * np.abs(rng.normal(size=p.shape)) for name, p in named}
                    for scale in (1e-3, 1e-6))
    want = {name: (p.data.copy(), moments[0][name].copy(), moments[1][name].copy())
            for name, p in named}
    optimizer = Adam(named, lr=cfg.lr, **ADAM_CONSTANTS, moments=moments)
    state = TrainState(model, optimizer, np.random.default_rng(0), step=k)
    _train_batch(state, batch, cfg)

    assert state.step == k + 1
    rate = cfg.lr * ((k + 1) / cfg.warmup_steps)
    for name, g in recorder.grads.items():
        if g is not None:
            param, m, v = want[name]
            expression_adam_step(param, g, m, v, k + 1, rate, 0.9, 0.999, 1e-8)
    # A parameter without a gradient ("unused") keeps its value and both moments.
    for name, p in named:
        param, m, v = want[name]
        np.testing.assert_array_equal(p.data, param, err_msg=name)
        np.testing.assert_array_equal(optimizer.m[name], m, err_msg=name)
        np.testing.assert_array_equal(optimizer.v[name], v, err_msg=name)


def test_infeasible_ctc_target_names_its_utterance():
    model, batch = moe_model(86), ragged_batch(87)
    batch[2].target_ids = [5] * 40  # far more labels than the 12 speech rows
    with pytest.raises(DataError, match="utterance u2:"):
        batch_losses(model, batch)


@pytest.mark.parametrize("moe", [True, False])
def test_model_config_json_round_trips(moe):
    cfg = moe_model(0).cfg
    if not moe:
        cfg = ModelConfig(vocab_size=9, hidden=8, heads=2, d_ff=16, n_mels=6)
    text = model_config_json(cfg)
    assert model_config_from_json(json.loads(text)) == cfg
    assert text == json.dumps(json.loads(text), sort_keys=True)  # one text per config
