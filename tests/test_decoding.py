"""Greedy decoding: CTC against the per-frame loop it replaces, attention
against one teacher-forced pass over its own hypothesis, and the decode
cache against teacher forcing over the whole prefix at every step."""

import math
from dataclasses import replace

import numpy as np
import pytest

from avmoe.decoding import (
    MAX_DECODE_LEN,
    attention_greedy_decode,
    collapse_ctc_path,
    ctc_greedy_decode,
)
from avmoe.errors import ConfigError, GraphError
from avmoe.model import DecodeCache, Model, ModelConfig
from avmoe.nn import Segments
from avmoe.tensor import Tensor, log_softmax_rows_forward, no_grad


def loop_ctc_greedy(logits: np.ndarray, blank_id: int):
    """One log-softmax, argmax and score term per frame, in Python."""
    score = 0.0
    path = []
    for row in logits:
        shifted = row - row.max()
        log_probs = shifted - np.log(np.exp(shifted).sum())
        best = int(np.argmax(log_probs))
        path.append(best)
        score += float(log_probs[best])
    return collapse_ctc_path(path, blank_id), score


def test_matches_per_frame_loop():
    rng = np.random.default_rng(0)
    for trial in range(50):
        frames, vocab = int(rng.integers(1, 60)), int(rng.integers(2, 12))
        logits = rng.normal(scale=3.0, size=(frames, vocab))
        # Long runs of one label and of blanks exercise the collapse.
        logits[rng.random(frames) < 0.4, trial % vocab] += 10.0
        hyp = ctc_greedy_decode(Tensor(logits), blank_id=0)
        ids, score = loop_ctc_greedy(logits, 0)
        assert hyp.token_ids == ids
        assert math.isclose(hyp.score, score, rel_tol=1e-12)


def test_hand_case():
    # Frame argmaxes 1 1 0 1 2 2 0 collapse to [1, 1, 2].
    logits = np.full((7, 3), -5.0)
    for t, v in enumerate([1, 1, 0, 1, 2, 2, 0]):
        logits[t, v] = 5.0
    hyp = ctc_greedy_decode(Tensor(logits), blank_id=0)
    assert hyp.token_ids == [1, 1, 2]
    # Each frame picks a logit 10 above the other two.
    assert math.isclose(hyp.score, -7.0 * np.log1p(2.0 * np.exp(-10.0)), rel_tol=1e-12)


def tiny_decoder(seed: int) -> Model:
    """A random tiny model that never prefers blank, sos or the unused reserved id 3."""
    cfg = ModelConfig(vocab_size=9, hidden=8, heads=2, d_ff=16, encoder_blocks=1,
                      decoder_blocks=1, visual_dim=4, n_mels=6, stack_factor=2)
    model = Model(cfg, np.random.default_rng(seed))
    model.out_proj.bias.data[[cfg.blank_id, cfg.sos_id, 3]] = -1e3
    return model


@pytest.mark.parametrize("eos_bias", [0.0, -1e3, 1e3])
def test_attention_hypothesis_is_the_teacher_forced_argmax_chain(eos_bias):
    stops = set()
    for seed in range(8):
        model = tiny_decoder(seed)
        model.out_proj.bias.data[ModelConfig.eos_id] += eos_bias
        states = Tensor(np.random.default_rng(100 + seed).normal(size=(5, 8)))
        hyp = attention_greedy_decode(model, states, MAX_DECODE_LEN)
        log_probs = log_softmax_rows_forward(
            model.decode_teacher_forcing(states, [ModelConfig.sos_id] + hyp.token_ids).data
        )
        chain = [int(i) for i in log_probs.argmax(axis=1)]
        n = len(hyp.token_ids)
        at_eos = n < MAX_DECODE_LEN
        assert chain[:n] == hyp.token_ids
        if at_eos:
            assert chain[n] == ModelConfig.eos_id
        else:
            assert n == MAX_DECODE_LEN
        scored = range(n + at_eos)  # the eos step counts in the score
        assert math.isclose(hyp.score, sum(log_probs[t, chain[t]] for t in scored), rel_tol=1e-12)
        stops.add(at_eos)
    # Unbiased, some seeds stop at eos and some at the cap; biased, all stop alike.
    assert stops == {0.0: {True, False}, -1e3: {False}, 1e3: {True}}[eos_bias]
    if eos_bias > 0:
        assert hyp.token_ids == []


class ScriptedDecoder:
    """Picks the next token from a script, whatever it was fed.

    Takes one token per call with a decode cache, as the incremental decode
    feeds them.
    """

    cfg = ModelConfig(vocab_size=9)

    def __init__(self, script: list[int]):
        self.script = script
        self.fed: list[int] = []

    def decode_teacher_forcing(self, states, tokens, cache):
        assert len(tokens) == 1 and isinstance(cache, DecodeCache)
        self.fed.extend(tokens)
        logits = np.zeros((1, self.cfg.vocab_size))
        logits[0, self.script[len(self.fed) - 1]] = 5.0
        return Tensor(logits)


def test_attention_decode_drops_special_ids():
    # Specials other than eos are fed back to the decoder but kept out of
    # the hypothesis; eos stops the decode.
    model = ScriptedDecoder([5, 3, 6, 0, 1, 7, 2, 8])
    hyp = attention_greedy_decode(model, None, MAX_DECODE_LEN)
    assert hyp.token_ids == [5, 6, 7]
    assert model.fed == [1, 5, 3, 6, 0, 1, 7]


def cached_model(seed: int) -> Model:
    cfg = ModelConfig(vocab_size=11, hidden=8, heads=2, d_ff=16, encoder_blocks=1,
                      decoder_blocks=2, visual_dim=4, n_mels=6, stack_factor=2)
    return Model(cfg, np.random.default_rng(seed))


def encoded(model: Model, seed: int, visual: bool) -> Tensor:
    rng = np.random.default_rng(seed)
    mel = rng.normal(size=(15, 6))
    with no_grad():
        states, _, _ = model.encode_utterance(mel, rng.normal(size=(3, 4)) if visual else None)
    return states


# Token ids and ``repr(score)`` of ``attention_greedy_decode`` on ``cached_model(seed)``
# over ``encoded(model, 50 + seed, visual)``, recorded at commit ff31d2b.
PINNED_DECODES = {
    (0, True): ([10] * 18, "-43.16718170373238"),
    (1, True): ([5], "-2.0037456376747347"),
    (2, True): ([8, 7, 10], "-12.908770902279736"),
    (0, False): ([10] * 20 + [6], "-50.22681463970757"),
    (1, False): ([5], "-2.2453522978608715"),
    (2, False): ([8, 5, 8, 8], "-11.562666686234321"),
}


@pytest.mark.parametrize("visual", [True, False], ids=["av", "audio_only"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_output_is_pinned_to_the_bit(seed, visual):
    model = cached_model(seed)
    hyp = attention_greedy_decode(model, encoded(model, 50 + seed, visual), MAX_DECODE_LEN)
    assert (hyp.token_ids, repr(hyp.score)) == PINNED_DECODES[seed, visual]


class TestDecodeCache:
    @pytest.mark.parametrize("visual", [True, False], ids=["av", "audio_only"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_step_equals_teacher_forcing_over_the_prefix(self, seed, visual):
        # The prefix follows the argmax chain with eos excluded, so all 32
        # steps run; the logits keep their unbiased scale, which sets the
        # tolerance.
        model = cached_model(seed)
        states = encoded(model, 50 + seed, visual)
        assert states.shape[0] == 8 + 3 * visual
        prefix = [ModelConfig.sos_id]
        cache = DecodeCache()
        with no_grad():
            for step in range(MAX_DECODE_LEN):
                row = model.decode_teacher_forcing(states, prefix[-1:], cache=cache).data
                full = model.decode_teacher_forcing(states, prefix).data[-1]
                assert row.shape == (1, model.cfg.vocab_size) and cache.fed == step + 1
                assert np.abs(row[0] - full).max() <= 1e-12 * np.abs(full).max()
                prefix.append(int(np.argmax(np.where(
                    np.arange(full.size) == ModelConfig.eos_id, -np.inf, full))))

    def test_memory_is_projected_once_and_each_step_projects_one_row(self):
        model = cached_model(3)
        model.out_proj.bias.data[: ModelConfig.num_specials] = -1e3  # runs to the cap
        states = encoded(model, 53, visual=True)
        rows = {}

        class Counted:
            """Records the rows of every call, then runs the projection's array forward."""

            def __init__(self, name, forward):
                self.name, self.forward = name, forward
                rows[name] = []

            def __call__(self, x):
                rows[self.name].append(x.shape[0])
                return self.forward(x)

        for b, block in enumerate(model.dec_blocks):
            for kind in ("self_attn", "cross_attn"):
                for proj in ("k_proj", "v_proj"):
                    linear = getattr(getattr(block, kind), proj)
                    linear.forward = Counted((b, kind, proj), linear.forward)
        hyp = attention_greedy_decode(model, states, MAX_DECODE_LEN)
        assert len(hyp.token_ids) == MAX_DECODE_LEN
        for (b, kind, proj), seen in rows.items():
            if kind == "cross_attn":
                assert seen == [states.shape[0]], (b, kind, proj)
            else:
                assert seen == [1] * MAX_DECODE_LEN, (b, kind, proj)

    def test_cache_refuses_grad_and_more_than_one_sequence(self):
        model = cached_model(4)
        states = encoded(model, 54, visual=True)
        sos = ModelConfig.sos_id
        with pytest.raises(GraphError):
            model.decode_teacher_forcing(states, [sos], cache=DecodeCache())
        with no_grad():
            with pytest.raises(ConfigError):
                model.decode_teacher_forcing(states, [sos, 5], cache=DecodeCache())
            with pytest.raises(ConfigError):
                model.decode_teacher_forcing(states, [sos], Segments([5, 6]), cache=DecodeCache())
            with pytest.raises(ConfigError):
                model.decode_teacher_forcing(
                    states, [sos], inputs=Segments([1, 1]), cache=DecodeCache()
                )
            # One sequence given as segments: a cached step takes none.
            for segments in ({"sources": Segments([states.shape[0]])},
                             {"inputs": Segments([1])}):
                with pytest.raises(ConfigError):
                    model.decode_teacher_forcing(states, [sos], **segments, cache=DecodeCache())

    def test_cache_binds_to_the_model_of_its_first_step(self):
        # A cache sized by its caller could skip blocks of a deeper model; the
        # model of the first step now sets its blocks, and no other model may use it.
        model = cached_model(6)
        shallow = Model(replace(model.cfg, decoder_blocks=1), np.random.default_rng(6))
        states = encoded(model, 56, visual=True)
        with pytest.raises(TypeError):
            DecodeCache(1)
        cache = DecodeCache()
        with no_grad():
            model.decode_teacher_forcing(states, [ModelConfig.sos_id], cache=cache)
            assert len(cache.self_kv) == len(cache.cross_kv) == model.cfg.decoder_blocks
            for other in (shallow, cached_model(6)):  # the second has the same weights
                with pytest.raises(ConfigError, match="model and states of its first step"):
                    other.decode_teacher_forcing(states, [5], cache=cache)
        assert cache.fed == 1 and cache.model is model

    def test_cache_binds_to_the_states_of_its_first_step(self):
        # A cache reused with new states would attend to the first ones.
        model = cached_model(7)
        first, second = encoded(model, 57, visual=True), encoded(model, 58, visual=True)
        cache = DecodeCache()
        with no_grad():
            model.decode_teacher_forcing(first, [ModelConfig.sos_id], cache=cache)
            with pytest.raises(ConfigError, match="model and states of its first step"):
                model.decode_teacher_forcing(second, [5], cache=cache)
            model.decode_teacher_forcing(first, [5], cache=cache)
        assert cache.fed == 2 and cache.states is first

    def test_a_cached_step_constructs_one_tensor_its_logits(self, monkeypatch):
        # The step runs on arrays: no graph-engine object besides the result.
        model = cached_model(8)
        states = encoded(model, 58, visual=True)
        cache = DecodeCache()
        built = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with no_grad():
            for token in (ModelConfig.sos_id, 5, 7):  # the first step also projects the memory
                built.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(Tensor, "__init__", counted)
                    logits = model.decode_teacher_forcing(states, [token], cache=cache)
                assert built == [logits]
