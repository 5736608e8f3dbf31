"""The avmoe names that the benchmark in bench/ wraps or calls still exist, and
take the keyword arguments that bench/ passes them.

A traced run replaces each function in ``spans.FUNCTIONS`` by name and skips
one that is gone, so a renamed function reads 0 instead of failing; a
missing method makes the run crash. This reads bench/ and changes nothing
in it.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from avmoe import decoding, frontend, losses, synth
from avmoe import train as avtrain
from avmoe.decoding import MAX_DECODE_LEN, attention_greedy_decode
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig, MoELayer
from avmoe.nn import FeedForward
from avmoe.optim import Adam
from avmoe.tensor import Tensor

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_function_exists(spans):
    missing = [f"{home.__name__}.{attr}" for home, attr, _ in spans.FUNCTIONS
               if not callable(getattr(home, attr, None))]
    assert not missing


def test_every_traced_model_method_exists(spans):
    missing = [name for name in spans.MODEL_METHODS if not callable(getattr(Model, name, None))]
    assert not missing


# Called by bench/run.py, bench/prep.py and bench/harness.py; ``FeedForward.__call__``
# is the traced run's ``nn.ffn1`` span, and ``Adam.step`` its ``optim.adam`` span,
# which bench/spans.py wraps by name.
CALLED = [
    (avtrain, "utterance_losses"), (avtrain, "_train_batch"), (avtrain, "run_epoch"),
    (avtrain, "load_dataset"), (avtrain, "save_train_state"), (avtrain, "restore_model"),
    (avtrain, "load_checkpoint"), (avtrain, "TrainConfig"), (avtrain, "TrainState"),
    (avtrain, "Vocab"), (avtrain, "model_config_json"),
    (losses, "batch_balance_losses"), (losses, "total_loss"),
    (Model, "encode_utterance"), (Model, "decode_teacher_forcing"), (Model, "ctc_head"),
    (MoELayer, "route"), (MoELayer, "__call__"), (Model, "parameters"),
    (FeedForward, "__call__"), (Adam, "step"), (Adam, "zero_grad"),
]


@pytest.mark.parametrize("home, attr", CALLED, ids=[f"{h.__name__}.{a}" for h, a in CALLED])
def test_every_called_name_exists(home, attr):
    assert callable(getattr(home, attr, None))


# Calls that bench/ makes with keyword arguments, as (callee, positional count, keywords).
BOUND = [
    (ModelConfig, 0, ["vocab_size"]),
    (MoEConfig, 0, ["hidden", "ffn_hidden"]),
    (avtrain.TrainConfig, 0, ["seed", "batch_size", "lr", "warmup_steps", "epochs"]),
    (avtrain.load_dataset, 2, ["n_mels", "spec"]),
    (Adam, 1, ["lr", "beta1", "beta2", "eps"]),
    (avtrain.TrainState, 0, ["model", "optimizer", "rng"]),
    (frontend.log_mel_from_waveform, 1, ["n_mels"]),
    (decoding.ctc_greedy_decode, 1, ["blank_id"]),
    (losses.total_loss, 3, ["alpha", "beta"]),
    (synth.generate_corpus, 5, ["seed"]),
]


@pytest.mark.parametrize("callee, positional, keywords", BOUND,
                         ids=[callee.__name__ for callee, _, _ in BOUND])
def test_every_bench_call_binds(callee, positional, keywords):
    # A removed or renamed parameter raises TypeError here, not in a bench run.
    inspect.signature(callee).bind(*range(positional), **dict.fromkeys(keywords))


def test_tensor_size_counts_the_elements():
    # bench/run.py sums ``p.size`` over the parameters.
    assert Tensor(np.zeros((2, 3))).size == 6


def test_each_decode_step_is_one_decoder_call():
    # The traced run's ``model.decoder_tf`` span wraps ``decode_teacher_forcing``
    # by swapping the model's class; the incremental decode must still make
    # every step through it, one call per step, or the span misses decoder time.
    cfg = ModelConfig(vocab_size=9, hidden=8, heads=2, d_ff=16, encoder_blocks=0,
                      decoder_blocks=2, visual_dim=4, n_mels=6, stack_factor=2)
    calls = []

    class Traced(Model):
        def decode_teacher_forcing(self, *args, **kwargs):
            calls.append(args[1])
            return super().decode_teacher_forcing(*args, **kwargs)

    for eos_bias in (1e3, 0.0, -1e3):  # stops at once, stops at eos, runs to the cap
        model = Model(cfg, np.random.default_rng(5))
        model.out_proj.bias.data[: cfg.num_specials] = -1e3
        model.out_proj.bias.data[cfg.eos_id] = eos_bias
        model.__class__ = Traced
        calls.clear()
        states = Tensor(np.random.default_rng(6).normal(size=(7, 8)))
        hyp = attention_greedy_decode(model, states, MAX_DECODE_LEN)
        assert calls == [[cfg.sos_id]] + [[t] for t in hyp.token_ids][: MAX_DECODE_LEN - 1]
        assert len(calls) == {1e3: 1, -1e3: MAX_DECODE_LEN}.get(eos_bias, len(calls))
