"""The avmoe names that the benchmark in bench/ wraps or calls still exist.

A traced run replaces each function in ``spans.FUNCTIONS`` by name and skips
one that is gone, so a renamed function reads 0 instead of failing; a
missing method makes the run crash. This reads bench/ and changes nothing
in it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from avmoe import losses
from avmoe import train as avtrain
from avmoe.model import Model
from avmoe.moe import MoELayer
from avmoe.nn import FeedForward
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
# is the traced run's ``nn.ffn1`` span.
CALLED = [
    (avtrain, "utterance_losses"), (avtrain, "_train_batch"), (avtrain, "run_epoch"),
    (avtrain, "load_dataset"), (avtrain, "save_train_state"), (avtrain, "restore_model"),
    (avtrain, "load_checkpoint"), (avtrain, "TrainConfig"), (avtrain, "TrainState"),
    (avtrain, "Vocab"), (avtrain, "model_config_json"),
    (losses, "batch_balance_losses"), (losses, "total_loss"),
    (Model, "encode_utterance"), (Model, "decode_teacher_forcing"), (Model, "ctc_head"),
    (MoELayer, "route"), (MoELayer, "__call__"), (Model, "parameters"),
    (FeedForward, "__call__"),
]


@pytest.mark.parametrize("home, attr", CALLED, ids=[f"{h.__name__}.{a}" for h, a in CALLED])
def test_every_called_name_exists(home, attr):
    assert callable(getattr(home, attr, None))


def test_tensor_size_counts_the_elements():
    # bench/run.py sums ``p.size`` over the parameters.
    assert Tensor(np.zeros((2, 3))).size == 6
