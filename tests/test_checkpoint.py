"""Checkpoint files, and seeded header fuzzing of every binary reader."""

import numpy as np
import pytest

from avmoe.checkpoint import load_checkpoint
from avmoe.errors import AvmoeError, CheckpointError
from avmoe.frontend import Waveform, read_waveform, write_f64
from avmoe.fusion import load_visual_embeddings, save_visual_embeddings
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.optim import Adam
from avmoe.train import TrainConfig, TrainState, Vocab, restore_train_state, save_train_state


def write_tiny_checkpoint(path) -> TrainState:
    cfg = ModelConfig(
        vocab_size=6, hidden=4, heads=2, d_ff=8, encoder_blocks=1, decoder_blocks=1,
        visual_dim=3, n_mels=4, stack_factor=2,
        moe=MoEConfig(num_experts=2, top_k=1, hidden=4, ffn_hidden=8),
    )
    model = Model(cfg, np.random.default_rng(40))
    optimizer = Adam(model.named_parameters(), lr=1e-3)
    state = TrainState(model, optimizer, np.random.default_rng(41), step=3, epochs_done=1)
    save_train_state(path, state, Vocab(["a", "b"]), TrainConfig())
    return state


def read_train_state(path):
    """What ``avmoe train --resume`` reads; ``avmoe eval`` and ``decode`` read a part of it."""
    return restore_train_state(load_checkpoint(path))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "m.ckpt"
        saved = write_tiny_checkpoint(path)
        state, vocab, _ = read_train_state(path)
        assert vocab.words == ["a", "b"]
        assert (state.step, state.epochs_done) == (3, 1)
        assert state.rng.bit_generator.state == saved.rng.bit_generator.state
        pairs = zip(saved.model.named_parameters(), state.model.named_parameters())
        for (name, p), (_, q) in pairs:
            np.testing.assert_array_equal(q.data, p.data, err_msg=name)

    def test_bad_header_line_names_its_byte_offset(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        line_start = blob.index(b"\n[tensors]\n") + len(b"\n[tensors]\n")
        broken = bytearray(blob)
        broken[blob.index(b" ", line_start) + 1] = ord("q")  # shape field of the first tensor
        path.write_bytes(bytes(broken))
        with pytest.raises(CheckpointError, match=f"at byte offset {line_start}:"):
            load_checkpoint(path)

    def test_non_ascii_header_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"[config]\nmodel", b"[config]\nmod\xffl", 1))
        with pytest.raises(CheckpointError, match="byte offset 18:"):
            load_checkpoint(path)

    def test_edited_config_value_is_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        edited = blob.replace(b'macaron_scale\\": 0.5', b'macaron_scale\\": 0.9', 1)
        assert edited != blob
        path.write_bytes(edited)
        with pytest.raises(CheckpointError, match=r"checksum failure for the \[config\] section"):
            load_checkpoint(path)


def corrupt_headers(blob: bytes, start: int, stop: int, count: int, seed: int):
    """``count`` copies of blob, each with one random byte in [start, stop) replaced.

    Yields (position, new byte, copy); the new byte may equal the old one.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        out = bytearray(blob)
        pos, value = int(rng.integers(start, stop)), int(rng.integers(256))
        out[pos] = value
        yield pos, value, bytes(out)


def fuzz(path, blob, header_len, read, count=400, seed=41, start=0):
    """Read every corruption; only package errors may escape.

    Returns (position, new byte) of each corruption that loaded without error.
    """
    accepted = []
    for pos, value, corrupted in corrupt_headers(blob, start, header_len, count, seed):
        path.write_bytes(corrupted)
        try:
            read(path)
        except AvmoeError:
            continue
        accepted.append((pos, value))
    return accepted


class TestHeaderFuzz:
    def test_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        header_len = blob.index(b"\n[data]\n") + len(b"\n[data]\n")
        assert len(fuzz(path, blob, header_len, read_train_state)) < 200
        # Every change inside [config], its crc32 line included, is rejected:
        # only a byte replaced by itself may load.
        config_start = blob.index(b"[config]\n")
        config_end = blob.index(b"\n[tensors]\n") + 1
        accepted = fuzz(path, blob, config_end, read_train_state, start=config_start)
        assert all(blob[pos] == value for pos, value in accepted)

    def test_vemb(self, tmp_path):
        path = tmp_path / "v.vemb"
        save_visual_embeddings(path, np.random.default_rng(42).normal(size=(3, 4)))
        blob = path.read_bytes()
        assert len(fuzz(path, blob, blob.index(b"\n") + 1, load_visual_embeddings)) < 200

    def test_f64le(self, tmp_path):
        path = tmp_path / "a.f64"
        write_f64(path, Waveform(np.random.default_rng(43).normal(size=50), 16000))
        blob = path.read_bytes()
        assert len(fuzz(path, blob, blob.index(b"\n") + 1, read_waveform)) < 200
