"""Checkpoint files, and seeded header fuzzing of every binary reader."""

import errno
import json
import os
import pathlib
import tracemalloc
import zlib

import numpy as np
import pytest

from avmoe import checkpoint
from avmoe.checkpoint import load_checkpoint, load_params_into, save_checkpoint
from avmoe.errors import AvmoeError, CheckpointError
from avmoe.frontend import Waveform, read_waveform, write_f64
from avmoe.fusion import load_visual_embeddings, save_visual_embeddings
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.optim import Adam
from avmoe.train import (
    TrainConfig, TrainState, Vocab, restore_model, restore_train_state, save_train_state,
)

from helpers import flip_byte_in_tensor


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

    @pytest.mark.parametrize("line, field, edit, message", [
        (0, 0, lambda name: name + b"\xe9", "'ascii' codec can't decode byte 0xe9"),
        (0, 1, lambda dims: b"0_" + dims, "dims, offset and crc must be ASCII decimal digits"),
        (0, 2, lambda offset: b"+" + offset, "dims, offset and crc must be ASCII decimal digits"),
        (0, 3, lambda crc: b"%d" % (int(crc) + 2**32), "crc [0-9]+ does not fit in 32 bits"),
        (1, 2, lambda offset: b"0", "offset 0 is not [0-9]+, where the tensor before ends"),
    ], ids=["non-ascii-name", "dim-with-underscore", "offset-with-plus", "crc-of-33-bits",
            "overlapping-offset"])
    def test_non_canonical_tensor_line_names_its_byte_offset(
        self, tmp_path, line, field, edit, message
    ):
        # int() reads each edited number, so without the header checks only the
        # CRC32 check of the payload step would refuse it. The header is decoded
        # in one pass, and a non-ASCII name must still fail on its own line.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        tensors_at = blob.index(b"\n[tensors]\n") + len(b"\n[tensors]\n")
        lines = blob[tensors_at:].split(b"\n")
        line_start = tensors_at + sum(len(raw) + 1 for raw in lines[:line])
        fields = lines[line].split(b" ")
        fields[field] = edit(fields[field])
        lines[line] = b" ".join(fields)
        path.write_bytes(blob[:tensors_at] + b"\n".join(lines))
        with pytest.raises(CheckpointError, match=f"at byte offset {line_start}: {message}"):
            load_checkpoint(path)

    def test_non_ascii_header_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"[config]\nmodel", b"[config]\nmod\xffl", 1))
        with pytest.raises(CheckpointError, match="byte offset 18:"):
            load_checkpoint(path)

    def test_tensor_named_twice_is_refused(self, tmp_path):
        # A second line for the first tensor, pointing at the second tensor's
        # bytes with its CRC, would otherwise win silently.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        first, second = list(load_checkpoint(path).entries)[:2]
        second_start = blob.index(f"\n{second} ".encode()) + 1
        insert_at = blob.index(b"\n", second_start) + 1
        duplicate = first.encode() + blob[second_start + len(second) : insert_at]
        path.write_bytes(blob[:insert_at] + duplicate + blob[insert_at:])
        with pytest.raises(
            CheckpointError, match=f"at byte offset {insert_at}: tensor '{first}' appears twice"
        ):
            load_checkpoint(path)

    def test_config_key_named_twice_is_refused(self, tmp_path):
        # The config CRC is recomputed over the doubled lines, so only the
        # duplicate check can refuse the file.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        body_start = blob.index(b"[config]\n") + len(b"[config]\n")
        crc_line = blob.index(b"\ncrc32 ", body_start)
        lines = blob[body_start:crc_line].split(b"\n")
        key = lines[0].partition(b"=")[0].decode()
        body = b"\n".join(lines + [f'{key}="0"'.encode()])
        crc = str(zlib.crc32(body) & 0xFFFFFFFF).encode()
        tail = blob[blob.index(b"\n", crc_line + 1) :]
        path.write_bytes(blob[:body_start] + body + b"\ncrc32 " + crc + tail)
        offset = body_start + len(body) - len(f'{key}="0"')
        with pytest.raises(
            CheckpointError, match=f"at byte offset {offset}: config key '{key}' appears twice"
        ):
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


def tobytes_writer(config: dict, tensors: dict) -> bytes:
    """The file the writer made before it streamed: each tensor's tobytes, joined in memory."""
    entries = [f"{key}={json.dumps(value)}" for key, value in config.items()]
    config_crc = zlib.crc32("\n".join(entries).encode("ascii")) & 0xFFFFFFFF
    header = ["EVACKPT2", "[config]", *entries, f"crc32 {config_crc}", "[tensors]"]
    blobs, offset = [], 0
    for name, array in tensors.items():
        arr = np.asarray(array, dtype=np.float64)
        raw = arr.astype("<f8").tobytes()
        shape = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        header.append(f"{name} {shape} {offset} {zlib.crc32(raw) & 0xFFFFFFFF}")
        blobs.append(raw)
        offset += len(raw)
    header.append("[data]")
    return "\n".join(header).encode("ascii") + b"\n" + b"".join(blobs)


def hand_built_tensors() -> dict:
    rng = np.random.default_rng(44)
    grid = rng.normal(size=(3, 5))
    return {
        "transposed": grid.T,  # not contiguous
        "strided": grid[:, ::2],
        "single": rng.normal(size=(2, 3)).astype(np.float32),
        "scalar": np.array(-0.0),
        "empty": np.zeros((0, 4)),
        "row": rng.normal(size=7),
    }


HAND_BUILT_CONFIG = {"model": json.dumps({"hidden": 4}), "note": "caf\u00e9 = 1", "step": "3"}


def base_buffer(array: np.ndarray):
    """The object that owns the memory at the bottom of an array's chain of views."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return getattr(array, "obj", array)


class TestWriterBytes:
    def test_file_equals_the_tobytes_formula(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = hand_built_tensors()
        save_checkpoint(path, HAND_BUILT_CONFIG, tensors)
        assert path.read_bytes() == tobytes_writer(HAND_BUILT_CONFIG, tensors)

    def test_train_state_file_equals_the_tobytes_formula(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        assert path.read_bytes() == tobytes_writer(ckpt.config, ckpt.read())

    def test_file_of_the_tobytes_formula_loads_unchanged(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = hand_built_tensors()
        path.write_bytes(tobytes_writer(HAND_BUILT_CONFIG, tensors))
        ckpt = load_checkpoint(path)
        assert ckpt.config == HAND_BUILT_CONFIG
        every = ckpt.read()
        assert list(every) == list(tensors)
        for name, array in tensors.items():
            loaded = every[name]
            assert loaded.dtype == np.float64 and loaded.shape == array.shape, name
            assert loaded.tobytes() == np.asarray(array, dtype=np.float64).tobytes(), name


class TestInterruptedSave:
    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        state = write_tiny_checkpoint(path)
        before = path.read_bytes()
        state.step += 1
        real_open = pathlib.Path.open

        class DiskFull:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_disk_full(self, mode="r", *args, **kwargs):
            file = real_open(self, mode, *args, **kwargs)
            return DiskFull(file) if "w" in mode else file

        monkeypatch.setattr(pathlib.Path, "open", open_disk_full)
        with pytest.raises(OSError, match="No space left"):
            save_train_state(path, state, Vocab(["a", "b"]), TrainConfig())
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    @pytest.mark.parametrize("config, tensors", [
        ({"bad key": "1"}, {"t": np.zeros(2)}),
        ({"k": "1"}, {"t": np.zeros(2), "bad\nname": np.zeros(2)}),
    ])
    def test_bad_name_opens_no_file(self, tmp_path, config, tensors):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="may not contain"):
            save_checkpoint(path, config, tensors)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestLoad:
    def test_payload_short_by_8_bytes_names_the_last_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        last = list(load_checkpoint(path).entries)[-1]
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=f"payload truncated for tensor '{last}'"):
            load_checkpoint(path)

    def test_header_parses_the_same_in_chunks_of_any_size(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        whole = load_checkpoint(path)
        marker = whole.data_start - len(checkpoint.DATA_MARKER)
        # The smallest chunk that holds the magic line, and chunks that end
        # just before, inside and just after the [data] marker.
        for chunk in (9, 64, marker, marker + 3, whole.data_start, whole.data_start + 1):
            monkeypatch.setattr(checkpoint, "HEADER_CHUNK", chunk)
            ckpt = load_checkpoint(path)
            assert (ckpt.config, ckpt.entries, ckpt.data_start) == \
                (whole.config, whole.entries, whole.data_start), chunk

    def test_each_read_returns_views_of_a_buffer_of_its_own(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        first, second = ckpt.read(), ckpt.read()
        for tensors in (first, second):
            assert len({id(base_buffer(t)) for t in tensors.values()}) == 1
            assert next(iter(tensors.values())).ctypes.data % 64 == 0
            for name, t in tensors.items():
                assert t.flags.writeable and t.flags.c_contiguous and t.flags.aligned, name
        for name, t in first.items():
            assert not np.shares_memory(t, second[name]), name

    def test_two_restores_share_no_memory(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        (one, _), (two, _) = restore_model(ckpt), restore_model(ckpt)
        for (name, p), (_, q) in zip(one.named_parameters(), two.named_parameters()):
            assert p.data.flags.c_contiguous and p.data.flags.aligned, name
            assert not np.shares_memory(p.data, q.data), name

    def test_resumed_parameters_and_moments_are_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        state, _, _ = read_train_state(path)
        arrays = [p.data for p in state.model.parameters()]
        arrays += [*state.optimizer.m.values(), *state.optimizer.v.values()]
        assert len({id(base_buffer(a)) for a in arrays}) == 1

    def test_restored_state_does_not_alias_the_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        before = ckpt.read()
        state, _, _ = restore_train_state(ckpt)
        for name, p in state.model.named_parameters():
            p.data += 1.0
            state.optimizer.m[name][...] = 7.0
            state.optimizer.v[name] *= 3.0
        for name, t in ckpt.read().items():
            np.testing.assert_array_equal(t, before[name], err_msg=name)


def write_drawn_checkpoint(path, cfg: ModelConfig) -> None:
    """A training checkpoint of ``cfg`` with drawn weights and non-zero Adam moments."""
    model = Model(cfg, np.random.default_rng(50))
    optimizer = Adam(model.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(51)
    for name in optimizer.m:
        optimizer.m[name] = rng.normal(size=optimizer.m[name].shape)
        optimizer.v[name] = rng.random(size=optimizer.v[name].shape)
    state = TrainState(model, optimizer, np.random.default_rng(52), step=2)
    save_train_state(path, state, Vocab(["a", "b"]), TrainConfig())


class TestModelOnlyLoad:
    @pytest.mark.parametrize("moe", [MoEConfig(), None], ids=["moe", "dense"])
    def test_restored_model_equals_a_drawn_then_loaded_one(self, tmp_path, moe):
        path = tmp_path / "m.ckpt"
        cfg = ModelConfig(vocab_size=16, moe=moe)
        write_drawn_checkpoint(path, cfg)
        restored, _ = restore_model(load_checkpoint(path))
        drawn = Model(cfg, np.random.default_rng(0))
        load_params_into(drawn.named_parameters(), load_checkpoint(path).read(), prefix="model.")
        mine, theirs = restored.named_parameters(), drawn.named_parameters()
        assert [name for name, _ in mine] == [name for name, _ in theirs]
        for (name, p), (_, q) in zip(mine, theirs):
            assert p.data.dtype == q.data.dtype and p.data.flags.writeable, name
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_restore_model_allocates_the_model_payload_once(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_drawn_checkpoint(path, ModelConfig(vocab_size=16, moe=MoEConfig()))
        ckpt = load_checkpoint(path)
        payload = sum(e.nbytes for name, e in ckpt.entries.items() if name.startswith("model."))
        tracemalloc.start()
        try:
            restore_model(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The one buffer of the model.* read (12.0 MB), plus 1 MiB for the
        # parameter objects and the read's bookkeeping (0.4 MB measured). A
        # copy of the parameters, or storage behind the unfilled model, would
        # allocate the payload a second time.
        assert peak <= payload + 2**20

    def test_flipped_byte_in_a_model_tensor_fails_restore_model(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        name = flip_byte_in_tensor(path, "model.")
        ckpt = load_checkpoint(path)  # the header is intact
        with pytest.raises(CheckpointError, match=f"checksum failure for tensor '{name}'"):
            restore_model(ckpt)

    def test_flipped_byte_in_an_adam_moment_fails_only_the_train_state(self, tmp_path):
        path = tmp_path / "m.ckpt"
        saved = write_tiny_checkpoint(path)
        name = flip_byte_in_tensor(path, "opt.")
        model, _ = restore_model(load_checkpoint(path))  # the stated trade
        for (key, p), (_, q) in zip(model.named_parameters(), saved.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=key)
        with pytest.raises(CheckpointError, match=f"checksum failure for tensor '{name}'"):
            read_train_state(path)

    def test_file_replaced_after_the_header_fails_the_read(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        other = tmp_path / "other.ckpt"
        write_tiny_checkpoint(other)  # the same bytes, another inode
        os.replace(other, path)
        with pytest.raises(CheckpointError, match="changed after its header was read"):
            restore_model(ckpt)
        with pytest.raises(CheckpointError, match="changed after its header was read"):
            ckpt.read("opt.")

    def test_file_removed_after_the_header_fails_the_read(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        path.unlink()
        with pytest.raises(CheckpointError, match="cannot read the checkpoint"):
            ckpt.read("model.")

    def test_read_of_a_prefix_is_the_matching_part_of_every_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        every = ckpt.read()
        for prefix in ("model.", "opt.m.", "opt.", "model.dec_embed", "nothing"):
            part = ckpt.read(prefix)
            assert list(part) == [n for n in every if n.startswith(prefix)], prefix
            for name, t in part.items():
                assert t.tobytes() == every[name].tobytes(), name
            assert len({id(base_buffer(t)) for t in part.values()}) <= 1


def count_file_reads(monkeypatch) -> list[int]:
    """Make every file that ``Path.open`` returns count the bytes read from it."""
    counter = [0]
    real_open = pathlib.Path.open

    class CountingFile:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def __getattr__(self, name):
            return getattr(self.file, name)

        def read(self, *args):
            data = self.file.read(*args)
            counter[0] += len(data)
            return data

        def readinto(self, buffer):
            count = self.file.readinto(buffer)
            counter[0] += count or 0
            return count

    def counting_open(self, mode="r", *args, **kwargs):
        return CountingFile(real_open(self, mode, *args, **kwargs))

    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    return counter


class TestBytesRead:
    @pytest.mark.parametrize("cfg, chunk", [
        (None, 256),  # the tiny checkpoint, its header read in many chunks
        (ModelConfig(vocab_size=16, moe=MoEConfig()), checkpoint.HEADER_CHUNK),
    ], ids=["tiny-256-byte-chunks", "default-moe"])
    def test_restore_model_reads_the_header_and_the_model_range(
        self, tmp_path, monkeypatch, cfg, chunk
    ):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path) if cfg is None else write_drawn_checkpoint(path, cfg)
        monkeypatch.setattr(checkpoint, "HEADER_CHUNK", chunk)
        ckpt = load_checkpoint(path)
        model = [e for n, e in ckpt.entries.items() if n.startswith("model.")]
        model_range = max(e.offset + e.nbytes for e in model) - min(e.offset for e in model)
        header_chunks = -(-ckpt.data_start // checkpoint.HEADER_CHUNK) * checkpoint.HEADER_CHUNK
        counter = count_file_reads(monkeypatch)
        restore_model(load_checkpoint(path))
        assert model_range <= counter[0] <= header_chunks + model_range < path.stat().st_size

    def test_train_state_reads_every_payload_byte(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        size = path.stat().st_size
        payload = size - load_checkpoint(path).data_start
        counter = count_file_reads(monkeypatch)
        read_train_state(path)
        # The header step reads one chunk, all of this small file.
        assert counter[0] == min(size, checkpoint.HEADER_CHUNK) + payload


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
