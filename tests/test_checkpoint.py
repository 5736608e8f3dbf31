"""Checkpoint files, and seeded header fuzzing of every binary reader."""

import json
import math
import os
import pathlib
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from avmoe import checkpoint
from avmoe.checkpoint import load_checkpoint, save_checkpoint
from avmoe.errors import AvmoeError, CheckpointError
from avmoe.frontend import Waveform, read_waveform, write_f64
from avmoe.fusion import load_visual_embeddings, save_visual_embeddings
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.optim import Adam
from avmoe.train import (
    TrainConfig, TrainState, Vocab, restore_model, restore_train_state, save_train_state,
)

from helpers import fill_disk_at_open, flip_byte_in_tensor


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

    def test_every_flipped_header_byte_is_a_checkpoint_error(self, tmp_path):
        # A flip anywhere in the first line or the JSON header, a tensor name
        # included, must fail the header step, and with the package's error.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_tensors())
        blob = path.read_bytes()
        data_start = load_checkpoint(path).data_start
        for pos in range(data_start):
            for mask in (0x01, 0x20, 0xFF):
                damaged = bytearray(blob)
                damaged[pos] ^= mask
                path.write_bytes(bytes(damaged))
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)

    def test_non_ascii_header_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        header, payload = split_checkpoint(path)
        damaged = header.replace(b'"model"', b'"mod\xffl"', 1)
        path.write_bytes(first_line(header) + damaged + payload)
        with pytest.raises(CheckpointError, match="checksum failure for the header"):
            load_checkpoint(path)
        write_with_header(path, damaged, payload)  # its checksum made valid
        with pytest.raises(CheckpointError, match="unreadable header: 'utf-8' codec"):
            load_checkpoint(path)

    def test_tensor_named_twice_is_refused(self, tmp_path):
        # The first tensor's name on the second entry, whose extent and CRC are
        # valid, would otherwise make two parameters one.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        header, payload = split_checkpoint(path)
        doc = json.loads(header)
        first = doc["tensors"][0][0]
        doc["tensors"][1][0] = first
        write_with_header(path, json.dumps(doc).encode(), payload)
        with pytest.raises(CheckpointError, match=f"tensor '{first}' appears twice"):
            load_checkpoint(path)

    def test_config_key_named_twice_is_refused(self, tmp_path):
        # JSON keeps the last of two equal keys; the checksum is valid, so only
        # the duplicate check can refuse the file.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        header, payload = split_checkpoint(path)
        doubled = header.replace(b'{"config":{', b'{"config":{"vocab":["z"],', 1)
        assert doubled != header
        write_with_header(path, doubled, payload)
        with pytest.raises(CheckpointError, match="key 'vocab' appears twice"):
            load_checkpoint(path)

    def test_edited_config_value_is_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        blob = path.read_bytes()
        edited = blob.replace(b'"macaron_scale":0.5', b'"macaron_scale":0.9', 1)
        assert edited != blob
        path.write_bytes(edited)
        with pytest.raises(CheckpointError, match="checksum failure for the header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t[1].__setitem__(0, t[0][0]), "tensor '{0}' appears twice"),
        (lambda t: t[0][1].__setitem__(0, -1), "tensor '{0}': dims must be a list of non-neg"),
        (lambda t: t[0][1].__setitem__(0, 8.0), "tensor '{0}': dims must be a list of non-neg"),
        (lambda t: t[0][1].__setitem__(0, True), "tensor '{0}': dims must be a list of non-neg"),
        (lambda t: t[0].__setitem__(1, 8), "tensor '{0}': dims must be a list of non-neg"),
        (lambda t: t[0].__setitem__(2, 2**32), "tensor '{0}': crc32 must be an integer in [0"),
        (lambda t: t[0].__setitem__(2, -1), "tensor '{0}': crc32 must be an integer in [0"),
        (lambda t: t[0].__setitem__(2, False), "tensor '{0}': crc32 must be an integer in [0"),
        (lambda t: t.append(["extra", [1], 0]), "payload truncated for tensor 'extra'"),
        (lambda t: t[0].pop(), "tensor entry 0 is not a [name, dims, crc32] list"),
        (lambda t: t[0].__setitem__(0, 5), "tensor entry 0 is not a [name, dims, crc32] list"),
        (lambda t: t.__setitem__(0, "w"), "tensor entry 0 is not a [name, dims, crc32] list"),
    ], ids=["duplicate-name", "negative-dim", "float-dim", "bool-dim", "dims-not-a-list",
            "crc-of-2-to-the-32", "negative-crc", "bool-crc", "one-value-past-the-payload",
            "two-fields", "name-not-a-string", "entry-not-a-list"])
    def test_malformed_tensor_entry_is_refused(self, tmp_path, edit, message):
        # The checksum is valid, so only the structure checks can refuse these.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_tensors())
        header, payload = split_checkpoint(path)
        doc = json.loads(header)
        first = doc["tensors"][0][0]
        edit(doc["tensors"])
        write_with_header(path, json.dumps(doc).encode(), payload)
        with pytest.raises(CheckpointError, match=re.escape(message.format(first))):
            load_checkpoint(path)

    @pytest.mark.parametrize("doc", [[], {"config": {}}, {"config": [], "tensors": []},
                                     {"config": {}, "tensors": {}},
                                     {"config": {}, "tensors": [], "x": 1}],
                             ids=["list", "no-tensors", "config-list", "tensors-object",
                                  "extra-key"])
    def test_header_of_another_shape_is_refused(self, tmp_path, doc):
        path = tmp_path / "m.ckpt"
        write_with_header(path, json.dumps(doc).encode(), b"")
        with pytest.raises(CheckpointError, match="not a config object and a tensors list"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [[0, 10**30], [1] * 65], ids=["huge-beside-zero", "65-dims"])
    def test_shape_numpy_cannot_hold_fails_the_read(self, tmp_path, dims):
        # Its size is within the payload, so only numpy can refuse the shape.
        path = tmp_path / "m.ckpt"
        payload = bytes(8 * math.prod(dims))
        tensors = [["t", dims, zlib.crc32(payload)]]
        write_with_header(path, json.dumps({"config": {}, "tensors": tensors}).encode(), payload)
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="tensor 't': "):
            ckpt.read()

    def test_deeply_nested_header_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_with_header(path, b"[" * 100_000 + b"]" * 100_000, b"")
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path)

    def test_payload_one_value_longer_than_the_tensors_is_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_tensors())
        last = list(load_checkpoint(path).entries)[-1]
        path.write_bytes(path.read_bytes() + bytes(8))
        message = f"8 payload bytes follow the last tensor, {last!r}"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("first", [
        b"EVACKPT2\n[config]\n", b"EVACKPT3 12 34", b"EVACKPT3 12\n", b"EVACKPT3 +1 34\n",
        b"EVACKPT3 1 \xd9\xa3\n", b"EVACKPT3  1 34\n", b"",
    ], ids=["old-format", "no-newline", "two-fields", "sign", "arabic-digit", "double-space",
            "empty"])
    def test_bad_first_line_is_refused(self, tmp_path, first):
        path = tmp_path / "m.ckpt"
        path.write_bytes(first + b"{}" * 40)
        with pytest.raises(CheckpointError, match="bad magic|bad first line"):
            load_checkpoint(path)

    def test_header_longer_than_the_file_is_refused_unread(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_tensors())
        blob = path.read_bytes()
        rest = blob[blob.index(b"\n") :]
        for length in (len(blob), 10**40):
            path.write_bytes(b"EVACKPT3 %d 0" % length + rest)
            counter = count_file_reads(monkeypatch)
            with pytest.raises(CheckpointError, match=f"a header of {length} bytes does not fit"):
                load_checkpoint(path)
            assert counter[0] <= checkpoint.FIRST_LINE_MAX
            monkeypatch.undo()


def first_line(header: bytes) -> bytes:
    """The line that a checkpoint with this JSON header starts with."""
    return b"EVACKPT3 %d %d\n" % (len(header), zlib.crc32(header))


def write_with_header(path, header: bytes, payload: bytes) -> None:
    """A checkpoint file of ``header`` under a valid checksum, then ``payload``."""
    path.write_bytes(first_line(header) + header + payload)


def split_checkpoint(path) -> tuple[bytes, bytes]:
    """A checkpoint file's JSON header and its payload."""
    blob = path.read_bytes()
    data_start = load_checkpoint(path).data_start
    return blob[blob.index(b"\n") + 1 : data_start], blob[data_start:]


def tobytes_writer(config: dict, tensors: dict) -> bytes:
    """The file the writer makes, joined in memory from each tensor's tobytes."""
    listed, blobs = [], []
    for name, array in tensors.items():
        arr = np.asarray(array, dtype=np.float64)
        raw = arr.astype("<f8").tobytes()
        listed.append([name, list(arr.shape), zlib.crc32(raw)])
        blobs.append(raw)
    header = json.dumps({"config": config, "tensors": listed}, sort_keys=True,
                        separators=(",", ":")).encode("ascii")
    return first_line(header) + header + b"".join(blobs)


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
        "caf\u00e9 [1, 2] \"x\"\n": rng.normal(size=2),  # JSON escapes every name
    }


HAND_BUILT_CONFIG = {"model": {"hidden": 4, "moe": None}, "note": "caf\u00e9 = 1\n", "step": 3}


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
        fill_disk_at_open(monkeypatch, 1)
        with pytest.raises(OSError, match="No space left"):
            save_train_state(path, state, Vocab(["a", "b"]), TrainConfig())
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    @pytest.mark.parametrize("config, tensors", [
        ({b"bytes key": "1"}, {"t": np.zeros(2)}),
        ({"k": "1"}, {"t": np.zeros(2), b"bytes name": np.zeros(2)}),
    ])
    def test_bad_name_opens_no_file(self, tmp_path, config, tensors):
        # Any str is a valid name, but JSON cannot write a bytes one.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        before = path.read_bytes()
        with pytest.raises(TypeError, match="keys must be str|not JSON serializable"):
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

    def test_restore_train_state_allocates_the_payload_once(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_drawn_checkpoint(path, ModelConfig(vocab_size=16, moe=MoEConfig()))
        ckpt = load_checkpoint(path)
        payload = sum(e.nbytes for e in ckpt.entries.values())
        tracemalloc.start()
        try:
            restore_train_state(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The one buffer of the whole read (36.1 MB), plus 1 MiB for the
        # parameter objects, Adam's scratch and the read's bookkeeping (0.6 MB
        # measured). Adam
        # moments allocated only to be replaced by the read's would add two
        # copies of the 12.0 MB model.
        assert peak <= payload + 2**20

    def test_restore_refuses_every_tensor_off_the_layout_before_assigning(self, tmp_path):
        # A moment of the wrong shape used to load and fail on the first Adam step.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        saved = load_checkpoint(path)
        original, tensors = saved.read(), saved.read()
        name = next(n for n in tensors if n.startswith("opt.m."))
        tensors[name] = np.zeros(3)
        tensors["opt.m.nonexistent"] = np.zeros(2)
        missing = next(n for n in reversed(tensors) if n.startswith("opt.v."))
        del tensors[missing]
        save_checkpoint(path, saved.config, tensors)
        with pytest.raises(CheckpointError) as caught:
            read_train_state(path)
        assert str(caught.value) == (
            f"checkpoint/model mismatch: missing tensor '{missing}'; shape mismatch for "
            f"'{name}': checkpoint (3,) vs model {saved.entries[name].shape}; "
            "unexpected tensor 'opt.m.nonexistent'"
        )
        restore_model(load_checkpoint(path))  # reads model.* only: the stated trade
        save_checkpoint(path, saved.config, {**original, "model.extra": np.zeros(1)})
        with pytest.raises(CheckpointError, match="unexpected tensor 'model.extra'$"):
            restore_model(load_checkpoint(path))

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
        every = load_checkpoint(path).read()
        for name, p in drawn.named_parameters():
            p.data = every["model." + name]
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


def header_step_bytes(path) -> int:
    """What ``load_checkpoint`` reads: a bounded first read, then the JSON header."""
    blob = path.read_bytes()
    return checkpoint.FIRST_LINE_MAX + load_checkpoint(path).data_start - blob.index(b"\n") - 1


class TestBytesRead:
    @pytest.mark.parametrize("cfg", [None, ModelConfig(vocab_size=16, moe=MoEConfig())],
                             ids=["tiny", "default-moe"])
    def test_restore_model_reads_the_header_and_the_model_range(self, tmp_path, monkeypatch, cfg):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path) if cfg is None else write_drawn_checkpoint(path, cfg)
        ckpt = load_checkpoint(path)
        model = [e for n, e in ckpt.entries.items() if n.startswith("model.")]
        model_range = max(e.offset + e.nbytes for e in model) - min(e.offset for e in model)
        counter = count_file_reads(monkeypatch)
        restore_model(load_checkpoint(path))
        assert counter[0] == header_step_bytes(path) + model_range < path.stat().st_size

    def test_train_state_reads_every_payload_byte(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        size = path.stat().st_size
        payload = size - load_checkpoint(path).data_start
        counter = count_file_reads(monkeypatch)
        read_train_state(path)
        assert counter[0] == header_step_bytes(path) + payload


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
        # One checksum covers the whole header: only a byte replaced by itself may load.
        accepted = fuzz(path, blob, load_checkpoint(path).data_start, read_train_state)
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
