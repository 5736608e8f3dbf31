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
from avmoe.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from avmoe.errors import AvmoeError, CheckpointError
from avmoe.frontend import Waveform, read_waveform, write_f64
from avmoe.fusion import load_visual_embeddings, save_visual_embeddings
from avmoe.model import Model, ModelConfig
from avmoe.moe import MoEConfig
from avmoe.optim import Adam
from avmoe.train import (
    TrainConfig, TrainState, Vocab, restore_model, restore_train_state, save_train_state,
)

from helpers import ADAM_CONSTANTS, fill_disk_at_open, flip_byte_in_tensor


def write_tiny_checkpoint(path) -> TrainState:
    cfg = ModelConfig(
        vocab_size=6, hidden=4, heads=2, d_ff=8, encoder_blocks=1, decoder_blocks=1,
        visual_dim=3, n_mels=4, stack_factor=2,
        moe=MoEConfig(num_experts=2, top_k=1, hidden=4, ffn_hidden=8),
    )
    model = Model(cfg, np.random.default_rng(40))
    optimizer = Adam(model.named_parameters(), lr=1e-3, **ADAM_CONSTANTS)
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

    def test_default_train_checkpoint_names_each_parameter_once(self, tmp_path):
        # The three sections share the layout; before, each name was listed
        # three times, as model.*, opt.m.* and opt.v.*.
        path = tmp_path / "m.ckpt"
        cfg = ModelConfig(vocab_size=16, moe=MoEConfig())
        write_drawn_checkpoint(path, cfg)
        ckpt = load_checkpoint(path)
        names = [name for name, _ in Model(cfg, rng=None).named_parameters()]
        assert len(names) == 314 and list(ckpt.layout) == names
        assert {s: len(crcs) for s, crcs in ckpt.sections.items()} == {
            "model": 314, "opt.m": 314, "opt.v": 314}
        header, _ = split_checkpoint(path)
        assert all(header.count(json.dumps(name).encode()) == 1 for name in names)

    def test_every_flipped_header_byte_is_a_checkpoint_error(self, tmp_path):
        # A flip anywhere in the first line or the JSON header, a tensor name
        # included, must fail the header step, and with the package's error.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_sections())
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
        # The first tensor's name on the second layout entry, whose extent and
        # CRCs are valid, would otherwise make two parameters one.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        header, payload = split_checkpoint(path)
        doc = json.loads(header)
        first = doc["layout"][0][0]
        doc["layout"][1][0] = first
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
        edited = blob.replace(b'"lr":0.0003', b'"lr":0.0009', 1)
        assert edited != blob
        path.write_bytes(edited)
        with pytest.raises(CheckpointError, match="checksum failure for the header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["layout"][1].__setitem__(0, d["layout"][0][0]),
         "tensor {name!r} appears twice"),
        (lambda d: d["layout"][0][1].__setitem__(0, -1),
         "tensor {name!r}: dims must be a list of non-neg"),
        (lambda d: d["layout"][0][1].__setitem__(0, 8.0),
         "tensor {name!r}: dims must be a list of non-neg"),
        (lambda d: d["layout"][0][1].__setitem__(0, True),
         "tensor {name!r}: dims must be a list of non-neg"),
        (lambda d: d["layout"][0].__setitem__(1, 8),
         "tensor {name!r}: dims must be a list of non-neg"),
        (lambda d: d["sections"][0][1].__setitem__(0, 2**32),
         "section {section!r}: each crc32 must be an integer in [0"),
        (lambda d: d["sections"][0][1].__setitem__(0, -1),
         "section {section!r}: each crc32 must be an integer in [0"),
        (lambda d: d["sections"][0][1].__setitem__(0, False),
         "section {section!r}: each crc32 must be an integer in [0"),
        (lambda d: [d["layout"].append(["extra", [1]])] + [s[1].append(0) for s in d["sections"]],
         "payload truncated for tensor {last!r} in section {last_section!r}"),
        (lambda d: d["layout"][0].pop(), "layout entry 0 is not a [name, dims] list"),
        (lambda d: d["layout"][0].__setitem__(0, 5), "layout entry 0 is not a [name, dims] list"),
        (lambda d: d["layout"].__setitem__(0, "w"), "layout entry 0 is not a [name, dims] list"),
        (lambda d: d["sections"][0][1].pop(), "section {section!r} lists 6 CRC32s for 7 tensors"),
        (lambda d: d["sections"][1].__setitem__(0, d["sections"][0][0]),
         "section {section!r} appears twice"),
        (lambda d: d["sections"][0].__setitem__(1, 5),
         "section entry 0 is not a [section, crc32 list] list"),
        (lambda d: d["sections"].__setitem__(0, "a"),
         "section entry 0 is not a [section, crc32 list] list"),
    ], ids=["duplicate-name", "negative-dim", "float-dim", "bool-dim", "dims-not-a-list",
            "crc-of-2-to-the-32", "negative-crc", "bool-crc", "one-value-past-the-payload",
            "two-fields", "name-not-a-string", "entry-not-a-list", "crc-list-one-short",
            "section-named-twice", "crcs-not-a-list", "section-entry-not-a-list"])
    def test_malformed_tensor_entry_is_refused(self, tmp_path, edit, message):
        # The checksum is valid, so only the structure checks can refuse these.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_sections())
        header, payload = split_checkpoint(path)
        doc = json.loads(header)
        names = {"name": doc["layout"][0][0], "section": doc["sections"][0][0],
                 "last": doc["layout"][-1][0], "last_section": doc["sections"][-1][0]}
        edit(doc)
        write_with_header(path, json.dumps(doc).encode(), payload)
        with pytest.raises(CheckpointError, match=re.escape(message.format(**names))):
            load_checkpoint(path)

    @pytest.mark.parametrize("doc", [
        [], {"config": {}, "sections": []}, {"config": [], "layout": [], "sections": []},
        {"config": {}, "layout": {}, "sections": []}, {"config": {}, "layout": [], "sections": []
                                                       , "x": 1},
        {"config": {}, "layout": [], "sections": {}}, {"config": {}, "layout": []},
    ], ids=["list", "no-tensors", "config-list", "tensors-object", "extra-key",
            "sections-object", "no-sections"])
    def test_header_of_another_shape_is_refused(self, tmp_path, doc):
        path = tmp_path / "m.ckpt"
        write_with_header(path, json.dumps(doc).encode(), b"")
        message = "not a config object, a layout list and a sections list"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [[0, 10**30], [1] * 65], ids=["huge-beside-zero", "65-dims"])
    def test_shape_numpy_cannot_hold_fails_the_read(self, tmp_path, dims):
        # Its size is within the payload, so only numpy can refuse the shape.
        path = tmp_path / "m.ckpt"
        payload = bytes(8 * math.prod(dims))
        doc = {"config": {}, "layout": [["t", dims]], "sections": [["s", [zlib.crc32(payload)]]]}
        write_with_header(path, json.dumps(doc).encode(), payload)
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
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_sections())
        ckpt = load_checkpoint(path)
        last, section = list(ckpt.layout)[-1], list(ckpt.sections)[-1]
        path.write_bytes(path.read_bytes() + bytes(8))
        message = f"8 payload bytes follow the last tensor, {last!r} in section {section!r}"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("first", [
        b"EVACKPT2\n[config]\n", MAGIC + b" 12 34", MAGIC + b" 12\n", MAGIC + b" +1 34\n",
        MAGIC + b" 1 \xd9\xa3\n", MAGIC + b"  1 34\n", b"",
    ], ids=["old-format", "no-newline", "two-fields", "sign", "arabic-digit", "double-space",
            "empty"])
    def test_bad_first_line_is_refused(self, tmp_path, first):
        path = tmp_path / "m.ckpt"
        path.write_bytes(first + b"{}" * 40)
        with pytest.raises(CheckpointError, match="bad magic|bad first line"):
            load_checkpoint(path)

    def test_header_longer_than_the_file_is_refused_unread(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, HAND_BUILT_CONFIG, hand_built_sections())
        blob = path.read_bytes()
        rest = blob[blob.index(b"\n") :]
        for length in (len(blob), 10**40):
            path.write_bytes(b"%s %d 0" % (MAGIC, length) + rest)
            counter = count_file_reads(monkeypatch)
            with pytest.raises(CheckpointError, match=f"a header of {length} bytes does not fit"):
                load_checkpoint(path)
            assert counter[0] <= checkpoint.FIRST_LINE_MAX
            monkeypatch.undo()


def first_line(header: bytes) -> bytes:
    """The line that a checkpoint with this JSON header starts with."""
    return b"%s %d %d\n" % (MAGIC, len(header), zlib.crc32(header))


def write_with_header(path, header: bytes, payload: bytes) -> None:
    """A checkpoint file of ``header`` under a valid checksum, then ``payload``."""
    path.write_bytes(first_line(header) + header + payload)


def split_checkpoint(path) -> tuple[bytes, bytes]:
    """A checkpoint file's JSON header and its payload."""
    blob = path.read_bytes()
    data_start = load_checkpoint(path).data_start
    return blob[blob.index(b"\n") + 1 : data_start], blob[data_start:]


def tobytes_writer(config: dict, sections: dict) -> bytes:
    """The file the writer makes, joined in memory from each tensor's tobytes."""
    layout, listed, blobs = [], [], []
    for section, tensors in sections.items():
        arrays = [np.asarray(array, dtype=np.float64) for array in tensors.values()]
        layout = [[name, list(arr.shape)] for name, arr in zip(tensors, arrays)]
        raws = [arr.astype("<f8").tobytes() for arr in arrays]
        listed.append([section, [zlib.crc32(raw) for raw in raws]])
        blobs += raws
    header = json.dumps({"config": config, "layout": layout, "sections": listed},
                        sort_keys=True, separators=(",", ":")).encode("ascii")
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


def hand_built_sections() -> dict:
    """Two sections of one layout, the first of ``hand_built_tensors``' arrays."""
    first = hand_built_tensors()
    return {"a": first, "b \u00e9": {name: np.asarray(arr) * 2 + 1 for name, arr in first.items()}}


HAND_BUILT_CONFIG = {"model": {"hidden": 4, "moe": None}, "note": "caf\u00e9 = 1\n", "step": 3}


def base_buffer(array: np.ndarray):
    """The object that owns the memory at the bottom of an array's chain of views."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return getattr(array, "obj", array)


class TestWriterBytes:
    def test_file_equals_the_tobytes_formula(self, tmp_path):
        path = tmp_path / "m.ckpt"
        sections = hand_built_sections()
        save_checkpoint(path, HAND_BUILT_CONFIG, sections)
        assert path.read_bytes() == tobytes_writer(HAND_BUILT_CONFIG, sections)

    def test_train_state_file_equals_the_tobytes_formula(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        assert path.read_bytes() == tobytes_writer(ckpt.config, ckpt.read())

    def test_file_of_the_tobytes_formula_loads_unchanged(self, tmp_path):
        path = tmp_path / "m.ckpt"
        sections = hand_built_sections()
        path.write_bytes(tobytes_writer(HAND_BUILT_CONFIG, sections))
        ckpt = load_checkpoint(path)
        assert ckpt.config == HAND_BUILT_CONFIG
        every = ckpt.read()
        assert list(every) == list(sections)
        for section, tensors in sections.items():
            assert list(every[section]) == list(tensors)
            for name, array in tensors.items():
                loaded = every[section][name]
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
        ({b"bytes key": "1"}, {"s": {"t": np.zeros(2)}}),
        ({"k": "1"}, {"s": {"t": np.zeros(2), b"bytes name": np.zeros(2)}}),
        ({"k": "1"}, {b"bytes section": {"t": np.zeros(2)}}),
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

    @pytest.mark.parametrize("second", [
        {"t": np.zeros(2), "u": np.zeros((2, 3))},
        {"t": np.zeros(2)},
        {"t": np.zeros(2), "u": np.zeros((3, 2)), "w": np.zeros(1)},
        {"t": np.zeros(3), "u": np.zeros((3, 2))},
        {"u": np.zeros((3, 2)), "t": np.zeros(2)},
        {"t": np.zeros(2), "w": np.zeros((3, 2))},
    ], ids=["shape", "missing", "extra", "first-shape", "order", "name"])
    def test_sections_of_different_layouts_are_refused_unopened(self, tmp_path, monkeypatch,
                                                                second):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        before = path.read_bytes()
        opened = fill_disk_at_open(monkeypatch, 0)  # records the files opened for writing
        sections = {"a": {"t": np.zeros(2), "u": np.zeros((3, 2))}, "b": second}
        with pytest.raises(CheckpointError, match="section 'b' does not have the names and"):
            save_checkpoint(path, {}, sections)
        assert opened == []
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestLoad:
    def test_payload_short_by_8_bytes_names_the_last_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        last, section = list(ckpt.layout)[-1], list(ckpt.sections)[-1]
        path.write_bytes(path.read_bytes()[:-8])
        message = f"payload truncated for tensor '{last}' in section '{section}'"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_each_read_returns_views_of_a_buffer_of_its_own(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        first, second = ckpt.read(), ckpt.read()
        for read in (first, second):
            tensors = [t for section in read.values() for t in section.values()]
            assert len({id(base_buffer(t)) for t in tensors}) == 1
            assert tensors[0].ctypes.data % 64 == 0
            for t in tensors:
                assert t.flags.writeable and t.flags.c_contiguous and t.flags.aligned
        for section, tensors in first.items():
            for name, t in tensors.items():
                assert not np.shares_memory(t, second[section][name]), (section, name)

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
        payload = ckpt.section_nbytes * len(ckpt.sections)
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
        # A moment of the wrong shape used to load and fail on the first Adam
        # step. The three sections share one layout, so a restore of the model
        # alone refuses the same file.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        saved = load_checkpoint(path)
        sections = saved.read()
        name, missing = list(saved.layout)[0], list(saved.layout)[-1]
        for tensors in sections.values():
            tensors[name] = np.zeros(3)
            tensors["nonexistent"] = np.zeros(2)
            del tensors[missing]
        save_checkpoint(path, saved.config, sections)
        for restore in (read_train_state, lambda p: restore_model(load_checkpoint(p))):
            with pytest.raises(CheckpointError) as caught:
                restore(path)
            assert str(caught.value) == (
                f"checkpoint/model mismatch: missing tensor '{missing}'; shape mismatch for "
                f"'{name}': checkpoint (3,) vs model {saved.layout[name]}; "
                "unexpected tensor 'nonexistent'"
            )

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
        for section, tensors in ckpt.read().items():
            for name, t in tensors.items():
                np.testing.assert_array_equal(t, before[section][name], err_msg=name)


def write_drawn_checkpoint(path, cfg: ModelConfig) -> None:
    """A training checkpoint of ``cfg`` with drawn weights and non-zero Adam moments."""
    model = Model(cfg, np.random.default_rng(50))
    optimizer = Adam(model.named_parameters(), lr=1e-3, **ADAM_CONSTANTS)
    rng = np.random.default_rng(51)
    for name in optimizer.m:
        optimizer.m[name] = rng.normal(size=optimizer.m[name].shape)
        optimizer.v[name] = rng.random(size=optimizer.v[name].shape)
    state = TrainState(model, optimizer, np.random.default_rng(52), step=2)
    words = [f"w{i}" for i in range(cfg.vocab_size - ModelConfig.num_specials)]
    save_train_state(path, state, Vocab(words), TrainConfig())


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
            p.data = every["model"][name]
        mine, theirs = restored.named_parameters(), drawn.named_parameters()
        assert [name for name, _ in mine] == [name for name, _ in theirs]
        for (name, p), (_, q) in zip(mine, theirs):
            assert p.data.dtype == q.data.dtype and p.data.flags.writeable, name
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_restore_model_allocates_the_model_payload_once(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_drawn_checkpoint(path, ModelConfig(vocab_size=16, moe=MoEConfig()))
        ckpt = load_checkpoint(path)
        payload = ckpt.section_nbytes
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
        name = flip_byte_in_tensor(path, "model")
        ckpt = load_checkpoint(path)  # the header is intact
        message = f"checksum failure for tensor '{name}' in section 'model'"
        with pytest.raises(CheckpointError, match=message):
            restore_model(ckpt)

    def test_flipped_byte_in_an_adam_moment_fails_only_the_train_state(self, tmp_path):
        path = tmp_path / "m.ckpt"
        saved = write_tiny_checkpoint(path)
        name = flip_byte_in_tensor(path, "opt.m")
        model, _ = restore_model(load_checkpoint(path))  # the stated trade
        for (key, p), (_, q) in zip(model.named_parameters(), saved.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=key)
        message = f"checksum failure for tensor '{name}' in section 'opt.m'"
        with pytest.raises(CheckpointError, match=message):
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
            ckpt.read("opt.m", "opt.v")

    def test_file_removed_after_the_header_fails_the_read(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        path.unlink()
        with pytest.raises(CheckpointError, match="checkpoint not found"):
            ckpt.read("model")

    def test_read_of_a_prefix_is_the_matching_part_of_every_tensor(self, tmp_path):
        # A read of some sections is the same part of a read of every section.
        path = tmp_path / "m.ckpt"
        write_tiny_checkpoint(path)
        ckpt = load_checkpoint(path)
        every = ckpt.read()
        assert list(every) == ["model", "opt.m", "opt.v"]
        for sections in (("model",), ("opt.m",), ("opt.v", "model"), ("model", "opt.v")):
            part = ckpt.read(*sections)
            assert list(part) == list(sections)
            for section, tensors in part.items():
                assert list(tensors) == list(every[section]), section
                for name, t in tensors.items():
                    assert t.tobytes() == every[section][name].tobytes(), (section, name)
            views = [t for tensors in part.values() for t in tensors.values()]
            assert len({id(base_buffer(t)) for t in views}) == 1
        with pytest.raises(CheckpointError, match="no section 'opt'; it holds"):
            ckpt.read("model", "opt")


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
        model_range = load_checkpoint(path).section_nbytes
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
