"""The command line end to end: exit codes, decode against eval, resume, corpus determinism,
and the settings that ``avmoe train`` accepts."""

import argparse
import dataclasses
import hashlib
import json
import shutil
import wave
import zlib

import numpy as np
import pytest

from avmoe import train as avtrain
from avmoe.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from avmoe.cli import _build_parser, _build_train_configs, main
from avmoe.errors import ConfigError
from avmoe.fusion import save_visual_embeddings
from avmoe.model import ModelConfig
from avmoe.moe import MoEConfig
from avmoe.synth import SyntheticTaskSpec, reference_task_spec
from avmoe.train import TrainConfig

from helpers import fill_disk_at_open, flip_byte_in_tensor

TINY = {
    "model": {"hidden": 8, "heads": 2, "d_ff": 16, "encoder_blocks": 1, "decoder_blocks": 1,
              "n_mels": 20},
    "moe": {"num_experts": 2, "top_k": 1},
    "train": {"epochs": 2, "batch_size": 4, "lr": 0.01, "warmup_steps": 0},
}


def write_config(path, **train) -> str:
    config = {**TINY, "train": {**TINY["train"], **train}}
    path.write_text(json.dumps(config))
    return str(path)


def generate(out, spec="reference") -> int:
    return main(["generate", "--spec", str(spec), "--out", str(out), "--seed", "3",
                 "--n-train", "8", "--n-dev", "2", "--n-test", "3"])


def train(root, ckpt_dir, config, *extra) -> int:
    return main(["train", "--manifest", str(root / "corpus" / "train.jsonl"), "--config", config,
                 "--ckpt-dir", str(root / ckpt_dir), "--seed", "1", *extra])


def tree(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny corpus and a model trained on it for two epochs."""
    root = tmp_path_factory.mktemp("cli")
    assert generate(root / "corpus") == 0
    assert train(root, "full", write_config(root / "config.json")) == 0
    return root


def test_decode_prints_the_eval_hypothesis(run, capsys):
    capsys.readouterr()
    manifest, ckpt = run / "corpus" / "test.jsonl", run / "full" / "final.ckpt"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
    entries = {e["utt_id"]: e for e in map(json.loads, manifest.read_text().splitlines())}
    for record in records:
        entry = entries[record["utt_id"]]
        code = main(["decode", "--ckpt", str(ckpt),
                     "--audio", str(run / "corpus" / entry["audio"]),
                     "--visual", str(run / "corpus" / entry["visual"])])
        assert code == 0
        assert capsys.readouterr().out.split() == record["hyp"].split()
    assert len(records) == 3


# What the ``run`` fixture's training and its scoring of test.jsonl print. A change
# that moves the arithmetic on purpose records them anew and says so in CHANGES.md.
GOLDEN_EPOCHS = [
    {"epoch": 1, "l_att": 18.07146973841051, "l_ctc": 55.926276641267165,
     "l_aux": [1.0013516578742516], "dev_wer": None},
    {"epoch": 2, "l_att": 16.02864248749691, "l_ctc": 42.900810496568525,
     "l_aux": [1.0073253945449185], "dev_wer": None},
]
LOOPING_HYP = "sea sea sea sea read" + " teal" * 27
GOLDEN_CKPT_SHA256 = "74235a931c0675a78c5f790f89d3bc65367b2c3997f6cf3c2a6c36b8d6fe4761"
GOLDEN_EVAL = {
    "audiovisual": [
        {"hom_correct": 0, "hom_slots": 1, "hyp": LOOPING_HYP, "hyp_ctc": "green sea sea",
         "ref": "red blue gray gold", "score": -50.28984855917088, "utt_id": "utt00010",
         "wer": 8.0},
        {"hom_correct": 0, "hom_slots": 2, "hyp": LOOPING_HYP,
         "hyp_ctc": "see green see green gray pink gray", "ref": "see red pink gray",
         "score": -49.81254971811458, "utt_id": "utt00011", "wer": 8.0},
        {"hom_correct": 1, "hom_slots": 1, "hyp": "sea sea sea sea",
         "hyp_ctc": "moss see green see pink", "ref": "moss moss sea pink pink",
         "score": -7.9350801615708075, "utt_id": "utt00012", "wer": 0.8},
        {"corpus": {"ctc_wer": 0.8461538461538461, "hom_accuracy": 0.25, "hom_correct": 1,
                    "hom_slots": 4, "mode": "audiovisual", "subset_wer": 5.230769230769231,
                    "utterances": 3, "wer": 5.230769230769231}},
    ],
    "audio_only": [
        {"hom_correct": 0, "hom_slots": 1,
         "hyp": "sea " * 9 + "green read" + " see" * 15, "hyp_ctc": "green sea",
         "ref": "red blue gray gold", "score": -56.98203736473895, "utt_id": "utt00010",
         "wer": 6.5},
        {"hom_correct": 0, "hom_slots": 2,
         "hyp": "sea sea sea black black sea sea sea" + " black" * 10
                + " sea sea sea black black black" + " sea" * 8,
         "hyp_ctc": "see green see green gray pink gray", "ref": "see red pink gray",
         "score": -53.67719963347712, "utt_id": "utt00011", "wer": 8.0},
        {"hom_correct": 1, "hom_slots": 1,
         "hyp": "sea " * 9 + "black black black sea sea sea black black black sea sea sea "
                "black black black" + " sea" * 8,
         "hyp_ctc": "moss see green see green see pink", "ref": "moss moss sea pink pink",
         "score": -50.387025059783745, "utt_id": "utt00012", "wer": 6.2},
        {"corpus": {"ctc_wer": 1.0, "hom_accuracy": 0.25, "hom_correct": 1, "hom_slots": 4,
                    "mode": "audio_only", "subset_wer": 6.846153846153846, "utterances": 3,
                    "wer": 6.846153846153846}},
    ],
}


def assert_golden(got, want):
    """Equal in structure, strings and ints; floats to rel 1e-9, as bench/reference.json."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_golden(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_golden(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9)
    else:
        assert got == want


def test_golden_run_reproduces_the_recorded_losses_and_outputs(run, capsys):
    lines = (run / "full" / "metrics.jsonl").read_text().splitlines()
    assert_golden([json.loads(line) for line in lines], GOLDEN_EPOCHS)
    manifest, ckpt = run / "corpus" / "test.jsonl", run / "full" / "final.ckpt"
    for mode, extra in [("audiovisual", []), ("audio_only", ["--audio-only"])]:
        capsys.readouterr()
        assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt), *extra]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert_golden(printed, GOLDEN_EVAL[mode])
    for entry, record in zip(map(json.loads, manifest.read_text().splitlines()),
                             GOLDEN_EVAL["audiovisual"]):
        assert main(["decode", "--ckpt", str(ckpt),
                     "--audio", str(run / "corpus" / entry["audio"]),
                     "--visual", str(run / "corpus" / entry["visual"])]) == 0
        assert capsys.readouterr().out == record["hyp"] + "\n"
    # The same bits, not only the same values to rel 1e-9: a last-bit change in the
    # training arithmetic passes the comparisons above and fails this. Measured with
    # numpy 2.4.6 and OpenBLAS 0.3.31 at 1 and 2 BLAS threads; another numpy or BLAS
    # may round differently, and then the comparisons above tell a real change
    # from a rounding one.
    assert sha256(ckpt.read_bytes()) == GOLDEN_CKPT_SHA256


def test_config_that_is_not_json_exits_2(run):
    bad = run / "not_json.json"
    bad.write_text("{epochs: 2")
    assert train(run, "not_json", str(bad)) == 2


def run_reader(run, tmp_path, reader: str, text: str | None) -> int:
    """Exit code of the command that parses ``text`` as the ``reader`` file, which is
    not there if ``text`` is None."""
    path = tmp_path / f"{reader}.json"
    if reader == "checkpoint" and text is not None:  # the header, under a valid checksum
        header = text.encode()
        path.write_bytes(b"%s %d %d\n" % (MAGIC, len(header), zlib.crc32(header)) + header)
    elif text is not None:
        path.write_text(text + "\n")
    if reader == "config":
        return train(run, tmp_path / "ckpt", str(path))
    if reader == "spec":
        return generate(tmp_path / "out", spec=path)
    if reader == "train-manifest":  # a fresh run: no task spec is there either
        return main(["train", "--manifest", str(path), "--config", str(run / "config.json"),
                     "--ckpt-dir", str(tmp_path / "ckpt"), "--seed", "1"])
    manifest = run / "corpus" / "test.jsonl"
    if reader == "checkpoint":
        return main(["eval", "--manifest", str(manifest), "--ckpt", str(path)])
    return main(["eval", "--manifest", str(path), "--ckpt", str(run / "full" / "final.ckpt")])


READERS = [("config", 2), ("spec", 3), ("manifest", 3), ("checkpoint", 3)]

# json.loads keeps the last of two equal keys: this config trained 50 epochs.
REPEATED_KEY = {
    "config": '{"train": {"epochs": 5, "epochs": 50}}',
    "spec": '{"vocab": ["a"], "vocab": ["b"]}',
    "manifest": '{"utt_id": "u0", "utt_id": "u1", "audio": "a.f64", "visual": "none", '
                '"transcript": "red"}',
    "checkpoint": '{"config": {}, "config": {}, "layout": [], "sections": []}',
}


@pytest.mark.parametrize("reader, code", READERS, ids=[r for r, _ in READERS])
def test_json_key_named_twice_is_refused(run, tmp_path, capsys, reader, code):
    capsys.readouterr()
    assert run_reader(run, tmp_path, reader, REPEATED_KEY[reader]) == code
    assert "appears twice" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{reader}.json"]


@pytest.mark.parametrize("reader, code", READERS, ids=[r for r, _ in READERS])
def test_json_nested_too_deep_is_refused(run, tmp_path, capsys, reader, code):
    # json.loads raises RecursionError; a --config file of this exited 1 with a traceback.
    capsys.readouterr()
    assert run_reader(run, tmp_path, reader, "[" * 200_000 + "]" * 200_000) == code
    assert "nesting too deep to parse" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{reader}.json"]


@pytest.mark.parametrize("reader", [r for r, _ in READERS] + ["train-manifest"])
def test_file_that_is_not_there_exits_3(run, tmp_path, capsys, reader):
    capsys.readouterr()
    assert run_reader(run, tmp_path, reader, None) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not found: {tmp_path / f'{reader}.json'}" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_manifest_it_cannot_read_exits_3(run, tmp_path, capsys, kind):
    # Both escaped as a traceback (UnicodeDecodeError, IsADirectoryError), exit 1.
    manifest = tmp_path / "test.jsonl"
    if kind == "directory":
        manifest.mkdir()
    else:
        manifest.write_bytes(b'{"utt_id": "caf\xe9"}\n')
    ckpt = run / "full" / "final.ckpt"
    capsys.readouterr()
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    assert str(manifest) in capsys.readouterr().err


# Each is refused before training starts. The error message quotes the
# offending name, or says what a config file must hold.
REJECTED_CONFIGS = {
    "JSON object": [TINY],
    "trian": {"trian": {"epochs": 1}},
    "hiden": {"model": {"hiden": 3}},
    "seed": {"train": {"seed": 5}},
    "audio_only": {"train": {"audio_only": True}},
    "vocab_size": {"model": {"vocab_size": 16}},
    "visual_dim": {"model": {"visual_dim": 16}},
    "moe": {"model": {"moe": None}},
    "hidden": {"moe": {"hidden": 64}},
    "ffn_hidden": {"moe": {"ffn_hidden": 256}},
    "max_decode_len": {"train": {"max_decode_len": 64}},
    "sos_id": {"model": {"sos_id": 7}},
    "activation": {"model": {"activation": "silu"}},
    "renormalize_topk": {"moe": {"renormalize_topk": True}},
    "macaron_scale": {"model": {"macaron_scale": 0.5}},
    "alpha": {"train": {"alpha": 0.3}},
    "beta": {"train": {"beta": 0.01}},
    "adam_beta1": {"train": {"adam_beta1": 0.9}},
    "adam_beta2": {"train": {"adam_beta2": 0.999}},
    "adam_eps": {"train": {"adam_eps": 1e-8}},
}


@pytest.mark.parametrize("name", sorted(REJECTED_CONFIGS))
def test_config_that_sets_what_it_cannot_exits_2(run, name, capsys):
    # Each case has its own directory, so a config that wrongly trains fails only its own case.
    ckpt_dir = f"rejected-{name}"
    path = run / f"{ckpt_dir}.json"
    path.write_text(json.dumps(REJECTED_CONFIGS[name]))
    assert train(run, ckpt_dir, str(path)) == 2
    assert (name if name == "JSON object" else repr(name)) in capsys.readouterr().err
    assert not (run / ckpt_dir / "metrics.jsonl").exists()


def test_settable_surface_is_pinned(tmp_path):
    # A new flag, config key or task-spec field must update these lists.
    commands = _build_parser()._subparsers._group_actions[0].choices
    flags = {name: {opt for action in parser._actions for opt in action.option_strings}
             - {"-h", "--help"} for name, parser in commands.items()}
    assert flags == {
        "generate": {"--spec", "--out", "--seed", "--n-train", "--n-dev", "--n-test"},
        "train": {"--manifest", "--config", "--ckpt-dir", "--seed", "--audio-only",
                  "--dev-manifest", "--resume"},
        "eval": {"--manifest", "--ckpt", "--audio-only"},
        "decode": {"--ckpt", "--audio", "--visual"},
    }
    assert {f.name for f in dataclasses.fields(SyntheticTaskSpec)} == {
        "vocab", "homophone_groups", "tone_map", "visual_codes", "visual_slots", "visual_dim",
        "symbol_duration_ms", "noise_std", "amplitude", "sample_rate", "min_words", "max_words",
    }
    probes = {f.name: 1 if f.default is dataclasses.MISSING else f.default
              for cls in (ModelConfig, MoEConfig, TrainConfig) for f in dataclasses.fields(cls)}
    probes.update(blank_id=0, sos_id=1, eos_id=2, pad_id=3, max_decode_len=32,  # removed
                  activation="silu", renormalize_topk=True, macaron_scale=0.5, alpha=0.3,
                  beta=0.01, adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8)
    accepted = {}
    path = tmp_path / "probe.json"
    for section in ("model", "moe", "train"):
        accepted[section] = set()
        for key, value in probes.items():
            path.write_text(json.dumps({section: {key: value}}))
            try:
                _build_train_configs(argparse.Namespace(config=str(path), seed=1, audio_only=False))
            except ConfigError:
                continue
            accepted[section].add(key)
    assert accepted == {
        "model": {"hidden", "heads", "d_ff", "encoder_blocks", "decoder_blocks", "n_mels",
                  "stack_factor"},
        "moe": {"num_experts", "top_k"},
        "train": {"epochs", "batch_size", "lr", "warmup_steps"},
    }


def test_checkpoint_with_bad_magic_exits_3(run):
    ckpt = run / "bad_magic.ckpt"
    ckpt.write_bytes(b"EVACKPT0\n" + (run / "full" / "final.ckpt").read_bytes()[9:])
    manifest = run / "corpus" / "test.jsonl"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3


def test_checkpoint_of_the_previous_format_exits_3(run, capsys):
    header = b'{"config":{},"tensors":[]}'  # an empty EVACKPT3 file
    ckpt = run / "evackpt3.ckpt"
    ckpt.write_bytes(b"EVACKPT3 %d %d\n" % (len(header), zlib.crc32(header)) + header)
    manifest = run / "corpus" / "test.jsonl"
    capsys.readouterr()
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    assert "bad magic b'EVACKPT3'; this reader understands EVACKPT4 only" in capsys.readouterr().err


REMOVED_FIELDS = [("model", "blank_id", 0), ("model", "activation", "silu"),
                  ("model", "macaron_scale", 0.5), ("moe", "renormalize_topk", True),
                  ("train", "alpha", 0.3)]


@pytest.mark.parametrize("section, key, value", REMOVED_FIELDS,
                         ids=[f"{section}.{key}" for section, key, _ in REMOVED_FIELDS])
def test_checkpoint_naming_a_removed_field_exits_3(run, section, key, value, capsys):
    # What a checkpoint from before the special ids, the macaron scale, the loss
    # weights and the Adam constants became constants, or from before the
    # activation and raw top-k settings were removed, holds. ``eval`` reads the
    # model section and the vocabulary only, so only ``--resume`` reads a
    # ``train`` key, and ``eval`` still scores that checkpoint.
    saved = load_checkpoint(run / "full" / "final.ckpt")
    model = {**saved.config["model"], "moe": {**saved.config["model"]["moe"]}}
    config = {**saved.config, "model": model, "train": {**saved.config["train"]}}
    {"model": model, "moe": model["moe"], "train": config["train"]}[section][key] = value
    ckpt = run / "old_fields.ckpt"
    save_checkpoint(ckpt, config, saved.read())
    manifest = run / "corpus" / "test.jsonl"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == (
        0 if section == "train" else 3)
    capsys.readouterr()
    assert train(run, "old_fields", write_config(run / "config.json"),
                 "--resume", str(ckpt)) == 3
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "decode"])
def test_checkpoint_whose_vocabulary_contradicts_its_vocab_size_exits_3(run, command, capsys):
    # One word short of the model's output ids, under a valid checksum: before
    # this was refused, decode printed words off by one and eval blamed a
    # manifest word.
    saved = load_checkpoint(run / "full" / "final.ckpt")
    ckpt = run / "short_vocab.ckpt"
    save_checkpoint(ckpt, {**saved.config, "vocab": saved.config["vocab"][1:]}, saved.read())
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    capsys.readouterr()
    if command == "eval":
        code = main(["eval", "--manifest", str(run / "corpus" / "test.jsonl"), "--ckpt", str(ckpt)])
    else:
        code = main(["decode", "--ckpt", str(ckpt), "--audio", str(run / "corpus" / entry["audio"]),
                     "--visual", str(run / "corpus" / entry["visual"])])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{len(saved.config['vocab']) - 1} words and 4 reserved ids do not make the model's " \
           f"vocab_size {saved.config['model']['vocab_size']}" in captured.err


REFERENCE_VOCAB = reference_task_spec().vocab


@pytest.mark.parametrize("section, key, value", [
    ("train", "batch_size", 0), ("train", "lr", "fast"), ("model", "heads", 3),
    ("model", "moe", {"num_experts": 2, "top_k": 1, "hidden": 16, "ffn_hidden": 16}),
    (None, "step", -5), (None, "epochs_done", 1.0), (None, "vocab", "ab"),
    (None, "vocab", REFERENCE_VOCAB[:-1] + REFERENCE_VOCAB[:1]),
    (None, "rng", {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1},
                   "has_uint32": 0, "uinteger": 0}),
], ids=["train.batch_size-0", "train.lr-string", "model.heads-3", "model.moe-other-width",
        "step-negative", "epochs_done-float", "vocab-string", "vocab-repeated-word",
        "rng-negative-state"])
def test_checkpoint_with_a_bad_config_value_exits_3(run, section, key, value, capsys):
    # The header checksum is valid, so only the checks of the restored values can
    # refuse these, and they must do so before the first step.
    saved = load_checkpoint(run / "full" / "final.ckpt")
    config = {**saved.config}
    if section is None:
        config[key] = value
    else:
        config[section] = {**config[section], key: value}
    ckpt = run / "bad_value.ckpt"
    save_checkpoint(ckpt, config, saved.read())
    capsys.readouterr()
    assert train(run, "bad_value", write_config(run / "config.json"),
                 "--resume", str(ckpt)) == 3
    assert f"data error: {ckpt}: " in capsys.readouterr().err
    assert not (run / "bad_value" / "metrics.jsonl").exists()


@pytest.mark.parametrize("field, value", [("transcript", 5), ("transcript", ["a"]), ("visual", 5)],
                         ids=["transcript-int", "transcript-list", "visual-int"])
def test_manifest_field_of_the_wrong_type_exits_3(run, field, value, capsys):
    # One record of the test manifest, its file paths made relative to ``run``.
    record = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    record.update(audio=f"corpus/{record['audio']}", visual=f"corpus/{record['visual']}")
    manifest = run / "wrong_type.jsonl"
    manifest.write_text(json.dumps({**record, field: value}) + "\n")
    capsys.readouterr()
    ckpt = run / "full" / "final.ckpt"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert f"{manifest}:1:" in err and f"ManifestEntry.{field}" in err


@pytest.mark.parametrize("audio", [
    {"words": ["red"], "noise_seed": 1},
    {"words": 5, "noise_seed": 1}, {"words": ["red"], "noise_seed": "x"},
    {"words": ["red"], "noise_seed": -1}, {"words": ["red"], "noise_seed": True},
], ids=["words-and-seed", "words-int", "seed-str", "seed-negative", "seed-bool"])
def test_inline_audio_of_the_wrong_type_exits_3(run, tmp_path, audio, capsys):
    # An inline synthesis record, well-formed or not, is refused: audio is a file path.
    manifest = tmp_path / "test.jsonl"
    record = {"utt_id": "u0", "audio": audio, "visual": "none", "transcript": "red"}
    manifest.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    ckpt = run / "full" / "final.ckpt"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{manifest}:1: bad manifest record (ManifestEntry.audio must be of type str" \
        in captured.err


@pytest.mark.parametrize("flag, kind", [
    ("--ckpt", "missing"), ("--ckpt", "directory"), ("--audio", "missing"), ("--audio", "directory"),
    ("--visual", "missing"), ("--visual", "directory"),
])
def test_decode_of_a_path_it_cannot_read_exits_3(run, flag, kind, capsys):
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    paths = {"--ckpt": run / "full" / "final.ckpt", "--audio": run / "corpus" / entry["audio"],
             "--visual": run / "corpus" / entry["visual"]}
    paths[flag] = run / "corpus" if kind == "directory" else run / "no_such_file"
    argv = ["decode"] + [str(a) for pair in paths.items() for a in pair]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and str(paths[flag]) in captured.err


@pytest.mark.parametrize("channels, width, reason", [
    (2, 2, "expected mono 16-bit PCM, got 2 channel(s) at 2 byte(s)"),
    (1, 1, "expected mono 16-bit PCM, got 1 channel(s) at 1 byte(s)"),
    (None, None, "not a readable WAV file (not a WAVE file)"),
], ids=["stereo", "8-bit", "riff-not-wave"])
def test_wav_it_cannot_decode_exits_3(run, tmp_path, channels, width, reason, capsys):
    audio = tmp_path / "speech.wav"
    if channels is None:  # a RIFF file of another kind: the sniffer sends it to the WAV reader
        audio.write_bytes(b"RIFF\x04\x00\x00\x00AVI ")
    else:
        with wave.open(str(audio), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(width)
            wf.setframerate(16000)
            wf.writeframes(bytes(channels * width * 4000))
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(run / "full" / "final.ckpt"), "--audio", str(audio),
                 "--visual", str(run / "corpus" / entry["visual"])]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"data error: {audio}: {reason}" in captured.err


@pytest.mark.parametrize("command", ["decode", "eval"])
def test_visual_file_of_the_wrong_width_exits_3(run, tmp_path, command, capsys):
    # The model's visual_dim is 16; this file has 7 columns. It exited 2 as a
    # config error, though only the data is wrong.
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    audio, visual = str(run / "corpus" / entry["audio"]), str(tmp_path / "wide.vemb")
    save_visual_embeddings(visual, np.zeros((4, 7)))
    ckpt = str(run / "full" / "final.ckpt")
    capsys.readouterr()
    if command == "decode":
        argv = ["decode", "--ckpt", ckpt, "--audio", audio, "--visual", visual]
    else:
        manifest = tmp_path / "test.jsonl"
        manifest.write_text(json.dumps({**entry, "audio": audio, "visual": visual}) + "\n")
        argv = ["eval", "--manifest", str(manifest), "--ckpt", ckpt]
    assert main(argv) == 3
    assert "data error: visual width mismatch: embeddings (4, 7)" in capsys.readouterr().err


def test_decode_of_a_checkpoint_with_a_flipped_model_byte_exits_3(run, capsys):
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    ckpt = run / "flipped.ckpt"
    ckpt.write_bytes((run / "full" / "final.ckpt").read_bytes())
    name = flip_byte_in_tensor(ckpt, "model")
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(ckpt), "--audio", str(run / "corpus" / entry["audio"]),
                 "--visual", str(run / "corpus" / entry["visual"])]) == 3
    assert f"checksum failure for tensor '{name}' in section 'model'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing-visual", "empty", "blank-lines"])
def test_manifest_naming_a_missing_file_or_no_record_exits_3(run, tmp_path, case, capsys):
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    gone = tmp_path / "gone.vemb"
    record = {**entry, "audio": str(run / "corpus" / entry["audio"]), "visual": str(gone)}
    text, reason = {"missing-visual": (json.dumps(record) + "\n", f"1: missing visual file {gone}"),
                    "empty": ("", " manifest is empty"),
                    "blank-lines": ("\n \n", " manifest is empty")}[case]
    manifest = tmp_path / "test.jsonl"
    manifest.write_text(text)
    capsys.readouterr()
    ckpt = run / "full" / "final.ckpt"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"data error: {manifest}:{reason}" in captured.err


def test_fresh_run_without_a_task_spec_exits_2(run, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(run / "corpus", corpus)
    (corpus / "task_spec.json").unlink()
    capsys.readouterr()
    assert train(tmp_path, "ckpt", write_config(tmp_path / "config.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: task_spec.json not found next to the manifest" in captured.err
    assert not (tmp_path / "ckpt").exists()


def test_spec_that_is_not_utf8_exits_3(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b"\xff\xfe")
    assert generate(tmp_path / "out", spec=spec) == 3


def test_spec_naming_the_removed_seed_field_exits_3(run, tmp_path, capsys):
    # What a task spec written before its unused ``seed`` field was removed holds.
    corpus = tmp_path / "corpus"
    shutil.copytree(run / "corpus", corpus)
    spec = json.loads((corpus / "task_spec.json").read_text())
    (corpus / "task_spec.json").write_text(json.dumps({**spec, "seed": 101}))
    capsys.readouterr()
    assert generate(tmp_path / "out", spec=corpus / "task_spec.json") == 3
    assert train(tmp_path, "ckpt", write_config(tmp_path / "config.json")) == 3
    assert capsys.readouterr().err.count("unexpected keyword argument 'seed'") == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "ckpt").exists()


def reference_spec(**fields) -> dict:
    return {**json.loads(reference_task_spec().to_json()), **fields}


TONES, CODES = reference_spec()["tone_map"], reference_spec()["visual_codes"]

# A spec or a flag that ``avmoe generate`` refuses (argparse keeps the last of a
# repeated flag), and what the error says.
GENERATE_REFUSALS = {
    "empty-vocab": (reference_spec(vocab=[]), [], "vocabulary is empty"),
    "repeated-word": (reference_spec(vocab=REFERENCE_VOCAB + ["red"]), [],
                      "vocabulary contains duplicate words"),
    "group-word-without-a-tone": (
        reference_spec(tone_map={w: t for w, t in TONES.items() if w != "read"}), [],
        "no tone or visual code for ['read']"),
    "groups-sharing-a-word": (reference_spec(homophone_groups=[["red", "read"], ["read", "sea"]]),
                              [], "homophone groups must be disjoint"),
    "group-of-two-tones": (reference_spec(tone_map={**TONES, "read": TONES["sea"]}), [],
                           "group ['red', 'read'] must share one tone"),
    "group-sharing-a-code": (reference_spec(visual_codes={**CODES, "read": CODES["red"]}), [],
                             "group ['red', 'read'] members need distinct visual codes"),
    "tone-of-another-word": (reference_spec(tone_map={**TONES, "blue": TONES["red"]}), [],
                             "of 'blue' collides with group:red"),
    # 12 one-word transcripts for 13 utterances.
    "too-few-transcripts": (reference_spec(min_words=1, max_words=1), [],
                            "could not draw 13 distinct transcripts"),
    "no-homophones": (reference_spec(homophone_groups=[], vocab=REFERENCE_VOCAB[4:]), [],
                      "cannot reach 30% homophone coverage"),
    "empty-split": (reference_spec(), ["--n-dev", "0"], "all split sizes must be >= 1"),
    "negative-seed": (reference_spec(), ["--seed", "-1"], "corpus seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(GENERATE_REFUSALS))
def test_generate_refusal_exits_2(tmp_path, case, capsys):
    spec, flags, reason = GENERATE_REFUSALS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "out"), "--seed", "3",
                 "--n-train", "8", "--n-dev", "2", "--n-test", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_exits_4(run):
    # Eight utterances at batch 4: the first step's update overflows the
    # weights, and the second step's loss is not finite.
    assert train(run, "overflow", write_config(run / "overflow.json", lr=1e300)) == 4


def test_resume_is_bit_identical_to_an_uninterrupted_run(run):
    assert train(run, "first", write_config(run / "one_epoch.json", epochs=1)) == 0
    resumed = ["--resume", str(run / "first" / "final.ckpt")]
    assert train(run, "resumed", write_config(run / "config.json"), *resumed) == 0
    final = (run / "full" / "final.ckpt").read_bytes()
    assert (run / "resumed" / "final.ckpt").read_bytes() == final


def test_run_saves_once_per_epoch_into_one_file(run, monkeypatch, capsys):
    saves = []

    def counting_save(path, *args):
        saves.append(path.name)
        real_save(path, *args)

    real_save = avtrain.save_train_state
    monkeypatch.setattr(avtrain, "save_train_state", counting_save)
    capsys.readouterr()
    assert train(run, "counted", write_config(run / "three_epochs.json", epochs=3)) == 0
    assert capsys.readouterr().out == f"final checkpoint: {run / 'counted' / 'final.ckpt'}\n"
    assert saves == ["final.ckpt"] * 3
    assert sorted(p.name for p in (run / "counted").iterdir()) == ["final.ckpt", "metrics.jsonl"]
    assert load_checkpoint(run / "counted" / "final.ckpt").config["epochs_done"] == 3


def test_dev_wer_of_the_last_epoch_is_the_eval_wer(run, capsys):
    def dev_wers(ckpt_dir) -> list:
        lines = (run / ckpt_dir / "metrics.jsonl").read_text().splitlines()
        return [json.loads(line)["dev_wer"] for line in lines]

    dev = run / "corpus" / "dev.jsonl"
    assert train(run, "dev", write_config(run / "config.json"), "--dev-manifest", str(dev)) == 0
    assert [type(w) for w in dev_wers("dev")] == [float, float]
    capsys.readouterr()
    assert main(["eval", "--manifest", str(dev), "--ckpt", str(run / "dev" / "final.ckpt")]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["corpus"]
    assert dev_wers("dev")[-1] == summary["wer"]
    assert dev_wers("full") == [None, None]  # trained without --dev-manifest


def logged_epochs(ckpt_dir) -> list[int]:
    lines = (ckpt_dir / "metrics.jsonl").read_text().splitlines()
    return [json.loads(line)["epoch"] for line in lines]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fresh_run_into_a_used_directory_logs_only_its_own_epochs(run):
    config = write_config(run / "config.json")
    assert train(run, "twice", config) == 0
    assert train(run, "twice", config) == 0
    assert logged_epochs(run / "twice") == [1, 2]
    final = (run / "full" / "final.ckpt").read_bytes()
    assert (run / "twice" / "final.ckpt").read_bytes() == final
    # A run that stops before its first save leaves the last run's two files.
    assert train(run, "twice", write_config(run / "overflow.json", lr=1e300)) == 4
    assert logged_epochs(run / "twice") == [1, 2]
    assert (run / "twice" / "final.ckpt").read_bytes() == final


def test_run_stopped_in_a_save_resumes_bit_identically(run, monkeypatch):
    # Epoch 2's save fails after its first write: the disk is full.
    config = write_config(run / "config.json")
    opened = fill_disk_at_open(monkeypatch, 2)
    with pytest.raises(OSError, match="No space left"):
        train(run, "stopped", config)
    monkeypatch.undo()
    stopped = run / "stopped"
    assert opened == ["final.ckpt.tmp"] * 2
    assert load_checkpoint(stopped / "final.ckpt").config["epochs_done"] == 1
    assert sorted(p.name for p in stopped.iterdir()) == ["final.ckpt", "metrics.jsonl"]
    assert logged_epochs(stopped) == [1]
    assert train(run, "stopped", config, "--resume", str(stopped / "final.ckpt")) == 0
    assert logged_epochs(stopped) == [1, 2]
    assert (stopped / "final.ckpt").read_bytes() == (run / "full" / "final.ckpt").read_bytes()


def test_resume_with_nothing_to_train_exits_2(run, capsys):
    ckpt = run / "full" / "final.ckpt"
    before = ckpt.read_bytes()
    capsys.readouterr()
    assert train(run, "nothing", write_config(run / "config.json"), "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert "holds 2 epoch(s) and train.epochs is 2" in err
    assert not (run / "nothing").exists()
    assert ckpt.read_bytes() == before


# Settings that a resume of the one-epoch run would ignore: each differs from the
# checkpoint's. ``--seed`` is given on every run, and 1 is the checkpoint's.
IGNORED_ON_RESUME = {
    "model.hidden": ({"model": {**TINY["model"], "hidden": 32}}, ()),
    "moe.num_experts": ({"moe": {"num_experts": 4, "top_k": 1}}, ()),
    "moe": ({"moe": None}, ()),
    "train.lr": ({"train": {"epochs": 2, "lr": 0.5}}, ()),
    "train.seed": ({"train": {"epochs": 2}}, ("--seed", "77")),
    "train.audio_only": ({"train": {"epochs": 2}}, ("--audio-only",)),
}


@pytest.mark.parametrize("setting", sorted(IGNORED_ON_RESUME))
def test_resume_that_would_ignore_a_setting_exits_2(run, setting, capsys):
    ckpt = run / "resumable" / "final.ckpt"
    if not ckpt.exists():
        assert train(run, "resumable", write_config(run / "one_epoch.json", epochs=1)) == 0
    config, flags = IGNORED_ON_RESUME[setting]
    path = run / "ignored.json"
    path.write_text(json.dumps(config))
    before = tree(run / "resumable")
    capsys.readouterr()
    # argparse keeps the last --seed given.
    assert train(run, "resumable", str(path), "--resume", str(ckpt), *flags) == 2
    err = capsys.readouterr().err
    assert f"config error: a resumed run takes its settings from {ckpt}: {setting} is " in err
    assert err.count(" is ") == 1  # the one setting that differs, and only it
    assert tree(run / "resumable") == before


def test_resume_into_another_runs_directory_exits_2(run, capsys):
    assert train(run, "short", write_config(run / "one_epoch.json", epochs=1)) == 0
    resumed = ["--resume", str(run / "short" / "final.ckpt")]
    orphan = run / "orphan"  # another run's log, without its checkpoint
    orphan.mkdir()
    shutil.copy(run / "full" / "metrics.jsonl", orphan)
    for ckpt_dir in ("full", "orphan"):
        before = tree(run / ckpt_dir)
        capsys.readouterr()
        assert train(run, ckpt_dir, write_config(run / "config.json"), *resumed) == 2
        assert "holds another run" in capsys.readouterr().err
        assert tree(run / ckpt_dir) == before
    assert sorted(tree(run / "full")) == ["final.ckpt", "metrics.jsonl"]


# The sha256 of that corpus's files, each path and a zero byte ahead of its bytes, in path order.
CORPUS_SHA256 = "49cb4088aa652a29b60da5f818dcd89c873f71606c503ee40452f2c1e1a13e2d"


def test_generate_pins_the_corpus_of_a_spec_short_of_homophones(tmp_path):
    # Ten one-word transcripts drawn at seed 4 hold fewer than three homophone
    # words, so generate redraws until they do: this pins that loop's output.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(reference_spec(min_words=1, max_words=1)))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out"), "--seed", "4",
                 "--n-train", "8", "--n-dev", "1", "--n-test", "1"]) == 0
    files = tree(tmp_path / "out")
    digest = sha256(b"".join(name.encode() + b"\0" + files[name] for name in sorted(files)))
    assert digest == CORPUS_SHA256


def test_generate_is_byte_identical_on_repeat(run):
    # The repeat reads the task spec from the first corpus's task_spec.json.
    again = run / "again"
    assert generate(again, spec=run / "corpus" / "task_spec.json") == 0
    assert tree(again) == tree(run / "corpus")


# Values a JSON config or spec field might hold: wrong types, booleans where
# ints belong, non-finite numbers, and in- and out-of-range numbers.
FUZZ_VALUES = [-1, 0, 1, 2, 3, 0.5, 1.5, "x", "", None, True, False, [], {}, [1], ["a"],
               {"a": 1.0}, float("nan"), float("inf"), "relu"]


def test_config_value_fuzz_never_exits_1(run):
    # Each case sets one key of the tiny config to a random value: training
    # runs (exit 0) or the config is refused (exit 2), never a traceback.
    rng = np.random.default_rng(90)
    keys = [(section, key) for section, values in TINY.items() for key in values]
    keys += [("model", "stack_factor")]
    codes = []
    for case in range(100):
        section, key = keys[int(rng.integers(len(keys)))]
        value = FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
        config = {name: dict(values) for name, values in TINY.items()}
        config["train"]["epochs"] = 1
        config[section][key] = value
        path = run / "fuzz.json"
        path.write_text(json.dumps(config))
        code = train(run, f"fuzz{case}", str(path))
        assert code in (0, 2), (section, key, value, code)
        codes.append(code)
    assert codes.count(0) >= 10 and codes.count(2) >= 10


def spec_mutation(spec: dict, rng) -> dict:
    """The spec with one field, or one element of a list or dict field, replaced."""
    spec = json.loads(json.dumps(spec))
    key = sorted(spec)[int(rng.integers(len(spec)))]
    value = FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
    field = spec[key]
    if isinstance(field, (list, dict)) and field and rng.integers(2):
        inner = list(field)[int(rng.integers(len(field)))] if isinstance(field, dict) else \
            int(rng.integers(len(field)))
        if isinstance(field[inner], list) and field[inner] and rng.integers(2):
            field[inner][int(rng.integers(len(field[inner])))] = value
        else:
            field[inner] = value
    else:
        spec[key] = value
    return spec


def test_spec_value_fuzz_never_exits_1(tmp_path):
    # Exit 0 (corpus written), 2 (spec refused) or 3 (spec unreadable).
    base = json.loads(reference_task_spec().to_json())
    rng = np.random.default_rng(91)
    codes = []
    for case in range(150):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_mutation(base, rng)))
        code = main(["generate", "--spec", str(path), "--out", str(tmp_path / f"out{case}"),
                     "--seed", "3", "--n-train", "2", "--n-dev", "1", "--n-test", "1"])
        assert code in (0, 2, 3), (path.read_text(), code)
        codes.append(code)
    assert codes.count(0) >= 10 and codes.count(2) >= 10
