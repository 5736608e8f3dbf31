"""The command line end to end: exit codes, decode against eval, resume, corpus determinism,
and the settings that ``avmoe train`` accepts."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from avmoe import train as avtrain
from avmoe.checkpoint import load_checkpoint, save_checkpoint
from avmoe.cli import _build_parser, _build_train_configs, main
from avmoe.errors import ConfigError
from avmoe.model import ModelConfig
from avmoe.moe import MoEConfig
from avmoe.synth import reference_task_spec
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


def test_config_that_is_not_json_exits_2(run):
    bad = run / "not_json.json"
    bad.write_text("{epochs: 2")
    assert train(run, "not_json", str(bad)) == 2


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
}


@pytest.mark.parametrize("name", sorted(REJECTED_CONFIGS))
def test_config_that_sets_what_it_cannot_exits_2(run, name, capsys):
    path = run / "rejected.json"
    path.write_text(json.dumps(REJECTED_CONFIGS[name]))
    assert train(run, "rejected", str(path)) == 2
    assert (name if name == "JSON object" else repr(name)) in capsys.readouterr().err
    assert not (run / "rejected" / "metrics.jsonl").exists()


def test_settable_surface_is_pinned(tmp_path):
    # A new flag or config key must update these lists.
    train_parser = _build_parser()._subparsers._group_actions[0].choices["train"]
    flags = {opt for action in train_parser._actions for opt in action.option_strings}
    assert flags == {"-h", "--help", "--manifest", "--config", "--ckpt-dir", "--seed",
                     "--audio-only", "--dev-manifest", "--resume"}
    probes = {f.name: 1 if f.default is dataclasses.MISSING else f.default
              for cls in (ModelConfig, MoEConfig, TrainConfig) for f in dataclasses.fields(cls)}
    probes.update(blank_id=0, sos_id=1, eos_id=2, pad_id=3, max_decode_len=32,  # removed
                  activation="silu", renormalize_topk=True)
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
                  "stack_factor", "macaron_scale"},
        "moe": {"num_experts", "top_k"},
        "train": {"epochs", "batch_size", "lr", "warmup_steps", "alpha", "beta",
                  "adam_beta1", "adam_beta2", "adam_eps"},
    }


def test_checkpoint_with_bad_magic_exits_3(run):
    ckpt = run / "bad_magic.ckpt"
    ckpt.write_bytes(b"EVACKPT0\n" + (run / "full" / "final.ckpt").read_bytes()[9:])
    manifest = run / "corpus" / "test.jsonl"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3


@pytest.mark.parametrize("section, key, value", [
    ("model", "blank_id", 0), ("model", "activation", "silu"), ("moe", "renormalize_topk", True),
], ids=["model.blank_id", "model.activation", "moe.renormalize_topk"])
def test_checkpoint_naming_a_removed_field_exits_3(run, section, key, value):
    # What a checkpoint from before the special ids became constants, or from
    # before the activation and raw top-k settings were removed, holds.
    saved = load_checkpoint(run / "full" / "final.ckpt")
    model = {**saved.config["model"], "moe": {**saved.config["model"]["moe"]}}
    (model if section == "model" else model["moe"])[key] = value
    ckpt = run / "old_fields.ckpt"
    save_checkpoint(ckpt, {**saved.config, "model": model}, saved.read())
    manifest = run / "corpus" / "test.jsonl"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    assert train(run, "old_fields", write_config(run / "config.json"),
                 "--resume", str(ckpt)) == 3


@pytest.mark.parametrize("section, key, value", [
    ("train", "batch_size", 0), ("train", "lr", "fast"), ("model", "heads", 3),
    (None, "step", -5), (None, "epochs_done", 1.0), (None, "vocab", "ab"),
    (None, "rng", {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1},
                   "has_uint32": 0, "uinteger": 0}),
], ids=["train.batch_size-0", "train.lr-string", "model.heads-3", "step-negative",
        "epochs_done-float", "vocab-string", "rng-negative-state"])
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
    {"words": 5, "noise_seed": 1}, {"words": ["red"], "noise_seed": "x"},
    {"words": ["red"], "noise_seed": -1}, {"words": ["red"], "noise_seed": True},
], ids=["words-int", "seed-str", "seed-negative", "seed-bool"])
def test_inline_audio_of_the_wrong_type_exits_3(run, audio, capsys):
    corpus = run / "inline"
    corpus.mkdir(exist_ok=True)
    (corpus / "task_spec.json").write_bytes((run / "corpus" / "task_spec.json").read_bytes())
    manifest = corpus / "test.jsonl"
    record = {"utt_id": "u0", "audio": audio, "visual": "none", "transcript": "red"}
    manifest.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    ckpt = run / "full" / "final.ckpt"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3
    assert "u0: inline audio" in capsys.readouterr().err


@pytest.mark.parametrize("flag, kind", [
    ("--ckpt", "directory"), ("--audio", "missing"), ("--audio", "directory"),
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
    assert str(paths[flag]) in capsys.readouterr().err


def test_decode_of_a_checkpoint_with_a_flipped_model_byte_exits_3(run, capsys):
    entry = json.loads((run / "corpus" / "test.jsonl").read_text().splitlines()[0])
    ckpt = run / "flipped.ckpt"
    ckpt.write_bytes((run / "full" / "final.ckpt").read_bytes())
    name = flip_byte_in_tensor(ckpt, "model.")
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(ckpt), "--audio", str(run / "corpus" / entry["audio"]),
                 "--visual", str(run / "corpus" / entry["visual"])]) == 3
    assert f"checksum failure for tensor '{name}'" in capsys.readouterr().err


def test_spec_that_is_not_utf8_exits_3(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b"\xff\xfe")
    assert generate(tmp_path / "out", spec=spec) == 3


def test_spec_group_word_without_a_tone_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "vocab": ["a", "b"], "homophone_groups": [["a", "b"]], "tone_map": {"a": 300.0},
        "visual_codes": {"a": [1.0], "b": [0.0]}, "visual_dim": 1,
    }))
    assert generate(tmp_path / "out", spec=spec) == 2


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
    keys += [("model", k) for k in ("stack_factor", "macaron_scale")]
    keys += [("train", k) for k in ("alpha", "beta", "adam_beta1", "adam_beta2", "adam_eps")]
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
