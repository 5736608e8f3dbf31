"""The command line end to end: exit codes, decode against eval, resume, corpus determinism."""

import json

import pytest

from avmoe.cli import main

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
    finished = 0
    for record in records:
        entry = entries[record["utt_id"]]
        code = main(["decode", "--ckpt", str(ckpt),
                     "--audio", str(run / "corpus" / entry["audio"]),
                     "--visual", str(run / "corpus" / entry["visual"])])
        assert code == 0
        hyp, decoded = record["hyp"].split(), capsys.readouterr().out.split()
        # eval stops at 32 tokens and decode at 64; below the cap both stop at eos.
        if len(hyp) < 32:
            assert decoded == hyp
            finished += 1
        else:
            assert decoded[: len(hyp)] == hyp
    assert finished >= 1


def test_config_that_is_not_json_exits_2(run):
    bad = run / "not_json.json"
    bad.write_text("{epochs: 2")
    assert train(run, "not_json", str(bad)) == 2


def test_checkpoint_with_bad_magic_exits_3(run):
    ckpt = run / "bad_magic.ckpt"
    ckpt.write_bytes(b"EVACKPT0\n" + (run / "full" / "final.ckpt").read_bytes()[9:])
    manifest = run / "corpus" / "test.jsonl"
    assert main(["eval", "--manifest", str(manifest), "--ckpt", str(ckpt)]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_exits_4(run):
    # Eight utterances at batch 4: the first step's update overflows the
    # weights, and the second step's loss is not finite.
    assert train(run, "overflow", write_config(run / "overflow.json", lr=1e300)) == 4


def test_resume_is_bit_identical_to_an_uninterrupted_run(run):
    assert train(run, "first", write_config(run / "one_epoch.json", epochs=1)) == 0
    resumed = ["--resume", str(run / "first" / "final.ckpt")]
    assert train(run, "resumed", write_config(run / "config.json"), *resumed) == 0
    for name in ("epoch002.ckpt", "final.ckpt"):
        assert (run / "resumed" / name).read_bytes() == (run / "full" / name).read_bytes()


def test_generate_is_byte_identical_on_repeat(run):
    # The repeat reads the task spec from the first corpus's task_spec.json.
    again = run / "again"
    assert generate(again, spec=run / "corpus" / "task_spec.json") == 0
    assert tree(again) == tree(run / "corpus")
