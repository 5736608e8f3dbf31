"""Command-line interface: generate / train / eval / decode.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (NaN or overflow detected).

Each setting of ``avmoe train`` has one home. Hyperparameters come from the
``--config`` JSON object (``default`` for all defaults), whose sections and
keys are all optional; ``"moe": null`` trains a dense model:

    {"model": {"hidden", "heads", "d_ff", "encoder_blocks", "decoder_blocks",
               "n_mels", "stack_factor"},
     "moe": {"num_experts", "top_k"},
     "train": {"epochs", "batch_size", "lr", "warmup_steps"}}

Any other section or key is a configuration error, and so is a key repeated
in one object or nesting too deep to parse (the task spec, the manifest
records and a checkpoint's header refuse these two as data errors). Run
settings are the flags ``--seed`` and ``--audio-only``. The task spec fixes
the vocabulary size and the visual width; the MoE widths are the model's
``hidden`` and ``d_ff``. These are constants: the special ids and the
macaron scale (``ModelConfig``), the loss weights ``alpha`` and ``beta`` and
Adam's ``adam_beta1``, ``adam_beta2`` and ``adam_eps`` (``TrainConfig``), and
the decode cap (``decoding.MAX_DECODE_LEN``). A resumed run takes every
setting from its checkpoint except ``train.epochs``: any other key that the
``--config`` file sets, ``--seed``, and a given ``--audio-only`` that differ
from the checkpoint's values are a configuration error, before any epoch.

A run writes two files to ``--ckpt-dir``: ``final.ckpt``, replaced at each
epoch end so that it holds the last complete epoch, and ``metrics.jsonl``,
one record per saved epoch (a fresh run starts it anew, ``--resume`` appends).
``--resume`` from a checkpoint that already holds ``train.epochs`` epochs has
nothing to train and is a configuration error, and so is a ``--resume`` into a
``--ckpt-dir`` that holds another run's files.

``avmoe eval --manifest --ckpt [--audio-only]`` prints one JSON record per
utterance, then the corpus summary. With the task spec next to the manifest,
each record counts its homophone slots, and the summary gives their accuracy
and ``subset_wer``, the WER of the utterances that hold one.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import ConfigError, DataError, NumericError, open_input
from .fields import parse_json
from .frontend import log_mel_from_waveform, read_waveform
from .fusion import load_visual_embeddings
from .decoding import transcribe
from .model import ModelConfig
from .moe import MoEConfig
from .synth import generate_corpus, read_task_spec, reference_task_spec
from .train import TrainConfig, evaluate, restore_model, train
from .checkpoint import load_checkpoint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avmoe",
        description="Desk-scale audiovisual speech recognition with a "
        "mixture-of-experts encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize an audiovisual corpus")
    gen.add_argument("--spec", required=True,
                     help="task spec JSON file, or 'reference' for the built-in task")
    gen.add_argument("--out", required=True, help="output corpus directory")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n-train", type=int, default=500)
    gen.add_argument("--n-dev", type=int, default=50)
    gen.add_argument("--n-test", type=int, default=100)

    tr = sub.add_parser("train", help="train a model on a manifest")
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--config", required=True,
                    help="JSON config file, or 'default' for desk-scale defaults")
    tr.add_argument("--ckpt-dir", required=True)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--audio-only", action="store_true")
    tr.add_argument("--dev-manifest", default=None,
                    help="optional manifest for per-epoch dev WER")
    tr.add_argument("--resume", default=None,
                    help="checkpoint to continue from; every setting comes from it "
                    "except train.epochs, and a setting given here must equal its own")

    ev = sub.add_parser("eval", help="score a manifest with a checkpoint")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--audio-only", action="store_true")

    dec = sub.add_parser("decode", help="transcribe one utterance")
    dec.add_argument("--ckpt", required=True)
    dec.add_argument("--audio", required=True, help="WAV or F64LE audio file")
    dec.add_argument("--visual", required=True, help="VEMB file, or 'none'")
    return parser


def _cmd_generate(args) -> int:
    spec = reference_task_spec() if args.spec == "reference" else read_task_spec(args.spec)
    manifests = generate_corpus(
        spec, args.n_train, args.n_dev, args.n_test, args.out, seed=args.seed
    )
    for split, path in manifests.items():
        print(f"{split}: {path}")
    return 0


def _build_train_configs(args) -> tuple[ModelConfig, TrainConfig, list[str]]:
    """The run's configs, and the settings that its config file and flags name."""
    sections: dict = {}
    if args.config != "default":
        with open_input(args.config, "config file") as f:
            blob = f.read()
        try:
            sections = parse_json(blob)
        except ValueError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
        if not isinstance(sections, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(sections) - {"model", "moe", "train"})
    if unknown:
        raise ConfigError(f"unknown config section(s) {unknown}; known: model, moe, train")
    # Values that a flag or the data sets are passed here, so a config file
    # that sets one fails as a repeated keyword, which TypeError names.
    try:
        train_cfg = TrainConfig(seed=args.seed, audio_only=args.audio_only,
                                **sections.get("train", {}))
        # train() fills in vocab_size and visual_dim from the task spec.
        model_cfg = ModelConfig(vocab_size=0, visual_dim=0, moe=None,
                                **sections.get("model", {}))
        moe = sections.get("moe", {})
        if moe is not None:
            model_cfg.moe = MoEConfig(hidden=model_cfg.hidden, ffn_hidden=model_cfg.d_ff, **moe)
    except TypeError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    chosen = {"train.seed"} | ({"train.audio_only"} if args.audio_only else set())
    for name, section in sections.items():
        chosen |= {name} if section is None else {f"{name}.{key}" for key in section}
    return model_cfg, train_cfg, sorted(chosen - {"train.epochs"})


def _cmd_train(args) -> int:
    model_cfg, train_cfg, chosen = _build_train_configs(args)
    final = train(
        args.manifest,
        model_cfg,
        train_cfg,
        args.ckpt_dir,
        dev_manifest_path=args.dev_manifest,
        resume_from=args.resume,
        chosen=chosen,
    )
    print(f"final checkpoint: {final}")
    return 0


def _cmd_eval(args) -> int:
    summary, records = evaluate(args.manifest, args.ckpt, audio_only=args.audio_only)
    for record in records:
        print(json.dumps(record, sort_keys=True))
    print(json.dumps({"corpus": summary}, sort_keys=True))
    return 0


def _cmd_decode(args) -> int:
    model, vocab = restore_model(load_checkpoint(args.ckpt))
    wave = read_waveform(args.audio)
    mel = log_mel_from_waveform(wave, n_mels=model.cfg.n_mels)
    visual = None if args.visual == "none" else load_visual_embeddings(args.visual)
    hyp, _ = transcribe(model, mel, visual)
    print(" ".join(vocab.decode(hyp.token_ids)))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "decode": _cmd_decode,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
