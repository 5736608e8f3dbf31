"""Command-line interface: generate / train / eval / decode.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (NaN or overflow detected).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import AvmoeError, ConfigError, DataError, NumericError
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
    gen.add_argument("--audio-only", action="store_true",
                     help="write manifests with visual='none'")

    tr = sub.add_parser("train", help="train a model on a manifest")
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--config", required=True,
                    help="JSON config file, or 'default' for desk-scale defaults")
    tr.add_argument("--ckpt-dir", required=True)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--alpha", type=float, default=None)
    tr.add_argument("--beta", type=float, default=None)
    tr.add_argument("--experts", type=int, default=None)
    tr.add_argument("--top-k", type=int, default=None)
    tr.add_argument("--renorm-topk", choices=["true", "false"], default=None)
    tr.add_argument("--audio-only", action="store_true")
    tr.add_argument("--dev-manifest", default=None,
                    help="optional manifest for per-epoch dev WER")
    tr.add_argument("--resume", default=None, help="checkpoint to continue from")

    ev = sub.add_parser("eval", help="score a manifest with a checkpoint")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--audio-only", action="store_true")
    ev.add_argument("--subset", choices=["homophone"], default=None)

    dec = sub.add_parser("decode", help="transcribe one utterance")
    dec.add_argument("--ckpt", required=True)
    dec.add_argument("--audio", required=True, help="WAV or F64LE audio file")
    dec.add_argument("--visual", required=True, help="VEMB file, or 'none'")
    return parser


def _cmd_generate(args) -> int:
    spec = reference_task_spec() if args.spec == "reference" else read_task_spec(args.spec)
    manifests = generate_corpus(
        spec, args.n_train, args.n_dev, args.n_test, args.out,
        seed=args.seed, audio_only=args.audio_only,
    )
    for split, path in manifests.items():
        print(f"{split}: {path}")
    return 0


def _build_train_configs(args) -> tuple[ModelConfig | None, TrainConfig]:
    overrides: dict = {}
    if args.config != "default":
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"config file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc

    train_over = dict(overrides.get("train", {}))
    if args.alpha is not None:
        train_over["alpha"] = args.alpha
    if args.beta is not None:
        train_over["beta"] = args.beta
    train_cfg = TrainConfig(seed=args.seed, audio_only=args.audio_only, **train_over)

    if args.resume is not None:
        return None, train_cfg

    model_over = dict(overrides.get("model", {}))
    # "moe": null in the config file requests a dense model; any MoE flag on
    # the command line switches it back on.
    dense = "moe" in overrides and overrides["moe"] is None
    moe_over = {} if dense else dict(overrides.get("moe") or {})
    if args.experts is not None:
        moe_over["num_experts"] = args.experts
        dense = False
    if args.top_k is not None:
        moe_over["top_k"] = args.top_k
        dense = False
    if args.renorm_topk is not None:
        moe_over["renormalize_topk"] = args.renorm_topk == "true"
        dense = False
    # vocab_size is filled in from the task spec at train time
    model_cfg = ModelConfig(vocab_size=0, **model_over)
    if not dense:
        model_cfg.moe = MoEConfig(
            hidden=model_cfg.hidden, ffn_hidden=model_cfg.d_ff, **moe_over
        )
    return model_cfg, train_cfg


def _cmd_train(args) -> int:
    model_cfg, train_cfg = _build_train_configs(args)
    result = train(
        args.manifest,
        model_cfg,
        train_cfg,
        args.ckpt_dir,
        dev_manifest_path=args.dev_manifest,
        resume_from=args.resume,
    )
    print(f"final checkpoint: {result.final_checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    summary, records = evaluate(
        args.manifest, args.ckpt, audio_only=args.audio_only, subset=args.subset
    )
    for record in records:
        print(json.dumps(record, sort_keys=True))
    print(json.dumps({"corpus": summary}, sort_keys=True))
    return 0


def _cmd_decode(args) -> int:
    model, vocab = restore_model(load_checkpoint(args.ckpt))
    wave = read_waveform(args.audio)
    mel = log_mel_from_waveform(wave, n_mels=model.cfg.n_mels)
    visual = None if args.visual == "none" else load_visual_embeddings(args.visual)
    hyp, _ = transcribe(model, mel, visual, max_len=64)
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
    except AvmoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
