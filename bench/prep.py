"""Train the deployed model with the fixed recipe in ``harness.PREP_RECIPE``.

Runs in its own process, so that neither set-up time nor peak memory of the
measured process includes it. Training is driven as ``avmoe.train.train``
drives it: ``run_epoch``, then ``save_train_state`` at each epoch end.

    python3 bench/prep.py --out DIR

writes ``DIR/prep.json`` with the loss terms of each epoch and the path of
the deployed checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np
from harness import PREP_RECIPE, avtrain, make_corpus_flat, model_config, reference_vocab

from avmoe.model import Model
from avmoe.optim import Adam


def l_total(log: dict, cfg: avtrain.TrainConfig) -> float:
    """Epoch mean of the training objective, from ``run_epoch``'s per-term means."""
    return log["l_att"] + cfg.alpha * log["l_ctc"] + cfg.beta * float(np.mean(log["l_aux"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    recipe = PREP_RECIPE

    manifest = make_corpus_flat(out / "corpus", recipe["utterances"], recipe["corpus_seed"])
    vocab = reference_vocab()
    cfg = avtrain.TrainConfig(
        seed=recipe["model_seed"],
        batch_size=recipe["batch_size"],
        lr=recipe["lr"],
        warmup_steps=recipe["warmup_steps"],
        epochs=recipe["epochs"],
    )
    data = avtrain.load_dataset(manifest, vocab)
    model = Model(model_config(vocab.size), np.random.default_rng(cfg.seed))
    optimizer = Adam(
        model.named_parameters(), lr=cfg.lr,
        beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps,
    )
    state = avtrain.TrainState(model=model, optimizer=optimizer, rng=np.random.default_rng(cfg.seed))

    epochs = []
    ckpt = None
    while state.epochs_done < cfg.epochs:
        log = avtrain.run_epoch(state, data, cfg)
        state.epochs_done += 1
        if ckpt is not None:
            ckpt.unlink()
        ckpt = out / f"epoch{state.epochs_done:03d}.ckpt"
        avtrain.save_train_state(ckpt, state, vocab, cfg)
        epochs.append({**log, "l_total": l_total(log, cfg)})

    result = {"checkpoint": ckpt.name, "epochs": epochs}  # relative to DIR
    (out / "prep.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
