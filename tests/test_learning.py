"""The model learns: at toy scale, the visual channel resolves homophones that
audio alone cannot.

Two words of the toy task share one tone, so their audio is identical and only
their visual codes tell them apart. A model trained and scored with the visual
rows must name them far more often than one trained and scored on audio only,
which can do no better than guess within the pair. This is EVA's claim
(arXiv 2409.12370) in the one form this corpus tests, run end to end through
``generate_corpus``, ``train`` and ``evaluate``.
"""

import numpy as np

from avmoe.model import ModelConfig
from avmoe.moe import MoEConfig
from avmoe.synth import SyntheticTaskSpec, generate_corpus
from avmoe.train import TrainConfig, evaluate, train

# Fixed before the test's result was seen. Each bound has a margin past the
# worst of 12 other corpus seeds (100-111), whose range is in the comment.
CORPUS_SEED = 7
AV_MIN = 0.70  # 0.833-1.000
AUDIO_ONLY_MAX = 0.75  # 0.261-0.591; guessing within the pair gives 0.5
GAP_MIN = 0.25  # 0.381-0.739

# train() takes vocab_size and visual_dim from the task spec.
MODEL = ModelConfig(
    vocab_size=0, visual_dim=0, hidden=24, heads=2, d_ff=48, encoder_blocks=1,
    decoder_blocks=1, n_mels=20, moe=MoEConfig(num_experts=4, top_k=2, hidden=24, ffn_hidden=48),
)


def toy_spec() -> SyntheticTaskSpec:
    """Seven words with one homophone pair; 150 ms tones at 8 kHz, 2 to 3 words."""
    pair = ["red", "read"]
    others = ["blue", "green", "gold", "pink", "teal"]
    tones = [float(t) for t in np.geomspace(300.0, 2400.0, 6)]
    tone_map = {"red": tones[0], "read": tones[0], **dict(zip(others, tones[1:]))}
    basis, _ = np.linalg.qr(np.random.default_rng(101).normal(size=(8, 2)))
    codes = {word: [float(v) for v in basis[:, i]] for i, word in enumerate(pair)}
    return SyntheticTaskSpec(
        vocab=pair + others, homophone_groups=[pair], tone_map=tone_map, visual_codes=codes,
        visual_slots=2, visual_dim=8, symbol_duration_ms=150.0, sample_rate=8000,
        min_words=2, max_words=3,
    )


def homophone_accuracies(root, corpus_seed: int) -> tuple[float, float]:
    """Homophone-slot accuracy on 40 test utterances of a model trained on 128
    with the visual rows, and of one trained and scored without them."""
    manifests = generate_corpus(toy_spec(), 128, 1, 40, root / "corpus", seed=corpus_seed)
    accuracies = []
    for audio_only in (False, True):
        cfg = TrainConfig(epochs=20, batch_size=8, lr=3e-3, warmup_steps=5, audio_only=audio_only)
        ckpt = train(manifests["train"], MODEL, cfg, root / ("audio_only" if audio_only else "av"))
        summary, _ = evaluate(manifests["test"], ckpt, audio_only=audio_only)
        accuracies.append(summary["hom_accuracy"])
    return accuracies[0], accuracies[1]


def test_visual_rows_resolve_the_homophones(tmp_path):
    av, audio_only = homophone_accuracies(tmp_path, CORPUS_SEED)
    assert av >= AV_MIN
    assert audio_only <= AUDIO_ONLY_MAX
    assert av - audio_only >= GAP_MIN
