"""Greedy CTC decoding against the per-frame loop it replaces."""

import math

import numpy as np

from avmoe.decoding import collapse_ctc_path, ctc_greedy_decode
from avmoe.tensor import Tensor


def loop_ctc_greedy(logits: np.ndarray, blank_id: int):
    """One log-softmax, argmax and score term per frame, in Python."""
    score = 0.0
    path = []
    for row in logits:
        shifted = row - row.max()
        log_probs = shifted - np.log(np.exp(shifted).sum())
        best = int(np.argmax(log_probs))
        path.append(best)
        score += float(log_probs[best])
    return collapse_ctc_path(path, blank_id), score


def test_matches_per_frame_loop():
    rng = np.random.default_rng(0)
    for trial in range(50):
        frames, vocab = int(rng.integers(1, 60)), int(rng.integers(2, 12))
        logits = rng.normal(scale=3.0, size=(frames, vocab))
        # Long runs of one label and of blanks exercise the collapse.
        logits[rng.random(frames) < 0.4, trial % vocab] += 10.0
        hyp = ctc_greedy_decode(Tensor(logits), blank_id=0)
        ids, score = loop_ctc_greedy(logits, 0)
        assert hyp.token_ids == ids
        assert math.isclose(hyp.score, score, rel_tol=1e-12)


def test_hand_case():
    # Frame argmaxes 1 1 0 1 2 2 0 collapse to [1, 1, 2].
    logits = np.full((7, 3), -5.0)
    for t, v in enumerate([1, 1, 0, 1, 2, 2, 0]):
        logits[t, v] = 5.0
    hyp = ctc_greedy_decode(logits, blank_id=0)
    assert hyp.token_ids == [1, 1, 2]
    # Each frame picks a logit 10 above the other two.
    assert math.isclose(hyp.score, -7.0 * np.log1p(2.0 * np.exp(-10.0)), rel_tol=1e-12)
