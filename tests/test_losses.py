"""CTC loss against brute-force path enumeration, its gradient, and its input checks."""

import itertools

import numpy as np
import pytest

from avmoe.errors import CtcInfeasibleError, DataError
from avmoe.losses import ctc_loss, min_frames_for
from avmoe.tensor import Tensor

from helpers import check_grad

BLANK = 0


def collapse(path, blank):
    """Merge adjacent repeats, then drop blanks."""
    merged = [token for i, token in enumerate(path) if i == 0 or token != path[i - 1]]
    return [token for token in merged if token != blank]


def brute_force_nll(logits: np.ndarray, target: list[int]) -> float:
    """-log of the summed probability of every frame path that collapses to target."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    frames, vocab = logits.shape
    total = 0.0
    for path in itertools.product(range(vocab), repeat=frames):
        if collapse(path, BLANK) == target:
            total += np.exp(sum(log_probs[t, v] for t, v in enumerate(path)))
    return -np.log(total)


def random_case(rng):
    """A feasible (logits, target) pair with T <= 6 and V <= 4."""
    vocab = int(rng.integers(2, 5))
    frames = int(rng.integers(1, 7))
    while True:
        length = int(rng.integers(1, frames + 1))
        target = [int(v) for v in rng.integers(1, vocab, size=length)]
        if min_frames_for(target) <= frames:
            return rng.normal(scale=2.0, size=(frames, vocab)), target


class TestCtcOracle:
    def test_random_lattices_match_enumeration(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            logits, target = random_case(rng)
            got = ctc_loss(Tensor(logits), target, blank_id=BLANK).item()
            np.testing.assert_allclose(got, brute_force_nll(logits, target), rtol=1e-12)

    @pytest.mark.parametrize(
        "target, frames",
        [
            ([1, 1], 3),  # repeated label at its minimum: a blank must separate them
            ([1, 1], 6),
            ([2, 1, 1, 3], 5),  # T == min_frames_for(target)
            ([3, 2], 2),
            ([2], 1),  # one frame
            ([1], 6),
        ],
    )
    def test_hand_picked_lattices_match_enumeration(self, target, frames):
        assert frames >= min_frames_for(target)
        logits = np.random.default_rng(frames).normal(size=(frames, 4))
        got = ctc_loss(Tensor(logits), target, blank_id=BLANK).item()
        np.testing.assert_allclose(got, brute_force_nll(logits, target), rtol=1e-12)

    def test_blank_id_other_than_zero(self):
        logits = np.random.default_rng(21).normal(size=(5, 4))
        # Relabel so that id 3 plays the blank: swap columns 0 and 3.
        swapped = logits[:, [3, 1, 2, 0]]
        want = ctc_loss(Tensor(logits), [1, 2, 2], blank_id=0).item()
        got = ctc_loss(Tensor(swapped), [1, 2, 2], blank_id=3).item()
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestCtcGradient:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for target, frames in (([1, 2, 2], 6), ([3], 1), ([2, 1, 3, 1], 9)):
            x = Tensor(rng.normal(size=(frames, 4)), requires_grad=True)
            check_grad(lambda: ctc_loss(x, target, blank_id=BLANK), [x], tol=1e-6)


class TestCtcInputChecks:
    def test_empty_target(self):
        with pytest.raises(DataError, match="non-empty"):
            ctc_loss(Tensor(np.zeros((3, 4))), [])

    def test_blank_in_target(self):
        with pytest.raises(DataError, match="blank"):
            ctc_loss(Tensor(np.zeros((3, 4))), [1, 0, 2])

    def test_id_out_of_range(self):
        for target in ([1, 4], [-1]):
            with pytest.raises(DataError, match="out of range"):
                ctc_loss(Tensor(np.zeros((3, 4))), target)

    def test_infeasible_target(self):
        # [1, 1] needs a separating blank: 3 frames.
        with pytest.raises(CtcInfeasibleError, match="at least 3 frames"):
            ctc_loss(Tensor(np.zeros((2, 4))), [1, 1])
