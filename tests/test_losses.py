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
    return random_case_with_vocab(rng, int(rng.integers(2, 5)))


def random_case_with_vocab(rng, vocab):
    """A feasible (logits, target) pair with T <= 6 over ``vocab`` labels."""
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
            got = ctc_loss(Tensor(logits), [target], [len(logits)], blank_id=BLANK).item()
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
        got = ctc_loss(Tensor(logits), [target], [len(logits)], blank_id=BLANK).item()
        np.testing.assert_allclose(got, brute_force_nll(logits, target), rtol=1e-12)

    def test_blank_id_other_than_zero(self):
        logits = np.random.default_rng(21).normal(size=(5, 4))
        # Relabel so that id 3 plays the blank: swap columns 0 and 3.
        swapped = logits[:, [3, 1, 2, 0]]
        want = ctc_loss(Tensor(logits), [[1, 2, 2]], [5], blank_id=0).item()
        got = ctc_loss(Tensor(swapped), [[1, 2, 2]], [5], blank_id=3).item()
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestCtcGradient:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for target, frames in (([1, 2, 2], 6), ([3], 1), ([2, 1, 3, 1], 9)):
            x = Tensor(rng.normal(size=(frames, 4)), requires_grad=True)
            check_grad(lambda: ctc_loss(x, [target], [frames], blank_id=BLANK), [x], tol=1e-6)


class TestCtcInputChecks:
    def test_empty_target(self):
        with pytest.raises(DataError, match="non-empty"):
            ctc_loss(Tensor(np.zeros((3, 4))), [[]], [3])

    def test_blank_in_target(self):
        with pytest.raises(DataError, match="blank"):
            ctc_loss(Tensor(np.zeros((3, 4))), [[1, 0, 2]], [3])

    def test_id_out_of_range(self):
        for target in ([1, 4], [-1]):
            with pytest.raises(DataError, match="out of range"):
                ctc_loss(Tensor(np.zeros((3, 4))), [target], [3])

    def test_infeasible_target(self):
        # [1, 1] needs a separating blank: 3 frames.
        with pytest.raises(CtcInfeasibleError, match="at least 3 frames"):
            ctc_loss(Tensor(np.zeros((2, 4))), [[1, 1]], [2])


class TestBatchedCtc:
    @pytest.mark.parametrize("seed", range(6))
    def test_ragged_batch_matches_each_lattice(self, seed):
        # Up to four lattices with their own T and S; some have fewer frames
        # than the batch's longest blank-extended target has states.
        rng = np.random.default_rng(60 + seed)
        vocab = 4
        cases = [random_case_with_vocab(rng, vocab) for _ in range(int(rng.integers(2, 5)))]
        logits = np.concatenate([c[0] for c in cases])
        targets = [c[1] for c in cases]
        frames = [c[0].shape[0] for c in cases]
        x = Tensor(logits, requires_grad=True)
        loss = ctc_loss(x, targets, blank_id=BLANK, frames=frames)
        loss.backward()

        want_loss, want_grad = 0.0, []
        for case_logits, target in cases:
            xb = Tensor(case_logits, requires_grad=True)
            lb = ctc_loss(xb, [target], [len(case_logits)], blank_id=BLANK)
            lb.backward()
            np.testing.assert_allclose(lb.item(), brute_force_nll(case_logits, target), rtol=1e-12)
            want_loss += lb.item()
            want_grad.append(xb.grad)
        np.testing.assert_allclose(loss.item(), want_loss, rtol=1e-13)
        # Each lattice's gradient rows are computed exactly as on their own.
        np.testing.assert_array_equal(x.grad, np.concatenate(want_grad))

    def test_short_utterance_next_to_a_long_target(self):
        # T = 2 for [3] while [1, 1, 2] pads the states to S_max = 7.
        rng = np.random.default_rng(70)
        logits = rng.normal(size=(2 + 6, 4))
        targets, frames = [[3], [1, 1, 2]], [2, 6]
        got = ctc_loss(Tensor(logits), targets, blank_id=BLANK, frames=frames).item()
        want = brute_force_nll(logits[:2], [3]) + brute_force_nll(logits[2:], [1, 1, 2])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(71)
        x = Tensor(rng.normal(size=(3 + 5, 4)), requires_grad=True)
        check_grad(
            lambda: ctc_loss(x, [[2], [1, 3, 3]], blank_id=BLANK, frames=[3, 5]), [x], tol=1e-6
        )

    def test_infeasible_target_names_its_place_in_the_batch(self):
        with pytest.raises(CtcInfeasibleError, match="at least 3 frames") as info:
            ctc_loss(Tensor(np.zeros((6, 4))), [[1], [2, 2]], frames=[4, 2])
        assert info.value.index == 1

    @pytest.mark.parametrize(
        "targets, frames",
        [
            ([[1]], [3]),  # 3 of 4 rows
            ([[1], [1]], [2, 3]),  # 5 of 4 rows
            ([[1], [1]], [4, 0]),  # an utterance without frames
            ([[1]], [2, 2]),  # more counts than targets
        ],
    )
    def test_frame_counts_must_split_the_rows(self, targets, frames):
        with pytest.raises(DataError, match="frame counts"):
            ctc_loss(Tensor(np.zeros((4, 4))), targets, frames=frames)
