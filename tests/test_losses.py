"""Both training objectives: the attention loss against a per-row numpy NLL and CTC
against brute-force path enumeration, their gradients and input checks, and each
loss node against the graph nodes it replaced."""

import itertools

import numpy as np
import pytest

from avmoe.errors import CtcInfeasibleError, DataError
from avmoe.losses import _ctc_alpha, attention_loss, ctc_loss, extended_labels, min_frames_for
from avmoe.tensor import LOG_ZERO, Tensor, _record, tsum

from helpers import check_grad, log_softmax_rows, neg, reshape, take_along_cols

BLANK = 0


def numpy_nll(logits: np.ndarray, targets: list[int]) -> float:
    """Summed -log softmax(row)[target] over the rows, one row at a time."""
    return sum(float(np.logaddexp.reduce(row) - row[t]) for row, t in zip(logits, targets))


def attention_loss_of_nodes(logits: Tensor, targets: list[int]) -> Tensor:
    """The attention loss as the five nodes it was before it became one: log-softmax,
    column gather, reshape, sum and negation."""
    ids = np.asarray(targets, dtype=np.int64)
    picked = take_along_cols(log_softmax_rows(logits), ids[:, None])
    return neg(tsum(reshape(picked, (ids.shape[0],))))


def lattice_node(log_probs: Tensor, targets, frames, blank_id: int) -> Tensor:
    """The CTC node as it was when it sat on a separate log-softmax node: its parent
    is the log-probabilities, and its backward ends at their gradient, ``-g * occupancy``."""
    rows, vocab = log_probs.shape
    counts = np.asarray(frames, dtype=np.int64)
    batch = len(targets)
    states = np.asarray([2 * len(t) + 1 for t in targets])
    ext = np.full((batch, states.max()), blank_id, dtype=np.int64)
    for b, target in enumerate(targets):
        ext[b, : states[b]] = extended_labels(target, blank_id)
    t_pos, s_pos = np.arange(counts.max()), np.arange(states.max())
    valid = (t_pos[None, :, None] < counts[:, None, None]) & (s_pos < states[:, None])[:, None]
    frame_row = (np.cumsum(counts) - counts)[:, None] + np.minimum(t_pos, counts[:, None] - 1)
    lattice = np.where(valid, log_probs.data[frame_row[:, :, None], ext[:, None, :]], LOG_ZERO)
    alpha = _ctc_alpha(lattice, ext, blank_id)
    end = (np.arange(batch), counts - 1)
    log_like = np.logaddexp(alpha[(*end, states - 2)], alpha[(*end, states - 1)])

    def backward(g):
        t_rev = np.where(t_pos < counts[:, None], counts[:, None] - 1 - t_pos, t_pos)
        s_rev = np.where(s_pos < states[:, None], states[:, None] - 1 - s_pos, s_pos)
        flip = (np.arange(batch)[:, None, None], t_rev[:, :, None], s_rev[:, None, :])
        ext_rev = np.take_along_axis(ext, s_rev, axis=1)
        beta = _ctc_alpha(lattice[flip], ext_rev, blank_id)[flip]
        posterior = np.exp(alpha + beta - lattice - log_like[:, None, None])[valid]
        cell = frame_row[:, :, None] * vocab + ext[:, None, :]
        occupancy = np.bincount(cell[valid], weights=posterior, minlength=rows * vocab)
        return (-g * occupancy.reshape(rows, vocab),)

    return _record(np.asarray(-log_like.sum()), (log_probs,), backward)


def value_and_logits_grad(loss_fn, logits: np.ndarray, scale: float):
    """A loss's value, and the gradient on its logits of ``scale`` times the loss."""
    x = Tensor(logits, requires_grad=True)
    loss = loss_fn(x)
    (loss * scale).backward()
    return loss.data, x.grad


class TestAttentionLoss:
    @pytest.mark.parametrize("rows, vocab", [(1, 5), (6, 2), (1, 2), (23, 9)])
    def test_matches_per_row_nll(self, rows, vocab):
        rng = np.random.default_rng(rows * 10 + vocab)
        for _ in range(10):
            logits = rng.normal(scale=3.0, size=(rows, vocab))
            targets = [int(t) for t in rng.integers(0, vocab, size=rows)]
            got = attention_loss(Tensor(logits), targets).item()
            np.testing.assert_allclose(got, numpy_nll(logits, targets), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        for rows, vocab in ((1, 2), (5, 4), (9, 7)):
            x = Tensor(rng.normal(scale=2.0, size=(rows, vocab)), requires_grad=True)
            targets = [int(t) for t in rng.integers(0, vocab, size=rows)]
            check_grad(lambda: attention_loss(x, targets), [x], tol=1e-6)

    def test_target_count_must_match_the_rows(self):
        for targets in ([1, 2], [1, 2, 3, 0]):
            with pytest.raises(DataError, match="targets for 3 decoder positions"):
                attention_loss(Tensor(np.zeros((3, 4))), targets)

    @pytest.mark.parametrize("bad", [-1, 4, 9])
    def test_target_id_out_of_range(self, bad):
        with pytest.raises(DataError, match="out of range for vocab 4"):
            attention_loss(Tensor(np.zeros((3, 4))), [1, bad, 2])


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


class TestLossNodesAreBitIdenticalToTheNodesTheyReplaced:
    """Each objective is one node on its logits. On a packed batch of 3 utterances
    its value and its logits gradient are the same bits as those of the nodes it
    replaced, at a unit and at a non-unit upstream gradient."""

    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_attention_loss(self, scale):
        rng = np.random.default_rng(80)
        lengths, vocab = [4, 1, 6], 7  # target positions of the 3 utterances, packed
        logits = rng.normal(scale=3.0, size=(sum(lengths), vocab))
        targets = [int(t) for t in rng.integers(0, vocab, size=sum(lengths))]
        got = value_and_logits_grad(lambda x: attention_loss(x, targets), logits, scale)
        want = value_and_logits_grad(lambda x: attention_loss_of_nodes(x, targets), logits, scale)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_ctc_loss(self, scale):
        rng = np.random.default_rng(81)
        targets, frames = [[2, 2, 5], [1], [3, 4, 1, 4]], [7, 2, 9]
        logits = rng.normal(scale=2.0, size=(sum(frames), 6))
        got = value_and_logits_grad(
            lambda x: ctc_loss(x, targets, frames, blank_id=BLANK), logits, scale
        )
        want = value_and_logits_grad(
            lambda x: lattice_node(log_softmax_rows(x), targets, frames, BLANK), logits, scale
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
