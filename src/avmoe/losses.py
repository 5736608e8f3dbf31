"""Training objectives: attention cross-entropy, CTC, and their weighted total.

Each of the two objectives is one graph node whose parent is the logits. Its
forward takes ``tensor.log_softmax_rows_forward`` of the logit rows; its
backward forms the gradient ``G`` on those log-probabilities and replays the
log-softmax backward on it, ``G - exp(log_probs) * G.sum(axis=-1,
keepdims=True)``, as the separate log-softmax node did:

- attention: ``G`` is ``-g`` at each row's target id and 0 elsewhere;
- CTC: a numpy alpha-beta pass (recursion in ``ctc_loss``) gives the loss
  and ``G = -g * occupancy``, where ``occupancy[t, v]`` is the posterior
  weight of label v at frame t.

Reductions: a batch is packed (see ``model``), so both terms are sums over
all of its utterances: the attention term over every target position, the
CTC term over each utterance's alignments. One utterance is the batch of
one. The training harness divides the batch sums by the batch size only.
The balancing loss scores each MoE layer on its statistics over the whole
batch, and the layers' losses are averaged so the beta coefficient keeps
its meaning regardless of depth. ``batch_balance_losses`` merges
per-utterance statistics into the same batch statistics first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CtcInfeasibleError, DataError
from .moe import LoadStats, load_balance_loss
from .tensor import LOG_ZERO, Tensor, _record, log_softmax_rows_forward


@dataclass
class LossBundle:
    l_att: Tensor
    l_ctc: Tensor
    l_total: Tensor


def attention_loss(logits: Tensor, targets: list[int]) -> Tensor:
    """Summed negative log-likelihood of the targets, one per logit row (packed, no padding).

    One graph node on ``logits``: see the module docstring for its backward.
    """
    ids = np.asarray(targets, dtype=np.int64)
    if ids.shape[0] != logits.shape[0]:
        raise DataError(
            f"got {ids.shape[0]} targets for {logits.shape[0]} decoder positions"
        )
    if ids.min() < 0 or ids.max() >= logits.shape[1]:
        raise DataError(f"target id out of range for vocab {logits.shape[1]}")
    log_probs = log_softmax_rows_forward(logits.data)
    at_target = (np.arange(ids.shape[0]), ids)

    def backward(g):
        full = np.zeros_like(log_probs)
        np.add.at(full, at_target, -g)
        return (full - np.exp(log_probs) * full.sum(axis=-1, keepdims=True),)

    return _record(-np.asarray(log_probs[at_target].sum()), (logits,), backward)


def min_frames_for(target: list[int]) -> int:
    """Shortest frame count that can emit the target: length plus repeats."""
    repeats = sum(1 for i in range(1, len(target)) if target[i] == target[i - 1])
    return len(target) + repeats


def extended_labels(target: list[int], blank_id: int) -> list[int]:
    """Target interleaved with blanks: [b, y1, b, y2, ..., b]."""
    ext = [blank_id]
    for y in target:
        ext.append(y)
        ext.append(blank_id)
    return ext


def ctc_loss(
    frame_logits: Tensor,
    targets: list[list[int]],
    frames: Sequence[int],
    blank_id: int = 0,
) -> Tensor:
    """Summed negative log-probability of B targets, each under its own CTC lattice.

    ``frame_logits`` holds the frames of B utterances one after another,
    ``frames[b]`` of them for utterance b, and ``targets[b]`` is that
    utterance's label sequence.

    Alpha-beta forward-backward (Graves et al., 2006, section 4). With
    ``y[t, s]`` the log-probability at frame t of the label of state s of the
    blank-extended target, T frames and S states:

        alpha[0, s] = y[0, s] for s < 2, else log 0
        alpha[t, s] = y[t, s] + logsumexp(alpha[t-1, s], alpha[t-1, s-1],
                                          alpha[t-1, s-2] if skip[s])
        loss        = -logsumexp(alpha[T-1, S-2], alpha[T-1, S-1])

    where ``skip[s]`` holds for a label that differs from the label two states
    earlier. ``beta[t, s]``, the log-probability of the suffixes that leave
    state s at frame t (``y[t, s]`` included), is alpha of the lattice
    reversed in time and in state; the skip rule reads the same backwards
    because blanks and labels alternate. The B lattices are padded to the
    longest T and S with ``LOG_ZERO`` (which stands in for log 0, so no -inf
    is ever formed) and the recursion steps all of them at once; padding
    lies after each lattice in time and in state, so it never reaches a
    real state. The loss is one graph node on ``frame_logits``. Its gradient
    on the log-probabilities is ``go = -g * occupancy``, where
    ``occupancy[t, v]`` sums ``exp(alpha + beta - y + loss)`` over the states
    that carry label v, and the log-softmax backward maps it to the logits:
    ``go - exp(log_probs) * go.sum(axis=-1, keepdims=True)``. The occupancy
    rows sum to one, so in exact arithmetic this is ``g * (softmax -
    occupancy)``; it is not written so, because in floating point the rows
    sum to one only up to rounding.

    An infeasible target (more symbols plus required separating blanks than
    frames) raises instead of returning infinity: it means the data is bad.
    """
    rows, vocab = frame_logits.shape
    counts = np.asarray(frames, dtype=np.int64)
    if counts.shape != (len(targets),) or counts.sum() != rows or (counts < 1).any():
        raise DataError(
            f"CTC: frame counts {counts.tolist()} do not split {rows} frames "
            f"among {len(targets)} targets"
        )
    for b, (target, num_frames) in enumerate(zip(targets, counts)):
        if not target:
            raise DataError("CTC target must be non-empty")
        ids = np.asarray(target, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= vocab:
            raise DataError(f"CTC target id out of range for vocab {vocab}")
        if blank_id in target:
            raise DataError(f"CTC target must not contain the blank id {blank_id}")
        needed = min_frames_for(target)
        if num_frames < needed:
            raise CtcInfeasibleError(
                f"target of length {len(target)} needs at least {needed} frames, "
                f"got {num_frames}",
                index=b,
            )

    batch = len(targets)
    states = np.asarray([2 * len(t) + 1 for t in targets])
    ext = np.full((batch, states.max()), blank_id, dtype=np.int64)
    for b, target in enumerate(targets):
        ext[b, : states[b]] = extended_labels(target, blank_id)
    t_pos, s_pos = np.arange(counts.max()), np.arange(states.max())
    valid = (t_pos[None, :, None] < counts[:, None, None]) & (s_pos < states[:, None])[:, None]
    # Packed row of frame t of utterance b (clipped into the utterance past its end).
    frame_row = (np.cumsum(counts) - counts)[:, None] + np.minimum(t_pos, counts[:, None] - 1)

    log_probs = log_softmax_rows_forward(frame_logits.data)
    lattice = np.where(valid, log_probs[frame_row[:, :, None], ext[:, None, :]], LOG_ZERO)
    alpha = _ctc_alpha(lattice, ext, blank_id)
    end = (np.arange(batch), counts - 1)
    log_like = np.logaddexp(alpha[(*end, states - 2)], alpha[(*end, states - 1)])

    def backward(g):
        # Each lattice reversed in its own time and state range: an involution.
        t_rev = np.where(t_pos < counts[:, None], counts[:, None] - 1 - t_pos, t_pos)
        s_rev = np.where(s_pos < states[:, None], states[:, None] - 1 - s_pos, s_pos)
        flip = (np.arange(batch)[:, None, None], t_rev[:, :, None], s_rev[:, None, :])
        ext_rev = np.take_along_axis(ext, s_rev, axis=1)
        beta = _ctc_alpha(lattice[flip], ext_rev, blank_id)[flip]
        posterior = np.exp(alpha + beta - lattice - log_like[:, None, None])[valid]
        # Summed in (frame, state) order, the order the per-state sums of one
        # lattice would take.
        cell = frame_row[:, :, None] * vocab + ext[:, None, :]
        occupancy = np.bincount(cell[valid], weights=posterior, minlength=rows * vocab)
        go = -g * occupancy.reshape(rows, vocab)
        return (go - np.exp(log_probs) * go.sum(axis=-1, keepdims=True),)

    return _record(np.asarray(-log_like.sum()), (frame_logits,), backward)


def _ctc_alpha(lattice: np.ndarray, ext: np.ndarray, blank_id: int) -> np.ndarray:
    """Forward log-variables ``alpha[b, t, s]`` of B (frames, states) lattices.

    Two LOG_ZERO columns ahead of the first state make s-1 and s-2 slices.
    """
    skip = np.zeros(ext.shape, dtype=bool)
    skip[:, 2:] = (ext[:, 2:] != blank_id) & (ext[:, 2:] != ext[:, :-2])
    batch, num_frames, num_states = lattice.shape
    alpha = np.full((batch, num_frames, num_states + 2), LOG_ZERO)
    alpha[:, 0, 2:4] = lattice[:, 0, :2]
    for t in range(1, num_frames):
        prev = alpha[:, t - 1]
        step2 = np.where(skip, prev[:, :-2], LOG_ZERO)
        alpha[:, t, 2:] = (
            np.logaddexp(np.logaddexp(prev[:, 2:], prev[:, 1:-1]), step2) + lattice[:, t]
        )
    return alpha[:, :, 2:]


def total_loss(
    l_att: Tensor,
    l_ctc: Tensor,
    aux_per_layer: list[Tensor],
    alpha: float,
    beta: float,
) -> LossBundle:
    """Compose the weighted objective: att + alpha*ctc + beta*mean(aux)."""
    if aux_per_layer:
        l_aux = aux_per_layer[0]
        for extra in aux_per_layer[1:]:
            l_aux = l_aux + extra
        l_aux = l_aux * (1.0 / len(aux_per_layer))
    else:
        l_aux = Tensor(0.0)
    l_total = l_att + l_ctc * alpha + l_aux * beta
    return LossBundle(l_att=l_att, l_ctc=l_ctc, l_total=l_total)


def batch_balance_losses(per_layer_stats: list[list[LoadStats]], num_experts: int) -> list[Tensor]:
    """Merge per-utterance stats layer by layer and score each layer's balance.

    A packed batch has its statistics already; this is for losses taken one
    utterance at a time.
    """
    merged = [LoadStats.merge(layer_parts) for layer_parts in per_layer_stats]
    return [load_balance_loss(stats, num_experts) for stats in merged]
