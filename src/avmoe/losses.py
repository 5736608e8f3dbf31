"""Training objectives: attention cross-entropy, CTC, and their weighted total.

CTC is one graph node. A numpy alpha-beta pass (recursion in ``ctc_loss``)
gives the loss and its gradient d loss / d log_probs[t, v] = -occupancy[t, v],
the posterior weight of label v at frame t; through the log-softmax this is
softmax - occupancy on the logits.

Reductions: the attention and CTC terms are sums over target positions /
alignments for one utterance; the training harness divides batch sums by the
batch size only. Balancing losses from multiple MoE layers are averaged so
the beta coefficient keeps its meaning regardless of depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CtcInfeasibleError, DataError
from .moe import LoadStats, load_balance_loss
from .tensor import Tensor, _record, log_softmax_rows, take_along_cols, tsum

# Finite stand-in for log(0) in the CTC lattice. Adding ordinary
# log-probabilities to it keeps values far below any reachable score while
# exp() underflows to exactly 0.0, so no -inf is ever materialized.
LOG_ZERO = -1.0e30


@dataclass
class LossBundle:
    l_att: Tensor
    l_ctc: Tensor
    l_aux: Tensor
    l_total: Tensor
    alpha: float
    beta: float


def attention_loss(logits: Tensor, targets: list[int]) -> Tensor:
    """Summed negative log-likelihood of the targets (one utterance, so no padding)."""
    ids = np.asarray(targets, dtype=np.int64)
    if ids.shape[0] != logits.shape[0]:
        raise DataError(
            f"got {ids.shape[0]} targets for {logits.shape[0]} decoder positions"
        )
    if ids.min() < 0 or ids.max() >= logits.shape[1]:
        raise DataError(f"target id out of range for vocab {logits.shape[1]}")
    log_probs = log_softmax_rows(logits)
    picked = take_along_cols(log_probs, ids[:, None]).reshape(ids.shape[0])
    return -tsum(picked)


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


def ctc_loss(frame_logits: Tensor, target: list[int], blank_id: int = 0) -> Tensor:
    """Negative log-probability of the target under the CTC alignment lattice.

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
    because blanks and labels alternate. The loss is one graph node on top
    of the log-softmax, with gradient ``-occupancy``: ``occupancy[t, v]``
    sums ``exp(alpha + beta - y + loss)`` over the states that carry label
    v. Its rows sum to one, so the log-softmax backward turns this into
    ``softmax - occupancy`` on the logits. ``LOG_ZERO`` stands in for log 0,
    so no -inf is ever formed.

    An infeasible target (more symbols plus required separating blanks than
    frames) raises instead of returning infinity: it means the data is bad.
    """
    num_frames, vocab = frame_logits.shape
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
            f"target of length {len(target)} needs at least {needed} frames, got {num_frames}"
        )

    ext = np.asarray(extended_labels(target, blank_id), dtype=np.int64)
    log_probs = log_softmax_rows(frame_logits)
    lattice = log_probs.data[:, ext]
    alpha = _ctc_alpha(lattice, ext, blank_id)
    log_like = np.logaddexp(alpha[-1, -2], alpha[-1, -1])

    def backward(g):
        beta = _ctc_alpha(lattice[::-1, ::-1], ext[::-1], blank_id)[::-1, ::-1]
        posterior = np.exp(alpha + beta - lattice - log_like)
        occupancy = np.zeros(log_probs.shape)
        np.add.at(occupancy.T, ext, posterior.T)
        return (-g * occupancy,)

    return _record(np.asarray(-log_like), (log_probs,), backward)


def _ctc_alpha(lattice: np.ndarray, ext: np.ndarray, blank_id: int) -> np.ndarray:
    """Forward log-variables ``alpha[t, s]`` of a (frames, states) lattice.

    Two LOG_ZERO columns ahead of the first state make s-1 and s-2 slices.
    """
    skip = np.zeros(ext.size, dtype=bool)
    skip[2:] = (ext[2:] != blank_id) & (ext[2:] != ext[:-2])
    alpha = np.full((lattice.shape[0], ext.size + 2), LOG_ZERO)
    alpha[0, 2:4] = lattice[0, :2]
    for t in range(1, lattice.shape[0]):
        prev = alpha[t - 1]
        step2 = np.where(skip, prev[:-2], LOG_ZERO)
        alpha[t, 2:] = np.logaddexp(np.logaddexp(prev[2:], prev[1:-1]), step2) + lattice[t]
    return alpha[:, 2:]


def total_loss(
    l_att: Tensor,
    l_ctc: Tensor,
    aux_per_layer: list[Tensor],
    alpha: float = 0.3,
    beta: float = 0.01,
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
    return LossBundle(
        l_att=l_att, l_ctc=l_ctc, l_aux=l_aux, l_total=l_total, alpha=alpha, beta=beta
    )


def batch_balance_losses(per_layer_stats: list[list[LoadStats]], num_experts: int) -> list[Tensor]:
    """Merge per-utterance stats layer by layer and score each layer's balance."""
    merged = [LoadStats.merge(layer_parts) for layer_parts in per_layer_stats]
    return [load_balance_loss(stats, num_experts) for stats in merged]
