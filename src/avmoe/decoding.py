"""Greedy inference for both heads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import LogMelSpectrogram
from .model import Model
from .tensor import Tensor, no_grad


@dataclass
class Hypothesis:
    token_ids: list[int]
    score: float  # summed log-probability of the chosen steps


def _log_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def collapse_ctc_path(path: list[int], blank_id: int) -> list[int]:
    """Merge adjacent repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for token in path:
        if token != prev:
            out.append(token)
        prev = token
    return [t for t in out if t != blank_id]


def ctc_greedy_decode(frame_logits: Tensor | np.ndarray, blank_id: int = 0) -> Hypothesis:
    """Best per-frame path, collapsed. Score is that single path's log-prob."""
    logits = frame_logits.data if isinstance(frame_logits, Tensor) else np.asarray(frame_logits)
    log_probs = _log_softmax_np(logits)
    path = log_probs.argmax(axis=1)
    score = float(log_probs[np.arange(path.size), path].sum())
    return Hypothesis(token_ids=collapse_ctc_path(path.tolist(), blank_id), score=score)


def attention_greedy_decode(model: Model, states: Tensor, max_len: int) -> Hypothesis:
    """Argmax autoregressive decode from sos until eos or the length cap."""
    cfg = model.cfg
    specials = {cfg.blank_id, cfg.sos_id, cfg.eos_id, cfg.pad_id}
    prefix = [cfg.sos_id]
    score = 0.0
    emitted: list[int] = []
    with no_grad():
        for _ in range(max_len):
            logits = model.decode_teacher_forcing(states, prefix)
            log_probs = _log_softmax_np(logits.data[-1])
            best = int(np.argmax(log_probs))
            score += float(log_probs[best])
            if best == cfg.eos_id:
                break
            prefix.append(best)
            emitted.append(best)
    # Stray specials (possible early in training) are dropped from the result.
    return Hypothesis(token_ids=[t for t in emitted if t not in specials], score=score)


def transcribe(
    model: Model, mel: LogMelSpectrogram, visual: np.ndarray | None, max_len: int
) -> tuple[Hypothesis, Hypothesis]:
    """Encode one utterance and greedy-decode both heads: (attention, CTC).

    Runs under ``no_grad``, so no graph is recorded.
    """
    with no_grad():
        states, _, boundary = model.encode_utterance(mel, visual)
        att = attention_greedy_decode(model, states, max_len)
        ctc = ctc_greedy_decode(model.ctc_head(states, boundary), blank_id=model.cfg.blank_id)
    return att, ctc
