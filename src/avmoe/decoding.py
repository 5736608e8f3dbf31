"""Greedy inference for both heads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DecodeCache, Model
from .tensor import Tensor, log_softmax_rows_forward, no_grad

# Longest attention hypothesis, in tokens, for every decode the package runs.
MAX_DECODE_LEN = 32


@dataclass
class Hypothesis:
    token_ids: list[int]
    score: float  # summed log-probability of the chosen steps


def collapse_ctc_path(path: list[int], blank_id: int) -> list[int]:
    """Merge adjacent repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for token in path:
        if token != prev:
            out.append(token)
        prev = token
    return [t for t in out if t != blank_id]


def ctc_greedy_decode(frame_logits: Tensor | np.ndarray, blank_id: int) -> Hypothesis:
    """Best per-frame path, collapsed. Score is that single path's log-prob."""
    logits = frame_logits.data if isinstance(frame_logits, Tensor) else frame_logits
    log_probs = log_softmax_rows_forward(logits)
    path = log_probs.argmax(axis=1)
    score = float(log_probs[np.arange(path.size), path].sum())
    return Hypothesis(token_ids=collapse_ctc_path(path.tolist(), blank_id), score=score)


def attention_greedy_decode(model: Model, states: Tensor, max_len: int) -> Hypothesis:
    """Argmax autoregressive decode from sos until eos or the length cap.

    Incremental: each step feeds only the newest token through
    ``Model.decode_teacher_forcing`` with one ``DecodeCache`` per request,
    which binds to ``model`` and ``states`` and keeps every decoder block's
    keys and values as arrays. A step projects one new self-attention row,
    reuses the cross-attention keys and values of ``states`` and builds no
    graph, where a teacher-forced call would rerun the whole prefix.
    """
    cfg = model.cfg
    token = cfg.sos_id
    score = 0.0
    emitted: list[int] = []
    with no_grad():
        cache = DecodeCache()
        for _ in range(max_len):
            logits = model.decode_teacher_forcing(states, [token], cache=cache)
            log_probs = log_softmax_rows_forward(logits.data)[-1]
            best = int(np.argmax(log_probs))
            score += float(log_probs[best])
            if best == cfg.eos_id:
                break
            token = best
            emitted.append(best)
    # Stray specials (possible early in training) are dropped from the result.
    return Hypothesis(token_ids=[t for t in emitted if t >= cfg.num_specials], score=score)


def transcribe(
    model: Model, mel: np.ndarray, visual: np.ndarray | None
) -> tuple[Hypothesis, Hypothesis]:
    """Encode one utterance's log-Mel features and greedy-decode both heads: (attention, CTC).

    Runs under ``no_grad``, so no graph is recorded. Attention stops at ``MAX_DECODE_LEN``.
    """
    with no_grad():
        states, _, boundary = model.encode_utterance(mel, visual)
        att = attention_greedy_decode(model, states, MAX_DECODE_LEN)
        ctc = ctc_greedy_decode(model.ctc_head(states, boundary), blank_id=model.cfg.blank_id)
    return att, ctc
