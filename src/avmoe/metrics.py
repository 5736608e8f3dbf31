"""Word alignment and the scores read from it: edit count and homophone-slot accuracy."""

from __future__ import annotations

from typing import Sequence


def align_words(ref: Sequence, hyp: Sequence) -> list[tuple[str, int | None, int | None]]:
    """Minimal-cost alignment as (op, ref_index, hyp_index) triples.

    Ops are match/sub (both indices), del (hyp index None), ins (ref index
    None). Ties prefer diagonal moves, then deletions, for determinism.
    """
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dist[i][j] = min(
                dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
            )
    ops: list[tuple[str, int | None, int | None]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            op = "match" if ref[i - 1] == hyp[j - 1] else "sub"
            ops.append((op, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", i - 1, None))
            i -= 1
        else:
            ops.append(("ins", None, j - 1))
            j -= 1
    ops.reverse()
    return ops


def score_words(
    ref: Sequence[str], hyp: Sequence[str], slot_words: set[str] | None = None
) -> tuple[int, int, int]:
    """(edits, correct slots, slots) from one alignment of ``hyp`` to ``ref``.

    ``edits`` is the Levenshtein distance with unit costs: the alignment's
    non-match ops. Slots are the reference positions whose word is in
    ``slot_words``; one is correct only when the alignment matches it to an
    equal hypothesis word.
    """
    ops = align_words(ref, hyp)
    matched = {r for op, r, _ in ops if op == "match"}
    slots = [i for i, word in enumerate(ref) if word in (slot_words or ())]
    return len(ops) - len(matched), sum(i in matched for i in slots), len(slots)
