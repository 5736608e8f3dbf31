"""Word alignment, and the edit count, WER and homophone-slot accuracy read from
one alignment, on hand cases."""

import pytest

from avmoe.metrics import align_words, score_words


@pytest.mark.parametrize("ref, hyp, distance", [
    ("", "", 0),
    ("abc", "abc", 0),
    ("", "xy", 2),
    ("abc", "", 3),
    ("kitten", "sitting", 3),
    ("ab", "ba", 2),
    ("flaw", "lawn", 2),
])
def test_edit_distance(ref, hyp, distance):
    assert score_words(list(ref), list(hyp))[0] == distance


def wer(ref: list[str], hyp: list[str]) -> float:
    """Edits over reference length, as ``train.score_dataset`` scores an utterance."""
    return score_words(ref, hyp)[0] / len(ref)


def test_wer():
    assert wer("red blue sea gold".split(), "red pink sea".split()) == 0.5
    # Insertions can push it past 1.
    assert wer(["red"], "blue gold pink".split()) == 3.0


def test_align_words():
    assert align_words("red blue sea".split(), "read blue".split()) == [
        ("sub", 0, 0), ("match", 1, 1), ("del", 2, None),
    ]
    assert align_words([], ["a", "b"]) == [("ins", None, 0), ("ins", None, 1)]


def test_align_words_tie_order():
    # Ties prefer the diagonal move, taken from the end: the last copy of a
    # repeated word is the one matched.
    assert align_words(["a"], ["a", "a"]) == [("ins", None, 0), ("match", 0, 1)]
    assert align_words(["a", "a"], ["a"]) == [("del", 0, None), ("match", 1, 0)]
    assert align_words(["a", "b"], ["b", "a"]) == [("sub", 0, 0), ("sub", 1, 1)]


def test_slot_accuracy():
    slots = {"red", "read", "sea", "see"}
    # (edits, correct slots, slots)
    assert score_words("red blue sea".split(), "read blue sea".split(), slots) == (1, 1, 2)
    # An insertion ahead of the slot does not move the match.
    assert score_words(["red", "blue"], ["gold", "red", "blue"], slots) == (1, 1, 1)
    assert score_words(["blue"], ["blue"], slots) == (0, 0, 0)
    assert score_words(["red"], ["red"]) == (0, 0, 0)  # no slot words
