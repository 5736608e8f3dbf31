"""Every record and summary field of ``train.score_dataset``, on hand utterances
whose hypotheses are scripted, so each value is written out here.

``transcribe`` is replaced by a script keyed on the utterance's features, so no
model runs. The attention hypotheses make substitutions, insertions and
deletions, on homophone slots and off them; the CTC hypotheses carry stray
special ids, which scoring drops.
"""

import pytest

from avmoe import metrics
from avmoe import train as avtrain
from avmoe.decoding import Hypothesis
from avmoe.train import Utterance, Vocab, score_dataset

VOCAB = Vocab(["red", "read", "blue", "sea", "see", "gold"])
HOMOPHONES = {"red", "read", "sea", "see"}
ID = {word: i + 4 for i, word in enumerate(VOCAB.words)}
SOS, EOS, PAD = 1, 2, 3

# utt_id: (reference, attention hypothesis, attention score, CTC hypothesis ids)
SCRIPT = {
    # A substitution on a slot; the other slot is right. CTC right, specials dropped.
    "sub": ("red blue sea", "read blue sea", -1.5, [SOS, ID["red"], ID["blue"], PAD, ID["sea"]]),
    # An insertion, and no slot. CTC deletes a word.
    "ins": ("gold blue", "gold gold blue", -2.0, [ID["blue"]]),
    # A slot deleted. CTC right, with eos inside.
    "del": ("see sea gold", "see gold", -0.25, [ID["see"], ID["sea"], EOS, ID["gold"]]),
    # An empty hypothesis from both heads.
    "empty": ("blue", "", -4.0, []),
    # Two slot substitutions and an insertion: WER past 1.
    "worse": ("sea red", "see read gold", -3.0, [ID["sea"], ID["red"]]),
    # All right.
    "right": ("read", "read", -0.5, [ID["read"]]),
}


@pytest.fixture
def scripted(monkeypatch):
    """Utterances of ``SCRIPT``, with ``transcribe`` returning their scripted hypotheses."""

    def transcribe(model, mel, visual):
        _, hyp, score, ctc = SCRIPT[mel]
        return Hypothesis(VOCAB.encode(hyp.split()), score), Hypothesis(ctc, 0.0)

    monkeypatch.setattr(avtrain, "transcribe", transcribe)
    # The features are the utterance id: the script's key, which no model reads.
    return [Utterance(utt_id, utt_id, None, ref.split(), VOCAB.encode(ref.split()))
            for utt_id, (ref, _, _, _) in SCRIPT.items()]


def record(utt_id, hyp_ctc, wer, hom_slots, hom_correct) -> dict:
    ref, hyp, score, _ = SCRIPT[utt_id]
    return {"utt_id": utt_id, "ref": ref, "hyp": hyp, "hyp_ctc": hyp_ctc, "wer": wer,
            "score": score, "hom_slots": hom_slots, "hom_correct": hom_correct}


RECORDS = [
    record("sub", "red blue sea", 1 / 3, 2, 1),
    record("ins", "blue", 1 / 2, 0, 0),
    record("del", "see sea gold", 1 / 3, 2, 1),
    record("empty", "", 1.0, 0, 0),
    record("worse", "sea red", 3 / 2, 2, 0),
    record("right", "read", 0.0, 1, 1),
]


def test_every_record_and_summary_field(scripted):
    summary, records = score_dataset(None, scripted, VOCAB, homophones=HOMOPHONES)
    assert records == RECORDS
    # 12 reference words: attention makes 1 + 1 + 1 + 1 + 3 edits, CTC 1 + 1.
    # The utterances with a slot (sub, del, worse, right) hold 9 words and 5 edits.
    assert summary == {"utterances": 6, "wer": 7 / 12, "ctc_wer": 2 / 12, "hom_slots": 7,
                       "hom_correct": 3, "hom_accuracy": 3 / 7, "subset_wer": 5 / 9}


def test_without_homophones_no_slot_field_is_written(scripted):
    summary, records = score_dataset(None, scripted, VOCAB)
    assert records == [{k: v for k, v in r.items() if not k.startswith("hom_")} for r in RECORDS]
    assert summary == {"utterances": 6, "wer": 7 / 12, "ctc_wer": 2 / 12}


def test_with_no_slot_in_any_reference_the_slot_scores_are_none(scripted):
    summary, records = score_dataset(None, scripted[1:2] + scripted[3:4], VOCAB,
                                     homophones=HOMOPHONES)
    assert records == [RECORDS[1], RECORDS[3]]
    assert summary == {"utterances": 2, "wer": 2 / 3, "ctc_wer": 2 / 3, "hom_slots": 0,
                       "hom_correct": 0, "hom_accuracy": None, "subset_wer": None}


def test_each_head_is_aligned_once_per_utterance(scripted, monkeypatch):
    aligned = []

    def counting_align(ref, hyp):
        aligned.append(" ".join(hyp))
        return real_align(ref, hyp)

    real_align = metrics.align_words
    monkeypatch.setattr(metrics, "align_words", counting_align)
    score_dataset(None, scripted, VOCAB, homophones=HOMOPHONES)
    assert aligned == [h for r in RECORDS for h in (r["hyp"], r["hyp_ctc"])]
