"""Manifest records with inline audio: a seeded field fuzz of ``train.load_dataset``."""

import json

import numpy as np
import pytest

from avmoe.errors import AvmoeError
from avmoe.synth import reference_task_spec
from avmoe.train import Vocab, load_dataset

RECORD = {"utt_id": "u0", "audio": {"words": ["red", "blue", "sea"], "noise_seed": 3},
          "visual": "none", "transcript": "red blue sea"}

# Wrong types, booleans where ints belong, non-finite and negative numbers, and
# strings that are and are not words of the vocabulary.
VALUES = [-1, 0, 1, 2**70, 0.5, "x", "", "red", None, True, False, [], {}, [1], ["red"],
          ["red", 5], [["red"]], {"a": 1}, float("nan"), float("inf")]

# Records that escaped as TypeError or ValueError, or loaded, before the
# inline fields were checked (tests/test_cli.py runs them through ``avmoe eval``).
WRONG_INLINE = [{"words": 5, "noise_seed": 1}, {"words": ["red"], "noise_seed": "x"},
                {"words": ["red"], "noise_seed": -1}, {"words": ["red"], "noise_seed": True}]


def write_corpus(root, records: list[dict]):
    """A manifest of ``records`` next to the reference task spec."""
    (root / "task_spec.json").write_text(reference_task_spec().to_json())
    manifest = root / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    return manifest


def load(manifest):
    return load_dataset(manifest, Vocab(reference_task_spec().vocab), n_mels=20)


def mutation(rng) -> dict:
    """RECORD with one field, one inline-audio field or one word replaced or dropped."""
    record = json.loads(json.dumps(RECORD))
    value = VALUES[int(rng.integers(len(VALUES)))]
    where = int(rng.integers(3))
    holder = record if where == 0 else record["audio"]
    if where == 2 and rng.integers(2):
        holder = holder["words"]
        holder[int(rng.integers(len(holder)))] = value
        return record
    key = sorted(holder)[int(rng.integers(len(holder)))]
    if rng.integers(8) == 0:
        del holder[key]
    else:
        holder[key] = value
    return record


def test_field_fuzz_raises_only_package_errors(tmp_path):
    rng = np.random.default_rng(92)
    records = [{**RECORD, "audio": audio} for audio in WRONG_INLINE]
    records += [mutation(rng) for _ in range(200)]
    outcomes = []
    for record in records:
        manifest = write_corpus(tmp_path, [record])
        try:
            load(manifest)
        except AvmoeError:
            outcomes.append("refused")
            continue
        except Exception as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(f"{record}: {exc!r}")
        outcomes.append("loaded")
    assert outcomes[: len(WRONG_INLINE)] == ["refused"] * len(WRONG_INLINE)
    assert outcomes.count("loaded") >= 10 and outcomes.count("refused") >= 10
