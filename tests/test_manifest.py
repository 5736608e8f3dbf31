"""Manifest records: a seeded field fuzz of ``train.load_dataset``.

A record's audio is a path to an F64LE or WAV file, so an inline synthesis
record such as ``{"words": ["red"], "noise_seed": 1}`` is a field of the wrong
type. Every mutated record either loads or is refused with the package's own
error.
"""

import json

import numpy as np
import pytest

from avmoe.errors import AvmoeError
from avmoe.frontend import write_f64
from avmoe.synth import reference_task_spec, synth_waveform
from avmoe.train import Vocab, load_dataset

RECORD = {"utt_id": "u0", "audio": "u0.f64", "visual": "none", "transcript": "red blue sea"}

# Wrong types, booleans where ints belong, non-finite and negative numbers, and
# strings that are and are not words of the vocabulary.
VALUES = [-1, 0, 1, 2**70, 0.5, "x", "", "red", None, True, False, [], {}, [1], ["red"],
          ["red", 5], [["red"]], {"a": 1}, float("nan"), float("inf")]

# The inline synthesis record, valid and with each of its fields of the wrong
# type (tests/test_cli.py runs them through ``avmoe eval``).
INLINE = [{"words": ["red"], "noise_seed": 1}, {"words": 5, "noise_seed": 1},
          {"words": ["red"], "noise_seed": "x"}, {"words": ["red"], "noise_seed": -1},
          {"words": ["red"], "noise_seed": True}]


def write_corpus(root, records: list[dict]):
    """A manifest of ``records`` next to the audio file that ``RECORD`` names."""
    spec = reference_task_spec()
    wave = synth_waveform(RECORD["transcript"].split(), spec, np.random.default_rng(3))
    write_f64(root / RECORD["audio"], wave)
    manifest = root / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    return manifest


def load(manifest):
    return load_dataset(manifest, Vocab(reference_task_spec().vocab), n_mels=20)


def mutation(rng) -> dict:
    """RECORD with one field replaced or dropped."""
    record = dict(RECORD)
    value = VALUES[int(rng.integers(len(VALUES)))]
    key = sorted(record)[int(rng.integers(len(record)))]
    if rng.integers(8) == 0:
        del record[key]
    else:
        record[key] = value
    return record


def test_field_fuzz_raises_only_package_errors(tmp_path):
    rng = np.random.default_rng(92)
    records = [{**RECORD, "audio": audio} for audio in INLINE]
    records += [mutation(rng) for _ in range(200)]
    outcomes = []  # the refusal's message, or "loaded"
    for record in records:
        manifest = write_corpus(tmp_path, [record])
        try:
            load(manifest)
        except AvmoeError as exc:
            outcomes.append(str(exc))
            continue
        except Exception as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(f"{record}: {exc!r}")
        outcomes.append("loaded")
    assert all("ManifestEntry.audio must be of type str" in o for o in outcomes[: len(INLINE)])
    loaded = outcomes.count("loaded")
    assert loaded >= 10 and len(outcomes) - loaded >= 10
