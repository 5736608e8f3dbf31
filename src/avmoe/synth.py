"""Synthetic audiovisual corpus with acoustically confusable word pairs.

Each vocabulary word maps to a pure tone; words inside one homophone group
share a tone, so their clean audio is identical by construction and only the
visual channel can tell them apart. Every spoken homophone word contributes
its fixed code vector to the utterance's visual embedding file (in spoken
order, zero-padded to the configured slot count).

A corpus is a function of its task spec and the ``generate_corpus`` seed
alone. The spec holds no seed of its own: the built-in task draws its
visual codes from a fixed seed inside ``reference_task_spec``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fields import check_fields, parse_json
from .frontend import Waveform, write_f64
from .fusion import save_visual_embeddings


@dataclass
class ManifestEntry:
    """One manifest record; relative paths are read from the manifest's directory."""

    utt_id: str
    audio: str  # F64LE or WAV file path
    visual: str  # VEMB file path or "none"
    transcript: str

    def words(self) -> list[str]:
        return self.transcript.split()


@dataclass
class SyntheticTaskSpec:
    vocab: list[str]
    homophone_groups: list[list[str]]
    tone_map: dict[str, float]
    visual_codes: dict[str, list[float]]
    visual_slots: int = 4
    visual_dim: int = 16
    symbol_duration_ms: float = 250.0
    noise_std: float = 0.02
    amplitude: float = 0.5
    sample_rate: int = 16000
    min_words: int = 3
    max_words: int = 6

    def validate(self) -> None:
        check_fields(self, {
            "visual_slots": (1, None), "visual_dim": (1, None), "symbol_duration_ms": (0, None),
            "noise_std": (0, None), "sample_rate": (1, None), "min_words": (1, None),
        })
        if not self.vocab:
            raise ConfigError("vocabulary is empty")
        if round(self.symbol_duration_ms / 1000.0 * self.sample_rate) < 1:
            raise ConfigError(
                f"a {self.symbol_duration_ms} ms symbol at {self.sample_rate} Hz has no samples"
            )
        bad_codes = sorted(w for w, c in self.visual_codes.items() if len(c) != self.visual_dim)
        if bad_codes:
            raise ConfigError(f"visual codes of {bad_codes} do not have {self.visual_dim} values")
        if len(set(self.vocab)) != len(self.vocab):
            raise ConfigError("vocabulary contains duplicate words")
        grouped: set[str] = set()
        for group in self.homophone_groups:
            unknown = [w for w in group if w not in self.tone_map or w not in self.visual_codes]
            if unknown:
                raise ConfigError(f"group {group}: no tone or visual code for {unknown}")
            if grouped & set(group):
                raise ConfigError("homophone groups must be disjoint")
            grouped |= set(group)
            tones = {self.tone_map[w] for w in group}
            if len(tones) != 1:
                raise ConfigError(f"group {group} must share one tone, got {tones}")
            codes = {tuple(self.visual_codes[w]) for w in group}
            if len(codes) != len(group):
                raise ConfigError(f"group {group} members need distinct visual codes")
        missing = [w for w in self.vocab if w not in self.tone_map]
        if missing:
            raise ConfigError(f"words without a tone: {missing}")
        # One tone per acoustic class: ungrouped words must not collide with
        # anything, grouped words only within their own group.
        class_tones: dict[float, str] = {}
        for group in self.homophone_groups:
            class_tones[self.tone_map[group[0]]] = f"group:{group[0]}"
        for w in self.vocab:
            if w in grouped:
                continue
            tone = self.tone_map[w]
            if tone in class_tones:
                raise ConfigError(f"tone {tone} of {w!r} collides with {class_tones[tone]}")
            class_tones[tone] = w
        if not 1 <= self.min_words <= self.max_words:
            raise ConfigError(
                f"bad transcript length range [{self.min_words}, {self.max_words}]"
            )

    def homophone_words(self) -> set[str]:
        return {w for group in self.homophone_groups for w in group}

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str | bytes) -> "SyntheticTaskSpec":
        try:
            payload = parse_json(text)
            spec = SyntheticTaskSpec(**payload)
        except (ValueError, TypeError) as exc:  # bad JSON or text, or unknown fields
            raise DataError(f"unreadable task spec: {exc}") from exc
        spec.validate()
        return spec


def reference_task_spec() -> SyntheticTaskSpec:
    """The built-in 12-word task with two confusable pairs."""
    pairs = [["red", "read"], ["sea", "see"]]
    others = ["blue", "green", "black", "gold", "pink", "gray", "teal", "moss"]
    vocab = pairs[0] + pairs[1] + others
    tones = np.geomspace(300.0, 2400.0, 10)
    tone_map: dict[str, float] = {}
    tone_map["red"] = tone_map["read"] = float(tones[0])
    tone_map["sea"] = tone_map["see"] = float(tones[1])
    for word, tone in zip(others, tones[2:]):
        tone_map[word] = float(tone)
    basis, _ = np.linalg.qr(np.random.default_rng(101).normal(size=(16, 4)))
    codes = {
        word: [float(v) for v in basis[:, i]]
        for i, word in enumerate(["red", "read", "sea", "see"])
    }
    spec = SyntheticTaskSpec(
        vocab=vocab,
        homophone_groups=pairs,
        tone_map=tone_map,
        visual_codes=codes,
    )
    spec.validate()
    return spec


def synth_waveform(
    words: list[str], spec: SyntheticTaskSpec, noise_rng: np.random.Generator
) -> Waveform:
    """Concatenated tone segments, one per word of the spec's vocabulary, plus white
    noise if ``spec.noise_std`` > 0."""
    samples_per_word = int(round(spec.symbol_duration_ms / 1000.0 * spec.sample_rate))
    segments = []
    for word in words:
        t = np.arange(samples_per_word, dtype=np.float64) / spec.sample_rate
        segments.append(spec.amplitude * np.sin(2.0 * np.pi * spec.tone_map[word] * t))
    samples = np.concatenate(segments)
    if spec.noise_std > 0.0:
        samples = samples + noise_rng.normal(0.0, spec.noise_std, size=samples.shape)
    return Waveform(samples=np.clip(samples, -1.0, 1.0), sample_rate=spec.sample_rate)


def visual_matrix(words: list[str], spec: SyntheticTaskSpec) -> np.ndarray:
    """Code rows for spoken homophone words, padded/truncated to the slot count."""
    rows = [spec.visual_codes[w] for w in words if w in spec.homophone_words()]
    out = np.zeros((spec.visual_slots, spec.visual_dim), dtype=np.float64)
    for i, row in enumerate(rows[: spec.visual_slots]):
        out[i] = row
    return out


def _sample_transcript(rng: np.random.Generator, spec: SyntheticTaskSpec) -> tuple[str, ...]:
    """Uniform words, but each homophone group contributes at most one slot."""
    length = int(rng.integers(spec.min_words, spec.max_words + 1))
    group_of = {w: i for i, g in enumerate(spec.homophone_groups) for w in g}
    available = list(spec.vocab)
    words: list[str] = []
    for _ in range(length):
        word = available[int(rng.integers(len(available)))]
        words.append(word)
        if word in group_of:
            available = [w for w in available if group_of.get(w) != group_of[word]]
    return tuple(words)


def _sample_distinct_transcripts(
    rng: np.random.Generator, spec: SyntheticTaskSpec, count: int
) -> list[tuple[str, ...]]:
    seen: set[tuple[str, ...]] = set()
    out: list[tuple[str, ...]] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ConfigError(
                f"could not draw {count} distinct transcripts; vocabulary too constrained"
            )
        t = _sample_transcript(rng, spec)
        if t not in seen:
            seen.add(t)
            out.append(t)
    # Guarantee enough homophone coverage for the disambiguation study.
    hom = spec.homophone_words()
    with_hom = [i for i, t in enumerate(out) if hom & set(t)]
    minimum = -(-3 * count // 10)  # ceil(0.3 * count)
    guard = 0
    while len(with_hom) < minimum:
        guard += 1
        if guard > 1000 * count:
            raise ConfigError("cannot reach 30% homophone coverage with this vocabulary")
        t = _sample_transcript(rng, spec)
        if not (hom & set(t)) or t in seen:
            continue
        victim = next(i for i, u in enumerate(out) if not (hom & set(u)))
        seen.discard(out[victim])
        seen.add(t)
        out[victim] = t
        with_hom = [i for i, u in enumerate(out) if hom & set(u)]
    return out


def generate_corpus(
    spec: SyntheticTaskSpec,
    n_train: int,
    n_dev: int,
    n_test: int,
    out_dir,
    seed: int,
) -> dict[str, Path]:
    """Write audio, visual files, task spec, and split manifests under out_dir.

    Fully deterministic for a given (spec, seed): the same call produces
    byte-identical trees. Utterances are distinct across splits by
    construction. The transcripts are drawn before anything is written, so a
    spec that cannot give them leaves ``out_dir`` untouched.
    """
    if min(n_train, n_dev, n_test) < 1:
        raise ConfigError("all split sizes must be >= 1")
    if seed < 0:
        raise ConfigError(f"corpus seed must be >= 0, got {seed}")
    spec.validate()
    rng = np.random.default_rng(seed)
    total = n_train + n_dev + n_test
    transcripts = _sample_distinct_transcripts(rng, spec, total)
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "vemb").mkdir(parents=True, exist_ok=True)
    (out / "task_spec.json").write_text(spec.to_json())
    splits = {
        "train": transcripts[:n_train],
        "dev": transcripts[n_train : n_train + n_dev],
        "test": transcripts[n_train + n_dev :],
    }
    manifests: dict[str, Path] = {}
    index = 0
    for split, items in splits.items():
        lines = []
        for words in items:
            utt_id = f"utt{index:05d}"
            index += 1
            wave = synth_waveform(
                list(words), spec, np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
            )
            audio_rel = f"audio/{utt_id}.f64"
            write_f64(out / audio_rel, wave)
            visual_rel = f"vemb/{utt_id}.vemb"
            save_visual_embeddings(out / visual_rel, visual_matrix(list(words), spec))
            entry = {
                "utt_id": utt_id,
                "audio": audio_rel,
                "visual": visual_rel,
                "transcript": " ".join(words),
            }
            lines.append(json.dumps(entry, sort_keys=True))
        path = out / f"{split}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        manifests[split] = path
    return manifests


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a JSONL manifest, check each record's field types and that its files exist."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:  # a directory, or no permission
        raise DataError(f"{path}: cannot read the manifest: {exc.strerror}") from exc
    entries: list[ManifestEntry] = []
    base = path.parent
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse_json(line.decode())
            entry = ManifestEntry(**record)
            check_fields(entry)
        except (ValueError, TypeError, ConfigError) as exc:  # ValueError: bad UTF-8 or JSON
            raise DataError(f"{path}:{lineno}: bad manifest record ({exc})") from exc
        if not entry.transcript.strip():
            raise DataError(f"{path}:{lineno}: empty transcript for {entry.utt_id}")
        if not (base / entry.audio).exists():
            raise DataError(f"{path}:{lineno}: missing audio file {entry.audio}")
        if entry.visual != "none" and not (base / entry.visual).exists():
            raise DataError(f"{path}:{lineno}: missing visual file {entry.visual}")
        entries.append(entry)
    if not entries:
        raise DataError(f"{path}: manifest is empty")
    return entries


def read_task_spec(path) -> SyntheticTaskSpec:
    """Read and validate a task spec JSON file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"task spec not found: {path}")
    return SyntheticTaskSpec.from_json(path.read_bytes())


def load_task_spec_near(manifest_path) -> SyntheticTaskSpec | None:
    """Read task_spec.json from the manifest's directory, if present."""
    candidate = Path(manifest_path).parent / "task_spec.json"
    return read_task_spec(candidate) if candidate.exists() else None
