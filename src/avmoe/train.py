"""Training loop, evaluation, and checkpoint state management.

A training step runs one forward and one backward pass over its batch,
packed as the rows of all its utterances (see ``model``): each layer runs
once per step, not once per utterance. ``batch_losses`` returns the batch
sums of the attention and CTC losses and each MoE layer's load statistics
over all the batch's tokens; ``_train_batch`` divides the two sums by the
batch size, scores each layer's balance on its whole-batch statistics,
averages those over layers, and takes one Adam step. ``utterance_losses``
is the batch of one.

``TrainState.step`` is the one step count: ``_train_batch`` increments it
before each update and hands it to ``Adam.step``, which takes its bias
corrections from it. The rate is Adam's ``lr`` (``TrainConfig.lr`` wherever
Adam is built from the config) times the warm-up factor that
``_train_batch`` computes from that count and ``warmup_steps``.

The loss weights ``alpha`` and ``beta`` and Adam's decay rates and ``eps``
are ``TrainConfig`` class constants, not settings: no config file or
checkpoint sets them.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import ClassVar, Iterable

import numpy as np

from .checkpoint import Checkpoint, check_layout, load_checkpoint, save_checkpoint
from .decoding import transcribe
from .errors import CheckpointError, ConfigError, CtcInfeasibleError, DataError, NumericError
from .fields import check_fields
from .frontend import log_mel_from_waveform, read_waveform
from .fusion import load_visual_embeddings
from .losses import attention_loss, ctc_loss, total_loss
from .metrics import score_words
from .model import Model, ModelConfig
from .moe import LoadStats, MoEConfig, load_balance_loss
from .nn import Segments
from .optim import Adam
from .synth import (
    ManifestEntry,
    SyntheticTaskSpec,
    load_manifest,
    load_task_spec_near,
    synth_waveform,
)
from .tensor import Tensor

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    # Constants of the recipe: the CTC weight of hybrid CTC/attention training
    # (Kim et al., arXiv 1609.06773), Switch's balance-loss weight (Fedus et
    # al., arXiv 2101.03961), and Adam's decay rates and denominator floor.
    alpha: ClassVar[float] = 0.3
    beta: ClassVar[float] = 0.01
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    epochs: int = 20
    batch_size: int = 16
    lr: float = 3e-4
    warmup_steps: int = 100
    seed: int = 0
    audio_only: bool = False

    def validate(self) -> None:
        check_fields(self, {
            "epochs": (1, None), "batch_size": (1, None), "warmup_steps": (0, None),
            "seed": (0, None),
        })
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")


class Vocab:
    """Word list numbered after the reserved ids of ``ModelConfig``."""

    def __init__(self, words: list[str]):
        if len(set(words)) != len(words):
            raise ConfigError("vocabulary contains duplicates")
        self.words = list(words)
        self._to_id = {w: i + ModelConfig.num_specials for i, w in enumerate(words)}

    @property
    def size(self) -> int:
        return len(self.words) + ModelConfig.num_specials

    def encode(self, words: list[str]) -> list[int]:
        try:
            return [self._to_id[w] for w in words]
        except KeyError as exc:
            raise DataError(f"word {exc.args[0]!r} not in vocabulary") from exc

    def decode(self, ids: list[int]) -> list[str]:
        out = []
        for i in ids:
            out.append(self.words[i - ModelConfig.num_specials])
        return out


@dataclass
class Utterance:
    utt_id: str
    mel: np.ndarray  # (num_frames, n_mels) log-Mel features
    visual: np.ndarray | None
    words: list[str]
    target_ids: list[int]


def _resolve_audio(entry: ManifestEntry, base: Path, spec: SyntheticTaskSpec | None):
    if isinstance(entry.audio, str):
        return read_waveform(base / entry.audio)
    if isinstance(entry.audio, dict):
        if spec is None:
            raise DataError(
                f"{entry.utt_id}: inline audio needs a task_spec.json next to the manifest"
            )
        words = entry.audio.get("words")
        noise_seed = entry.audio.get("noise_seed")
        if not (isinstance(words, list) and words and all(isinstance(w, str) for w in words)):
            raise DataError(f"{entry.utt_id}: inline audio 'words' must be a non-empty list of "
                            f"words, got {words!r}")
        if not (isinstance(noise_seed, int) and not isinstance(noise_seed, bool)
                and noise_seed >= 0):
            raise DataError(f"{entry.utt_id}: inline audio 'noise_seed' must be a non-negative "
                            f"integer, got {noise_seed!r}")
        return synth_waveform(words, spec, np.random.default_rng(noise_seed))
    raise DataError(f"{entry.utt_id}: audio must be a path or an inline synthesis record")


def load_dataset(
    manifest_path,
    vocab: Vocab,
    n_mels: int = 80,
    audio_only: bool = False,
    spec: SyntheticTaskSpec | None = None,
) -> list[Utterance]:
    """Load a manifest and precompute features for every utterance."""
    manifest_path = Path(manifest_path)
    if spec is None:
        spec = load_task_spec_near(manifest_path)
    base = manifest_path.parent
    utterances = []
    for entry in load_manifest(manifest_path):
        wave = _resolve_audio(entry, base, spec)
        mel = log_mel_from_waveform(wave, n_mels=n_mels)
        visual = None
        if not audio_only and entry.visual != "none":
            visual = load_visual_embeddings(base / entry.visual)
        words = entry.words()
        utterances.append(
            Utterance(
                utt_id=entry.utt_id,
                mel=mel,
                visual=visual,
                words=words,
                target_ids=vocab.encode(words),
            )
        )
    return utterances


def batch_losses(model: Model, batch: list[Utterance]) -> tuple[Tensor, Tensor, list[LoadStats]]:
    """Summed attention and CTC losses of a batch, from one packed pass, and
    each MoE layer's load stats over all of the batch's tokens."""
    cfg = model.cfg
    fused = model.fuse([u.mel for u in batch], [u.visual for u in batch])
    states, stats = model.encode(fused)
    inputs = Segments([len(u.target_ids) + 1 for u in batch])
    target_in = [t for u in batch for t in [cfg.sos_id] + u.target_ids]
    logits = model.decode_teacher_forcing(states, target_in, fused.segments, inputs)
    l_att = attention_loss(logits, [t for u in batch for t in u.target_ids + [cfg.eos_id]])
    frame_logits = model.ctc_head(states, fused.boundary, fused.segments)
    frames = fused.segments.lengths - fused.boundary
    try:
        l_ctc = ctc_loss(frame_logits, [u.target_ids for u in batch], frames, cfg.blank_id)
    except CtcInfeasibleError as exc:
        raise DataError(f"utterance {batch[exc.index].utt_id}: {exc}") from exc
    return l_att, l_ctc, stats


def utterance_losses(model: Model, utt: Utterance) -> tuple[Tensor, Tensor, list[LoadStats]]:
    """Attention and CTC losses of one utterance plus the MoE load stats: the batch of one."""
    return batch_losses(model, [utt])


@dataclass
class TrainState:
    model: Model
    optimizer: Adam
    rng: np.random.Generator
    step: int = 0
    epochs_done: int = 0


def _train_batch(state: TrainState, batch: list[Utterance], cfg: TrainConfig) -> dict:
    att_sum, ctc_sum, stats = batch_losses(state.model, batch)
    scale = 1.0 / len(batch)
    aux_terms = []
    if stats:
        num_experts = state.model.cfg.moe.num_experts
        aux_terms = [load_balance_loss(s, num_experts) for s in stats]
    bundle = total_loss(att_sum * scale, ctc_sum * scale, aux_terms, alpha=cfg.alpha, beta=cfg.beta)
    if not np.isfinite(bundle.l_total.item()):
        raise NumericError(f"non-finite loss at step {state.step + 1}")
    bundle.l_total.backward()
    state.step += 1
    warm = min(1.0, state.step / cfg.warmup_steps) if cfg.warmup_steps > 0 else 1.0
    state.optimizer.step(state.step, warm)
    state.optimizer.zero_grad()
    return {
        "l_att": bundle.l_att.item(),
        "l_ctc": bundle.l_ctc.item(),
        "l_aux_per_layer": [a.item() for a in aux_terms],
    }


def run_epoch(state: TrainState, data: list[Utterance], cfg: TrainConfig) -> dict:
    order = state.rng.permutation(len(data))
    batch_logs = []
    for start in range(0, len(data), cfg.batch_size):
        batch = [data[i] for i in order[start : start + cfg.batch_size]]
        batch_logs.append(_train_batch(state, batch, cfg))
    layers = len(batch_logs[0]["l_aux_per_layer"])
    return {
        "l_att": float(np.mean([b["l_att"] for b in batch_logs])),
        "l_ctc": float(np.mean([b["l_ctc"] for b in batch_logs])),
        "l_aux": [
            float(np.mean([b["l_aux_per_layer"][i] for b in batch_logs])) for i in range(layers)
        ],
    }


# -- checkpoint plumbing -------------------------------------------------------


def model_config_json(cfg: ModelConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True)


def model_config_from_json(payload: dict) -> ModelConfig:
    """The validated model config of a checkpoint's ``model`` object."""
    cfg = ModelConfig(**payload)
    if cfg.moe is not None:
        cfg.moe = MoEConfig(**cfg.moe)
    cfg.validate()
    return cfg


def save_train_state(path, state: TrainState, vocab: Vocab, train_cfg: TrainConfig) -> None:
    config = {
        "model": asdict(state.model.cfg),
        "train": asdict(train_cfg),
        "vocab": vocab.words,
        "rng": state.rng.bit_generator.state,
        "step": state.step,
        "epochs_done": state.epochs_done,
    }
    params = state.model.named_parameters()
    m, v = state.optimizer.m, state.optimizer.v  # in the order of the file it was restored from
    save_checkpoint(path, config, {
        "model": {name: p.data for name, p in params},
        "opt.m": {name: m[name] for name, _ in params},
        "opt.v": {name: v[name] for name, _ in params},
    })


# What building a config, vocabulary or RNG from a checkpoint's JSON values can raise.
_BAD_VALUE = (ConfigError, KeyError, OverflowError, TypeError, ValueError)


def _unfilled_model(ckpt: Checkpoint) -> tuple[Model, Vocab]:
    """The checkpoint's model, with no weights drawn, and its vocabulary."""
    try:
        cfg = model_config_from_json(ckpt.config["model"])
        words = ckpt.config["vocab"]
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
            raise CheckpointError(
                f"{ckpt.path}: the vocabulary must be a list of words, got {words!r}"
            )
        vocab = Vocab(words)
    except _BAD_VALUE as exc:
        raise CheckpointError(
            f"{ckpt.path}: unreadable model config or vocabulary: {exc!r}"
        ) from exc
    if cfg.vocab_size != vocab.size:
        raise CheckpointError(
            f"{ckpt.path}: {len(words)} words and {ModelConfig.num_specials} reserved ids "
            f"do not make the model's vocab_size {cfg.vocab_size}"
        )
    return Model(cfg, rng=None), vocab


def _load_parameters(model: Model, ckpt: Checkpoint, *sections: str) -> dict[str, dict]:
    """Read ``sections`` and make the ``model`` section's arrays the parameters' data,
    with no copy, once ``check_layout`` finds exactly the parameters' names and shapes."""
    params = model.named_parameters()
    check_layout(ckpt, {name: p.shape for name, p in params})
    read = ckpt.read(*sections)
    for name, param in params:
        param.data = read["model"][name]
    return read


def restore_model(ckpt: Checkpoint) -> tuple[Model, Vocab]:
    """The model and vocabulary; reads and verifies only the ``model`` section.
    The parameters are views into the buffer of that read, which the model owns."""
    model, vocab = _unfilled_model(ckpt)
    _load_parameters(model, ckpt, "model")
    return model, vocab


def new_train_state(
    model: Model, train_cfg: TrainConfig, rng: np.random.Generator,
    step: int = 0, epochs_done: int = 0,
    moments: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None = None,
) -> TrainState:
    """The training state around ``model``, with an Adam configured by ``train_cfg``
    (and holding ``moments``, when a restore passes them)."""
    optimizer = Adam(
        model.named_parameters(),
        lr=train_cfg.lr,
        beta1=train_cfg.adam_beta1,
        beta2=train_cfg.adam_beta2,
        eps=train_cfg.adam_eps,
        moments=moments,
    )
    return TrainState(model, optimizer, rng, step=step, epochs_done=epochs_done)


def restore_train_state(ckpt: Checkpoint) -> tuple[TrainState, Vocab, TrainConfig]:
    """Everything ``--resume`` needs; reads and verifies the ``model``, ``opt.m`` and
    ``opt.v`` sections in one read. The parameters and Adam moments are views into
    its buffer, which the state owns, and Adam updates them there in place."""
    model, vocab = _unfilled_model(ckpt)
    try:
        train_cfg = TrainConfig(**ckpt.config["train"])
        train_cfg.validate()
        step, epochs_done = ckpt.config["step"], ckpt.config["epochs_done"]
        if not all(type(n) is int and n >= 0 for n in (step, epochs_done)):
            raise CheckpointError(f"{ckpt.path}: step {step!r} and epochs_done "
                                  f"{epochs_done!r} must be non-negative integers")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = ckpt.config["rng"]
    except _BAD_VALUE as exc:
        raise CheckpointError(f"{ckpt.path}: unreadable training state: {exc!r}") from exc
    read = _load_parameters(model, ckpt, "model", "opt.m", "opt.v")
    moments = (read["opt.m"], read["opt.v"])
    return new_train_state(model, train_cfg, rng, step, epochs_done, moments), vocab, train_cfg


# -- top-level entry points ------------------------------------------------------


def _setting(name: str, model_cfg: ModelConfig, train_cfg: TrainConfig):
    """The value of setting ``name`` of ``train``'s ``chosen`` in these configs."""
    section, _, key = name.partition(".")
    if section == "moe":
        moe = model_cfg.moe
        return getattr(moe, key) if key and moe is not None else moe
    return getattr(model_cfg if section == "model" else train_cfg, key)


def train(
    manifest_path,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    ckpt_dir,
    dev_manifest_path=None,
    resume_from=None,
    chosen: Iterable[str] = (),
) -> Path:
    """Train on a manifest and return the path of the run's one checkpoint.

    A run writes two files to ``ckpt_dir``. ``final.ckpt`` is replaced at each
    epoch end (through a temp file and ``os.replace``), so it always holds the
    last complete epoch, and ``--resume`` continues from there. ``metrics.jsonl``
    gets one record per saved epoch, written after its save; a fresh run's first
    record starts it anew, and a resumed run appends to it.

    A fresh run takes its vocabulary, and so ``model_cfg.vocab_size``, and
    ``model_cfg.visual_dim`` from the task_spec.json next to the manifest.
    Fully deterministic for a given seed. With ``resume_from``, every setting
    comes from the checkpoint except ``train_cfg.epochs``; the model,
    optimizer, RNG, and epoch counter continue exactly where the saved run
    stopped, and the combined run is bit-identical to an uninterrupted one.
    ``chosen`` names the settings the caller set, as ``"model.hidden"``,
    ``"moe.top_k"``, ``"moe"`` (the section) or ``"train.seed"``; a resume
    would ignore them, so one whose value in ``model_cfg`` or ``train_cfg``
    differs from the checkpoint's raises ``ConfigError``. A resume with
    ``train_cfg.epochs`` at or below the checkpoint's epochs has nothing to
    train and raises ``ConfigError``. So does a resume into a
    ``ckpt_dir`` that holds another run: a ``final.ckpt`` that is not the
    resumed file, or a ``metrics.jsonl`` without a ``final.ckpt``.
    """
    train_cfg.validate()
    spec = load_task_spec_near(manifest_path)
    ckpt_dir = Path(ckpt_dir)
    final = ckpt_dir / "final.ckpt"

    if resume_from is not None:
        state, vocab, saved_cfg = restore_train_state(load_checkpoint(resume_from))
        ignored = []
        for name in chosen:
            mine = _setting(name, model_cfg, train_cfg)
            saved = _setting(name, state.model.cfg, saved_cfg)
            if mine != saved:
                ignored.append(f"{name} is {saved!r} there, not {mine!r}")
        if ignored:
            raise ConfigError(f"a resumed run takes its settings from {resume_from}: "
                              + "; ".join(ignored))
        if train_cfg.epochs <= state.epochs_done:
            raise ConfigError(
                f"nothing to train: {resume_from} holds {state.epochs_done} epoch(s) "
                f"and train.epochs is {train_cfg.epochs}"
            )
        if final.exists():
            other_run = not os.path.samefile(final, resume_from)
        else:
            other_run = (ckpt_dir / "metrics.jsonl").exists()
        if other_run:
            raise ConfigError(
                f"{ckpt_dir} holds another run; resume into the checkpoint's own "
                f"directory or a new one"
            )
        train_cfg = replace(saved_cfg, epochs=train_cfg.epochs)
    else:
        if spec is None:
            raise ConfigError("task_spec.json not found next to the manifest")
        vocab = Vocab(spec.vocab)
        model_cfg = replace(model_cfg, vocab_size=vocab.size, visual_dim=spec.visual_dim)
        model = Model(model_cfg, np.random.default_rng(train_cfg.seed))
        state = new_train_state(model, train_cfg, np.random.default_rng(train_cfg.seed))

    data = load_dataset(
        manifest_path, vocab, n_mels=state.model.cfg.n_mels,
        audio_only=train_cfg.audio_only, spec=spec,
    )
    dev_data = None
    if dev_manifest_path is not None:
        dev_data = load_dataset(
            dev_manifest_path, vocab, n_mels=state.model.cfg.n_mels,
            audio_only=train_cfg.audio_only, spec=spec,
        )

    ckpt_dir.mkdir(parents=True, exist_ok=True)
    metrics_mode = "w" if resume_from is None else "a"
    while state.epochs_done < train_cfg.epochs:
        epoch_log = run_epoch(state, data, train_cfg)
        state.epochs_done += 1
        record = {"epoch": state.epochs_done, **epoch_log, "dev_wer": None}
        if dev_data is not None:
            summary, _ = score_dataset(state.model, dev_data, vocab)
            record["dev_wer"] = summary["wer"]
        save_train_state(final, state, vocab, train_cfg)
        with open(ckpt_dir / "metrics.jsonl", metrics_mode) as metrics_file:
            metrics_file.write(json.dumps(record) + "\n")
        metrics_mode = "a"
        log.info(
            "epoch %d: l_att=%.4f l_ctc=%.4f l_aux=%s dev_wer=%s",
            record["epoch"], record["l_att"], record["l_ctc"],
            [f"{a:.4f}" for a in record["l_aux"]], record["dev_wer"],
        )
    return final


def score_dataset(
    model: Model, data: list[Utterance], vocab: Vocab, homophones: set[str] | None = None
) -> tuple[dict, list[dict]]:
    """Decode every utterance and aggregate corpus-level scores. Each head's
    hypothesis is aligned once; the attention one gives edits, ``wer`` and slots."""
    records = []
    total_edits = total_words = 0
    ctc_edits = 0
    subset_edits = subset_words = 0
    hom_correct = hom_total = 0
    for utt in data:
        att_hyp, ctc_hyp = transcribe(model, utt.mel, utt.visual)
        hyp_words = vocab.decode(att_hyp.token_ids)
        ctc_words = vocab.decode(
            [t for t in ctc_hyp.token_ids if t >= ModelConfig.num_specials]
        )
        edits, correct, total = score_words(utt.words, hyp_words, homophones)
        total_edits += edits
        total_words += len(utt.words)
        ctc_edits += score_words(utt.words, ctc_words)[0]
        record = {
            "utt_id": utt.utt_id,
            "ref": " ".join(utt.words),
            "hyp": " ".join(hyp_words),
            "hyp_ctc": " ".join(ctc_words),
            "wer": edits / len(utt.words),
            "score": att_hyp.score,
        }
        if homophones:
            record["hom_slots"] = total
            record["hom_correct"] = correct
            hom_correct += correct
            hom_total += total
            if total:
                subset_edits += edits
                subset_words += len(utt.words)
        records.append(record)
    summary = {
        "utterances": len(data),
        "wer": total_edits / total_words,
        "ctc_wer": ctc_edits / total_words,
    }
    if homophones:
        summary["hom_slots"] = hom_total
        summary["hom_correct"] = hom_correct
        summary["hom_accuracy"] = hom_correct / hom_total if hom_total else None
        summary["subset_wer"] = subset_edits / subset_words if subset_words else None
    return summary, records


def evaluate(manifest_path, ckpt_path, audio_only: bool = False) -> tuple[dict, list[dict]]:
    """Score a manifest with a trained checkpoint.

    ``audio_only`` drops the visual channel (zero visual rows). Homophone
    statistics appear whenever the corpus task spec is found next to the
    manifest.
    """
    spec = load_task_spec_near(manifest_path)
    homophones = spec.homophone_words() if spec is not None else None
    model, vocab = restore_model(load_checkpoint(ckpt_path))
    data = load_dataset(
        manifest_path, vocab, n_mels=model.cfg.n_mels, audio_only=audio_only, spec=spec
    )
    summary, records = score_dataset(model, data, vocab, homophones=homophones)
    summary["mode"] = "audio_only" if audio_only else "audiovisual"
    return summary, records
