"""Training loop, evaluation, and checkpoint state management."""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, load_params_into, save_checkpoint
from .decoding import transcribe
from .errors import CheckpointError, ConfigError, CtcInfeasibleError, DataError, NumericError
from .frontend import LogMelSpectrogram, log_mel_from_waveform, read_waveform
from .fusion import load_visual_embeddings
from .losses import attention_loss, batch_balance_losses, ctc_loss, total_loss
from .metrics import edit_distance, slot_accuracy, wer
from .model import Model, ModelConfig
from .moe import MoEConfig
from .optim import Adam
from .synth import (
    ManifestEntry,
    SyntheticTaskSpec,
    load_manifest,
    load_task_spec_near,
    synth_waveform,
)

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    lr: float = 3e-4
    warmup_steps: int = 100
    alpha: float = 0.3
    beta: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    audio_only: bool = False
    max_decode_len: int = 32

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(
                f"epochs/batch_size must be >= 1, got {self.epochs}/{self.batch_size}"
            )
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")


class Vocab:
    """Word list plus the four reserved ids (blank, sos, eos, pad)."""

    BLANK, SOS, EOS, PAD = 0, 1, 2, 3
    NUM_SPECIALS = 4

    def __init__(self, words: list[str]):
        if len(set(words)) != len(words):
            raise ConfigError("vocabulary contains duplicates")
        self.words = list(words)
        self._to_id = {w: i + self.NUM_SPECIALS for i, w in enumerate(words)}

    @property
    def size(self) -> int:
        return len(self.words) + self.NUM_SPECIALS

    def encode(self, words: list[str]) -> list[int]:
        try:
            return [self._to_id[w] for w in words]
        except KeyError as exc:
            raise DataError(f"word {exc.args[0]!r} not in vocabulary") from exc

    def decode(self, ids: list[int]) -> list[str]:
        out = []
        for i in ids:
            if not self.NUM_SPECIALS <= i < self.size:
                raise DataError(f"id {i} is not a vocabulary word")
            out.append(self.words[i - self.NUM_SPECIALS])
        return out


@dataclass
class Utterance:
    utt_id: str
    mel: LogMelSpectrogram
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
        if words is None or noise_seed is None:
            raise DataError(f"{entry.utt_id}: inline audio needs 'words' and 'noise_seed'")
        return synth_waveform(list(words), spec, np.random.default_rng(int(noise_seed)))
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


def utterance_losses(model: Model, utt: Utterance):
    """Per-utterance attention and CTC losses plus the MoE load stats."""
    states, stats, boundary = model.encode_utterance(utt.mel, utt.visual)
    cfg = model.cfg
    logits = model.decode_teacher_forcing(states, [cfg.sos_id] + utt.target_ids)
    l_att = attention_loss(logits, utt.target_ids + [cfg.eos_id], cfg.pad_id)
    frame_logits = model.ctc_head(states, boundary)
    try:
        l_ctc = ctc_loss(frame_logits, utt.target_ids, blank_id=cfg.blank_id)
    except CtcInfeasibleError as exc:
        raise DataError(f"utterance {utt.utt_id}: {exc}") from exc
    return l_att, l_ctc, stats


@dataclass
class TrainState:
    model: Model
    optimizer: Adam
    rng: np.random.Generator
    step: int = 0
    epochs_done: int = 0


@dataclass
class TrainResult:
    final_checkpoint: Path
    metrics: list[dict] = field(default_factory=list)
    model: Model | None = None


def _train_batch(state: TrainState, batch: list[Utterance], cfg: TrainConfig) -> dict:
    att_sum = None
    ctc_sum = None
    per_layer: list[list] = []
    for utt in batch:
        l_att, l_ctc, stats = utterance_losses(state.model, utt)
        att_sum = l_att if att_sum is None else att_sum + l_att
        ctc_sum = l_ctc if ctc_sum is None else ctc_sum + l_ctc
        if stats:
            if not per_layer:
                per_layer = [[] for _ in stats]
            for layer_idx, s in enumerate(stats):
                per_layer[layer_idx].append(s)
    scale = 1.0 / len(batch)
    l_att = att_sum * scale
    l_ctc = ctc_sum * scale
    aux_terms = []
    if per_layer:
        num_experts = state.model.cfg.moe.num_experts
        aux_terms = batch_balance_losses(per_layer, num_experts)
    bundle = total_loss(l_att, l_ctc, aux_terms, alpha=cfg.alpha, beta=cfg.beta)
    if not np.isfinite(bundle.l_total.item()):
        raise NumericError(f"non-finite loss at step {state.step + 1}")
    bundle.l_total.backward()
    state.step += 1
    warm = min(1.0, state.step / cfg.warmup_steps) if cfg.warmup_steps > 0 else 1.0
    state.optimizer.step(lr=cfg.lr * warm)
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


def _rng_state_json(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state)


def _rng_from_json(text: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(text)
    return rng


def model_config_json(cfg: ModelConfig) -> str:
    payload = {k: v for k, v in vars(cfg).items() if k != "moe"}
    payload["moe"] = None if cfg.moe is None else asdict(cfg.moe)
    return json.dumps(payload, sort_keys=True)


def model_config_from_json(text: str) -> ModelConfig:
    payload = json.loads(text)
    moe = payload.pop("moe", None)
    cfg = ModelConfig(**payload)
    if moe is not None:
        cfg.moe = MoEConfig(**moe)
    cfg.validate()
    return cfg


def save_train_state(path, state: TrainState, vocab: Vocab, train_cfg: TrainConfig) -> None:
    config = {
        "model": model_config_json(state.model.cfg),
        "train": json.dumps(asdict(train_cfg), sort_keys=True),
        "vocab": json.dumps(vocab.words),
        "rng": _rng_state_json(state.rng),
        "step": str(state.step),
        "epochs_done": str(state.epochs_done),
    }
    tensors: dict[str, np.ndarray] = {}
    for name, p in state.model.named_parameters():
        tensors["model." + name] = p.data
    for name in state.optimizer.m:
        tensors["opt.m." + name] = state.optimizer.m[name]
        tensors["opt.v." + name] = state.optimizer.v[name]
    save_checkpoint(path, config, tensors)


def restore_model(ckpt: Checkpoint) -> tuple[Model, Vocab]:
    try:
        cfg = model_config_from_json(ckpt.config["model"])
        vocab = Vocab(json.loads(ckpt.config["vocab"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"unreadable model config or vocabulary: {exc!r}") from exc
    model = Model(cfg, np.random.default_rng(0))
    load_params_into(model.named_parameters(), ckpt.tensors, prefix="model.")
    return model, vocab


def new_train_state(
    model: Model, train_cfg: TrainConfig, rng: np.random.Generator,
    step: int = 0, epochs_done: int = 0,
) -> TrainState:
    """The training state around ``model``, with an Adam configured by ``train_cfg``."""
    optimizer = Adam(
        model.named_parameters(),
        lr=train_cfg.lr,
        beta1=train_cfg.adam_beta1,
        beta2=train_cfg.adam_beta2,
        eps=train_cfg.adam_eps,
    )
    optimizer.step_count = step
    return TrainState(model, optimizer, rng, step=step, epochs_done=epochs_done)


def restore_train_state(ckpt: Checkpoint) -> tuple[TrainState, Vocab, TrainConfig]:
    model, vocab = restore_model(ckpt)
    try:
        train_cfg = TrainConfig(**json.loads(ckpt.config["train"]))
        step, epochs_done = int(ckpt.config["step"]), int(ckpt.config["epochs_done"])
        rng = _rng_from_json(ckpt.config["rng"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"unreadable training state: {exc!r}") from exc
    state = new_train_state(model, train_cfg, rng, step, epochs_done)
    optimizer = state.optimizer
    for name in optimizer.m:
        m_key, v_key = "opt.m." + name, "opt.v." + name
        if m_key not in ckpt.tensors or v_key not in ckpt.tensors:
            raise CheckpointError(f"optimizer state missing for parameter {name!r}")
        optimizer.m[name] = ckpt.tensors[m_key].copy()
        optimizer.v[name] = ckpt.tensors[v_key].copy()
    return state, vocab, train_cfg


# -- top-level entry points ------------------------------------------------------


def train(
    manifest_path,
    model_cfg: ModelConfig | None,
    train_cfg: TrainConfig,
    ckpt_dir,
    dev_manifest_path=None,
    resume_from=None,
) -> TrainResult:
    """Train on a manifest, checkpointing and logging metrics every epoch.

    A fresh run takes its vocabulary, and so ``model_cfg.vocab_size``, from
    the task_spec.json next to the manifest. Fully deterministic for a given
    seed. With ``resume_from``, the model, optimizer, RNG, and epoch counter
    continue exactly where the saved run stopped; the combined run is
    bit-identical to an uninterrupted one.
    """
    train_cfg.validate()
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    spec = load_task_spec_near(manifest_path)

    if resume_from is not None:
        state, vocab, saved_cfg = restore_train_state(load_checkpoint(resume_from))
        saved_cfg.epochs = train_cfg.epochs
        train_cfg = saved_cfg
    else:
        if spec is None:
            raise ConfigError("task_spec.json not found next to the manifest")
        if model_cfg is None:
            raise ConfigError("model config is required when starting from scratch")
        vocab = Vocab(spec.vocab)
        model_cfg = replace(model_cfg, vocab_size=vocab.size)
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

    metrics_path = ckpt_dir / "metrics.jsonl"
    metrics: list[dict] = []
    with open(metrics_path, "a") as metrics_file:
        while state.epochs_done < train_cfg.epochs:
            epoch_log = run_epoch(state, data, train_cfg)
            state.epochs_done += 1
            record = {"epoch": state.epochs_done, **epoch_log, "dev_wer": None}
            if dev_data is not None:
                summary, _ = score_dataset(state.model, dev_data, vocab, train_cfg.max_decode_len)
                record["dev_wer"] = summary["wer"]
            metrics.append(record)
            metrics_file.write(json.dumps(record) + "\n")
            metrics_file.flush()
            log.info(
                "epoch %d: l_att=%.4f l_ctc=%.4f l_aux=%s dev_wer=%s",
                record["epoch"], record["l_att"], record["l_ctc"],
                [f"{a:.4f}" for a in record["l_aux"]], record["dev_wer"],
            )
            save_train_state(
                ckpt_dir / f"epoch{state.epochs_done:03d}.ckpt", state, vocab, train_cfg
            )
    final = ckpt_dir / "final.ckpt"
    save_train_state(final, state, vocab, train_cfg)
    return TrainResult(final_checkpoint=final, metrics=metrics, model=state.model)


def score_dataset(
    model: Model,
    data: list[Utterance],
    vocab: Vocab,
    max_decode_len: int = 32,
    homophones: set[str] | None = None,
) -> tuple[dict, list[dict]]:
    """Decode every utterance and aggregate corpus-level scores."""
    records = []
    total_edits = total_words = 0
    ctc_edits = 0
    subset_edits = subset_words = 0
    hom_correct = hom_total = 0
    for utt in data:
        att_hyp, ctc_hyp = transcribe(model, utt.mel, utt.visual, max_decode_len)
        hyp_words = vocab.decode(att_hyp.token_ids)
        ctc_words = vocab.decode(
            [t for t in ctc_hyp.token_ids if t >= Vocab.NUM_SPECIALS]
        )
        edits = edit_distance(utt.words, hyp_words)
        total_edits += edits
        total_words += len(utt.words)
        ctc_edits += edit_distance(utt.words, ctc_words)
        record = {
            "utt_id": utt.utt_id,
            "ref": " ".join(utt.words),
            "hyp": " ".join(hyp_words),
            "hyp_ctc": " ".join(ctc_words),
            "wer": wer(utt.words, hyp_words),
            "score": att_hyp.score,
        }
        if homophones:
            correct, total = slot_accuracy(utt.words, hyp_words, homophones)
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


def evaluate(
    manifest_path,
    ckpt_path,
    audio_only: bool = False,
    subset: str | None = None,
    max_decode_len: int = 32,
) -> tuple[dict, list[dict]]:
    """Score a manifest with a trained checkpoint.

    ``audio_only`` drops the visual channel (zero visual rows). Homophone
    statistics appear whenever the corpus task spec is found next to the
    manifest; ``subset="homophone"`` restricts the reported records to
    utterances containing a homophone word.
    """
    ckpt = load_checkpoint(ckpt_path)
    model, vocab = restore_model(ckpt)
    spec = load_task_spec_near(manifest_path)
    homophones = spec.homophone_words() if spec is not None else None
    data = load_dataset(
        manifest_path, vocab, n_mels=model.cfg.n_mels, audio_only=audio_only, spec=spec
    )
    summary, records = score_dataset(
        model, data, vocab, max_decode_len=max_decode_len, homophones=homophones
    )
    summary["mode"] = "audio_only" if audio_only else "audiovisual"
    if subset == "homophone":
        if homophones is None:
            raise ConfigError("homophone subset requested but no task spec was found")
        records = [r for r in records if r.get("hom_slots")]
    elif subset is not None:
        raise ConfigError(f"unknown subset {subset!r}; supported: homophone")
    return summary, records
