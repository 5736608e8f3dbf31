"""Shared pieces of the benchmark: thread pinning, inputs, the deployed model.

Importing this module pins BLAS to one thread. It must be imported before
anything else imports numpy, because OpenBLAS reads the setting once, when
it loads.
"""

from __future__ import annotations

import os
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if "numpy" in sys.modules:
    raise RuntimeError("harness must be imported before numpy so that BLAS is pinned")
os.environ.update(THREAD_ENV)

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if not (SRC / "avmoe" / "__init__.py").is_file():
    raise ImportError(f"the avmoe sources are not at {SRC}")
sys.path.insert(0, str(SRC))

from avmoe import decoding, frontend, fusion, synth  # noqa: E402
from avmoe import train as avtrain  # noqa: E402
from avmoe.errors import AvmoeError  # noqa: E402
from avmoe.model import Model, ModelConfig  # noqa: E402
from avmoe.moe import MoEConfig  # noqa: E402
from avmoe.tensor import no_grad  # noqa: E402

MAX_DECODE_LEN = 32

# The deployed model that eval_decode serves, and that the train workloads
# decode with after their timed epochs. It is trained with a fixed recipe, not
# from the workload seed: a model trained for 16 steps on a per-seed corpus
# emits 1.3 to 3.1 tokens on average depending on the seed, which would make
# decode latency measure the seed instead of the code. This recipe gives a
# model that answers every request with 3 tokens and then eos, far from the
# 32-token cap, so decode cost depends on the input length only.
PREP_RECIPE = {
    "corpus_seed": 0,
    "model_seed": 0,
    "utterances": 32,
    "epochs": 4,
    "batch_size": 8,
    "lr": 2e-3,
    "warmup_steps": 0,
}

# Seconds the calibration kernel takes on a quiet machine; see Clock.
CAL_REF_S = 0.003


class Clock:
    """Wall time rescaled to a reference machine speed.

    On a shared 2-core VM, other tenants slow a process down for seconds at a
    time, by up to 70%, and the slowdown moves a fixed numpy kernel about as
    much as it moves this program: on 20 s windows of decode requests, the
    spread of the median latency was 21% as measured and 3.5% once divided
    by the kernel's time next to it. So the benchmark times the kernel between units
    of work, and reports a duration as ``wall * CAL_REF_S / kernel``: the
    duration on a machine where the kernel takes ``CAL_REF_S``.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 64))
        self._x = rng.normal(size=(40, 64))
        self.history: list[float] = []

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            x = self._x
            for _ in range(200):
                x = np.tanh(x @ self._a * 0.05) + x * 0.5
            self.history.append(time.perf_counter() - start)

    def scale(self, last: int) -> float:
        """Factor from wall to reference time, from the median of the last samples."""
        return CAL_REF_S / statistics.median(self.history[-last:])


def model_config(vocab_size: int) -> ModelConfig:
    """The default model of ``avmoe train --config default``."""
    cfg = ModelConfig(vocab_size=vocab_size)
    cfg.moe = MoEConfig(hidden=cfg.hidden, ffn_hidden=cfg.d_ff)
    return cfg


def reference_vocab() -> avtrain.Vocab:
    return avtrain.Vocab(synth.reference_task_spec().vocab)


def make_corpus(root: Path, seed: int, train: dict[int, int], test: dict[int, int]) -> dict[str, Path]:
    """Write a reference-task corpus with a fixed number of utterances per word count.

    ``train`` and ``test`` map a word count to the number of utterances of
    that length in the split. Audio duration is fixed by the word count, so
    fixing the counts instead of sampling them gives every seed the same
    tensor shapes; the seed still picks the words, the noise and the visual
    rows. Returns the combined ``train`` and ``test`` manifests.
    """
    spec = synth.reference_task_spec()
    root.mkdir(parents=True, exist_ok=True)
    wanted = {"train": train, "test": test}
    combined: dict[str, list[str]] = {"train": [], "test": []}
    for length in sorted(train.keys() | test.keys()):
        sub = f"len{length}"
        part_spec = dataclasses.replace(spec, min_words=length, max_words=length)
        manifests = synth.generate_corpus(
            part_spec, max(train.get(length, 0), 1), 1, max(test.get(length, 0), 1),
            root / sub, seed=seed * 100 + length,
        )
        for split, lines in combined.items():
            if length not in wanted[split]:
                continue
            for line in manifests[split].read_text().splitlines():
                entry = json.loads(line)
                entry["audio"] = f"{sub}/{entry['audio']}"
                entry["visual"] = f"{sub}/{entry['visual']}"
                entry["utt_id"] = f"{sub}-{entry['utt_id']}"
                lines.append(json.dumps(entry, sort_keys=True))
    (root / "task_spec.json").write_text(spec.to_json())
    out = {}
    for split, lines in combined.items():
        out[split] = root / f"{split}.jsonl"
        out[split].write_text("".join(line + "\n" for line in lines))
    return out


def make_corpus_flat(root: Path, n_train: int, seed: int) -> Path:
    """A plain reference-task corpus, as ``avmoe generate`` writes it; returns the train manifest."""
    manifests = synth.generate_corpus(synth.reference_task_spec(), n_train, 1, 1, root, seed=seed)
    return manifests["train"]


def decode_request(model: Model, entry, base: Path):
    """One inference request, from files to both hypotheses.

    Calls go through module attributes so that traced runs see them.
    """
    wave = frontend.read_waveform(base / entry.audio)
    mel = frontend.log_mel_from_waveform(wave, n_mels=model.cfg.n_mels)
    visual = fusion.load_visual_embeddings(base / entry.visual)
    with no_grad():
        states, stats, boundary = model.encode_utterance(mel, visual)
        att = decoding.attention_greedy_decode(model, states, MAX_DECODE_LEN)
        frame_logits = model.ctc_head(states, boundary)
        ctc = decoding.ctc_greedy_decode(frame_logits, blank_id=model.cfg.blank_id)
    return {"states": states, "stats": stats, "frame_logits": frame_logits, "att": att, "ctc": ctc}


def dispatch_ok(stats, top_k: int) -> bool:
    return all(s.dispatched == top_k * s.tokens for s in stats)


def attention_oracle_ok(model: Model, states, hyp_ids: list[int]) -> bool:
    """The hypothesis must be the argmax chain of one teacher-forced pass over it."""
    cfg = model.cfg
    with no_grad():
        logits = model.decode_teacher_forcing(states, [cfg.sos_id] + hyp_ids).data
    chain = [int(i) for i in np.argmax(logits, axis=1)]
    if chain[: len(hyp_ids)] != hyp_ids:
        return False
    return len(hyp_ids) == MAX_DECODE_LEN or chain[len(hyp_ids)] == cfg.eos_id


def ctc_oracle_ok(frame_logits, hyp_ids: list[int], blank_id: int) -> bool:
    """The CTC hypothesis must be the collapsed per-frame argmax path."""
    path = np.argmax(frame_logits.data, axis=1)
    keep = np.ones(path.shape[0], dtype=bool)
    keep[1:] = path[1:] != path[:-1]
    collapsed = [int(t) for t in path[keep] if t != blank_id]
    return collapsed == hyp_ids


def source_digest() -> tuple[str, int]:
    """sha256 over the avmoe sources, and their number of lines."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "avmoe").glob("*.py")):
        blob = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return digest.hexdigest(), lines


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def meta(workload: str, seed: int, model_cfg: ModelConfig, n_params: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_sha, src_lines = source_digest()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": src_sha,
        "src_loc": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "model_config": avtrain.model_config_json(model_cfg),
        "parameters": n_params,
        "prep_recipe": PREP_RECIPE,
        "cal_ref_s": CAL_REF_S,
    }

