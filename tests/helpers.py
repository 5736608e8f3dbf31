"""Shared test utilities: finite-difference oracles, gradient checks, retained-memory
measurement, the graph ops that only reference compositions use, the written-out Adam
update, checkpoint damage, and audio helpers the program itself does not need."""

from __future__ import annotations

import errno
import math
import pathlib
import tracemalloc
import wave

import numpy as np

from avmoe.checkpoint import load_checkpoint
from avmoe.frontend import Waveform, hz_to_mel
from avmoe.model import Model, ModelConfig
from avmoe.tensor import (
    Tensor, _record, _unbroadcast, affine, log_softmax_rows_forward, silu_forward,
)
from avmoe.train import TrainConfig

# Adam's decay rates and floor, as training passes them.
ADAM_CONSTANTS = {"beta1": TrainConfig.adam_beta1, "beta2": TrainConfig.adam_beta2,
                  "eps": TrainConfig.adam_eps}


def fuse_model(n_mels: int, stack_factor: int, visual_dim: int, hidden: int) -> Model:
    """A model without blocks, whose ``fuse`` packs the encoder input."""
    cfg = ModelConfig(vocab_size=5, hidden=hidden, heads=1, encoder_blocks=0, decoder_blocks=0,
                      visual_dim=visual_dim, n_mels=n_mels, stack_factor=stack_factor)
    return Model(cfg, np.random.default_rng(0))


def numeric_grad(func, array: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-returning func wrt every entry.

    ``func`` must recompute its value from the current contents of ``array``;
    entries are perturbed in place and restored.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        upper = func()
        flat[i] = keep - h
        lower = func()
        flat[i] = keep
        grad_flat[i] = (upper - lower) / (2.0 * h)
    return grad


def numeric_grad_at(func, array: np.ndarray, coords, h: float = 1e-6) -> np.ndarray:
    """Central differences at a chosen subset of flat coordinates."""
    flat = array.reshape(-1)
    out = np.zeros(len(coords))
    for n, i in enumerate(coords):
        keep = flat[i]
        flat[i] = keep + h
        upper = func()
        flat[i] = keep - h
        lower = func()
        flat[i] = keep
        out[n] = (upper - lower) / (2.0 * h)
    return out


def rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise relative error with a denominator floor.

    The floor turns the comparison into an absolute test for near-zero
    gradients, where central differences carry ~1e-9 of roundoff noise.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def check_grad(build_loss, params: list[Tensor], tol: float = 1e-4, h: float = 1e-6) -> float:
    """Compare backward() gradients against finite differences on every entry.

    ``build_loss`` constructs a fresh scalar loss Tensor from the params'
    current data. Returns the worst relative error seen.
    """
    loss = build_loss()
    for p in params:
        p.grad = None
    loss.backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_grad(lambda: build_loss().item(), p.data, h=h)
        err = rel_error(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} on tensor of shape {p.data.shape}"
    return worst


def retained_bytes(fn) -> int:
    """Bytes of numpy data that a call of ``fn`` leaves allocated, less its output
    Tensor's data.

    For a graph op that is the arrays its node keeps for the backward. Only numpy's
    tracemalloc domain counts: the node's Python objects, and whatever a tracer
    running the tests allocates, do not. ``fn`` runs once untraced first, so caches
    that it fills (such as ``Segments``' lazily built index arrays) do not count.
    """
    fn()
    tracemalloc.start()
    try:
        out = fn()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(stat.size for stat in arrays.statistics("filename")) - out.data.nbytes


def silu(a: Tensor) -> Tensor:
    """SiLU as a graph node of its own, with backward ``g * (s + a * s * (1 - s))``."""
    data, s = silu_forward(a.data)
    return _record(data, (a,), lambda g: (g * (s + a.data * s * (1.0 - s)),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """``length`` entries along ``axis`` from ``start``, as a graph node whose
    backward puts ``g`` into zeros of ``a``'s shape."""
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def backward(g):
        full_grad = np.zeros_like(a.data)
        full_grad[sl] = g
        return (full_grad,)

    return _record(a.data[sl], (a,), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient as a graph node, ``b`` broadcast against ``a``."""

    def backward(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record(a.data / b.data, (a, b), backward)


def log_softmax_rows(a: Tensor) -> Tensor:
    """Log-softmax over the last axis as a graph node of its own, with backward
    ``g - exp(out) * g.sum(axis=-1, keepdims=True)``."""
    out = log_softmax_rows_forward(a.data)
    return _record(out, (a,), lambda g: (g - np.exp(out) * g.sum(axis=-1, keepdims=True),))


def take_along_cols(a: Tensor, indices) -> Tensor:
    """Per-row column gather, ``out[i, k] = a[i, indices[i, k]]``, as a graph node
    whose backward adds ``g`` at those places into zeros of ``a``'s shape."""
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.shape[0])[:, None]

    def backward(g):
        full_grad = np.zeros_like(a.data)
        np.add.at(full_grad, (rows, idx), g)
        return (full_grad,)

    return _record(np.take_along_axis(a.data, idx, axis=1), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``a`` in another shape, as a graph node."""
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def neg(a: Tensor) -> Tensor:
    """``-a`` as a graph node."""
    return _record(-a.data, (a,), lambda g: (-g,))


def row_sum(a: Tensor) -> Tensor:
    """Sum over the last axis, kept as a width-1 axis, as a graph node."""
    return _record(a.data.sum(axis=-1, keepdims=True), (a,),
                   lambda g: (np.broadcast_to(g, a.shape),))


def reference_ffn(ffn, x: Tensor) -> Tensor:
    """``ffn`` on ``x`` from Tensor ops that do not call its kernel: affine, silu, affine."""
    pre = affine(x, ffn.lin1.weight, ffn.lin1.bias)
    return affine(silu(pre), ffn.lin2.weight, ffn.lin2.bias)


def copy_ffn_weights(dst, src) -> None:
    """Give FFN ``dst`` copies of the weights of FFN ``src``."""
    for mine, theirs in zip(dst.weights, src.weights):
        mine.data = theirs.data.copy()


def expression_adam_step(param, grad, m, v, step, lr, beta1, beta2, eps) -> None:
    """Adam as one numpy expression per array, allocating its temporaries."""
    m[...] = beta1 * m + (1.0 - beta1) * grad
    v[...] = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    param[...] = param - lr * m_hat / (np.sqrt(v_hat) + eps)


def tensor_offset(ckpt, section: str, name: str) -> tuple[int, int]:
    """(file offset, size in bytes) of tensor ``name`` in ``section`` of a loaded checkpoint."""
    offset = ckpt.section_start(section)
    for other, shape in ckpt.layout.items():
        if other == name:
            return offset, 8 * math.prod(shape)
        offset += 8 * math.prod(shape)
    raise KeyError(name)


def flip_byte_in_tensor(path, section: str) -> str:
    """Flip one bit in the middle of the first non-empty tensor of ``section``; its name."""
    ckpt = load_checkpoint(path)
    name = next(n for n, shape in ckpt.layout.items() if math.prod(shape))
    offset, nbytes = tensor_offset(ckpt, section, name)
    blob = bytearray(path.read_bytes())
    blob[offset + nbytes // 2] ^= 0x10
    path.write_bytes(bytes(blob))
    return name


def mel_center_frequencies(n_mels: int, sample_rate: int) -> np.ndarray:
    """The Hz centres of ``mel_filterbank``'s triangles: the inner points of its Mel grid."""
    grid = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    return 700.0 * (np.power(10.0, grid[1:-1] / 2595.0) - 1.0)


def write_wav(path, waveform: Waveform) -> None:
    """``waveform`` as mono 16-bit PCM WAV, clipped to [-1, 1]."""
    clipped = np.clip(waveform.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(waveform.sample_rate)
        wf.writeframes(pcm.tobytes())


def fill_disk_at_open(monkeypatch, nth: int) -> list[str]:
    """Patch ``Path.open`` so that the ``nth`` file opened for writing (from 1) fails
    with ENOSPC after its first write, as on a full disk. Returns the names of the
    files opened for writing, as they are opened."""
    real_open = pathlib.Path.open
    opened = []

    class DiskFull:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def write(self, data):
            if self.file.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.file.write(data)

    def open_disk_full(self, mode="r", *args, **kwargs):
        file = real_open(self, mode, *args, **kwargs)
        if "w" not in mode:
            return file
        opened.append(self.name)
        return DiskFull(file) if len(opened) == nth else file

    monkeypatch.setattr(pathlib.Path, "open", open_disk_full)
    return opened
