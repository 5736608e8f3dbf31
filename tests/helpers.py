"""Shared test utilities: finite-difference oracles, gradient checks, retained-memory
measurement, checkpoint damage, and audio helpers the program itself does not need."""

from __future__ import annotations

import errno
import pathlib
import tracemalloc
import wave

import numpy as np

from avmoe.checkpoint import load_checkpoint
from avmoe.frontend import Waveform, hz_to_mel
from avmoe.tensor import Tensor, affine, silu


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


# What a graph node's Python objects (tensor, closure, cells, array headers) may
# add to the arrays it keeps, as a slack for bounds on ``retained_bytes``.
NODE_OBJECTS = 8 * 1024


def retained_bytes(fn) -> int:
    """Bytes that a call of ``fn`` leaves allocated, less its output Tensor's data.

    For a graph op that is what its node keeps for the backward, plus the
    node's small Python objects. ``fn`` runs once untraced first, so caches
    that it fills (such as ``Segments``' lazily built index arrays) do not count.
    """
    fn()
    tracemalloc.start()
    try:
        out = fn()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained - out.data.nbytes


def reference_ffn(ffn, x: Tensor) -> Tensor:
    """``ffn`` on ``x`` from Tensor ops that do not call its kernel: affine, silu, affine."""
    pre = affine(x, ffn.lin1.weight, ffn.lin1.bias)
    return affine(silu(pre), ffn.lin2.weight, ffn.lin2.bias)


def copy_ffn_weights(dst, src) -> None:
    """Give FFN ``dst`` copies of the weights of FFN ``src``."""
    for mine, theirs in zip(dst.weights, src.weights):
        mine.data = theirs.data.copy()


def flip_byte_in_tensor(path, prefix: str) -> str:
    """Flip one bit in the middle of the first non-empty tensor under ``prefix``; its name."""
    ckpt = load_checkpoint(path)
    name, entry = next((n, e) for n, e in ckpt.entries.items() if n.startswith(prefix) and e.nbytes)
    blob = bytearray(path.read_bytes())
    blob[ckpt.data_start + entry.offset + entry.nbytes // 2] ^= 0x10
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
