"""Shared test utilities: finite-difference oracles, gradient checks, retained-memory
measurement and checkpoint damage."""

from __future__ import annotations

import tracemalloc

import numpy as np

from avmoe.checkpoint import load_checkpoint
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
