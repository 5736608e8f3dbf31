"""Small neural-net building blocks on top of the tensor engine.

Two computations are single graph nodes with hand-written backward passes:

- ``attend``: all heads of scaled dot-product attention at once. Per head,
  ``S = (Q K^T) * scale (+ mask)``, ``P = softmax_rows(S)``, ``O = P V``;
  backward ``dV = P^T G``, ``dP = G V^T``,
  ``dS = P * (dP - rowsum(dP * P)) * scale``, ``dQ = dS K``, ``dK = dS^T Q``.
- ``depthwise3``: the zero-padded 3-tap depthwise conv along time,
  ``y[t] = x[t-1] k0 + x[t] k1 + x[t+1] k2 + b``; backward
  ``dx[t] = g[t+1] k0 + g[t] k1 + g[t-1] k2``, ``dk_j = sum_t g[t] x[t+j-1]``,
  ``db = sum_t g[t]``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import (
    MASK_VALUE,
    Tensor,
    _record,
    affine,
    layer_norm,
    matmul,
    narrow,
    relu,
    silu,
)

_ACTIVATIONS = {"silu": silu, "relu": relu}


def activation_fn(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")


class Module:
    """Base class providing recursive, deterministically ordered parameter walks."""

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for attr, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((attr, value))
            elif isinstance(value, Module):
                out.extend((f"{attr}.{sub}", p) for sub, p in value.named_parameters())
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(
                            (f"{attr}.{i}.{sub}", p) for sub, p in item.named_parameters()
                        )
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True):
        self.weight = Tensor(glorot(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return matmul(x, self.weight)
        return affine(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift, eps=self.eps)


class FeedForward(Module):
    """Two-layer position-wise network; also serves as one expert."""

    def __init__(self, rng: np.random.Generator, dim: int, hidden: int, activation: str = "silu"):
        self.lin1 = Linear(rng, dim, hidden)
        self.lin2 = Linear(rng, hidden, dim)
        self.act = activation
        self._act_fn = activation_fn(activation)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self._act_fn(self.lin1(x)))

    def copy_weights_from(self, other: "FeedForward") -> None:
        self.lin1.weight.data = other.lin1.weight.data.copy()
        self.lin1.bias.data = other.lin1.bias.data.copy()
        self.lin2.weight.data = other.lin2.weight.data.copy()
        self.lin2.bias.data = other.lin2.bias.data.copy()


class MultiHeadAttention(Module):
    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        if dim % heads != 0:
            raise ConfigError(f"hidden width {dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.q_proj = Linear(rng, dim, dim)
        self.k_proj = Linear(rng, dim, dim)
        self.v_proj = Linear(rng, dim, dim)
        self.out_proj = Linear(rng, dim, dim)

    def __call__(self, query: Tensor, memory: Tensor, mask: np.ndarray | None = None) -> Tensor:
        q = self.q_proj(query)
        k = self.k_proj(memory)
        v = self.v_proj(memory)
        return self.out_proj(attend(q, k, v, self.heads, self.scale, mask))


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(T, H * d_h) -> (H, T, d_h) view; head h owns columns h*d_h .. (h+1)*d_h."""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(H, T, d_h) -> (T, H * d_h), the inverse of ``_split_heads``."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def attend(
    q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float, mask: np.ndarray | None = None
) -> Tensor:
    """Multi-head scaled dot-product attention as one graph node.

    ``q`` is (T_q, D), ``k`` and ``v`` are (T_k, D), with D = heads * d_h and
    head h reading columns h*d_h .. (h+1)*d_h of each. Per head, on an
    (H, T, d_h) view:

        S = (Q K^T) * scale (+ mask),  P = softmax_rows(S),  O = P V

    and the heads' outputs sit side by side in a (T_q, D) result. ``mask``
    is an additive (T_q, T_k) array shared by all heads. Backward, with G
    the output gradient in the same view:

        dV = P^T G,  dP = G V^T,  dS = P * (dP - rowsum(dP * P)) * scale,
        dQ = dS K,   dK = dS^T Q
    """
    if q.ndim != 2 or k.ndim != 2 or v.shape != k.shape or q.shape[1] != k.shape[1]:
        raise DimensionError(f"attend got q={q.shape}, k={k.shape}, v={v.shape}")
    if q.shape[1] % heads != 0:
        raise DimensionError(f"width {q.shape[1]} not divisible by {heads} heads")
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = _split_heads(g, heads)
        dprobs = np.matmul(gh, vh.transpose(0, 2, 1))
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
        dq = np.matmul(dscores, kh)
        dk = np.matmul(dscores.transpose(0, 2, 1), qh)
        dv = np.matmul(probs.transpose(0, 2, 1), gh)
        return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)

    return _record(_merge_heads(np.matmul(probs, vh)), (q, k, v), backward)


def depthwise3(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Zero-padded 3-tap depthwise convolution along time, as one graph node.

    ``x`` is (T, D), ``kernel`` (3, D), ``bias`` (D,). With ``p`` the input
    padded by one zero row at each end (so ``p[t] = x[t-1]``):

        y[t] = p[t] k0 + p[t+1] k1 + p[t+2] k2 + b      (summed in that order)

    Backward, with ``gp`` the output gradient padded the same way:

        dx[t] = gp[t+2] k0 + gp[t+1] k1 + gp[t] k2
        dk_j  = sum_t g[t] p[t+j],   db = sum_t g[t]
    """
    length, dim = x.shape
    if kernel.shape != (3, dim) or bias.shape != (dim,):
        raise DimensionError(
            f"depthwise3 got x={x.shape}, kernel={kernel.shape}, bias={bias.shape}"
        )
    zero = np.zeros((1, dim))
    padded = np.concatenate([zero, x.data, zero])
    taps = kernel.data
    y = padded[:length] * taps[0]
    y = y + padded[1 : length + 1] * taps[1]
    y = y + padded[2:] * taps[2]

    def backward(g):
        gp = np.concatenate([zero, g, zero])
        dx = gp[2:] * taps[0] + g * taps[1] + gp[:length] * taps[2]
        dk = np.stack([(g * padded[j : j + length]).sum(axis=0) for j in range(3)])
        return dx, dk, g.sum(axis=0)

    return _record(y + bias.data, (x, kernel, bias), backward)


class ConvGatedMLP(Module):
    """Local-context branch: linear gate modulated by a depthwise 3-tap conv."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.up = Linear(rng, dim, 2 * dim)
        limit = math.sqrt(1.0 / 3.0)
        self.kernel = Tensor(rng.uniform(-limit, limit, size=(3, dim)), requires_grad=True)
        self.kernel_bias = Tensor(np.zeros(dim), requires_grad=True)
        self.down = Linear(rng, dim, dim)
        self.dim = dim

    def _depthwise3(self, x: Tensor) -> Tensor:
        return depthwise3(x, self.kernel, self.kernel_bias)

    def __call__(self, x: Tensor) -> Tensor:
        u = silu(self.up(x))
        gate = narrow(u, 1, 0, self.dim)
        conv_in = narrow(u, 1, self.dim, self.dim)
        return self.down(gate * self._depthwise3(conv_in))


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Absolute sine/cosine position table of shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, half / dim)
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : table[:, 1::2].shape[1]])
    return table


def causal_mask(length: int) -> np.ndarray:
    """Additive mask blocking attention to strictly-future positions."""
    mask = np.zeros((length, length), dtype=np.float64)
    mask[np.triu_indices(length, k=1)] = MASK_VALUE
    return mask
