"""Small neural-net building blocks on top of the tensor engine.

A batch of B sequences is packed along axis 0, one after another, and
``Segments`` records their lengths. Row-wise layers run once on all rows;
the two computations that read across rows, ``attend`` and the cgMLP,
know the segments, so no row ever sees a row of another sequence. Both are
single graph nodes with hand-written backward passes:

- ``attend``: all heads of scaled dot-product attention at once, on a
  zero-padded (B, H, T_max, T_max) batch whose padding keys are masked.
  Per head and sequence, ``S = (Q K^T) * scale (+ mask)``,
  ``P = softmax_rows(S)``, ``O = P V``; backward ``dV = P^T G``,
  ``dP = G V^T``, ``dS = P * (dP - rowsum(dP * P)) * scale``, ``dQ = dS K``,
  ``dK = dS^T Q``.
- ``ConvGatedMLP``: E-Branchformer's convolution-gated MLP. The first half
  of ``u = silu(pre)``, ``pre = x U + c``, gates a 3-tap depthwise conv
  along time of its second half v, zero-padded at both ends of every
  sequence: ``conv[t] = v[t-1] k0 + v[t] k1 + v[t+1] k2 + b``,
  ``y = (u[:, :D] * conv) W + e``. Backward, with s the sigmoid of ``pre``
  and ``dconv = (G W^T) * u[:, :D]``: ``dv[t] = dconv[t+1] k0 + dconv[t] k1
  + dconv[t-1] k2``, ``dk_j = sum_t v[t] dconv[t+1-j]``, ``db = colsum(dconv)``,
  ``dpre = [(G W^T) * conv, dv] * (s + pre * s * (1 - s))``, and the two
  affines' gradients as in the FFN below.

A node keeps only what its backward cannot rebuild, at no real cost, from
its parents' data, which the graph holds anyway:

- ``attend`` keeps ``P``; the backward pads Q, K and V again.
- ``ConvGatedMLP`` keeps no shifted copies of v: the shifted ``dconv`` built
  for ``dv`` gives ``dk_0`` and ``dk_2``, in the row order of the copies' sums.
- ``tensor.layer_norm`` keeps the row statistics, not the normalized rows.
- The FFN kernel keeps ``act`` and ``s``, not its input rows: its
  backward takes ``x`` from the caller, and ``moe.expert_mixture``
  gathers an expert's rows again rather than keep the gather.

The position-wise FFN, which is also one MoE expert, runs as one numpy
kernel pair, ``FeedForward.forward`` and ``FeedForward.backward``.
``FeedForward.__call__`` records it as one graph node; ``moe.expert_mixture``
calls it once per expert on that expert's rows:

    a = silu(x W1 + b1),   y = a W2 + b2

Backward, with G the output gradient:

    dW2 = a^T G,   db2 = colsum(G)
    da  = (G W2^T) * silu'(x W1 + b1)
    dW1 = x^T da,   db1 = colsum(da),   dx = da W1^T

``silu'`` comes from what the forward saved besides ``a``: with s the
sigmoid of ``x W1 + b1``, it is ``s + a * (1 - s)``.

``Linear``, ``LayerNorm``, ``MultiHeadAttention`` and ``ConvGatedMLP`` have a
``forward`` on arrays through their graph ops' kernels, such as ``attend_forward``:
inference (``EncoderBlock.forward``, ``Model._decode_step``) runs on them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError
from .tensor import (
    LOG_ZERO,
    Tensor,
    _record,
    affine,
    layer_norm,
    layer_norm_forward,
    silu_forward,
    softmax_rows_forward,
)


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


def unfilled(shape: tuple[int, ...]) -> np.ndarray:
    """A read-only stand-in of ``shape`` that holds no storage, for a checkpoint load to replace."""
    return np.ndarray(shape, buffer=bytes(8), strides=(0,) * len(shape))


def glorot(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform weights; with no ``rng``, an ``unfilled`` stand-in."""
    if rng is None:
        return unfilled((fan_in, fan_out))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, rng: np.random.Generator | None, d_in: int, d_out: int):
        self.weight = Tensor(glorot(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.data + self.bias.data


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return layer_norm_forward(x, self.gain.data, self.shift.data)[0]


class FeedForward(Module):
    """Two-layer position-wise network; also serves as one expert.

    The formulas of ``forward`` and ``backward`` are in the module docstring.
    """

    def __init__(self, rng: np.random.Generator | None, dim: int, hidden: int):
        self.lin1 = Linear(rng, dim, hidden)
        self.lin2 = Linear(rng, hidden, dim)

    @property
    def weights(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """``W1, b1, W2, b2``, in the order ``backward`` returns their gradients."""
        return self.lin1.weight, self.lin1.bias, self.lin2.weight, self.lin2.bias

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The (rows, dim) output for (rows, dim) ``x``, and what ``backward``
        needs besides ``x``: ``(act, s)``."""
        act, s = silu_forward(x @ self.lin1.weight.data + self.lin1.bias.data)
        return act @ self.lin2.weight.data + self.lin2.bias.data, (act, s)

    def backward(self, g: np.ndarray, x: np.ndarray, saved: tuple) -> tuple[np.ndarray, ...]:
        """``dx, dW1, db1, dW2, db2`` for output gradient ``g`` of ``forward(x)``.

        The caller passes ``x`` again rather than the forward saving it, since
        every caller holds it anyway. ``s`` is the sigmoid of
        ``pre = x W1 + b1``. ``s + act * (1 - s)`` with ``act = pre * s`` is
        bit-identical to ``s + pre * s * (1 - s)``, which evaluates
        ``pre * s`` first.
        """
        act, s = saved
        da = (g @ self.lin2.weight.data.T) * (s + act * (1.0 - s))
        return da @ self.lin1.weight.data.T, x.T @ da, da.sum(axis=0), act.T @ g, g.sum(axis=0)

    def __call__(self, x: Tensor) -> Tensor:
        """The FFN as one graph node with parents ``(x, W1, b1, W2, b2)``."""
        y, saved = self.forward(x.data)
        return _record(y, (x, *self.weights), lambda g: self.backward(g, x.data, saved))


class Segments:
    """Lengths of B sequences packed one after another along axis 0.

    Row r of the packed array belongs to sequence ``index[r]``, at position
    ``positions[r]`` within it. ``pad`` lays the rows out as a zero-padded
    (B, longest, ...) batch and ``unpad`` packs such a batch back.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        sizes = lengths.tolist()  # Python ints: cheaper than array reductions for few segments
        if lengths.ndim != 1 or not sizes or min(sizes) < 1:
            raise DimensionError(f"need one or more positive segment lengths, got {lengths}")
        self.lengths = lengths
        self.count = len(sizes)
        self.total = sum(sizes)
        self.longest = max(sizes)
        self.padded = self.total != self.count * self.longest

    # Built on first use: ``pad``, ``unpad`` and ``attend`` read none of these when no
    # sequence is padded.
    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    @functools.cached_property
    def index(self) -> np.ndarray:
        return np.repeat(np.arange(self.count), self.lengths)

    @functools.cached_property
    def positions(self) -> np.ndarray:
        return np.concatenate([np.arange(n) for n in self.lengths.tolist()])

    @functools.cached_property
    def _slots(self) -> np.ndarray:
        return self.index * self.longest + self.positions

    def pad(self, a: np.ndarray) -> np.ndarray:
        """(total, ...) packed rows -> (count, longest, ...), zeros after each sequence."""
        if not self.padded:
            return a.reshape(self.count, self.longest, *a.shape[1:])
        out = np.zeros((self.count * self.longest,) + a.shape[1:])
        out[self._slots] = a
        return out.reshape(self.count, self.longest, *a.shape[1:])

    def unpad(self, a: np.ndarray) -> np.ndarray:
        """(count, longest, ...) -> (total, ...), the inverse of ``pad``."""
        flat = a.reshape(self.count * self.longest, *a.shape[2:])
        return flat[self._slots] if self.padded else flat

    def shift(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row before, row after) each row of packed ``a``, zero across sequence ends."""
        zero = np.zeros((1, a.shape[1]))
        padded = np.concatenate([zero, a, zero])
        before, after = padded[:-2], padded[2:]
        inner = self.starts[1:]  # first rows of the sequences after the first
        if inner.size:
            before, after = before.copy(), after.copy()
            before[inner] = 0.0
            after[inner - 1] = 0.0
        return before, after

    def key_mask(self) -> np.ndarray:
        """(count, longest) additive mask: 0 on each sequence's rows, LOG_ZERO on padding."""
        mask = np.full((self.count, self.longest), LOG_ZERO)
        mask.reshape(-1)[self._slots] = 0.0
        return mask


class MultiHeadAttention(Module):
    def __init__(self, rng: np.random.Generator | None, dim: int, heads: int):
        self.heads = heads
        self.scale = 1.0 / math.sqrt(dim // heads)
        self.q_proj = Linear(rng, dim, dim)
        self.k_proj = Linear(rng, dim, dim)
        self.v_proj = Linear(rng, dim, dim)
        self.out_proj = Linear(rng, dim, dim)

    def __call__(
        self, query: Tensor, memory: Tensor, mask: np.ndarray | None,
        query_segments: Segments, memory_segments: Segments,
    ) -> Tensor:
        """Attention of ``query`` over ``memory``, each split into sequences by its segments."""
        q, k, v = self.q_proj(query), self.k_proj(memory), self.v_proj(memory)
        out = attend(q, k, v, self.heads, self.scale, mask, query_segments, memory_segments)
        return self.out_proj(out)

    def forward(
        self, query: np.ndarray, k: np.ndarray, v: np.ndarray,
        q_segments: Segments, k_segments: Segments,
    ) -> np.ndarray:
        """Unmasked ``__call__`` on arrays, over keys ``k`` and values ``v`` that
        ``k_proj.forward`` and ``v_proj.forward`` projected."""
        q = self.q_proj.forward(query)
        out, _ = attend_forward(q, k, v, self.heads, self.scale, None, q_segments, k_segments)
        return self.out_proj.forward(out)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(B, T, H * d_h) -> (B, H, T, d_h) view; head h owns columns h*d_h .. (h+1)*d_h."""
    return a.reshape(a.shape[0], a.shape[1], heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, H, T, d_h) -> (B, T, H * d_h), the inverse of ``_split_heads``."""
    return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], -1)


def attend_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, scale: float,
    mask: np.ndarray | None, q_segments: Segments, k_segments: Segments,
) -> tuple[np.ndarray, np.ndarray]:
    """The forward of ``attend`` on packed arrays: the (T_q, D) output and P."""
    if k_segments.padded:
        # A masked score stays masked under a second LOG_ZERO: exp of either is 0.
        key_mask = k_segments.key_mask()[:, None, None, :]
        mask = key_mask if mask is None else mask + key_mask
    qh, kh = _split_heads(q_segments.pad(q), heads), _split_heads(k_segments.pad(k), heads)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    if mask is not None:
        scores = scores + mask
    probs = softmax_rows_forward(scores)
    out = np.matmul(probs, _split_heads(k_segments.pad(v), heads))
    return q_segments.unpad(_merge_heads(out)), probs


def attend(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    scale: float,
    mask: np.ndarray | None,
    q_segments: Segments,
    k_segments: Segments,
) -> Tensor:
    """Multi-head scaled dot-product attention of B packed sequences, as one graph node.

    ``q`` is (T_q, D), ``k`` and ``v`` are (T_k, D), with D = heads * d_h and
    head h reading columns h*d_h .. (h+1)*d_h of each. Query sequence b,
    rows ``q_segments`` b, attends only to key sequence b, rows
    ``k_segments`` b. The forward is ``attend_forward``: per head and
    sequence, on a zero-padded (B, H, T_max, d_h) view,

        S = (Q K^T) * scale (+ mask),  P = softmax_rows(S),  O = P V

    and the heads' outputs sit side by side in a (T_q, D) result. ``mask``
    is an additive (T_q_max, T_k_max) array shared by all sequences and
    heads; padding keys are masked with ``LOG_ZERO``, so they get
    probability 0. Backward, with G the output gradient in the same view:

        dV = P^T G,  dP = G V^T,  dS = P * (dP - rowsum(dP * P)) * scale,
        dQ = dS K,   dK = dS^T Q

    The node keeps P; the backward pads Q, K and V again from its parents.
    """
    if q.ndim != 2 or k.ndim != 2 or v.shape != k.shape or q.shape[1] != k.shape[1]:
        raise DimensionError(f"attend got q={q.shape}, k={k.shape}, v={v.shape}")
    if q.shape[1] % heads != 0:
        raise DimensionError(f"width {q.shape[1]} not divisible by {heads} heads")
    qs, ks = q_segments, k_segments
    if qs.total != q.shape[0] or ks.total != k.shape[0] or qs.count != ks.count:
        raise DimensionError(
            f"attend: {qs.count} query segments over {qs.total} rows and {ks.count} key "
            f"segments over {ks.total} rows do not fit q={q.shape}, k={k.shape}"
        )
    out, probs = attend_forward(q.data, k.data, v.data, heads, scale, mask, qs, ks)

    def backward(g):
        qh = _split_heads(qs.pad(q.data), heads)
        kh = _split_heads(ks.pad(k.data), heads)
        vh = _split_heads(ks.pad(v.data), heads)
        gh = _split_heads(qs.pad(g), heads)
        dprobs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
        dq = np.matmul(dscores, kh)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), qh)
        dv = np.matmul(probs.transpose(0, 1, 3, 2), gh)
        return qs.unpad(_merge_heads(dq)), ks.unpad(_merge_heads(dk)), ks.unpad(_merge_heads(dv))

    return _record(out, (q, k, v), backward)


def depthwise3_forward(
    x: np.ndarray, taps: np.ndarray, bias: np.ndarray, segments: Segments
) -> np.ndarray:
    """The 3-tap depthwise conv along time of ``ConvGatedMLP``, on arrays."""
    prev, nxt = segments.shift(x)
    y = prev * taps[0]
    y = y + x * taps[1]
    y = y + nxt * taps[2]
    return y + bias


class ConvGatedMLP(Module):
    """Local-context branch: linear gate modulated by a depthwise 3-tap conv."""

    def __init__(self, rng: np.random.Generator | None, dim: int):
        self.up = Linear(rng, dim, 2 * dim)
        limit = math.sqrt(1.0 / 3.0)
        kernel = unfilled((3, dim)) if rng is None else rng.uniform(-limit, limit, size=(3, dim))
        self.kernel = Tensor(kernel, requires_grad=True)
        self.kernel_bias = Tensor(np.zeros(dim), requires_grad=True)
        self.down = Linear(rng, dim, dim)
        self.dim = dim

    @property
    def weights(self) -> tuple[Tensor, ...]:
        """Up W and b, kernel and bias, down W and b, in ``backward``'s order."""
        return (self.up.weight, self.up.bias, self.kernel, self.kernel_bias,
                self.down.weight, self.down.bias)

    def forward(self, x: np.ndarray, segments: Segments) -> tuple[np.ndarray, tuple]:
        """The (rows, dim) output for packed (rows, dim) ``x``, and what ``backward``
        needs besides ``x``: ``(pre, s, u, conv, gated)``."""
        pre = self.up.forward(x)
        u, s = silu_forward(pre)
        conv = depthwise3_forward(u[:, self.dim :], self.kernel.data, self.kernel_bias.data,
                                  segments)
        gated = u[:, : self.dim] * conv
        return self.down.forward(gated), (pre, s, u, conv, gated)

    def backward(
        self, g: np.ndarray, x: np.ndarray, saved: tuple, segments: Segments
    ) -> tuple[np.ndarray, ...]:
        """``dx`` and the gradients of ``weights`` for output gradient ``g``, by the ufuncs
        of the affine, silu, narrow, conv, product and affine nodes, in their order."""
        pre, s, u, conv, gated = saved
        d, taps = self.dim, self.kernel.data
        dgated = g @ self.down.weight.data.T
        dconv = dgated * u[:, :d]
        gprev, gnext = segments.shift(dconv)
        dconv_in = gnext * taps[0] + dconv * taps[1] + gprev * taps[2]
        dk = np.stack([(u[:, d:] * gs).sum(axis=0) for gs in (gnext, dconv, gprev)])
        du = np.concatenate([dgated * conv, dconv_in], axis=1)
        dpre = du * (s + pre * s * (1.0 - s))
        return (dpre @ self.up.weight.data.T, x.T @ dpre, dpre.sum(axis=0), dk,
                dconv.sum(axis=0), gated.T @ g, g.sum(axis=0))

    def __call__(self, x: Tensor, segments: Segments) -> Tensor:
        """The branch as one graph node with parents ``(x, *weights)``."""
        if segments.total != x.shape[0]:
            raise DimensionError(f"cgMLP: segments cover {segments.total} rows of {x.shape[0]}")
        y, saved = self.forward(x.data, segments)
        return _record(y, (x, *self.weights), lambda g: self.backward(g, x.data, saved, segments))


@functools.lru_cache(maxsize=64)
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Absolute sine/cosine position table of shape (length, dim).

    Memoised, since every encode and every decoder step asks for one, and
    read-only, since callers share it.
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, half / dim)
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : table[:, 1::2].shape[1]])
    table.setflags(write=False)
    return table


def causal_mask(length: int) -> np.ndarray:
    """Additive mask blocking attention to strictly-future positions."""
    return np.triu(np.full((length, length), LOG_ZERO), k=1)
