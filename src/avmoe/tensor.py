"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation stores the parents it was computed from and a closure that
maps the output gradient to parent gradients. ``Tensor.backward()`` on a
scalar walks the recorded graph once in reverse topological order;
gradients accumulate additively wherever a tensor fans out into several
consumers. Everything is 64-bit: the test suite leans on tight
finite-difference tolerances that float32 cannot meet.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, GraphError

# Additive attention-mask value; exp(MASK_VALUE - rowmax) is exactly 0.0.
MASK_VALUE = -1.0e30

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block; forward values only."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_used")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._used = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph ----------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from here.

        The loss must be a scalar still attached to the graph; a second call
        on the same node is an error (rebuild the graph for another pass).
        """
        if self.data.shape != ():
            raise GraphError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise GraphError("loss is detached: no gradient-tracked tensor feeds it")
        if self._used:
            raise GraphError("backward already ran from this node; rebuild the graph first")
        self._used = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # Interior grads from any earlier pass over a shared subgraph must not
        # leak into this one; leaves keep accumulating until zeroed explicitly.
        for node in order:
            if node._backward is not None:
                node.grad = None
        self.grad = np.ones((), dtype=np.float64)

        for node in reversed(order):
            fn = node._backward
            if fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operators ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    # -- method-style ops -------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    return _record(-a.data, (a,), lambda g: (-g,))


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _record(data, (a, b), backward)


def affine(a: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused a @ weight + bias for rank-2 a and rank-1 bias."""
    if a.ndim != 2 or weight.ndim != 2 or a.shape[1] != weight.shape[0]:
        raise DimensionError(f"affine inner dimensions disagree: {a.shape} x {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise DimensionError(f"affine bias {bias.shape} does not match output {weight.shape[1]}")
    data = a.data @ weight.data + bias.data

    def backward(g):
        return g @ weight.data.T, a.data.T @ g, g.sum(axis=0)

    return _record(data, (a, weight, bias), backward)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise DimensionError(f"transpose expects a rank-2 tensor, got {a.shape}")
    return _record(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    return _record(data, (a,), lambda g: (g.reshape(a.shape),))


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape),)

    return _record(data, (a,), backward)


# -- pointwise nonlinearities -------------------------------------------------


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, for either sign of x.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(a: Tensor) -> Tensor:
    s = _sigmoid_stable(a.data)
    data = a.data * s
    return _record(data, (a,), lambda g: (g * (s + a.data * s * (1.0 - s)),))


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    return _record(data, (a,), lambda g: (g * (a.data > 0.0),))


# -- row-wise softmax family ---------------------------------------------------


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by per-row max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (a,), backward)


def log_softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _record(out, (a,), backward)


# -- normalization --------------------------------------------------------------


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean/unit-variance over the last axis, then affine gain and bias."""
    dim = a.shape[-1]
    if dim < 2:
        raise ConfigError(f"layer_norm needs a normalized width >= 2, got {dim}")
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width ({dim},)"
        )
    mean = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mean) * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        dgain = (g * xhat).reshape(-1, dim).sum(axis=0)
        dbias = g.reshape(-1, dim).sum(axis=0)
        da = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return da, dgain, dbias

    return _record(data, (a, gain, bias), backward)


# -- shape surgery ---------------------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ConfigError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(data, tuple(parts), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis`` starting at ``start``."""
    if not (0 <= start and start + length <= a.shape[axis]):
        raise DimensionError(
            f"narrow [{start}:{start + length}] out of bounds for axis {axis} of shape {a.shape}"
        )
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = a.data[sl].copy()

    def backward(g):
        full_grad = np.zeros_like(a.data)
        full_grad[sl] = g
        return (full_grad,)

    return _record(data, (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (axis 0) by integer index; repeats accumulate in backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise DataError(f"gather index out of range for {a.shape[0]} rows")
    data = a.data[idx]

    def backward(g):
        full_grad = np.zeros_like(a.data)
        np.add.at(full_grad, idx, g)
        return (full_grad,)

    return _record(data, (a,), backward)


def take_along_cols(a: Tensor, indices) -> Tensor:
    """Per-row column gather: out[i, k] = a[i, indices[i, k]]."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise DimensionError(f"take_along_cols got a={a.shape}, indices={idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise DataError(f"column index out of range for {a.shape[1]} columns")
    data = np.take_along_axis(a.data, idx, axis=1)
    rows = np.arange(a.shape[0])[:, None]

    def backward(g):
        full_grad = np.zeros_like(a.data)
        np.add.at(full_grad, (rows, idx), g)
        return (full_grad,)

    return _record(data, (a,), backward)

