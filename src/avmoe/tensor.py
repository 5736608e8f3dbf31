"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation stores the parents it was computed from and a closure that
maps the output gradient to parent gradients. ``Tensor.backward()`` on a
scalar walks the recorded graph once in reverse topological order;
gradients accumulate additively wherever a tensor fans out into several
consumers. Everything is 64-bit: the test suite leans on tight
finite-difference tolerances that float32 cannot meet.

The walk frees the graph as it goes. Once a node's closure has handed its
gradients to the node's parents, the node drops the closure (and with it
the arrays the forward saved for the backward), its parents and its own
gradient. So after ``backward`` only the loss and the leaves hold a
``grad``; every forward ``data`` stays. A walked node keeps a sentinel in
place of its closure, and a later ``backward`` that reaches it raises
``GraphError``: rebuild the graph for another pass.

The engine keeps nine generic ops: ``add``, ``mul``, ``matmul``, ``affine``,
``tsum``, ``softmax_rows``, ``layer_norm``, ``concat`` and ``gather_rows``.
A computation whose backward is written out records one node of its own
through ``_record`` instead: attention (``nn.attend``), the FFN and cgMLP
branches, MoE dispatch and both training objectives (``losses``). Their
array forwards, such as ``softmax_rows_forward`` and
``log_softmax_rows_forward`` here, also serve inference under ``no_grad``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, GraphError

# Additive attention-mask value; exp(MASK_VALUE - rowmax) is exactly 0.0.
MASK_VALUE = -1.0e30
LAYER_NORM_EPS = 1e-5  # the variance floor of every layer norm

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


def grad_enabled() -> bool:
    """Whether ops record a graph here, that is, outside every ``no_grad`` block."""
    return _grad_enabled


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    # -- graph ----------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from here.

        The loss must be a scalar still attached to the graph. Each node the
        walk passes drops its closure, with the arrays that closure saved, its
        parents and its gradient, so interior ``grad`` is ``None`` afterwards;
        the loss keeps its unit gradient and leaves keep accumulating until
        zeroed. A later call that reaches a walked node, from the same loss
        or from another that shares a subgraph with it, raises ``GraphError``
        before any gradient moves: rebuild the graph for another pass.
        """
        if self.data.shape != ():
            raise GraphError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise GraphError("loss is detached: no gradient-tracked tensor feeds it")

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
            if node._backward is _spent:
                _spent(None)  # raises, before this pass has moved any gradient
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # Only an earlier backward that a closure's exception stopped part way
        # leaves interior grads behind, on the nodes it had not reached yet;
        # those partial sums must not leak into this pass.
        for node in order:
            if node._backward is not None:
                node.grad = None
        self.grad = np.ones((), dtype=np.float64)

        for node in reversed(order):
            fn = node._backward
            if fn is None:
                continue
            if node.grad is not None:
                for parent, g in zip(node._parents, fn(node.grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    parent.grad = g if parent.grad is None else parent.grad + g
            node._backward = _spent
            node._parents = ()
            if node is not self:
                node.grad = None

    # -- operators ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))


def _spent(g):
    """The closure of a node that a backward pass has walked."""
    raise GraphError("backward already ran through this node; rebuild the graph first")


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand that needs no gradient, such as a
    constant scale, gets ``None`` and costs the backward nothing."""
    data = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if need_a else None,
            _unbroadcast(g * a.data, b.shape) if need_b else None,
        )

    return _record(data, (a, b), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors; like ``mul``, an operand that needs
    no gradient, such as a constant feature matrix, gets ``None``."""
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return g @ b.data.T if need_a else None, a.data.T @ g if need_b else None

    return _record(data, (a, b), backward)


def affine(a: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused a @ weight + bias for rank-2 a and rank-1 bias; like ``matmul``, no
    gradient for an operand that needs none."""
    data = a.data @ weight.data + bias.data
    need_a, need_w, need_b = a.requires_grad, weight.requires_grad, bias.requires_grad

    def backward(g):
        return (
            g @ weight.data.T if need_a else None,
            a.data.T @ g if need_w else None,
            g.sum(axis=0) if need_b else None,
        )

    return _record(data, (a, weight, bias), backward)


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape),)

    return _record(data, (a,), backward)


# -- pointwise nonlinearities -------------------------------------------------


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, for either sign of x.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu_forward(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SiLU on arrays: ``a * s`` and the sigmoid ``s`` of ``a``."""
    s = _sigmoid_stable(a)
    return a * s, s


# -- row-wise softmax family ---------------------------------------------------


def softmax_rows_forward(a: np.ndarray) -> np.ndarray:
    """``softmax_rows`` on arrays."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by per-row max subtraction."""
    y = softmax_rows_forward(a.data)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (a,), backward)


def log_softmax_rows_forward(a: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis of an array, stabilized by per-row max
    subtraction. Its backward, which both loss nodes of ``losses`` replay, is
    ``g - exp(out) * g.sum(axis=-1, keepdims=True)``."""
    shifted = a - a.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


# -- normalization --------------------------------------------------------------


def layer_norm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``layer_norm`` on arrays: the output and the row statistics ``mean`` and ``inv``.

    The statistics take numpy's own steps for ``mean`` and ``var`` (an
    ``add.reduce``, then a division; ``var`` squares the centred rows as
    ``c * c``), but the rows are centred once instead of twice, and the
    row-sized results are scaled and shifted in place. So the output is
    bit-identical to ``(x - x.mean()) / sqrt(x.var() + LAYER_NORM_EPS) * gain
    + bias`` with about half the ufunc calls and row-sized temporaries.
    """
    dim = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= dim
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= dim
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    data = xhat * gain
    data += bias
    return data, mean, inv


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean/unit-variance over the last axis, then affine gain and bias.

    The forward is ``layer_norm_forward``, and the node keeps only its two
    (rows, 1) statistics ``mean`` and ``inv = 1 / sqrt(var + LAYER_NORM_EPS)``
    besides its parents. The backward rebuilds ``xhat = (x - mean) * inv`` from the
    input with the forward's two ufuncs, so it is the forward's ``xhat`` bit for bit.
    """
    dim = a.shape[-1]
    if dim < 2:
        raise ConfigError(f"layer_norm needs a normalized width >= 2, got {dim}")
    data, mean, inv = layer_norm_forward(a.data, gain.data, bias.data)

    def backward(g):
        xhat = a.data - mean
        xhat *= inv
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
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(data, tuple(parts), backward)


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

