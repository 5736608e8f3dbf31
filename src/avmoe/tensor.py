"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a graph ``Node`` for its output: the nodes of the
parents it was computed from and a closure that maps the output gradient to
parent gradients. ``Tensor.backward()`` on a scalar walks the recorded graph
once in reverse topological order; gradients accumulate additively wherever
a tensor fans out into several consumers. Everything is 64-bit: the test
suite leans on tight finite-difference tolerances that float32 cannot meet.

A node holds its parents' vertices, not their data: a leaf ``Tensor``, such
as a parameter, is its own vertex, and an op's output is its data-free
``Node``. Its closure holds only what it reads, the arrays and shapes it
captured at record time. So an output's ``data`` lives while the caller, or
a backward that reads it, holds it: an ``add``'s operands go as soon as the
forward code drops them, and an ``affine``'s input stays until the walk has
formed the weight's gradient from it.

The walk frees the graph as it goes. Once a node's closure has handed its
gradients to the node's parents, the node drops the closure (and with it
the arrays the forward saved for the backward), its parents and its own
gradient. So after ``backward`` only the loss and the leaves hold a
``grad``. A walked node keeps a sentinel in place of its closure, and a
later ``backward`` that reaches it raises ``GraphError``: rebuild the graph
for another pass.

The engine keeps nine generic ops: ``add``, ``mul``, ``matmul``, ``affine``,
``tsum``, ``softmax_rows``, ``layer_norm``, ``concat`` and ``gather_rows``.
A computation whose backward is written out records one node of its own
through ``_record`` instead: attention (``nn.attend``), the FFN and cgMLP
branches, MoE dispatch and both training objectives (``losses``). Their
array forwards, such as ``softmax_rows_forward`` and
``log_softmax_rows_forward`` here, also serve inference under ``no_grad``.
Each derivative that a generic op and a fused node share is written once here
as an array backward, which both call: ``affine_backward``, ``silu_backward``,
``softmax_rows_backward``, ``log_softmax_rows_backward`` and ``scatter_add``,
the backward of a gather.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, GraphError

# Finite stand-in for log(0) in the additive attention masks and the CTC lattice:
# sums with ordinary log-probabilities stay far below any reachable score, and
# their exp (less a row max) underflows to exactly 0.0, so no -inf is ever formed.
LOG_ZERO = -1.0e30
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


class Node:
    """The graph vertex of an op's output, which holds none of the output's data.

    ``_parents`` are the vertices of the op's operands: a leaf ``Tensor`` for a
    parameter, another ``Node`` for an op's output, and ``_CONSTANT`` for an
    operand that needs no gradient. ``_backward`` maps this vertex's gradient
    to theirs, and ``_grad`` sums that gradient while a walk passes.
    """

    __slots__ = ("_grad", "_parents", "_backward")
    requires_grad = True  # an op is recorded only when it needs a gradient

    def __init__(self, parents: tuple, backward) -> None:
        self._grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    A leaf, such as a parameter, is its own graph vertex. An op's output points
    at the ``Node`` that ``_record`` made for it, and its ``grad``, ``_parents``
    and ``_backward`` are that node's.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._node: Node | None = None

    @property
    def node(self) -> "Tensor | Node":
        """This tensor's graph vertex: the leaf itself, or its op's ``Node``."""
        return self if self._node is None else self._node

    @property
    def grad(self) -> np.ndarray | None:
        return self.node._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node._grad = value

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable[[np.ndarray], Sequence[np.ndarray | None]] | None:
        return None if self._node is None else self._node._backward

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

        root = self.node
        order: list[Tensor | Node] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor | Node, bool]] = [(root, False)]
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
                node._grad = None
        root._grad = np.ones((), dtype=np.float64)

        for node in reversed(order):
            fn = node._backward
            if fn is None:
                continue
            if node._grad is not None:
                for parent, g in zip(node._parents, fn(node._grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    parent._grad = g if parent._grad is None else parent._grad + g
            node._backward = _spent
            node._parents = ()
            if node is not root:
                node._grad = None

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


# The vertex in place of an operand that needs no gradient: the walk skips it, and
# the operand's data is not kept for it.
_CONSTANT = Tensor(0.0)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """``data`` as an op's output, with a ``Node`` over ``parents`` when one needs a
    gradient. ``backward`` must capture the arrays and shapes it reads, not the
    parent Tensors, so that an operand's data goes when no backward reads it."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = Node(tuple(p.node if p.requires_grad else _CONSTANT for p in parents),
                         backward)
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
    a_shape, b_shape = a.shape, b.shape
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand that needs no gradient, such as a
    constant scale, gets ``None`` and costs the backward nothing. Each operand's
    data is kept only for the other operand's gradient."""
    data = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape
    a_data, b_data = a.data if need_b else None, b.data if need_a else None

    def backward(g):
        return (
            _unbroadcast(g * b_data, a_shape) if need_a else None,
            _unbroadcast(g * a_data, b_shape) if need_b else None,
        )

    return _record(data, (a, b), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors; like ``mul``, an operand that needs
    no gradient, such as a constant feature matrix, gets ``None``. Each operand's
    data is kept only for the other operand's gradient."""
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    return _record(data, (a, b), lambda g: affine_backward(g, a_data, b_data))


def affine_backward(
    g: np.ndarray, a: np.ndarray | None, w: np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The gradients ``g @ w.T`` and ``a.T @ g`` of ``a`` and ``w`` in ``a @ w (+ b)``
    for output gradient ``g``. Each needs the other operand, so passing ``w`` or
    ``a`` as ``None`` gives ``None`` for the gradient that reads it. A caller with a
    bias sums ``g``'s columns for it."""
    return None if w is None else g @ w.T, None if a is None else a.T @ g


def affine(a: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused a @ weight + bias for rank-2 a and rank-1 bias; like ``matmul``, no
    gradient for an operand that needs none. ``a``'s data is kept only for the
    weight's gradient, and the weight's only for ``a``'s."""
    data = a.data @ weight.data + bias.data
    need_b = bias.requires_grad
    a_data = a.data if weight.requires_grad else None
    w_data = weight.data if a.requires_grad else None

    def backward(g):
        return (*affine_backward(g, a_data, w_data), g.sum(axis=0) if need_b else None)

    return _record(data, (a, weight, bias), backward)


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)
    shape = a.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return _record(data, (a,), backward)


# -- pointwise nonlinearities -------------------------------------------------


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, for either sign of x.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu_forward(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SiLU on arrays: ``a * s`` and the sigmoid ``s`` of ``a``."""
    s = _sigmoid_stable(a)
    return a * s, s


def silu_backward(g: np.ndarray, act: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The gradient of ``silu``'s input for output gradient ``g``, from what
    ``silu_forward`` returned: ``act = a * s`` and the sigmoid ``s``.

    ``silu'(a) = s + a * s * (1 - s)``, and ``(1 - s) * act + s`` is the same
    bits, since it forms ``a * s`` as ``act`` first and a product or a sum of two
    floats does not depend on their order. It and the product with ``g`` are
    formed in one buffer.
    """
    da = 1.0 - s
    da *= act
    da += s
    da *= g
    return da


# -- row-wise softmax family ---------------------------------------------------


def softmax_rows_forward(a: np.ndarray) -> np.ndarray:
    """``softmax_rows`` on arrays."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by per-row max subtraction."""
    y = softmax_rows_forward(a.data)
    return _record(y, (a,), lambda g: (softmax_rows_backward(g, y),))


def softmax_rows_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of the rows whose softmax is ``y``, for output gradient ``g``:
    ``y * (g - rowsum(g * y))``."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def log_softmax_rows_forward(a: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis of an array, stabilized by per-row max
    subtraction. Its backward is ``log_softmax_rows_backward``."""
    shifted = a - a.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def log_softmax_rows_backward(g: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """The gradient of the rows whose log-softmax is ``log_probs``, for output
    gradient ``g``: ``g - exp(log_probs) * rowsum(g)``."""
    return g - np.exp(log_probs) * g.sum(axis=-1, keepdims=True)


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
    besides its input and gain. The backward rebuilds ``xhat = (x - mean) * inv`` from the
    input with the forward's two ufuncs, so it is the forward's ``xhat`` bit for bit.
    """
    dim = a.shape[-1]
    if dim < 2:
        raise ConfigError(f"layer_norm needs a normalized width >= 2, got {dim}")
    x, gain_data = a.data, gain.data
    data, mean, inv = layer_norm_forward(x, gain_data, bias.data)

    def backward(g):
        xhat = x - mean
        xhat *= inv
        dxhat = g * gain_data
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
    shape = a.shape
    return _record(a.data[idx], (a,), lambda g: (scatter_add(shape, idx, g),))


def scatter_add(shape: tuple[int, ...], index, g: np.ndarray) -> np.ndarray:
    """The backward of the gather ``a[index]`` from an array of ``shape``: ``g``
    added into zeros at ``index``, so a repeated index sums its gradients."""
    full = np.zeros(shape)
    np.add.at(full, index, g)
    return full

