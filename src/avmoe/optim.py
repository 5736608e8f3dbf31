"""Adam optimizer acting in place on parameter arrays."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """One bias-corrected Adam update; ``step`` is the 1-based count.

    Runs in place: ``scratch`` holds two flat float64 buffers of at least
    ``param.size`` values (allocated when omitted). The ufuncs round in the
    same order as ``p - lr * (m / c1) / (sqrt(v / c2) + eps)``.
    """
    if not (param.shape == grad.shape == m.shape == v.shape):
        raise DimensionError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}"
        )
    if step < 1:
        raise DimensionError(f"adam_step needs a step count >= 1, got {step}")
    if scratch is None:
        scratch = (np.empty(param.size), np.empty(param.size))
    t = scratch[0][: param.size].reshape(param.shape)
    u = scratch[1][: param.size].reshape(param.shape)
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=t)
    m += t
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=t)
    t *= grad
    v += t
    np.divide(v, 1.0 - beta2**step, out=t)
    np.sqrt(t, out=t)
    t += eps
    np.divide(m, 1.0 - beta1**step, out=u)
    u *= lr
    u /= t
    param -= u


class Adam:
    """Adam over a list of named parameters.

    Parameters without a gradient for a given step are skipped (their moment
    buffers stay untouched), which happens routinely for experts that saw no
    tokens in a batch.

    ``moments`` hands over the first and second moment arrays, by parameter
    name, that a restored training state already holds; Adam then updates
    them in place and allocates none of its own. Without it they start at zero.
    """

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        moments: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None = None,
    ):
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        if moments is None:
            self.m = {name: np.zeros_like(p.data) for name, p in self.params}
            self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        else:
            self.m, self.v = moments
        size = max((p.data.size for _, p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, lr: float | None = None) -> None:
        self.step_count += 1
        rate = self.lr if lr is None else lr
        for name, p in self.params:
            if p.grad is None:
                continue
            adam_step(
                p.data,
                np.asarray(p.grad, dtype=np.float64),
                self.m[name],
                self.v[name],
                self.step_count,
                rate,
                self.beta1,
                self.beta2,
                self.eps,
                self._scratch,
            )

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None
