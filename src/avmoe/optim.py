"""Adam optimizer acting in place on parameter arrays.

``Adam`` keeps the moments and the base rate; the step count lives in
``train.TrainState.step``, and ``train._train_batch`` passes it to ``step``
with the warm-up factor that scales the rate.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor


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
        beta1: float,
        beta2: float,
        eps: float,
        moments: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None = None,
    ):
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        if moments is None:
            self.m = {name: np.zeros_like(p.data) for name, p in self.params}
            self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        else:
            self.m, self.v = moments
            for name, p in self.params:
                if not p.data.shape == self.m[name].shape == self.v[name].shape:
                    raise DimensionError(
                        f"Adam moments of {name} do not fit: param {p.data.shape}, "
                        f"m {self.m[name].shape}, v {self.v[name].shape}"
                    )
        size = max(p.data.size for _, p in self.params)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, t: int, warm: float) -> None:
        """One bias-corrected update of every parameter that has a gradient.

        ``t`` is the 1-based step count and the rate is ``lr * warm``. Each
        update runs in place in the preallocated scratch; the ufuncs round in
        the same order as ``p - rate * (m / c1) / (sqrt(v / c2) + eps)``.
        """
        b1, b2, eps = self.beta1, self.beta2, self.eps
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        rate = self.lr * warm
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            den = self._scratch[0][: p.data.size].reshape(p.data.shape)
            num = self._scratch[1][: p.data.size].reshape(p.data.shape)
            m *= b1
            np.multiply(g, 1.0 - b1, out=den)
            m += den
            v *= b2
            np.multiply(g, 1.0 - b2, out=den)
            den *= g
            v += den
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            np.divide(m, c1, out=num)
            num *= rate
            num /= den
            p.data -= num

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None
