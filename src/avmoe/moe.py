"""Sparse mixture-of-experts layer with a linear router and top-k dispatch.

Routing probabilities come from a softmax over ``x @ router``. Each token is
processed only by its k highest-probability experts and the outputs are
combined with those probabilities, renormalized over the selected set.
Per-batch load statistics feed the balancing loss
``num_experts * sum_i assign_fraction_i * mean_prob_i``: the hard assignment
fractions are treated as constants, so its gradient reaches the router only
through the mean probabilities.

At ``top_k = 1`` every renormalized weight is exactly 1, so the task losses
give the router no gradient and it learns from the balance loss alone. Switch
(Fedus et al., arXiv 2101.03961) scales its one expert's output by the
unnormalized probability instead, which the task losses do reach.

Dispatch is one graph node, ``expert_mixture``, in the grouped (sort by
expert) form of MegaBlocks (Gale et al., arXiv 2211.15841). It takes the
probability rows P and renormalises each token's chosen k of them,
``w = p / rowsum(p)`` with ``p = P[i, indices[i]]``. The (token, slot)
pairs are stable-sorted by expert into contiguous segments; expert e runs
once on the rows R_e of its segment, with weights w_e:

    y_e = FFN_e(x[R_e]),   out[R_e] += y_e * w_e

in ascending expert order: ``expert_mixture_forward``, which inference runs
on arrays with the router's arithmetic in ``MoELayer.forward``. Backward,
with G the output gradient, runs the expert's FFN backward on
``dy_e = G[R_e] * w_e`` and ``x[R_e]``, gathered again rather than kept
from the forward, which gives ``dx[R_e] += dx_e`` and the expert's four
parameter gradients, and

    dw_e = rowsum(G[R_e] * y_e)
    dp = dw / rowsum(p) + rowsum(-dw * p / (rowsum(p) * rowsum(p)))

added into zeros at ``P[i, indices[i]]``: the backward of a gather, a row
sum and a quotient, in that order. The backward takes the experts in
ascending order. An expert's record is ``(pairs, rows, y, s)``: its pair
ids, rows, unweighted output and the sigmoid its FFN keeps. The FFN's
backward rebuilds its activation from ``x[R_e]`` and ``s``, at one
``(rows, D) x (D, hidden)`` GEMM. Each record goes as soon as that expert
is done: the backward holds the records of the experts still to come and
the temporaries of one.

The FFN kernel and its formulas are in ``nn``: ``FeedForward.forward`` and
``FeedForward.backward``.

An expert with an empty segment gets ``None`` for all four parameter
gradients, exactly as if it were not in the graph, so the optimizer skips it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import check_fields
from .nn import FeedForward, Module
from .tensor import Tensor, _record, matmul, scatter_add, softmax_rows, softmax_rows_forward, tsum


@dataclass
class MoEConfig:
    num_experts: int = 8
    top_k: int = 4
    hidden: int = 64
    ffn_hidden: int = 256

    def validate(self) -> None:
        check_fields(self, {"num_experts": (1, None), "hidden": (1, None), "ffn_hidden": (1, None)})
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(
                f"top_k={self.top_k} out of range for {self.num_experts} experts"
            )


@dataclass
class RoutingDecision:
    """Per-token expert selection for one forward pass."""

    indices: np.ndarray  # (tokens, k) selected experts, descending probability
    probs: Tensor  # (tokens, num_experts) full probability rows


@dataclass
class LoadStats:
    """Per-layer, per-batch routing load summary.

    ``hard_counts`` tallies each token's argmax expert, its first selection;
    ``prob_sum`` is the graph-connected column sum of the probabilities, so
    the balancing loss stays differentiable through it.
    """

    hard_counts: np.ndarray  # (num_experts,)
    prob_sum: Tensor  # (num_experts,)
    tokens: int
    dispatched: int  # instrumented count of (token, expert) evaluations

    @property
    def assign_fraction(self) -> np.ndarray:
        return self.hard_counts / self.tokens

    @property
    def mean_prob(self) -> Tensor:
        return self.prob_sum * (1.0 / self.tokens)

    @staticmethod
    def merge(parts: list["LoadStats"]) -> "LoadStats":
        """The stats of the union of ``parts``, of which there is at least one."""
        counts = parts[0].hard_counts.copy()
        prob_sum = parts[0].prob_sum
        tokens = parts[0].tokens
        dispatched = parts[0].dispatched
        for p in parts[1:]:
            counts = counts + p.hard_counts
            prob_sum = prob_sum + p.prob_sum
            tokens += p.tokens
            dispatched += p.dispatched
        return LoadStats(counts, prob_sum, tokens, dispatched)


class MoELayer(Module):
    def __init__(self, cfg: MoEConfig, rng: np.random.Generator | None):
        # ``cfg`` is checked once per model, by ``ModelConfig.validate``.
        self.cfg = cfg
        # Zero router, no bias: routing is uniform at step 0.
        self.router = Tensor(
            np.zeros((cfg.hidden, cfg.num_experts)), requires_grad=True
        )
        self.experts = [
            FeedForward(rng, cfg.hidden, cfg.ffn_hidden) for _ in range(cfg.num_experts)
        ]

    def route(self, x: Tensor) -> RoutingDecision:
        """Pick the top-k experts per token with lowest-index tie-breaking."""
        probs = softmax_rows(matmul(x, self.router))
        return RoutingDecision(self.top_k(probs.data), probs)

    def top_k(self, probs: np.ndarray) -> np.ndarray:
        """Each row's k most probable experts; a stable sort keeps ties in index order."""
        return np.argsort(-probs, axis=1, kind="stable")[:, : self.cfg.top_k]

    def load_stats(self, indices: np.ndarray, prob_sum: Tensor, dispatched: int) -> LoadStats:
        """Each row's first selection, its argmax given ``top_k``'s ties, is its hard count."""
        counts = np.bincount(indices[:, 0], minlength=self.cfg.num_experts)
        return LoadStats(counts.astype(np.float64), prob_sum, indices.shape[0], dispatched)

    def __call__(self, x: Tensor) -> tuple[Tensor, LoadStats]:
        """Dispatch tokens to their selected experts and combine the outputs."""
        decision = self.route(x)
        out, dispatched = expert_mixture(x, decision.probs, decision.indices, self.experts)
        return out, self.load_stats(decision.indices, tsum(decision.probs, axis=0), dispatched)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, LoadStats]:
        """``__call__`` on arrays, through ``route``'s and ``expert_mixture``'s kernels."""
        probs = softmax_rows_forward(x @ self.router.data)
        indices = self.top_k(probs)
        out, _, dispatched = expert_mixture_forward(x, probs, indices, self.experts)
        return out, self.load_stats(indices, Tensor(probs.sum(axis=0)), dispatched)


def expert_mixture(
    x: Tensor, probs: Tensor, indices: np.ndarray, experts: list[FeedForward]
) -> tuple[Tensor, int]:
    """Weighted sum of each token's selected experts, as one graph node.

    ``x`` is (tokens, D), ``probs`` (tokens, num_experts) and ``indices``
    (tokens, k): token i adds ``w[i, j] * experts[indices[i, j]](x[i])``,
    where row i of ``w`` is ``probs[i, indices[i]]`` over its sum. The
    (token, slot) pairs are stable-sorted by expert, so each expert runs once
    on a contiguous segment, and each token's terms are summed in ascending
    expert order. The formulas are in the module docstring. Returns the
    (tokens, D) output and the number of (token, expert) evaluations, the
    summed segment lengths. Experts with an empty segment are not run and
    get ``None`` gradients.
    """
    x_data, probs_shape = x.data, probs.shape
    out, kept, dispatched = expert_mixture_forward(x_data, probs.data, indices, experts)
    picked, total, flat_w, saved = kept

    def backward(g):
        dx = np.zeros(x_data.shape)
        dw = np.zeros(flat_w.shape)
        grads = []
        for e, expert in enumerate(experts):
            if saved[e] is None:
                grads.extend([None] * 4)
                continue
            pairs, rows, y, s = saved[e]
            saved[e] = None  # this expert's arrays go once it is done
            gr = g[rows]
            dw[pairs] = (gr * y).sum(axis=1)
            dxr, *expert_grads = expert.backward(gr * flat_w[pairs][:, None], x_data[rows], s)
            dx[rows] += dxr
            grads.extend(expert_grads)
        dw = dw.reshape(indices.shape)
        dpicked = dw / total + (-dw * picked / (total * total)).sum(axis=1, keepdims=True)
        at_picked = (np.arange(indices.shape[0])[:, None], indices)
        return (dx, scatter_add(probs_shape, at_picked, dpicked), *grads)

    params = tuple(p for expert in experts for p in expert.weights)
    return _record(out, (x, probs) + params, backward), dispatched


def expert_mixture_forward(
    x: np.ndarray, probs: np.ndarray, indices: np.ndarray, experts: list[FeedForward]
) -> tuple[np.ndarray, tuple, int]:
    """The forward of ``expert_mixture`` on arrays: the output, what the backward
    needs, and the number of (token, expert) evaluations."""
    picked = np.take_along_axis(probs, indices, axis=1)
    total = picked.sum(axis=1, keepdims=True)
    flat_w = (picked / total).reshape(-1)
    order = np.argsort(indices.reshape(-1), kind="stable")  # flat (token, slot) ids
    bounds = np.searchsorted(indices.reshape(-1)[order], np.arange(len(experts) + 1))
    out = np.zeros(x.shape)
    # Per expert: (pair ids, rows, unweighted output, the sigmoid its FFN backward
    # needs besides its input rows). The backward gathers x[rows] again.
    saved, dispatched = [], 0
    for e, expert in enumerate(experts):
        pairs = order[bounds[e] : bounds[e + 1]]
        if pairs.size == 0:
            saved.append(None)  # silent expert: never evaluated for this batch
            continue
        dispatched += pairs.size
        rows = pairs // indices.shape[1]
        y, s = expert.forward(x[rows])
        out[rows] += y * flat_w[pairs][:, None]
        saved.append((pairs, rows, y, s))
    return out, (picked, total, flat_w, saved), dispatched


def load_balance_loss(stats: LoadStats, num_experts: int) -> Tensor:
    """num_experts * sum_i assign_fraction_i * mean_prob_i (scalar tensor)."""
    fractions = Tensor(stats.assign_fraction)  # constant: no gradient through counts
    return tsum(stats.mean_prob * fractions) * float(num_experts)
