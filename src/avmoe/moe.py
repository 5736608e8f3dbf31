"""Sparse mixture-of-experts layer with a linear router and top-k dispatch.

Routing probabilities come from a softmax over ``x @ router``. Each token is
processed only by its k highest-probability experts and the outputs are
combined with those probabilities (renormalized over the selected set by
default, raw otherwise). Per-batch load statistics feed the balancing loss
``num_experts * sum_i assign_fraction_i * mean_prob_i``: the hard assignment
fractions are treated as constants, so its gradient reaches the router only
through the mean probabilities.

Dispatch is one graph node, ``expert_mixture``, in the grouped (sort by
expert) form of MegaBlocks (Gale et al., arXiv 2211.15841). The (token, slot)
pairs are stable-sorted by expert into contiguous segments; expert e runs
once on the rows R_e of its segment, with weights w_e:

    h_e = act(x[R_e] W1_e + b1_e),   out[R_e] += (h_e W2_e + b2_e) * w_e

in ascending expert order. Backward, with G the output gradient and
``dy_e = G[R_e] * w_e``:

    dw_e  = rowsum(G[R_e] * (h_e W2_e + b2_e))
    dW2_e = h_e^T dy_e,   db2_e = colsum(dy_e)
    da_e  = (dy_e W2_e^T) * act'(x[R_e] W1_e + b1_e)
    dW1_e = x[R_e]^T da_e,   db1_e = colsum(da_e),   dx[R_e] += da_e W1_e^T

``act'`` comes from what the forward saved: the sigmoid s for silu, as
``s + act * (1 - s)``, and the mask ``pre > 0`` for relu.

An expert with an empty segment gets ``None`` for all four parameter
gradients, exactly as if it were not in the graph, so the optimizer skips it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .fields import check_fields
from .nn import FeedForward, Module
from .tensor import (
    Tensor,
    _record,
    _sigmoid_stable,
    matmul,
    softmax_rows,
    take_along_cols,
    tsum,
)


@dataclass
class MoEConfig:
    num_experts: int = 8
    top_k: int = 4
    renormalize_topk: bool = True
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
    weights: Tensor  # (tokens, k) combination weights
    probs: Tensor  # (tokens, num_experts) full probability rows


@dataclass
class LoadStats:
    """Per-layer, per-batch routing load summary.

    ``hard_counts`` tallies argmax assignments over the full probability row;
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
        if not parts:
            raise ConfigError("cannot merge an empty list of load stats")
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
    def __init__(self, cfg: MoEConfig, rng: np.random.Generator, activation: str = "silu"):
        cfg.validate()
        self.cfg = cfg
        # Zero router: uniform routing at step 0, so a replicated-expert layer
        # starts out exactly equivalent to its donor network. No bias.
        self.router = Tensor(
            np.zeros((cfg.hidden, cfg.num_experts)), requires_grad=True
        )
        self.experts = [
            FeedForward(rng, cfg.hidden, cfg.ffn_hidden, activation)
            for _ in range(cfg.num_experts)
        ]

    def route(self, x: Tensor) -> RoutingDecision:
        """Pick the top-k experts per token with lowest-index tie-breaking."""
        if x.ndim != 2 or x.shape[1] != self.cfg.hidden:
            raise DimensionError(
                f"router expects (tokens, {self.cfg.hidden}), got {x.shape}"
            )
        probs = softmax_rows(matmul(x, self.router))
        # A stable sort of the negated rows keeps equal entries in index order.
        indices = np.argsort(-probs.data, axis=1, kind="stable")[:, : self.cfg.top_k]
        weights = take_along_cols(probs, indices)
        if self.cfg.renormalize_topk:
            weights = weights / tsum(weights, axis=1, keepdims=True)
        return RoutingDecision(indices=indices, weights=weights, probs=probs)

    def __call__(self, x: Tensor) -> tuple[Tensor, LoadStats]:
        """Dispatch tokens to their selected experts and combine the outputs."""
        decision = self.route(x)
        out, dispatched = expert_mixture(x, decision.weights, decision.indices, self.experts)
        stats = LoadStats(
            hard_counts=np.bincount(
                np.argmax(decision.probs.data, axis=1), minlength=self.cfg.num_experts
            ).astype(np.float64),
            prob_sum=tsum(decision.probs, axis=0),
            tokens=x.shape[0],
            dispatched=dispatched,
        )
        return out, stats


def _activation(name: str, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``act(pre)``, equal to the forward of ``tensor.silu`` / ``tensor.relu``, and
    what ``_activation_grad`` needs besides it: the sigmoid for silu, the mask for relu."""
    if name == "silu":
        s = _sigmoid_stable(pre)
        return pre * s, s
    if name == "relu":
        return np.maximum(pre, 0.0), pre > 0.0
    raise ConfigError(f"expert_mixture has no kernel for activation {name!r}")


def _activation_grad(name: str, act: np.ndarray, saved: np.ndarray) -> np.ndarray:
    """``act'(pre)``, equal to the backward of ``tensor.silu`` / ``tensor.relu``.

    For silu, ``s + act * (1 - s)`` with ``act = pre * s`` is bit-identical
    to ``s + pre * s * (1 - s)``, which evaluates ``pre * s`` first.
    """
    if name == "silu":
        return saved + act * (1.0 - saved)
    return saved


def expert_mixture(
    x: Tensor, weights: Tensor, indices: np.ndarray, experts: list[FeedForward]
) -> tuple[Tensor, int]:
    """Weighted sum of each token's selected experts, as one graph node.

    ``x`` is (tokens, D); ``weights`` and ``indices`` are (tokens, k): token
    i adds ``weights[i, j] * experts[indices[i, j]](x[i])``. The (token,
    slot) pairs are stable-sorted by expert, so each expert runs once on a
    contiguous segment, and each token's terms are summed in ascending
    expert order. The formulas are in the module docstring. Returns the
    (tokens, D) output and the number of (token, expert) evaluations, the
    summed segment lengths. Experts with an empty segment are not run and
    get ``None`` gradients.
    """
    tokens, k = indices.shape
    if x.ndim != 2 or x.shape[0] != tokens or weights.shape != indices.shape:
        raise DimensionError(
            f"expert_mixture got x={x.shape}, weights={weights.shape}, indices={indices.shape}"
        )
    order = np.argsort(indices.reshape(-1), kind="stable")  # flat (token, slot) ids
    bounds = np.searchsorted(indices.reshape(-1)[order], np.arange(len(experts) + 1))
    flat_w = weights.data.reshape(-1)
    out = np.zeros(x.shape)
    saved = []  # per expert: (pair ids, rows, inputs, act, sigmoid or mask, unweighted output)
    dispatched = 0
    for e, expert in enumerate(experts):
        pairs = order[bounds[e] : bounds[e + 1]]
        if pairs.size == 0:
            saved.append(None)  # silent expert: never evaluated for this batch
            continue
        dispatched += pairs.size
        rows = pairs // k
        xr = x.data[rows]
        pre = xr @ expert.lin1.weight.data + expert.lin1.bias.data
        act, act_saved = _activation(expert.act, pre)
        y = act @ expert.lin2.weight.data + expert.lin2.bias.data
        out[rows] += y * flat_w[pairs][:, None]
        saved.append((pairs, rows, xr, act, act_saved, y))

    def backward(g):
        dx = np.zeros(x.shape)
        dw = np.zeros(flat_w.shape)
        grads = []
        for expert, rec in zip(experts, saved):
            if rec is None:
                grads.extend([None] * 4)
                continue
            pairs, rows, xr, act, act_saved, y = rec
            gr = g[rows]
            dw[pairs] = (gr * y).sum(axis=1)
            dy = gr * flat_w[pairs][:, None]
            da = (dy @ expert.lin2.weight.data.T) * _activation_grad(expert.act, act, act_saved)
            dx[rows] += da @ expert.lin1.weight.data.T
            grads.extend([xr.T @ da, da.sum(axis=0), act.T @ dy, dy.sum(axis=0)])
        return (dx, dw.reshape(weights.shape), *grads)

    params = tuple(
        p
        for expert in experts
        for p in (expert.lin1.weight, expert.lin1.bias, expert.lin2.weight, expert.lin2.bias)
    )
    return _record(out, (x, weights) + params, backward), dispatched


def init_from_dense(donor: FeedForward, cfg: MoEConfig, activation: str = "silu") -> MoELayer:
    """Build an MoE layer whose experts are exact copies of ``donor``."""
    if donor.lin1.weight.shape != (cfg.hidden, cfg.ffn_hidden):
        raise DimensionError(
            f"donor shape {donor.lin1.weight.shape} does not match config "
            f"({cfg.hidden}, {cfg.ffn_hidden})"
        )
    layer = MoELayer(cfg, np.random.default_rng(0), activation=activation)
    for expert in layer.experts:
        expert.copy_weights_from(donor)
    return layer


def load_balance_loss(stats: LoadStats, num_experts: int) -> Tensor:
    """num_experts * sum_i assign_fraction_i * mean_prob_i (scalar tensor)."""
    if stats.hard_counts.shape != (num_experts,):
        raise DimensionError(
            f"stats cover {stats.hard_counts.shape[0]} experts, expected {num_experts}"
        )
    fractions = Tensor(stats.assign_fraction)  # constant: no gradient through counts
    return tsum(stats.mean_prob * fractions) * float(num_experts)
