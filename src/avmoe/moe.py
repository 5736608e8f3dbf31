"""Sparse mixture-of-experts layer with a linear router and top-k dispatch.

Routing probabilities come from a softmax over ``x @ router``. Each token is
processed only by its k highest-probability experts and the outputs are
combined with those probabilities (renormalized over the selected set by
default, raw otherwise). Per-batch load statistics feed the balancing loss
``num_experts * sum_i assign_fraction_i * mean_prob_i``: the hard assignment
fractions are treated as constants, so its gradient reaches the router only
through the mean probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .nn import FeedForward, Module
from .tensor import (
    Tensor,
    gather_rows,
    matmul,
    reshape,
    scatter_rows,
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
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(
                f"top_k={self.top_k} out of range for {self.num_experts} experts"
            )
        if self.hidden < 1 or self.ffn_hidden < 1:
            raise ConfigError(
                f"widths must be positive, got hidden={self.hidden}, "
                f"ffn_hidden={self.ffn_hidden}"
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
        tokens, k = decision.indices.shape
        flat_weights = reshape(decision.weights, (tokens * k,))
        out = None
        dispatched = 0
        for e in range(self.cfg.num_experts):
            rows, slots = np.nonzero(decision.indices == e)
            if rows.size == 0:
                continue  # silent expert: never evaluated for this batch
            dispatched += int(rows.size)
            expert_out = self.experts[e](gather_rows(x, rows))
            w = gather_rows(flat_weights, rows * k + slots).reshape(rows.size, 1)
            part = scatter_rows(expert_out * w, rows, tokens)
            out = part if out is None else out + part
        stats = LoadStats(
            hard_counts=np.bincount(
                np.argmax(decision.probs.data, axis=1), minlength=self.cfg.num_experts
            ).astype(np.float64),
            prob_sum=tsum(decision.probs, axis=0),
            tokens=tokens,
            dispatched=dispatched,
        )
        return out, stats


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
