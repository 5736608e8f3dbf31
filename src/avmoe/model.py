"""Encoder-decoder speech recognizer with MoE second-FFN slots.

Encoder blocks are two-branch: global self-attention and a local
convolution-gated MLP run in parallel, their concatenation is merged back to
model width, and the block closes with the (dense or MoE) second FFN. Both
FFN slots use half-scaled residuals; all sublayers are pre-norm. The decoder
is a standard pre-norm Transformer with cross-attention. A linear CTC head
reads the encoder states at speech positions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError
from .frontend import LogMelSpectrogram, stack_frames
from .fusion import FusedSequence, fuse_concat, project_visual
from .moe import LoadStats, MoEConfig, MoELayer, init_from_dense
from .nn import (
    ConvGatedMLP,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    causal_mask,
    glorot,
    sinusoidal_positions,
)
from .tensor import Tensor, concat, gather_rows, narrow


@dataclass
class ModelConfig:
    # Reserved token ids, fixed for every model; ``train.Vocab`` numbers words after them.
    blank_id: ClassVar[int] = 0
    sos_id: ClassVar[int] = 1
    eos_id: ClassVar[int] = 2
    pad_id: ClassVar[int] = 3
    num_specials: ClassVar[int] = 4

    vocab_size: int
    hidden: int = 64
    heads: int = 4
    d_ff: int | None = None  # defaults to 4 * hidden
    encoder_blocks: int = 4
    decoder_blocks: int = 2
    visual_dim: int = 16
    n_mels: int = 80
    stack_factor: int = 4
    activation: str = "silu"
    macaron_scale: float = 0.5
    moe: MoEConfig | None = None

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.hidden

    def validate(self) -> None:
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if self.moe is not None:
            if self.moe.hidden != self.hidden or self.moe.ffn_hidden != self.d_ff:
                raise ConfigError(
                    f"MoE widths ({self.moe.hidden}, {self.moe.ffn_hidden}) must match "
                    f"model widths ({self.hidden}, {self.d_ff})"
                )
            self.moe.validate()


class EncoderBlock(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.hidden
        self.ffn1_norm = LayerNorm(d)
        self.ffn1 = FeedForward(rng, d, cfg.d_ff, cfg.activation)
        self.attn_norm = LayerNorm(d)
        self.attn = MultiHeadAttention(rng, d, cfg.heads)
        self.local_norm = LayerNorm(d)
        self.local = ConvGatedMLP(rng, d)
        self.merge = Linear(rng, 2 * d, d)
        self.ffn2_norm = LayerNorm(d)
        if cfg.moe is not None:
            self.ffn2 = MoELayer(cfg.moe, rng, activation=cfg.activation)
        else:
            self.ffn2 = FeedForward(rng, d, cfg.d_ff, cfg.activation)
        self.final_norm = LayerNorm(d)
        self.scale = cfg.macaron_scale

    def __call__(self, x: Tensor) -> tuple[Tensor, LoadStats | None]:
        h = x + self.ffn1(self.ffn1_norm(x)) * self.scale
        attn_in = self.attn_norm(h)
        global_branch = self.attn(attn_in, attn_in)
        local_branch = self.local(self.local_norm(h))
        merged = h + self.merge(concat([global_branch, local_branch], axis=1))
        stats = None
        if isinstance(self.ffn2, MoELayer):
            ffn2_out, stats = self.ffn2(self.ffn2_norm(merged))
        else:
            ffn2_out = self.ffn2(self.ffn2_norm(merged))
        return self.final_norm(merged + ffn2_out * self.scale), stats


class DecoderBlock(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.hidden
        self.self_norm = LayerNorm(d)
        self.self_attn = MultiHeadAttention(rng, d, cfg.heads)
        self.cross_norm = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(rng, d, cfg.heads)
        self.ffn_norm = LayerNorm(d)
        self.ffn = FeedForward(rng, d, cfg.d_ff, cfg.activation)

    def __call__(self, x: Tensor, memory: Tensor, mask: np.ndarray) -> Tensor:
        a = self.self_norm(x)
        x = x + self.self_attn(a, a, mask)
        x = x + self.cross_attn(self.cross_norm(x), memory)
        return x + self.ffn(self.ffn_norm(x))


class Model(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        d = cfg.hidden
        self.input_proj = Tensor(
            glorot(rng, cfg.stack_factor * cfg.n_mels, d), requires_grad=True
        )
        self.visual_proj = Tensor(glorot(rng, cfg.visual_dim, d), requires_grad=True)
        self.visual_bias = Tensor(np.zeros(d), requires_grad=True)
        self.enc_blocks = [EncoderBlock(cfg, rng) for _ in range(cfg.encoder_blocks)]
        self.dec_embed = Tensor(
            rng.normal(0.0, 1.0 / math.sqrt(d), size=(cfg.vocab_size, d)),
            requires_grad=True,
        )
        self.dec_blocks = [DecoderBlock(cfg, rng) for _ in range(cfg.decoder_blocks)]
        self.dec_norm = LayerNorm(d)
        self.out_proj = Linear(rng, d, cfg.vocab_size)
        self.ctc_proj = Linear(rng, d, cfg.vocab_size)

    # -- encoder side ------------------------------------------------------

    def speech_tokens(self, mel: LogMelSpectrogram) -> Tensor:
        return stack_frames(mel, self.cfg.stack_factor, self.input_proj)

    def fuse(self, mel: LogMelSpectrogram, visual: np.ndarray | None) -> FusedSequence:
        s = self.speech_tokens(mel)
        if visual is None:
            return fuse_concat(None, s)
        v = project_visual(visual, self.visual_proj, self.visual_bias)
        return fuse_concat(v, s)

    def encode(self, fused: FusedSequence) -> tuple[Tensor, list[LoadStats]]:
        x = fused.x + Tensor(sinusoidal_positions(fused.x.shape[0], self.cfg.hidden))
        stats: list[LoadStats] = []
        for block in self.enc_blocks:
            x, block_stats = block(x)
            if block_stats is not None:
                stats.append(block_stats)
        return x, stats

    def encode_utterance(
        self, mel: LogMelSpectrogram, visual: np.ndarray | None
    ) -> tuple[Tensor, list[LoadStats], int]:
        fused = self.fuse(mel, visual)
        states, stats = self.encode(fused)
        return states, stats, fused.boundary

    # -- decoder / heads -----------------------------------------------------

    def decode_teacher_forcing(self, states: Tensor, target_in: list[int]) -> Tensor:
        ids = np.asarray(target_in, dtype=np.int64)
        if ids.size == 0:
            raise DataError("decoder input must contain at least the start token")
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:
            raise DataError(
                f"token id out of range: {int(ids.max())} >= vocab {self.cfg.vocab_size}"
            )
        d = self.cfg.hidden
        x = gather_rows(self.dec_embed, ids) * math.sqrt(d)
        x = x + Tensor(sinusoidal_positions(ids.size, d))
        mask = causal_mask(ids.size)
        for block in self.dec_blocks:
            x = block(x, states, mask)
        return self.out_proj(self.dec_norm(x))

    def ctc_head(self, states: Tensor, boundary: int) -> Tensor:
        """Frame logits over speech positions only; visual rows are excluded."""
        speech = narrow(states, 0, boundary, states.shape[0] - boundary)
        return self.ctc_proj(speech)


def moe_model_from_dense(dense: Model, moe_cfg: MoEConfig) -> Model:
    """Turn a dense model into its MoE twin by replicating each second FFN.

    Every parameter outside the second-FFN slots is copied verbatim; each
    slot becomes an MoE layer whose experts are exact copies of the dense
    FFN it replaces, with a zero-initialized router.
    """
    cfg = ModelConfig(**{**vars(dense.cfg), "moe": moe_cfg})
    model = Model(cfg, np.random.default_rng(0))
    dense_params = dict(dense.named_parameters())
    for name, param in model.named_parameters():
        if ".ffn2." in name:
            continue
        param.data = dense_params[name].data.copy()
    for moe_block, dense_block in zip(model.enc_blocks, dense.enc_blocks):
        moe_block.ffn2 = init_from_dense(dense_block.ffn2, moe_cfg, activation=cfg.activation)
    return model
