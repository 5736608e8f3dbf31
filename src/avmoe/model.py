"""Encoder-decoder speech recognizer with MoE second-FFN slots.

Encoder blocks are two-branch: global self-attention and a local
convolution-gated MLP run in parallel, their concatenation is merged back to
model width, and the block closes with the (dense or MoE) second FFN. Both
FFN slots use half-scaled residuals; all sublayers are pre-norm. The decoder
is a standard pre-norm Transformer with cross-attention. A linear CTC head
reads the encoder states at speech positions only.

The encoder input is built by ``Model.fuse`` alone: each utterance's
visual rows, projected into model width, ahead of its speech tokens, which
are stacked Mel frames projected by one product.

Every method runs on a batch packed along axis 0 (``nn.Segments``): the
rows of utterance b follow those of utterance b - 1, positions restart at
each utterance, and attention and the convolution stay inside it. One
utterance is the batch of one: ``encode_utterance`` packs it, and
``decode_teacher_forcing`` and ``ctc_head`` take it as their default. Under
``no_grad``, ``encode`` and a cached decode step run on arrays, through the
graph ops' own kernels, and build no graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError, DimensionError, GraphError
from .fields import check_fields
from .moe import LoadStats, MoEConfig, MoELayer
from .nn import (
    ConvGatedMLP,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Segments,
    causal_mask,
    glorot,
    sinusoidal_positions,
    unfilled,
)
from .tensor import Tensor, affine, concat, gather_rows, grad_enabled, matmul


@dataclass
class ModelConfig:
    # Reserved token ids, fixed for every model; ``train.Vocab`` numbers words after them.
    blank_id: ClassVar[int] = 0
    sos_id: ClassVar[int] = 1
    eos_id: ClassVar[int] = 2
    # Packed batches have no padding token, but id 3 stays reserved so that word
    # ids, and so checkpoint layouts, do not move.
    num_specials: ClassVar[int] = 4
    # The residual weight of both FFN slots of an encoder block.
    macaron_scale: ClassVar[float] = 0.5

    vocab_size: int
    hidden: int = 64
    heads: int = 4
    d_ff: int | None = None  # defaults to 4 * hidden
    encoder_blocks: int = 4
    decoder_blocks: int = 2
    visual_dim: int = 16
    n_mels: int = 80
    stack_factor: int = 4
    moe: MoEConfig | None = None

    def __post_init__(self):
        if self.d_ff is None and type(self.hidden) is int:
            self.d_ff = 4 * self.hidden

    def validate(self) -> None:
        check_fields(self, {
            "vocab_size": (0, None), "hidden": (2, None), "heads": (1, None), "d_ff": (1, None),
            "encoder_blocks": (0, None), "decoder_blocks": (0, None), "visual_dim": (0, None),
            "n_mels": (1, None), "stack_factor": (1, None),
        })
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
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None):
        d = cfg.hidden
        self.ffn1_norm = LayerNorm(d)
        self.ffn1 = FeedForward(rng, d, cfg.d_ff)
        self.attn_norm = LayerNorm(d)
        self.attn = MultiHeadAttention(rng, d, cfg.heads)
        self.local_norm = LayerNorm(d)
        self.local = ConvGatedMLP(rng, d)
        self.merge = Linear(rng, 2 * d, d)
        self.ffn2_norm = LayerNorm(d)
        if cfg.moe is not None:
            self.ffn2 = MoELayer(cfg.moe, rng)
        else:
            self.ffn2 = FeedForward(rng, d, cfg.d_ff)
        self.final_norm = LayerNorm(d)

    def __call__(self, x: Tensor, segments: Segments) -> tuple[Tensor, LoadStats | None]:
        h = x + self.ffn1(self.ffn1_norm(x)) * ModelConfig.macaron_scale
        attn_in = self.attn_norm(h)
        global_branch = self.attn(attn_in, attn_in, None, segments, segments)
        local_branch = self.local(self.local_norm(h), segments)
        merged = h + self.merge(concat([global_branch, local_branch], axis=1))
        stats = None
        if isinstance(self.ffn2, MoELayer):
            ffn2_out, stats = self.ffn2(self.ffn2_norm(merged))
        else:
            ffn2_out = self.ffn2(self.ffn2_norm(merged))
        return self.final_norm(merged + ffn2_out * ModelConfig.macaron_scale), stats

    def forward(self, x: np.ndarray, segments: Segments) -> tuple[np.ndarray, LoadStats | None]:
        """``__call__`` on arrays, through each sublayer's ``forward``."""
        h = x + self.ffn1.forward(self.ffn1_norm.forward(x))[0] * ModelConfig.macaron_scale
        a, attn = self.attn_norm.forward(h), self.attn
        keys, values = attn.k_proj.forward(a), attn.v_proj.forward(a)
        global_branch = attn.forward(a, keys, values, segments, segments)
        local_branch = self.local.forward(self.local_norm.forward(h), segments)[0]
        merged = h + self.merge.forward(np.concatenate([global_branch, local_branch], axis=1))
        ffn2_out, saved_or_stats = self.ffn2.forward(self.ffn2_norm.forward(merged))
        stats = saved_or_stats if isinstance(self.ffn2, MoELayer) else None
        return self.final_norm.forward(merged + ffn2_out * ModelConfig.macaron_scale), stats


class DecoderBlock(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None):
        d = cfg.hidden
        self.self_norm = LayerNorm(d)
        self.self_attn = MultiHeadAttention(rng, d, cfg.heads)
        self.cross_norm = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(rng, d, cfg.heads)
        self.ffn_norm = LayerNorm(d)
        self.ffn = FeedForward(rng, d, cfg.d_ff)

    def __call__(
        self, x: Tensor, memory: Tensor, mask: np.ndarray, inputs: Segments, sources: Segments
    ) -> Tensor:
        a = self.self_norm(x)
        x = x + self.self_attn(a, a, mask, inputs, inputs)
        x = x + self.cross_attn(self.cross_norm(x), memory, None, inputs, sources)
        return x + self.ffn(self.ffn_norm(x))


@dataclass
class FusedSequence:
    """A batch of utterances packed along axis 0, each its visual rows then its speech tokens."""

    x: Tensor  # (total rows, width)
    segments: Segments  # the rows of each utterance
    boundary: np.ndarray  # per utterance, the position of its first speech row within its rows


class DecodeCache:
    """What an incremental decode of one utterance keeps between its steps, as plain arrays.

    The first step binds the cache to its model and ``states``; a later step
    with another model or other states raises ``ConfigError``. ``fed``
    counts the tokens fed so far, so it is the position of the next one.
    Per decoder block, ``self_kv`` holds the self-attention keys and values
    of every token fed, one row more per step, and ``cross_kv`` the
    cross-attention keys and values of ``states``, projected on the first step,
    when ``row`` and ``sources`` get the segments of one row and of ``states``.
    """

    def __init__(self):
        self.fed = 0
        self.model = self.states = self.row = self.sources = None
        self.self_kv: list[tuple[np.ndarray, np.ndarray]] = []
        self.cross_kv: list[tuple[np.ndarray, np.ndarray]] = []


class Model(Module):
    """With ``rng=None`` nothing is drawn: weights are ``nn.unfilled`` stand-ins,
    which hold no storage, for a checkpoint load (``train.restore_model``) to replace."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None):
        cfg.validate()
        self.cfg = cfg
        d = cfg.hidden
        self.input_proj = Tensor(
            glorot(rng, cfg.stack_factor * cfg.n_mels, d), requires_grad=True
        )
        self.visual_proj = Tensor(glorot(rng, cfg.visual_dim, d), requires_grad=True)
        self.visual_bias = Tensor(np.zeros(d), requires_grad=True)
        self.enc_blocks = [EncoderBlock(cfg, rng) for _ in range(cfg.encoder_blocks)]
        shape = (cfg.vocab_size, d)
        self.dec_embed = Tensor(
            unfilled(shape) if rng is None else rng.normal(0.0, 1.0 / math.sqrt(d), size=shape),
            requires_grad=True,
        )
        self.dec_blocks = [DecoderBlock(cfg, rng) for _ in range(cfg.decoder_blocks)]
        self.dec_norm = LayerNorm(d)
        self.out_proj = Linear(rng, d, cfg.vocab_size)
        self.ctc_proj = Linear(rng, d, cfg.vocab_size)

    # -- encoder side ------------------------------------------------------

    def fuse(self, mels: list[np.ndarray], visuals: list[np.ndarray | None]) -> FusedSequence:
        """Pack utterances for the encoder: each one's visual rows, then its speech tokens.

        Speech tokens are groups of ``stack_factor`` consecutive Mel frames,
        each utterance's last group zero-padded, all projected by one product
        with ``input_proj``. Visual rows (``None`` for none) are mapped into
        model width by one ``z @ visual_proj + visual_bias``. Gradients reach
        these three parameters only: the features are constants.
        """
        cfg = self.cfg
        if len(mels) != len(visuals) or not mels:
            raise DataError(f"fuse got {len(mels)} spectrograms and {len(visuals)} visual inputs")
        sf, n_mels = cfg.stack_factor, cfg.n_mels
        for mel in mels:
            if mel.shape[1:] != (n_mels,):
                raise DimensionError(
                    f"features {mel.shape} do not fit the stack projection "
                    f"{self.input_proj.shape} ({sf} x {n_mels} Mel bins)"
                )
        present = [z for z in visuals if z is not None]
        for z in present:
            if z.ndim != 2 or z.shape[1] != cfg.visual_dim:
                raise DataError(
                    f"visual width mismatch: embeddings {z.shape} vs projection "
                    f"{self.visual_proj.shape}"
                )
        speech_counts = np.array([-(-mel.shape[0] // sf) for mel in mels])
        visual_counts = np.array([0 if z is None else z.shape[0] for z in visuals])
        frames = np.zeros((speech_counts.sum() * sf, n_mels))
        for mel, start in zip(mels, sf * (np.cumsum(speech_counts) - speech_counts)):
            frames[start : start + mel.shape[0]] = mel
        s = matmul(Tensor(frames.reshape(-1, sf * n_mels)), self.input_proj)
        segments = Segments(visual_counts + speech_counts)
        if not visual_counts.any():
            return FusedSequence(x=s, segments=segments, boundary=visual_counts)
        v = affine(Tensor(np.concatenate(present)), self.visual_proj, self.visual_bias)
        # Visual rows take their slots in order, and speech rows the rest.
        is_visual = segments.positions < visual_counts[segments.index]
        order = np.empty(segments.total, dtype=np.int64)
        order[is_visual] = np.arange(v.shape[0])
        order[~is_visual] = v.shape[0] + np.arange(s.shape[0])
        x = gather_rows(concat([v, s], axis=0), order)
        return FusedSequence(x=x, segments=segments, boundary=visual_counts)

    def encode(self, fused: FusedSequence) -> tuple[Tensor, list[LoadStats]]:
        """Encoder states and per-MoE-layer load stats; with grad off, the blocks run on arrays."""
        seg, grad = fused.segments, grad_enabled()
        positions = sinusoidal_positions(seg.longest, self.cfg.hidden)[seg.positions]
        x = fused.x + Tensor(positions) if grad else fused.x.data + positions
        stats: list[LoadStats] = []
        for block in self.enc_blocks:
            x, block_stats = block(x, seg) if grad else block.forward(x, seg)
            if block_stats is not None:
                stats.append(block_stats)
        return (x if grad else Tensor(x)), stats

    def encode_utterance(
        self, mel: np.ndarray, visual: np.ndarray | None
    ) -> tuple[Tensor, list[LoadStats], int]:
        fused = self.fuse([mel], [visual])
        states, stats = self.encode(fused)
        return states, stats, int(fused.boundary[0])

    # -- decoder / heads -----------------------------------------------------

    def decode_teacher_forcing(
        self,
        states: Tensor,
        target_in: list[int],
        sources: Segments | None = None,
        inputs: Segments | None = None,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """Decoder logits, one row per input token.

        ``target_in`` holds each utterance's decoder input, one after
        another; ``inputs`` gives their lengths and ``sources`` the rows of
        ``states`` that each utterance attends to. Both default to one
        utterance.

        With ``cache`` the call is one step of an incremental decode of one
        utterance, under ``no_grad`` and without ``inputs`` or ``sources``:
        ``target_in`` is the newest token alone, fed at position ``cache.fed``.
        The step runs on arrays and builds no graph. Its row attends to the
        keys and values the cache holds for every token fed before it and for
        the encoder states, so it needs no mask, and its logits equal the last
        row of an uncached call over the whole prefix, to rounding.
        """
        ids = np.asarray(target_in, dtype=np.int64)
        if cache is not None:
            if grad_enabled():
                raise GraphError("a decode cache keeps no graph; use it under no_grad only")
            if ids.size != 1 or inputs is not None or sources is not None:
                raise ConfigError(
                    "a decode cache takes one token of one utterance per call and no "
                    f"segments, got {ids.size} tokens"
                )
            if cache.model is None:
                cache.model, cache.states = self, states
            elif cache.model is not self or cache.states is not states:
                raise ConfigError("a decode cache serves the model and states of its first step")
            return Tensor(self._decode_step(int(ids[0]), cache))
        d = self.cfg.hidden
        inputs = inputs if inputs is not None else Segments([ids.size])
        sources = sources if sources is not None else Segments([states.shape[0]])
        x = gather_rows(self.dec_embed, ids) * math.sqrt(d)
        x = x + Tensor(sinusoidal_positions(inputs.longest, d)[inputs.positions])
        mask = causal_mask(inputs.longest)
        for block in self.dec_blocks:
            x = block(x, states, mask, inputs, sources)
        return self.out_proj(self.dec_norm(x))

    def _decode_step(self, token: int, cache: DecodeCache) -> np.ndarray:
        """The (1, vocab) logits of ``token`` fed at position ``cache.fed``: each decoder
        block's ``__call__`` for one row, on arrays, through the graph ops' own kernels."""
        d = self.cfg.hidden
        if cache.fed == 0:
            memory, attns = cache.states.data, [block.cross_attn for block in self.dec_blocks]
            cache.cross_kv = [(a.k_proj.forward(memory), a.v_proj.forward(memory)) for a in attns]
            cache.self_kv = [(np.empty((0, d)),) * 2] * len(attns)
            cache.row, cache.sources = Segments([1]), Segments([len(memory)])
        row, prefix, sources = cache.row, Segments([cache.fed + 1]), cache.sources
        x = self.dec_embed.data[[token]] * math.sqrt(d)
        x = x + sinusoidal_positions(cache.fed + 1, d)[cache.fed :]
        cache.fed += 1
        for b, block in enumerate(self.dec_blocks):
            a = block.self_norm.forward(x)
            attn, cross, (keys, values) = block.self_attn, block.cross_attn, cache.self_kv[b]
            keys = np.concatenate([keys, attn.k_proj.forward(a)])
            values = np.concatenate([values, attn.v_proj.forward(a)])
            cache.self_kv[b] = keys, values
            x = x + attn.forward(a, keys, values, row, prefix)
            x = x + cross.forward(block.cross_norm.forward(x), *cache.cross_kv[b], row, sources)
            x = x + block.ffn.forward(block.ffn_norm.forward(x))[0]
        return self.out_proj.forward(self.dec_norm.forward(x))

    def ctc_head(
        self, states: Tensor, boundary, segments: Segments | None = None
    ) -> Tensor:
        """Frame logits over speech positions only; visual rows are excluded.

        ``boundary`` is the position of each utterance's first speech row
        within its rows of ``states`` (an int for one utterance), and
        ``segments`` splits the rows into utterances, by default one.
        """
        seg = segments if segments is not None else Segments([states.shape[0]])
        first = np.asarray(boundary, dtype=np.int64).reshape(-1)
        speech = np.flatnonzero(seg.positions >= np.repeat(first, seg.lengths))
        return self.ctc_proj(gather_rows(states, speech))
