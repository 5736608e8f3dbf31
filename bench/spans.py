"""Span recording from outside the program, for the traced run only.

A ``Tracer`` wraps the public functions of the avmoe modules, and swaps the
class of selected ``Module`` instances for a subclass whose methods record a
span around the original. Subclassing keeps ``isinstance`` checks such as
``EncoderBlock``'s test for ``MoELayer`` working, and keeps the instance
dictionary, so parameter walks and checkpoints are unchanged. A function
imported by name into another module (``avmoe.train`` binds ``ctc_loss``
that way) is replaced wherever that name points at it. ``uninstall``
restores everything.

Spans are kept in memory as ``[name, parent, root, start, end]``; a span's id
is its index. ``root`` is the id of the outermost open span, so all spans of
one training step or one request share it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from avmoe import checkpoint, decoding, frontend, fusion, losses
from avmoe import train as avtrain
from avmoe.moe import MoELayer
from avmoe.optim import Adam
from avmoe.tensor import Tensor

# (module, function, span name). Each is also replaced in every avmoe module
# that imported it by name.
FUNCTIONS = [
    (frontend, "read_waveform", "frontend.read_audio"),
    (frontend, "log_mel_from_waveform", "frontend.log_mel"),
    (fusion, "load_visual_embeddings", "fusion.read_vemb"),
    (losses, "ctc_loss", "losses.ctc"),
    (losses, "attention_loss", "losses.attention"),
    (losses, "batch_balance_losses", "losses.balance"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (decoding, "attention_greedy_decode", "decoding.attention_greedy"),
    (decoding, "ctc_greedy_decode", "decoding.ctc_greedy"),
    (avtrain, "load_dataset", "train.load_dataset"),
    (avtrain, "_train_batch", "train.step"),
]

MODEL_METHODS = {
    "fuse": "fusion.fuse",
    "encode": "model.encode",
    "decode_teacher_forcing": "model.decoder_tf",
    "ctc_head": "model.ctc_head",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.moe_calls: list[tuple[int, int, int]] = []  # (tokens, dispatched, silent experts)
        self._stack: list[int] = []
        self._undo: list[tuple] = []  # (object, attribute, original value)
        self._subclasses: dict = {}
        self._experts_used = 0

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][2] if self._stack else sid
        self.spans.append([name, parent, root, perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------------

    def install_functions(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "avmoe" or n.startswith("avmoe.")]
        for home, attr, name in FUNCTIONS:
            original = getattr(home, attr, None)
            if original is None:
                continue  # renamed or removed; its metrics then read 0
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))
        self._patch_class(Tensor, "backward", "tensor.backward")

    def _patch_class(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._undo.append((cls, attr, original))

    def instrument_instance(self, obj, methods: dict[str, str]) -> None:
        """Swap ``obj``'s class for a subclass that traces ``methods``."""
        cls = type(obj)
        key = (cls, tuple(sorted(methods.items())))
        sub = self._subclasses.get(key)
        if sub is None:
            body = {m: self.wrap(name, getattr(cls, m)) for m, name in methods.items()}
            sub = type(cls.__name__, (cls,), body)
            self._subclasses[key] = sub
        obj.__class__ = sub
        self._undo.append((obj, "__class__", cls))

    def instrument_moe(self, layer: MoELayer) -> None:
        tracer = self
        cls = type(layer)
        sub = self._subclasses.get(cls)
        if sub is None:
            traced_route = self.wrap("moe.route", cls.route)
            traced_call = self.wrap("moe.layer", cls.__call__)

            def route(layer_self, x):
                decision = traced_route(layer_self, x)
                tracer._experts_used = int(np.unique(decision.indices).size)
                return decision

            def call(layer_self, x):
                out, stats = traced_call(layer_self, x)
                silent = layer_self.cfg.num_experts - tracer._experts_used
                tracer.moe_calls.append((stats.tokens, stats.dispatched, silent))
                return out, stats

            sub = type(cls.__name__, (cls,), {"route": route, "__call__": call})
            self._subclasses[cls] = sub
        layer.__class__ = sub
        self._undo.append((layer, "__class__", cls))

    def instrument_model(self, model) -> None:
        self.instrument_instance(model, MODEL_METHODS)
        for block in model.enc_blocks:
            self.instrument_instance(block.ffn1, {"__call__": "nn.ffn1"})
            self.instrument_instance(block.attn, {"__call__": "nn.enc_attention"})
            self.instrument_instance(block.local, {"__call__": "nn.cgmlp"})
            self.instrument_instance(block.merge, {"__call__": "nn.merge"})
            if isinstance(block.ffn2, MoELayer):
                self.instrument_moe(block.ffn2)
        for block in model.dec_blocks:
            self.instrument_instance(block.self_attn, {"__call__": "nn.dec_self_attention"})
            self.instrument_instance(block.cross_attn, {"__call__": "nn.dec_cross_attention"})

    def instrument_optimizer(self, optimizer: Adam) -> None:
        self.instrument_instance(optimizer, {"step": "optim.adam"})

    def uninstall(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, root, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, parent, root, start, end]) + "\n")


def summarize(spans: list[list], roots: set[str] | None = None) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds, self seconds.

    With ``roots``, only spans whose outermost span has one of those names count.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, parent, _root, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for sid, (name, _parent, root, start, end) in enumerate(spans):
        if roots is not None and spans[root][0] not in roots:
            continue
        rec = out[name]
        rec["calls"] += 1
        rec["total"] += end - start
        rec["self"] += end - start - child_time[sid]
    return dict(out)


def coverage(spans: list[list], unit: str) -> float | None:
    """Share of ``unit`` span time covered by its direct children, in percent."""
    unit_ids = {sid for sid, s in enumerate(spans) if s[0] == unit}
    if not unit_ids:
        return None
    total = sum(spans[sid][4] - spans[sid][3] for sid in unit_ids)
    covered = sum(s[4] - s[3] for s in spans if s[1] in unit_ids)
    return 100.0 * covered / total

