"""Benchmark of the avmoe training and decoding paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed makes the corpus; model weights
and batch order are fixed (TRAIN_SEED, harness.PREP_RECIPE). Workloads, all
closed loop with one client and no think time, on the default model (hidden
64, 4 encoder and 2 decoder blocks, 8 experts with top-4):

  train_ref    reference task, 3-6 words per utterance (16 of each length),
               batch 16: the repo's standard run, dominated by Python
               overhead per op.
  train_long   12-16 words per utterance (4 of each length), batch 4, so a
               step carries about as many tokens as in train_ref. Costs that
               grow with sequence length (attention T^2, the CTC lattice T*S)
               show here and not in train_ref.
  eval_decode  one request at a time, from the files to both hypotheses,
               with the deployed model: no graph, no backward, no optimizer.

The deployed model is trained from a fixed recipe (harness.PREP_RECIPE) in a
separate process (bench/prep.py) at the start of every run, so neither
set-up time nor peak memory includes it; its losses are checked against
bench/reference.json.

End-to-end metrics (--trace 0), each on every workload:

  setup_s          time before the first step or request: load_dataset plus
                   model and Adam construction (train_*), load_checkpoint plus
                   restore_model (eval_decode); median of several set-ups.
  utt_per_s        train_*: median over timed epochs of utterances trained
                   per second, an epoch being run_epoch then
                   save_train_state. eval_decode: requests decoded per second.
  decode_ms_p50    time of one request, from its files to both hypotheses:
  decode_ms_p95    median and 95th percentile over the distinct requests. On
                   train_*, with the deployed model after training.
  peak_rss_mb      ru_maxrss of the measured process.

Times are reported in reference seconds (see harness.Clock): on a shared VM,
wall time alone drifts by up to 70% between runs. Wall values are printed
next to them.

With --trace 1 the last stdout line holds the per-layer metrics, from spans
that bench/spans.py records around calls into avmoe: self time per
utterance, per call or per step, counters from a probe on fixed inputs, and
the tracing overhead. A layer that does not run in the workload (training
layers on eval_decode) reads 0. The spans are written to .bench_work/spans/.

Correctness checks count as failed operations: the deployed model's training
losses, and the losses and gradient norm of a fixed probe (see probe), must
match bench/reference.json; every epoch loss must be finite; every MoE call
must dispatch top_k tokens per token; every hypothesis must match its oracle
and repeat on a second request; the probe counters must repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
try:
    import harness as h  # pins BLAS threads, so it comes before numpy
except ImportError as exc:
    sys.exit(f"cannot load the program under test: {exc}")

import numpy as np  # noqa: E402
from spans import Tracer, coverage, summarize  # noqa: E402

from avmoe import losses  # noqa: E402
from avmoe.model import Model  # noqa: E402
from avmoe.optim import Adam  # noqa: E402
from avmoe.synth import load_manifest, reference_task_spec  # noqa: E402

# Work per run is fixed by --seconds, not by a deadline: a train workload
# runs train_share of the seconds' worth of epochs, then MIN_CYCLES passes
# over its requests; eval_decode runs the seconds' worth of requests. Each is
# counted at the time it took at the seed commit (epoch_s, request_s). Faster
# code then does the same work in less time, and a training run passes
# through the same model states whatever the speed: routing, and so the cost
# of a step, changes as the model trains. train_ref's epochs spread more from
# run to run than train_long's, so it gets the larger share.
#
# Requests come in an odd number of equally sized length strata. Latency
# clusters by word count, so with an even number of strata the median would
# sit on the gap between two clusters and jump between them from run to run.
WORKLOADS = {
    "train_ref": {"train": {n: 16 for n in (3, 4, 5, 6)}, "batch": 16, "epoch_s": 2.0,
                  "train_share": 1.0, "test": {n: 40 for n in (3, 4, 5, 6, 7)}},
    "train_long": {"train": {n: 4 for n in (12, 13, 14, 15, 16)}, "batch": 4, "epoch_s": 1.25,
                   "train_share": 0.6, "test": {n: 40 for n in (12, 13, 14, 15, 16)}},
    "eval_decode": {"train": {}, "test": {n: 40 for n in (3, 4, 5, 6, 7)}, "request_s": 0.013},
}
MIN_EPOCHS = 2
MIN_CYCLES = 3  # passes over the distinct requests
SETUP_REPEATS = 7
WARMUP_REQUESTS = 20
CAL_EVERY = 4  # requests between two calibrations of the Clock
# Calibration runs between two epochs (about 45 ms). An epoch is scaled by the
# median of those before and after it, so that one disturbed run of the
# kernel does not move the scale.
EPOCH_CAL = 15
PROBE_SEED = 7
# Model initialisation and batch order of the train workloads. Not the
# workload seed: how many experts a token batch reaches, and so what a step
# costs, depends on the initial weights, and with per-seed weights that moved
# utt_per_s by about 8% between seeds.
TRAIN_SEED = 0
UNTRACED_SHARE = 1 / 3  # of a traced run's units, measured before tracing starts

# (metric, span, normalisation). "utt": self time per encoded utterance;
# "call": self time per call; "total": inclusive time per call.
LAYER_TIMES = [
    ("frontend.read_audio_ms", "frontend.read_audio", "call"),
    ("frontend.log_mel_ms", "frontend.log_mel", "call"),
    ("fusion.read_vemb_ms", "fusion.read_vemb", "call"),
    ("fusion.fuse_ms", "fusion.fuse", "utt"),
    ("nn.ffn1_ms", "nn.ffn1", "utt"),
    ("nn.enc_attention_ms", "nn.enc_attention", "utt"),
    ("nn.cgmlp_ms", "nn.cgmlp", "utt"),
    ("nn.merge_ms", "nn.merge", "utt"),
    ("nn.dec_self_attention_ms", "nn.dec_self_attention", "utt"),
    ("nn.dec_cross_attention_ms", "nn.dec_cross_attention", "utt"),
    ("moe.route_ms", "moe.route", "utt"),
    ("moe.dispatch_ms", "moe.layer", "utt"),
    ("model.encode_ms", "model.encode", "utt"),
    ("model.decoder_tf_ms", "model.decoder_tf", "utt"),
    ("model.ctc_head_ms", "model.ctc_head", "utt"),
    ("losses.ctc_ms", "losses.ctc", "utt"),
    ("losses.attention_ms", "losses.attention", "utt"),
    ("losses.balance_ms", "losses.balance", "utt"),
    ("tensor.backward_ms", "tensor.backward", "call"),
    ("optim.adam_ms", "optim.adam", "call"),
    ("checkpoint.save_ms", "checkpoint.save", "call"),
    ("checkpoint.load_ms", "checkpoint.load", "call"),
    ("decoding.attention_greedy_ms", "decoding.attention_greedy", "utt"),
    ("decoding.ctc_greedy_ms", "decoding.ctc_greedy", "utt"),
    ("train.step_ms", "train.step", "total"),
    ("train.load_dataset_s", "train.load_dataset", "total"),
]
NODE_OPS = (
    "add", "mul", "div", "neg", "matmul", "affine", "transpose", "reshape", "tsum",
    "silu", "softmax_rows", "log_softmax_rows", "logaddexp", "layer_norm", "concat",
    "narrow", "gather_rows", "take_along_cols", "scatter_rows",
)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.reasons[reason] += n

    def check(self, ok: bool, reason: str) -> None:
        self.attempt()
        if not ok:
            self.fail(reason)


def matches(got, want, rel_tol: float) -> bool:
    """Numbers, or equally long lists of them, equal within ``rel_tol``."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return got.shape == want.shape and all(
        math.isclose(g, w, rel_tol=rel_tol, abs_tol=0.0) for g, w in zip(got, want)
    )


# -- the deployed model ------------------------------------------------------------


def run_prep(work: Path, ref: dict, tally: Tally) -> Path | None:
    """Checkpoint of the deployed model, trained in its own process; None if that failed."""
    tally.attempt()
    out = work / "prep"
    cmd = [sys.executable, str(BENCH / "prep.py"), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        tally.fail("prep: timed out")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        tally.fail("prep: failed")
        return None
    prep = json.loads((out / "prep.json").read_text())
    got = [e["l_total"] for e in prep["epochs"]]
    if not matches(got, ref["prep_l_total"], ref["rel_tol"]):
        tally.fail(f"prep: l_total {got} differs from the stored {ref['prep_l_total']}")
    return out / prep["checkpoint"]


# -- decoding ------------------------------------------------------------------------


def serve(model, entries, base, count, clock, first, tally, tracer=None):
    """Closed-loop decoding of ``count`` requests, cycling through ``entries``.

    Returns ``(index, wall seconds, reference seconds)`` per request. ``first``
    maps a request index to its outputs from the first time it was served;
    repeats must give the same hypotheses.
    """
    top_k = model.cfg.moe.top_k
    timings: list[tuple[int, float, float]] = []
    clock.calibrate(3)
    for i in range(count):
        if i and i % CAL_EVERY == 0:
            clock.calibrate()
        idx = i % len(entries)
        tally.attempt()
        sid = tracer.begin("request") if tracer else None
        start = perf_counter()
        try:
            out = h.decode_request(model, entries[idx], base)
        except h.AvmoeError as exc:
            tally.fail(f"request: {type(exc).__name__}")
            continue
        finally:
            if tracer:
                tracer.end(sid)
        wall = perf_counter() - start
        timings.append((idx, wall, wall * clock.scale(last=4)))
        ok = h.dispatch_ok(out["stats"], top_k)
        prior = first.setdefault(idx, out)
        ok = ok and prior["att"].token_ids == out["att"].token_ids
        ok = ok and prior["ctc"].token_ids == out["ctc"].token_ids
        if not ok:
            tally.fail("request: dispatch count or repeat mismatch")
    return timings


def latency_metrics(timings) -> dict[str, tuple]:
    """p50 and p95 over distinct requests, each timed by the median of its repeats.

    Repeats of a request lie a cycle apart, so the median leaves out the
    short bursts of interference that the Clock, calibrated every few
    requests, does not see.
    """
    walls: dict[int, list[float]] = {}
    refs: dict[int, list[float]] = {}
    for idx, wall, ref in timings:
        walls.setdefault(idx, []).append(wall)
        refs.setdefault(idx, []).append(ref)
    wall_med = [statistics.median(v) for v in walls.values()]
    ref_med = [statistics.median(v) for v in refs.values()]
    return {f"decode_ms_p{q}": (1e3 * float(np.percentile(ref_med, q)), "ms", len(ref_med),
                                1e3 * float(np.percentile(wall_med, q))) for q in (50, 95)}


def oracle_checks(model, first, tally) -> float:
    """Check every distinct request against the oracles; returns decoder steps per request."""
    steps = []
    for out in first.values():
        hyp = out["att"].token_ids
        ok = h.attention_oracle_ok(model, out["states"], hyp)
        ok = ok and h.ctc_oracle_ok(out["frame_logits"], out["ctc"].token_ids, model.cfg.blank_id)
        tally.check(ok, "request: hypothesis differs from its oracle")
        steps.append(min(len(hyp) + 1, h.MAX_DECODE_LEN))
    return statistics.fmean(steps)


def restore(ckpt):
    model, _vocab = h.avtrain.restore_model(h.avtrain.load_checkpoint(ckpt))
    return model


# -- training ------------------------------------------------------------------------


def train_epochs(state, data, cfg, vocab, ckpt_dir, epochs, clock, tally, tracer=None):
    """Epochs as ``avmoe.train.train`` runs them; returns (wall, reference) seconds of each."""
    steps = -(-len(data) // cfg.batch_size)
    walls: list[float] = []
    refs: list[float] = []
    previous = None
    clock.calibrate(EPOCH_CAL)
    for _ in range(epochs):
        tally.attempt(steps)
        sid = tracer.begin("epoch") if tracer else None
        start = perf_counter()
        try:
            log = h.avtrain.run_epoch(state, data, cfg)
            state.epochs_done += 1
            path = ckpt_dir / f"epoch{state.epochs_done:03d}.ckpt"
            h.avtrain.save_train_state(path, state, vocab, cfg)
        except h.AvmoeError as exc:
            tally.fail(f"epoch: {type(exc).__name__}", steps)
            break
        finally:
            if tracer:
                tracer.end(sid)
        wall = perf_counter() - start
        clock.calibrate(EPOCH_CAL)
        walls.append(wall)
        refs.append(wall * clock.scale(last=2 * EPOCH_CAL))
        if not all(np.isfinite([log["l_att"], log["l_ctc"], *log["l_aux"]])):
            tally.fail("epoch: non-finite loss", steps)
        if previous is not None:
            previous.unlink()
        previous = path
    return walls, refs


# -- counters ------------------------------------------------------------------------


def graph_nodes(loss) -> dict:
    """Recorded ops reachable from ``loss``, by id; a read-only walk."""
    seen: dict = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        if node._backward is not None:
            seen[id(node)] = node
        stack.extend(node._parents)
    return seen


def probe(model, utts, tally, routing: bool) -> tuple[dict[str, float], dict]:
    """Counters per utterance and loss values, on fixed inputs and the deployed model.

    The counters are graph and MoE counts; the graph is walked before
    ``backward``. The values are each utterance's attention and CTC losses,
    and the gradient norm after one backward of the training objective, the
    probe taken as one batch. With ``routing``, MoE layers are wrapped to
    count silent experts; the untraced run wraps nothing.
    """
    tracer = Tracer()
    if routing:
        for block in model.enc_blocks:
            tracer.instrument_moe(block.ffn2)
    top_k = model.cfg.moe.top_k
    counts: Counter = Counter()
    att_terms, ctc_terms, per_layer = [], [], []
    try:
        for utt in utts:
            l_att, l_ctc, stats = h.avtrain.utterance_losses(model, utt)
            tally.check(h.dispatch_ok(stats, top_k), "probe: dispatched != top_k * tokens")
            att_terms.append(l_att)
            ctc_terms.append(l_ctc)
            per_layer.append(stats)
            counts["moe.tokens"] += sum(s.tokens for s in stats)
            counts["moe.dispatched"] += sum(s.dispatched for s in stats)
            att, ctc = graph_nodes(l_att), graph_nodes(l_ctc)
            encoder = att.keys() & ctc.keys()
            counts["tensor.nodes"] += len(att.keys() | ctc.keys())
            counts["tensor.nodes.encoder"] += len(encoder)
            counts["tensor.nodes.decoder"] += len(att.keys() - encoder)
            counts["tensor.nodes.ctc"] += len(ctc.keys() - encoder)
            for node in {**att, **ctc}.values():
                op = node._backward.__qualname__.split(".")[0]
                counts[f"tensor.nodes.op.{op if op in NODE_OPS else 'other'}"] += 1
    finally:
        tracer.uninstall()
    out = {k: v / len(utts) for k, v in counts.items()}
    for op in NODE_OPS + ("other",):
        out.setdefault(f"tensor.nodes.op.{op}", 0.0)
    if routing:
        out["moe.silent_experts"] = statistics.fmean(c[2] for c in tracer.moe_calls)

    cfg = h.avtrain.TrainConfig()
    aux = losses.batch_balance_losses([list(layer) for layer in zip(*per_layer)],
                                      model.cfg.moe.num_experts)
    bundle = losses.total_loss(sum(att_terms[1:], att_terms[0]) * (1 / len(utts)),
                               sum(ctc_terms[1:], ctc_terms[0]) * (1 / len(utts)),
                               aux, alpha=cfg.alpha, beta=cfg.beta)
    bundle.l_total.backward()
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    values = {"l_att": [t.item() for t in att_terms], "l_ctc": [t.item() for t in ctc_terms],
              "grad_norm": math.sqrt(sum(float(np.sum(g * g)) for g in grads))}
    return out, values


# -- per-layer metrics from spans ------------------------------------------------------------


def layer_times(spans, roots, factor: float) -> dict[str, float]:
    """Each layer metric in reference time, from the first root kind under which it ran.

    ``roots`` holds sets of root span names in order of preference. A layer
    that ran under none of them reads 0.
    """
    summaries = [summarize(spans, r) for r in roots]
    out = {}
    for metric, span, norm in LAYER_TIMES:
        out[metric] = 0.0
        for summary in summaries:
            rec = summary.get(span)
            utts = summary.get("model.encode", {}).get("calls", 0)
            if not rec or (norm == "utt" and not utts):
                continue
            if norm == "utt":
                seconds = rec["self"] / utts
            elif norm == "call":
                seconds = rec["self"] / rec["calls"]
            else:
                seconds = rec["total"] / rec["calls"]
            out[metric] = seconds * factor * (1.0 if metric.endswith("_s") else 1e3)
            break
    return out


# -- workloads ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, work, tally):
    """Returns (end-to-end metrics, per-layer metrics, meta), or None if the prep failed.

    End-to-end entries are ``name: (reference value, unit, samples, wall value)``.
    """
    w = WORKLOADS[name]
    n_test = sum(w["test"].values())
    cycles = MIN_CYCLES
    if not w["train"]:
        cycles = max(MIN_CYCLES, round(seconds / (w["request_s"] * n_test)))
    requests = cycles * n_test
    ref = json.loads((BENCH / "reference.json").read_text())
    deployed = run_prep(work, ref, tally)
    if deployed is None:
        return None
    corpus = h.make_corpus(work / "corpus", seed, w["train"], w["test"])
    probe_lengths = dict.fromkeys(w["train"] or w["test"], 1)
    probe_corpus = h.make_corpus(work / "probe", PROBE_SEED, probe_lengths, {})
    # Shuffled, so that a part of the request list is not biased by length.
    test_entries = load_manifest(corpus["test"])
    np.random.default_rng(seed).shuffle(test_entries)
    base = corpus["test"].parent
    spec = reference_task_spec()
    vocab = h.reference_vocab()
    mcfg = h.model_config(vocab.size)

    clock = h.Clock()
    tracer = Tracer() if trace else None
    e2e: dict[str, tuple] = {}
    layers: dict[str, float] = {}
    first: dict = {}
    setups: list[tuple[float, float]] = []

    def timed_setup(fn):
        clock.calibrate(3)
        start = perf_counter()
        out = fn()
        wall = perf_counter() - start
        clock.calibrate(3)
        setups.append((wall, wall * clock.scale(last=6)))
        return out

    if w["train"]:
        cfg = h.avtrain.TrainConfig(seed=TRAIN_SEED, batch_size=w["batch"])

        def setup():
            data = h.avtrain.load_dataset(corpus["train"], vocab, n_mels=mcfg.n_mels, spec=spec)
            model = Model(mcfg, np.random.default_rng(cfg.seed))
            optimizer = Adam(model.named_parameters(), lr=cfg.lr, beta1=cfg.adam_beta1,
                             beta2=cfg.adam_beta2, eps=cfg.adam_eps)
            return data, model, optimizer

        for _ in range(SETUP_REPEATS):
            data = model = optimizer = None  # so that only one set-up is alive at a time
            gc.collect()
            data, model, optimizer = timed_setup(setup)
        state = h.avtrain.TrainState(model=model, optimizer=optimizer,
                                     rng=np.random.default_rng(cfg.seed))
        ckpt_dir = work / "ckpt"
        ckpt_dir.mkdir()
        # Warm-up epoch: cold code paths run several times slower.
        train_epochs(state, data, cfg, vocab, ckpt_dir, 1, clock, tally)
        units = max(MIN_EPOCHS, round(seconds * w["train_share"] / w["epoch_s"]))
        if tracer is None:
            walls, refs = train_epochs(state, data, cfg, vocab, ckpt_dir, units, clock, tally)
        else:
            untraced = max(1, round(units * UNTRACED_SHARE))
            _, base_refs = train_epochs(state, data, cfg, vocab, ckpt_dir, untraced, clock, tally)
            traced_from = len(clock.history)
            tracer.install_functions()
            tracer.instrument_model(model)
            tracer.instrument_optimizer(optimizer)
            sid = tracer.begin("setup")
            setup()
            tracer.end(sid)
            walls, refs = train_epochs(state, data, cfg, vocab, ckpt_dir, units - untraced,
                                       clock, tally, tracer)
            layers["trace.overhead_pct"] = 100 * (statistics.median(refs)
                                                  / statistics.median(base_refs) - 1)
        e2e["utt_per_s"] = (statistics.median(len(data) / t for t in refs), "utt/s", len(refs),
                            statistics.median(len(data) / t for t in walls))
        # Then decode with the deployed model, as a user would after training.
        sid = tracer.begin("setup") if tracer else None
        dmodel = restore(deployed)
        if tracer:
            tracer.end(sid)
            tracer.instrument_model(dmodel)
        serve(dmodel, test_entries, base, WARMUP_REQUESTS, clock, first, tally, tracer)
        timings = serve(dmodel, test_entries, base, requests, clock, first, tally, tracer)
        unit_span = "train.step"
        roots = [{"epoch"}, {"setup"}, {"request"}]
    else:
        for _ in range(SETUP_REPEATS):
            dmodel = None  # so that only one set-up is alive at a time
            gc.collect()
            dmodel = timed_setup(lambda: restore(deployed))
        serve(dmodel, test_entries, base, WARMUP_REQUESTS, clock, first, tally)
        if tracer is None:
            timings = serve(dmodel, test_entries, base, requests, clock, first, tally)
        else:
            untraced = round(requests * UNTRACED_SHARE)
            base_refs = [t[2] for t in serve(dmodel, test_entries, base, untraced, clock, first,
                                             tally)]
            traced_from = len(clock.history)
            tracer.install_functions()
            sid = tracer.begin("setup")
            restore(deployed)
            tracer.end(sid)
            tracer.instrument_model(dmodel)
            timings = serve(dmodel, test_entries, base, requests - untraced, clock, first,
                            tally, tracer)
            layers["trace.overhead_pct"] = 100 * (statistics.median(t[2] for t in timings)
                                                  / statistics.median(base_refs) - 1)
        e2e["utt_per_s"] = (len(timings) / sum(t[2] for t in timings), "utt/s", len(timings),
                            len(timings) / sum(t[1] for t in timings))
        unit_span = "request"
        roots = [{"request"}, {"setup"}]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    e2e["setup_s"] = (statistics.median(r for _, r in setups), "s", len(setups),
                      statistics.median(wl for wl, _ in setups))
    e2e.update(latency_metrics(timings))
    e2e["peak_rss_mb"] = (peak_rss_mb, "MiB", 1, peak_rss_mb)

    # Checks and counters, outside every timed region.
    steps_per_utt = oracle_checks(dmodel, first, tally)
    probe_utts = h.avtrain.load_dataset(probe_corpus["train"], vocab, n_mels=mcfg.n_mels,
                                        spec=spec)
    counters, values = probe(restore(deployed), probe_utts, tally, routing=bool(trace))
    again, values_again = probe(restore(deployed), probe_utts, tally, routing=bool(trace))
    tally.check(counters == again, "probe: counters differ between two passes")
    for key, want in ref["probe"][name].items():
        for got in (values[key], values_again[key]):
            tally.check(matches(got, want, ref["rel_tol"]),
                        f"probe: {key} differs from the stored value")

    if tracer:
        spans_dir = h.REPO / ".bench_work" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{name}-seed{seed}.jsonl")
        factor = h.CAL_REF_S / statistics.median(clock.history[traced_from:])
        layers.update(layer_times(tracer.spans, roots, factor))
        layers["trace.coverage_pct"] = coverage(tracer.spans, unit_span)
        top_k = dmodel.cfg.moe.top_k
        for tokens, dispatched, _silent in tracer.moe_calls:
            tally.check(dispatched == top_k * tokens, "traced call: dispatched != top_k * tokens")
        layers.update(counters)
        layers["decoding.steps_per_utt"] = steps_per_utt
        layers["checkpoint.bytes"] = float(deployed.stat().st_size)
        layers["src.loc"] = float(h.source_digest()[1])
    n_params = sum(p.size for p in dmodel.parameters())
    return e2e, layers, h.meta(name, seed, mcfg, n_params)


def layer_unit(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%")):
        if metric.endswith(suffix):
            return unit
    return {"src.loc": "lines", "checkpoint.bytes": "bytes"}.get(metric, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="avmoe benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = h.REPO / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason, n in tally.reasons.items():
        print(f"failed x{n}: {reason}", file=sys.stderr)
    if result is None:
        return 1
    e2e, layers, meta = result
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        for k, m in metrics.items():
            print(f"{k:36s} {m['value']:16.4f} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _n, _wall) in e2e.items()}
        for k, (v, u, n, wall) in e2e.items():
            print(f"{k:20s} {v:12.4f} {u:6s} samples={n:<5d} wall={wall:.4f}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
