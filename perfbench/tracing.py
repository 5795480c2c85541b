"""Traced run: per-layer spans recorded from outside the package.

For training workloads the traced run drives the epochs itself with the
trainer's own functions (``_epoch_batches``, ``_build_validation``) and the
same calls ``_train_one_batch`` makes, wrapping a span around each call
into the package. ``encode_batch`` is reached through the ``train`` and
``encoder`` module attributes, so it is swapped for a timing wrapper for
the duration of the traced section only; this records the forward encodes
inside ``pair_batch_loss`` and the frozen encodes inside validation and
``encode_sentences`` without touching the package's source.

The same process first runs the untraced trainer (or probe pass) once, so
the replica is checked against ``train_single_task``'s history and the
tracing overhead is measured against an untraced epoch of the same run.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from conssent import autodiff as ad
from conssent import encoder as enc_mod
from conssent import train as tr
from conssent.encoder import bind_params, copy_params, head_logits, init_params
from conssent.errors import DataError
from conssent.perturb import SINGLE_TASKS

import workloads as wl

# Per-call timings reported as p50, tail percentile and sample count.
PER_BATCH = (
    "encoder.fwd", "encoder.head", "autodiff.backward", "train.loss", "train.sgd", "encoder.frozen",
)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        self.rec[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    def span(self, name: str) -> _Span:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return _Span(self, rec)

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")


@contextmanager
def traced_encode(tracer: Tracer, counters: dict):
    """Swap encode_batch for a timing wrapper in the modules that call it."""
    original = enc_mod.encode_batch

    def encode_batch(seqs, params, tape):
        name = "encoder.fwd" if tape.recording else "encoder.frozen"
        with tracer.span(name):
            out = original(seqs, params, tape)
        lengths = [len(s) for s in seqs]
        counters[name].append((sum(lengths), len(lengths) * max(lengths)))
        return out

    enc_mod.encode_batch = tr.encode_batch = encode_batch
    try:
        yield
    finally:
        enc_mod.encode_batch = tr.encode_batch = original


# ---------------------------------------------------------------------------
# Training replica
# ---------------------------------------------------------------------------


def _step(params, task, batch, lr, clip_norm, span, nodes):
    """_train_one_batch with a span around each call into the package."""
    tape = ad.Tape()
    with span("encoder.bind"):
        bound, leaves = bind_params(params, tape)
    if task in SINGLE_TASKS:
        enc = tr.encode_batch([list(ex.tokens) for ex in batch], bound, tape)
        with span("encoder.head"):
            logits = head_logits(enc, bound.heads[task])
        labels = np.array([ex.label for ex in batch], dtype=np.int64)
        with span("train.loss"):
            loss = ad.softmax_xent(logits, labels)
    else:
        with span("train.loss"):
            loss = tr.pair_batch_loss(batch, bound, tape)
    nodes.append(len(tape))
    with span("autodiff.backward"):
        tape.backward(loss)
    with span("train.sgd"):
        grads = {name: leaf.grad for name, leaf in leaves.items() if leaf.grad is not None}
        norm = tr.sgd_step(params, grads, lr, clip_norm)
    return float(loss.value), norm


def replica(w, prep, seed, tracer, tally) -> dict:
    """_run_training for one task, epoch by epoch, with spans."""
    span = tracer.span
    config = w.train_config(seed)
    task, data = w.task, prep.data
    heads = (task,) if task in SINGLE_TASKS else ()
    params = init_params(
        data.vocab.size, config.embed_dim, config.hidden_size, head_tasks=heads,
        head_dim=config.head_dim, seed=config.seed, stream_item=0, init_gain=config.init_gain)
    valid_set = tr._build_validation(data, task, config)
    lr, best, best_params = config.lr0, float("-inf"), copy_params(params)
    history, nodes, clipped, steps = [], [], 0, 0
    for epoch in range(config.max_epochs):
        with span("epoch"):
            with span("perturb.gen"):
                batches = tr._epoch_batches(data.train, task, config, epoch, data.vocab)
            if not batches:
                raise DataError(f"epoch {epoch}: no training batches for {task}")
            losses = []
            for batch in batches:
                steps += 1
                try:
                    with span("train.step"):
                        loss, norm = _step(params, task, batch, lr, config.clip_norm, span, nodes)
                except tr.NonFiniteGradient:
                    tally.fail("NonFiniteGradient")
                    continue
                losses.append(loss)
                clipped += norm >= config.clip_norm
            with span("train.validate"):
                acc = tr._validate(params, task, valid_set)
            history.append([epoch, statistics.fmean(losses) if losses else float("nan"), acc, lr])
            if acc > best:
                with span("encoder.snapshot"):
                    best_params = copy_params(params)
            with span("train.lr_schedule"):
                lr, best = tr.lr_schedule(lr, acc, best, config.drop_decay, config.epoch_decay)
    return {"history": history, "best": best, "params": best_params,
            "nodes": nodes, "clip_frac": clipped / steps if steps else 0.0}


def _same_history(a: list, b: list) -> bool:
    """Equal epochs, and losses and accuracies equal to rounding."""
    return len(a) == len(b) and all(
        ra[0] == rb[0] and all(
            (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15)
            for x, y in zip(ra[1:], rb[1:]))
        for ra, rb in zip(a, b))


def _same_params(a, b) -> bool:
    x, y = a.named_arrays(), b.named_arrays()
    return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def tail(values: list) -> tuple:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it
    (the maximum when there are fewer than twenty samples)."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return 100.0, max(values)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, counters: dict, root: str, skip: int) -> tuple[dict, dict]:
    """Metric values plus a per-layer self-time table for the report.

    ``root`` names the span of the workload's repeated unit ("epoch" or
    "pass"); its self time is harness overhead. The first ``skip`` of them
    are left out, matching the untraced epoch times (epoch 0 also pays for
    init and the validation build).
    """
    selfs = tracer.self_times()
    by_name = defaultdict(list)  # name -> [(duration, self)]
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == root]
    kept_roots = set(roots[skip:])
    in_kept = {}  # span index -> whether it lies under a kept root
    layer_self = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        in_kept[i] = i in kept_roots or (parent >= 0 and in_kept[parent])
        by_name[name].append((end - start, selfs[i]))
        if in_kept[i]:
            layer_self[name] += selfs[i]
    root_time = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in kept_roots)
    root_self = sum(selfs[i] for i in kept_roots)

    def durations(name):
        return [d for d, _ in by_name.get(name, [])]

    def self_ms(name):
        return [1e3 * s for _, s in by_name.get(name, [])]

    m, tails = {}, {}
    m["toydata.corpus_s"] = sum(durations("toydata.corpus"))
    m["corpus.prepare_s"] = sum(durations("corpus.prepare"))
    m["encoder.init_s"] = sum(durations("encoder.init"))
    m["encoder.ckpt_load_s"] = sum(durations("encoder.ckpt_load"))
    m["perturb.gen_s"] = _median(durations("perturb.gen"))
    m["encoder.bind_ms"] = _median(self_ms("encoder.bind"))
    for name in PER_BATCH:
        values = self_ms(name)
        key = name + "_ms"
        m[key] = _median(values)
        q, v = tail(values) if values else (0.0, 0.0)
        m[key + "_tail"] = v
        m[name + "_n"] = len(values)
        tails[key + "_tail"] = q
    m["train.validate_s"] = _median(durations("train.validate"))
    for kind, key in (("encoder.fwd", "encoder.pad_frac"), ("encoder.frozen", "encoder.frozen_pad_frac")):
        tokens = sum(t for t, _ in counters[kind])
        slots = sum(p for _, p in counters[kind])
        m[key] = 1.0 - tokens / slots if slots else 0.0
    fwd = counters["encoder.fwd"]
    m["encoder.tokens_per_batch"] = sum(t for t, _ in fwd) / len(fwd) if fwd else 0.0
    for name in ("probes.tasks", "probes.encode", "probes.logreg", "probes.mlp"):
        m[name + "_s"] = sum(durations(name))
    m["trace.epoch_s"] = _median([tracer.spans[i][2] - tracer.spans[i][1] for i in kept_roots])
    m["trace.cover_frac"] = 1.0 - root_self / root_time if root_time else 0.0
    n_roots = max(1, len(kept_roots))
    table = {
        "roots": len(kept_roots),
        "root_s_per_unit": root_time / n_roots,
        "self_s_per_unit": {k: v / n_roots for k, v in sorted(layer_self.items())},
        "tail_percentile": tails,
    }
    return m, table


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def run_traced(w, seed: int, seconds: float, scratch: Path, tally):
    """Returns (checks, metrics, report) for one traced run."""
    tracer, counters = Tracer(), defaultdict(list)
    checks = {}
    with tracer.span("setup"):
        prep = wl.setup(w, seed, scratch, tally, span=tracer.span)
    checks["checkpoint_roundtrip"] = prep.ckpt_ok
    extra = {"perturb.yield": 0.0, "train.clip_frac": 0.0, "autodiff.nodes_per_batch": 0.0}
    report = {"inputs": wl.input_properties(prep.sentences, prep.data.vocab.size, w.need)}

    if w.task is not None:
        config = w.train_config(seed)
        steps, stats = wl.epoch_accounting(prep.data, config)
        tally.attempted += sum(steps)
        stamps = []
        state = tr.train_single_task(
            config, prep.data, progress=lambda _msg: stamps.append(perf_counter()))
        with traced_encode(tracer, counters):
            rep = replica(w, prep, seed, tracer, tally)
        untraced = _median([b - a for a, b in zip(stamps, stamps[1:])])
        checks["replica_matches_trainer"] = (
            _same_history(rep["history"], wl.history_key(state))
            and rep["best"] == state.best_valid and _same_params(rep["params"], state.params))
        _, checks["checkpoint_roundtrip"] = wl.checkpoint_roundtrip(
            rep["params"], scratch / "trained.ckpt", tracer.span)
        extra.update({
            "perturb.yield": wl.gen_yield(stats),
            "train.clip_frac": rep["clip_frac"],
            "autodiff.nodes_per_batch": _median(rep["nodes"]),
        })
        report["gen_stats"] = {"written": stats.written, "skipped": dict(stats.skipped)}
        report["untraced_epoch_s"] = untraced
        with traced_encode(tracer, counters), tracer.span("pass"):
            probed = wl.probe_pass(prep, w, seed, tally, span=tracer.span)
        root, skip = "epoch", 1  # epoch 0 also builds init and validation
    else:
        reference = wl.probe_pass(prep, w, seed, tally)
        with traced_encode(tracer, counters), tracer.span("pass"):
            probed = wl.probe_pass(prep, w, seed, tally, span=tracer.span)
        checks["replica_matches_trainer"] = probed["outputs"] == reference["outputs"]
        untraced = reference["pass_s"]
        root, skip = "pass", 0

    metrics, table = layer_metrics(tracer, counters, root, skip)
    metrics.update(extra)
    metrics["corpus.vocab_size"] = prep.data.vocab.size
    metrics["encoder.init_draws"] = wl.init_draws(prep.params)
    metrics["probes.cells"] = probed["grid_fits"]
    metrics["trace.overhead_frac"] = (metrics["trace.epoch_s"] - untraced) / untraced if untraced else 0.0
    report["layers"] = table
    report["outputs"] = probed["outputs"]
    tracer.write(scratch / f"spans-{w.name}-seed{seed}.jsonl")
    return checks, metrics, report
