"""The benchmark's workloads: inputs from the seed, set-up, and untraced runs.

* ``toy-R1`` trains R(1) at the acceptance sizes on the toy corpus, and
  between epochs encodes the three probe tasks with a frozen encoder of the
  same size;
* ``long-C2`` trains C(2) on the long synthetic corpus, encoding the probe
  tasks between epochs the same way;
* ``long-probe`` probes a frozen, untrained E=300/H=128 encoder that went
  through a checkpoint round-trip, fitting the logreg and MLP grids.

The untraced run times the package's own entry points
(``train_single_task``, ``encode_probe``, ``eval_logreg`` ...); set-up also
calls the trainer's ``_build_validation``, as ``train_single_task`` does.
Epoch times come from the trainer's ``progress`` callback, which fires once
per epoch after validation: an epoch runs from the end of one callback to
the start of the next.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from conssent import probes as pr
from conssent import train as tr
from conssent.corpus import prepare_corpus
from conssent.encoder import init_params, load_checkpoint, save_checkpoint
from conssent.errors import DataError, NumericError
from conssent.perturb import SINGLE_TASKS, GenStats, gen_single_examples, min_sentence_len
from conssent.rng import EXAMPLES, PROBE, stream
from conssent.toydata import make_toy_corpus

# Long synthetic corpus: consecutive toy tokens cut into sentences whose
# lengths follow a triangular law on [10, 40] (mean ~27), each token given a
# Pareto-distributed variant suffix so the vocabulary grows to ~18k words
# with a Zipf-like tail. The bare token stays the most frequent variant.
LONG_LENGTHS = (10, 40, 31)  # min, max, mode
SUFFIX_ALPHA = 0.27
TOY_PER_LONG = 6  # toy sentences generated per long sentence (~5 are used)
PROBE_BIGRAM_MIN_LEN = 3  # gen_probe_bigramshift rejects shorter sentences
PAD_BATCH = 64
FROZEN_EMBED, FROZEN_HIDDEN = 300, 128  # the untrained encoder long-probe probes


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "toy" or "long"
    n_sentences: int
    valid_fraction: float
    task: str | None  # trained task, None for the frozen-probe workload
    k: int
    epochs: int  # epochs per training run (epoch 0 also builds init/validation)
    classifiers: tuple  # probe classifiers fit on every probe (none: encode only)
    setup_repeats: int
    min_repeats: int  # training runs or probe passes, at least

    def train_config(self, seed: int) -> tr.TrainConfig:
        return tr.TrainConfig(
            task=self.task, k=self.k, hidden_size=32, embed_dim=32, batch_size=64,
            head_dim=512, init_gain=6.0, valid_draws=10, max_epochs=self.epochs, seed=seed,
        )

    @property
    def need(self) -> int:
        """Shortest sentence the workload's task can use."""
        if self.task is None:
            return PROBE_BIGRAM_MIN_LEN
        return min_sentence_len(self.task, self.k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-R1", "toy", 2400, 0.05, "R", 1, epochs=10, classifiers=(),
                 setup_repeats=7, min_repeats=2),
        Workload("long-C2", "long", 2000, 0.05, "C", 2, epochs=4, classifiers=(),
                 setup_repeats=5, min_repeats=2),
        Workload("long-probe", "long", 2000, 0.1, None, 0, epochs=0,
                 classifiers=("logreg", "mlp"), setup_repeats=3, min_repeats=3),
    )
}


@contextmanager
def no_span(_name: str):
    yield


class Tally:
    """Attempted and failed operations, failures keyed by exception class."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def fail(self, exc_name: str, n: int = 1) -> None:
        self.failed += n
        self.errors[exc_name] += n


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def long_corpus(toy: list, n: int, seed: int) -> list:
    """n ragged sentences cut from the toy token stream, variant-suffixed."""
    rnd = random.Random(seed)
    tokens = [tok for s in toy for tok in s]
    lo, hi, mode = LONG_LENGTHS
    out, pos = [], 0
    for _ in range(n):
        length = min(hi, int(rnd.triangular(lo, hi + 1, mode)))
        chunk = tokens[pos : pos + length]
        if len(chunk) < length:
            raise ValueError("toy token stream too short for the long corpus")
        pos += length
        out.append([
            tok if (j := int(rnd.paretovariate(SUFFIX_ALPHA))) == 1 else f"{tok}~{j}"
            for tok in chunk
        ])
    return out


def input_properties(sentences: list, vocab_size: int, need: int) -> dict:
    """Shape of a workload's input, so later changes can say what share of
    the workload has a property (padding, short sentences ...)."""
    lengths = [len(s) for s in sentences]
    padded = sum(
        len(chunk) * max(chunk)
        for chunk in (lengths[i : i + PAD_BATCH] for i in range(0, len(lengths), PAD_BATCH))
    )
    return {
        "sentences": len(lengths),
        "mean_len": statistics.fmean(lengths),
        "p90_len": statistics.quantiles(lengths, n=10)[-1],
        "max_len": max(lengths),
        "vocab_size": vocab_size,
        f"pad_frac_b{PAD_BATCH}": 1.0 - sum(lengths) / padded,
        "too_short_frac": sum(n < need for n in lengths) / len(lengths),
        "too_short_below": need,
    }


def probe_tasks(sentences: list, seed: int, tally: Tally) -> dict:
    """The three probes at the CLI defaults; a probe that cannot be built
    is a counted failure and is left out."""
    makers = {
        "SentLen": lambda: pr.gen_probe_sentlen(
            sentences, pr.default_length_bins(sentences), seed=seed),
        "WordContent": lambda: pr.gen_probe_wordcontent(
            sentences, pr.default_wordcontent_targets(sentences), seed=seed),
        "BigramShift": lambda: pr.gen_probe_bigramshift(
            sentences, stream(seed, PROBE, epoch=2, item=0), seed=seed),
    }
    tasks = {}
    for name, make in makers.items():
        tally.attempted += 1
        try:
            tasks[name] = make()
        except DataError as exc:
            tally.fail(type(exc).__name__)
    return tasks


@dataclass
class Prepared:
    sentences: list
    data: object  # SplitCorpus
    params: object  # EncoderParams: fresh init, or the loaded checkpoint
    tasks: dict
    ckpt_ok: bool = True


def checkpoint_roundtrip(params, path: Path, span=no_span) -> tuple:
    """Save, load and compare with the float32 cast of the saved arrays."""
    with span("encoder.ckpt_save"):
        save_checkpoint(path, params)
    with span("encoder.ckpt_load"):
        loaded, _meta = load_checkpoint(path)
    path.unlink()
    saved, back = params.named_arrays(), loaded.named_arrays()
    ok = saved.keys() == back.keys() and all(
        np.array_equal(back[k], np.asarray(saved[k], dtype=np.float32).astype(np.float64))
        for k in saved
    )
    return loaded, ok


def setup(w: Workload, seed: int, scratch: Path, tally: Tally, span=no_span) -> Prepared:
    """Everything a run needs before its first epoch or probe pass."""
    with span("toydata.corpus"):
        toy = make_toy_corpus(
            w.n_sentences * (TOY_PER_LONG if w.corpus == "long" else 1), seed)
    if w.corpus == "long":
        with span("inputs.long_corpus"):
            sentences = long_corpus(toy, w.n_sentences, seed)
    else:
        sentences = toy
    with span("corpus.prepare"):
        data = prepare_corpus(sentences, valid_fraction=w.valid_fraction, seed=seed)
    ckpt_ok = True
    if w.task is not None:
        config = w.train_config(seed)
        heads = (w.task,) if w.task in SINGLE_TASKS else ()
        with span("encoder.init"):
            params = init_params(
                data.vocab.size, config.embed_dim, config.hidden_size, head_tasks=heads,
                head_dim=config.head_dim, seed=seed, init_gain=config.init_gain)
        with span("train.valid_build"):
            tr._build_validation(data, w.task, config)
    else:
        with span("encoder.init"):
            fresh = init_params(data.vocab.size, FROZEN_EMBED, FROZEN_HIDDEN, seed=seed)
        params, ckpt_ok = checkpoint_roundtrip(fresh, scratch / "frozen.ckpt", span)
    with span("probes.tasks"):
        tasks = probe_tasks(sentences, seed, tally)
    return Prepared(sentences, data, params, tasks, ckpt_ok)


def init_draws(params) -> int:
    """PCG32 draws init_params made: every weight except the zero biases."""
    return sum(
        a.size for name, a in params.named_arrays().items()
        if name.rsplit(".", 1)[-1] not in ("b", "b1", "b2")
    )


# ---------------------------------------------------------------------------
# Work per epoch, and the probe pass
# ---------------------------------------------------------------------------


def epoch_accounting(data, config: tr.TrainConfig) -> tuple[list, GenStats]:
    """SGD steps per epoch and the perturbation yield, from the trainer's
    own batching function; skip reasons are GenStats counts."""
    task, steps, stats = config.task, [], GenStats()
    need = min_sentence_len(task, config.k)
    for epoch in range(config.max_epochs):
        batches = tr._epoch_batches(data.train, task, config, epoch, data.vocab)
        steps.append(len(batches))
        if task in SINGLE_TASKS:
            _, s = gen_single_examples(
                data.train, task, config.k, config.gate_p, data.vocab, config.seed,
                epoch=tr._chan(epoch, task), purpose=EXAMPLES)
            stats.written += s.written
            stats.skipped.update(s.skipped)
        else:
            eligible = sum(len(s) >= need for s in data.train)
            written = sum(len(b) for b in batches)
            stats.written += written
            stats.skipped["too_short"] += len(data.train) - eligible
            stats.skipped["batch_too_small"] += eligible - written
    return steps, stats


def gen_yield(stats: GenStats) -> float:
    offered = stats.written + stats.total_skipped
    return stats.written / offered if offered else 0.0


def probe_pass(prep: Prepared, w: Workload, seed: int, tally: Tally, span=no_span) -> dict:
    """Encode every probe once and fit the workload's classifier grids on it.

    ``outputs`` holds what must repeat exactly: a digest of each probe's
    encodings and each probe x classifier cell's accuracies.
    """
    config = pr.ProbeConfig(seed=seed)
    encode_s = fit_s = 0.0
    sentences = grid_fits = 0
    outputs, cells = {}, {}
    t_pass = perf_counter()
    for name, task in prep.tasks.items():
        tally.attempted += 1
        t0 = perf_counter()
        try:
            with span("probes.encode"):
                enc = pr.encode_probe(task, prep.params, prep.data.vocab)
        except (DataError, NumericError) as exc:
            tally.fail(type(exc).__name__)
            continue
        encode_s += perf_counter() - t0
        sentences += len(task.examples)
        outputs[name] = hashlib.sha256(
            b"".join(enc.x[split].tobytes() for split in ("train", "valid", "test"))).hexdigest()
        for clf in w.classifiers:
            tally.attempted += 1
            t0 = perf_counter()
            try:
                with span(f"probes.{clf}"):
                    res = (pr.eval_logreg(enc, config.l2_grid) if clf == "logreg"
                           else pr.eval_mlp_probe(enc, config))
            except (DataError, NumericError) as exc:
                tally.fail(type(exc).__name__)
                continue
            fit_s += perf_counter() - t0
            grid_fits += len(res.table)
            cells[f"{name}/{clf}"] = {"test": res.test_accuracy, "valid": res.valid_accuracy}
    outputs["cells"] = cells
    return {
        "pass_s": perf_counter() - t_pass,
        "encode_s": encode_s,
        "sentences": sentences,
        "fit_s": fit_s,
        "grid_fits": grid_fits,
        "outputs": outputs,
    }


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------


def summary(values: list) -> dict:
    """Median, quartiles and count of a sample."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def history_key(state) -> list:
    return [[h["epoch"], h["train_loss"], h["valid_acc"], h["lr"]] for h in state.history]


def repeat(fn, min_count: int, budget: float) -> list:
    """Call ``fn`` at least ``min_count`` times, and again while the next
    call, as long as the last one, still ends within ``budget`` seconds.
    A call returning None ends the loop."""
    out, start, last = [], perf_counter(), 0.0
    while len(out) < min_count or perf_counter() - start + last <= budget:
        t0 = perf_counter()
        result = fn()
        last = perf_counter() - t0
        if result is None:
            break
        out.append(result)
    return out


def _passes_result(results: list) -> dict:
    outputs = results[0]["outputs"]
    return {
        "passes": results,
        "outputs": outputs,
        "deterministic": len(results) >= 2 and all(r["outputs"] == outputs for r in results),
    }


def run_training(w: Workload, prep: Prepared, seed: int, budget: float, tally: Tally) -> dict:
    """Repeat train_single_task within ``budget`` seconds (at least
    ``min_repeats`` times); every repeat must give the same history.

    After every epoch, inside the trainer's progress callback, one probe
    pass encodes the probe tasks with the freshly initialised encoder of
    the same size. The encode samples thus spread over the whole run
    instead of one window at its end, and the callback's own time is
    taken out of the epoch times.
    """
    config = w.train_config(seed)
    steps, stats = epoch_accounting(prep.data, config)
    passes = []

    def one_run():
        marks = []  # (epoch end, next epoch start)

        def after_epoch(_msg):
            end = perf_counter()
            passes.append(probe_pass(prep, w, seed, tally))
            marks.append((end, perf_counter()))

        tally.attempted += sum(steps)
        try:
            state = tr.train_single_task(config, prep.data, progress=after_epoch)
        except (DataError, NumericError) as exc:
            # deterministic: repeating the run would fail the same way
            tally.fail(type(exc).__name__, sum(steps))
            return None
        if state.skipped_steps:
            tally.fail("NonFiniteGradient", state.skipped_steps)
        return state, [end - start for (_, start), (end, _) in zip(marks, marks[1:])]

    runs = repeat(one_run, w.min_repeats, budget)
    keys = [[history_key(state), state.best_valid] for state, _ in runs]
    return {
        "state": runs[-1][0] if runs else None,
        "epoch_times": [t for _, times in runs for t in times],
        "probed": _passes_result(passes) if passes else None,
        "runs": len(runs),
        "deterministic": len(keys) >= 2 and all(k == keys[0] for k in keys),
        "steps_per_epoch": steps,
        "gen_stats": {"written": stats.written, "skipped": dict(stats.skipped)},
        "yield": gen_yield(stats),
    }


def run_untraced(w: Workload, seed: int, seconds: float, scratch: Path, tally: Tally):
    """Returns (checks, metrics, report) for one untraced run."""
    setup_times, prep = [], None
    for _ in range(w.setup_repeats):
        t0 = perf_counter()
        prep = setup(w, seed, scratch, tally if prep is None else Tally())
        setup_times.append(perf_counter() - t0)
    report = {
        "inputs": input_properties(prep.sentences, prep.data.vocab.size, w.need),
        "setup_s": summary(setup_times),
    }
    checks = {"checkpoint_roundtrip": prep.ckpt_ok}
    quality = {}

    if w.task is not None:
        trained = run_training(w, prep, seed, seconds, tally)
        state = trained.pop("state")
        epoch_values = trained.pop("epoch_times")
        probed = trained.pop("probed")
        checks["repeat_runs_identical"] = trained["deterministic"]
        report["training"] = {**trained, "epoch_s": summary(epoch_values)}
        if state is None:
            return checks, None, report
        report["training"]["history"] = history_key(state)
        quality["best_valid_acc"] = state.best_valid
        _, checks["checkpoint_roundtrip"] = checkpoint_roundtrip(
            state.params, scratch / "trained.ckpt")
    else:
        probed = _passes_result(
            repeat(lambda: probe_pass(prep, w, seed, tally), w.min_repeats, seconds))
        epoch_values = [p["pass_s"] for p in probed["passes"]]
    checks["repeat_probes_identical"] = probed["deterministic"]

    passes = probed["passes"]
    cells = probed["outputs"]["cells"]
    if cells:
        quality["probe_valid_acc"] = statistics.fmean(c["valid"] for c in cells.values())
        quality["probe_test_acc"] = statistics.fmean(c["test"] for c in cells.values())
    rates = [p["sentences"] / p["encode_s"] for p in passes if p["encode_s"] > 0]
    report["probes"] = {
        "grid_fits_per_pass": passes[0]["grid_fits"],
        "pass_s": summary([p["pass_s"] for p in passes]),
        "encode_sents_per_s": summary(rates),
        "fit_s": summary([p["fit_s"] for p in passes]),
    }
    report["outputs"] = {**quality, **probed["outputs"]}
    report["outputs_digest"] = digest([report.get("training", {}).get("history"), report["outputs"]])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "epoch_s": statistics.median(epoch_values),
        "encode_sents_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return checks, metrics, report
