"""Probing harness: synthesized linguistic tasks over frozen encoders.

Three probes whose ground truth is derivable from the raw sentence alone:

* SentLen - sentence length quantized into bins;
* WordContent - which one of an ordered set of target words the sentence
  contains (sentences with zero or several targets are dropped);
* BigramShift - whether one adjacent token pair was swapped.

Each probe yields a fixed, disjoint 70/15/15 train/valid/test split.
Encoders are evaluated frozen: ``probe_encoder`` encodes the probes'
sentences in one ``encode_sentences`` call, which encodes each distinct
sentence once, into float64 rows of the float32 model a checkpoint stores
(``as_stored``), as validation and ``head_probs`` read it. Then either a
multinomial logistic regression (float64 under scipy's L-BFGS) or a
one-hidden-layer sigmoid MLP (trained and scored in float32)
is fit on each probe's rows at ``ProbeConfig``'s fixed, SentEval-style
grids, selected on validation; only the seed varies. A grid's cells are fit across the usable CPUs
(``parallel.ordered_map``) with the bytes an in-process fit gives.
Classifier internals draw their minibatch order, init, and dropout masks
from numpy generators seeded off this package's deterministic streams, so
results are reproducible per seed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from .autodiff import softmax_rows, stable_sigmoid
from .corpus import Vocabulary
from .encoder import EncoderParams, as_stored, encode_sentences
from .errors import DataError, UsageError
from .parallel import ordered_map
from .rng import PROBE, stream

PROBE_NAMES = ("SentLen", "WordContent", "BigramShift")
_PROBE_ITEM = {name: i for i, name in enumerate(PROBE_NAMES)}

WORDCONTENT_TARGETS = 6
WORDCONTENT_SKIP = 8
WORDCONTENT_MIN_COUNT = 10


# ---------------------------------------------------------------------------
# Task construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeTask:
    """Labeled sentences plus a fixed train/valid/test index split."""

    name: str
    examples: tuple  # of (tokens tuple, class int)
    num_classes: int
    train_idx: tuple
    valid_idx: tuple
    test_idx: tuple

    def __post_init__(self):
        seen = [cls for _, cls in self.examples]
        missing = [c for c in range(self.num_classes) if c not in seen]
        if self.num_classes < 2 or missing:
            raise DataError(
                f"{self.name}: classes {missing or 'n/a'} have no examples "
                f"(num_classes={self.num_classes})"
            )
        splits = (set(self.train_idx), set(self.valid_idx), set(self.test_idx))
        if (
            splits[0] & splits[1]
            or splits[0] & splits[2]
            or splits[1] & splits[2]
            or not all(splits)
        ):
            raise DataError(f"{self.name}: splits must be disjoint and non-empty")


def _split_indices(n: int, name: str, seed: int) -> tuple[tuple, tuple, tuple]:
    order = list(range(n))
    stream(seed, PROBE, epoch=0, item=_PROBE_ITEM[name]).shuffle(order)
    n_train = int(n * 0.70)
    n_valid = int(n * 0.15)
    # membership is random; storing each split sorted keeps within-split
    # iteration order canonical
    return (
        tuple(sorted(order[:n_train])),
        tuple(sorted(order[n_train : n_train + n_valid])),
        tuple(sorted(order[n_train + n_valid :])),
    )


def _make_task(name, examples, num_classes, seed) -> ProbeTask:
    train, valid, test = _split_indices(len(examples), name, seed)
    return ProbeTask(name, tuple(examples), num_classes, train, valid, test)


def length_class(n: int, edges: tuple) -> int:
    """Index of the first bin whose inclusive upper edge covers ``n``."""
    if n > edges[-1]:
        raise DataError(f"length {n} exceeds the last bin edge {edges[-1]}")
    return bisect_left(edges, n)


def gen_probe_sentlen(corpus: list, bin_edges, seed: int = 0) -> ProbeTask:
    """Quantize token counts into bins given by their (increasing) upper edges."""
    edges = tuple(bin_edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])) or edges[0] < 1:
        raise UsageError(f"bin edges must be >= 1 and strictly increasing, got {edges}")
    examples = [(tuple(s), length_class(len(s), edges)) for s in corpus]
    return _make_task("SentLen", examples, len(edges), seed)


def default_length_bins(corpus: list) -> tuple:
    """One bin per distinct length: every class non-empty by construction.
    A corpus of fewer than 2 lengths has no SentLen task (DataError)."""
    edges = tuple(sorted({len(s) for s in corpus}))
    if len(edges) < 2:
        raise DataError(f"SentLen needs sentences of at least 2 lengths; the corpus "
                        f"has only lengths {list(edges)}")
    return edges


def gen_probe_wordcontent(corpus, targets, seed: int = 0) -> ProbeTask:
    """Keep sentences with exactly one occurrence of exactly one target;
    the class is the target's position in the given (ordered) targets.
    Each class needs ``WORDCONTENT_MIN_COUNT`` examples."""
    targets = list(targets)
    if len(targets) < 2:
        raise UsageError("need at least 2 target words")
    if len(set(targets)) != len(targets):
        raise UsageError("duplicate target words")
    index = {t: i for i, t in enumerate(targets)}
    examples = []
    for s in corpus:
        hits = [index[tok] for tok in s if tok in index]
        if len(hits) == 1:
            examples.append((tuple(s), hits[0]))
    counts = [sum(1 for _, c in examples if c == i) for i in range(len(targets))]
    lacking = {targets[i]: c for i, c in enumerate(counts) if c < WORDCONTENT_MIN_COUNT}
    if lacking:
        raise DataError(
            f"classes below the minimum of {WORDCONTENT_MIN_COUNT} examples: {lacking}"
        )
    return _make_task("WordContent", examples, len(targets), seed)


def default_wordcontent_targets(corpus) -> tuple:
    """Mid-frequency tokens: skip the ``WORDCONTENT_SKIP`` most frequent
    (closed-class words), then take the next ``WORDCONTENT_TARGETS`` by
    (frequency, token) rank. A corpus with too few token types has no
    WordContent task (DataError)."""
    end = WORDCONTENT_SKIP + WORDCONTENT_TARGETS
    freq: dict = {}
    for s in corpus:
        for tok in s:
            freq[tok] = freq.get(tok, 0) + 1
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    if len(ranked) < end:
        raise DataError(f"corpus has only {len(ranked)} token types, WordContent needs {end}")
    return tuple(ranked[WORDCONTENT_SKIP:end])


def gen_probe_bigramshift(corpus, rng, seed: int = 0) -> ProbeTask:
    """With probability 1/2 swap one uniformly chosen adjacent pair.

    Class 1 marks swapped provenance (a swap of equal tokens still counts).
    ``rng`` drives the gates and positions; ``seed`` fixes the split. Sentences
    under 3 tokens cannot host an informative swap and are dropped before any draw.
    """
    examples = []
    for s in corpus:
        n = len(s)
        if n < 3:
            continue
        if rng.random() < 0.5:
            pos = rng.randint(n - 1)
            swapped = list(s)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            examples.append((tuple(swapped), 1))
        else:
            examples.append((tuple(s), 0))
    return _make_task("BigramShift", examples, 2, seed)


def build_probe_tasks(names, sentences: list, seed: int) -> dict:
    """Name -> ProbeTask for each named probe over ``sentences``: SentLen and
    WordContent at their default bins and targets, BigramShift swapping from
    the (seed, PROBE, epoch 2, item 0) stream."""
    if not names:
        raise UsageError(f"no probes given; choose from {', '.join(PROBE_NAMES)}")
    makers = {
        "SentLen": lambda: gen_probe_sentlen(sentences, default_length_bins(sentences), seed=seed),
        "WordContent": lambda: gen_probe_wordcontent(
            sentences, default_wordcontent_targets(sentences), seed=seed),
        "BigramShift": lambda: gen_probe_bigramshift(
            sentences, stream(seed, PROBE, epoch=2, item=0), seed=seed),
    }
    tasks = {}
    for name in names:
        if name not in makers:
            raise UsageError(f"unknown probe {name!r}; choose from {', '.join(PROBE_NAMES)}")
        tasks[name] = makers[name]()
    return tasks


# ---------------------------------------------------------------------------
# Frozen encodings
# ---------------------------------------------------------------------------


@dataclass
class ProbeEncodings:
    name: str
    num_classes: int
    x: dict  # split -> (N, D) float64
    y: dict  # split -> (N,) int64


def _split(task: ProbeTask, encodings: np.ndarray) -> ProbeEncodings:
    """Each split's rows of ``encodings`` (row i encodes example i) and labels."""
    labels = np.array([c for _, c in task.examples], dtype=np.int64)
    x, y = {}, {}
    for split, idx in (("train", task.train_idx), ("valid", task.valid_idx), ("test", task.test_idx)):
        x[split], y[split] = encodings[list(idx)], labels[list(idx)]
    return ProbeEncodings(task.name, task.num_classes, x, y)


def encode_probe(task: ProbeTask, params: EncoderParams, vocab: Vocabulary) -> ProbeEncodings:
    """Encode the task's sentences (each distinct one once) with the frozen
    BiLSTM-max ``params`` as stored (``as_stored``), token strings mapped to
    ids through ``vocab``, then take each split's rows in its index order."""
    seqs = [vocab.encode(list(s)) for s, _ in task.examples]
    return _split(task, encode_sentences(seqs, as_stored(params)))


@dataclass(frozen=True)
class ProbeConfig:
    """The fixed probe protocol. Each grid ascends, so a validation tie goes
    to the smaller L2, or the smaller hidden then dropout; only seed varies."""

    l2_grid: ClassVar[tuple] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    mlp_hidden: ClassVar[tuple] = (50, 100, 200)
    dropout: ClassVar[tuple] = (0.0, 0.1, 0.2)
    epochs: ClassVar[int] = 40
    lr: ClassVar[float] = 0.2
    batch_size: ClassVar[int] = 32
    seed: int = 0


# ---------------------------------------------------------------------------
# Logistic-regression probe
# ---------------------------------------------------------------------------


def _logreg_value_and_grad(wb, x, y, l2, n_classes):
    n, d = x.shape
    w = wb[: d * n_classes].reshape(d, n_classes)
    b = wb[d * n_classes :]
    probs = softmax_rows(x @ w + b)
    nll = -np.log(probs[np.arange(n), y] + 1e-300).mean()
    value = nll + 0.5 * l2 * float(np.sum(w * w))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w = x.T @ delta + l2 * w
    grad_b = delta.sum(axis=0)
    return value, np.concatenate([grad_w.ravel(), grad_b])


def fit_logreg(x, y, num_classes: int, l2: float):
    """Minimize mean cross-entropy + (l2/2)||W||^2 (bias unregularized).

    Starts from zero; convex, so the optimum does not depend on the start.
    Returns (W, b, final_loss).
    """
    from scipy.optimize import minimize  # imported here: it costs ~0.6 s to load

    d = x.shape[1]
    res = minimize(
        _logreg_value_and_grad,
        np.zeros(d * num_classes + num_classes),
        args=(x, y, l2, num_classes),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-9},
    )
    w = res.x[: d * num_classes].reshape(d, num_classes)
    b = res.x[d * num_classes :]
    return w, b, float(res.fun)


def _logreg_logits(model, x):
    w, b = model
    return x @ w + b


@dataclass
class ProbeResult:
    name: str
    classifier: str
    test_accuracy: float
    valid_accuracy: float
    selected: dict
    table: list = field(default_factory=list)  # (config dict, valid accuracy)


def _grid_search(enc: ProbeEncodings, classifier: str, cells: list, fit, logits,
                 cost=None) -> ProbeResult:
    """Fit ``fit((i, cell))`` for every cell i through ``ordered_map``,
    submitting larger ``cost(cell)`` first; then, in grid order, select the
    first validation maximum and read test accuracy for that cell only."""

    def accuracy(model, split):
        return float(np.mean(np.argmax(logits(model, enc.x[split]), axis=1) == enc.y[split]))

    order = sorted(range(len(cells)), key=lambda i: -cost(cells[i])) if cost else range(len(cells))
    models = dict(zip(order, ordered_map(fit, [(i, cells[i]) for i in order])))
    best, table = None, []
    for i, cell in enumerate(cells):
        acc = accuracy(models[i], "valid")
        table.append((cell, acc))
        if best is None or acc > best[0]:
            best = (acc, cell, models[i])
    valid_acc, cell, model = best
    return ProbeResult(enc.name, classifier, accuracy(model, "test"), valid_acc, cell, table)


def _fit_logreg_cell(x, y, num_classes, item):
    w, b, _ = fit_logreg(x, y, num_classes, item[1]["l2"])
    return w, b


def eval_logreg(enc: ProbeEncodings, l2_grid=ProbeConfig.l2_grid) -> ProbeResult:
    """Fit one regression per L2 value; select on validation (ties -> the
    smaller L2, i.e. the first maximum in ascending grid order)."""
    try:
        usable = len(l2_grid) > 0 and all(math.isfinite(l2) and l2 > 0 for l2 in l2_grid)
    except TypeError:
        usable = False
    if not usable:
        raise UsageError(f"l2_grid must hold finite penalties > 0, got {l2_grid!r}")
    fit = partial(_fit_logreg_cell, enc.x["train"], enc.y["train"], enc.num_classes)
    return _grid_search(enc, "logreg", [{"l2": l2} for l2 in sorted(l2_grid)], fit, _logreg_logits)


# ---------------------------------------------------------------------------
# MLP probe: linear -> sigmoid -> dropout -> classification layer
# ---------------------------------------------------------------------------


def _np_rng(seed: int, item: int) -> np.random.Generator:
    # classifier-internal stochasticity only; data decisions stay on the
    # package's own streams
    s = stream(seed, PROBE, epoch=1, item=item)
    return np.random.default_rng((s.next_u32(), s.next_u32()))


def fit_mlp(x, y, num_classes, hidden, dropout, rng, epochs, lr, batch_size):
    """Minibatch SGD on CE; dropout sits between sigmoid and classifier.

    Trains in float32 but draws from ``rng`` as a float64 fit does (the
    init is drawn in float64, then rounded); each step subtracts its
    lr-scaled gradients from the weights in place.
    """
    x = np.asarray(x, dtype=np.float32)
    n, d = x.shape
    w1 = rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=(d, hidden)).astype(np.float32)
    b1 = np.zeros(hidden, np.float32)
    w2 = rng.uniform(-1 / np.sqrt(hidden), 1 / np.sqrt(hidden),
                     size=(hidden, num_classes)).astype(np.float32)
    b2 = np.zeros(num_classes, np.float32)
    g_w1, g_w2 = np.empty_like(w1), np.empty_like(w2)
    keep = np.float32(1.0 / (1.0 - dropout))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb = x[idx]
            h = stable_sigmoid(xb @ w1 + b1)
            hd = h
            if dropout > 0.0:
                mask = (rng.random(h.shape) >= dropout) * keep
                hd = h * mask
            delta = softmax_rows(hd @ w2 + b2)
            delta[np.arange(len(idx)), y[idx]] -= 1.0
            delta *= lr / len(idx)
            g_h = delta @ w2.T
            if dropout > 0.0:
                g_h *= mask
            g_h *= h * (1.0 - h)
            w2 -= np.matmul(hd.T, delta, out=g_w2)
            b2 -= delta.sum(axis=0)
            w1 -= np.matmul(xb.T, g_h, out=g_w1)
            b1 -= g_h.sum(axis=0)
    return w1, b1, w2, b2


def _mlp_logits(model, x):
    w1, b1, w2, b2 = model
    # float32 like the fit; dropout off at eval time
    return stable_sigmoid(np.asarray(x, dtype=np.float32) @ w1 + b1) @ w2 + b2


def _fit_mlp_cell(x, y, num_classes, config, item):
    i, cell = item
    return fit_mlp(x, y, num_classes, cell["hidden"], cell["dropout"],
                   _np_rng(config.seed, item=16 + i), config.epochs, config.lr, config.batch_size)


def eval_mlp_probe(enc: ProbeEncodings, config: ProbeConfig) -> ProbeResult:
    """3x3 grid over (hidden, dropout); select on validation accuracy with
    ties resolved toward smaller hidden, then smaller dropout. The widest
    cells are submitted first, since they take longest to fit."""
    cells = [{"hidden": h, "dropout": p} for h in config.mlp_hidden for p in config.dropout]
    fit = partial(_fit_mlp_cell, enc.x["train"], enc.y["train"], enc.num_classes, config)
    return _grid_search(enc, "mlp", cells, fit, _mlp_logits, cost=lambda cell: cell["hidden"])


def probe_encoder(tasks: dict, params: EncoderParams, vocab: Vocabulary,
                  classifiers, config: ProbeConfig) -> dict:
    """Read out a frozen encoder: encode every task's sentences in one
    ``encode_sentences`` call, which encodes each distinct sentence across
    the tasks once, give each task the rows of its own examples (the same
    bytes ``encode_probe`` gives it), then fit each ``logreg`` or ``mlp``
    classifier with ``config``'s grids on them.

    Returns {"<probe>/<classifier>": ProbeResult}.
    """
    fits = {"logreg": lambda enc: eval_logreg(enc, config.l2_grid),
            "mlp": lambda enc: eval_mlp_probe(enc, config)}
    unknown = [clf for clf in classifiers if clf not in fits]
    if unknown:
        raise UsageError(f"unknown classifiers {unknown}; choose from logreg, mlp")
    if not tasks:
        return {}
    seqs = [vocab.encode(list(s)) for task in tasks.values() for s, _ in task.examples]
    encodings = encode_sentences(seqs, as_stored(params))
    results, start = {}, 0
    for name, task in tasks.items():
        enc = _split(task, encodings[start : start + len(task.examples)])
        start += len(task.examples)
        for clf in classifiers:
            results[f"{name}/{clf}"] = fits[clf](enc)
    return results


# ---------------------------------------------------------------------------
# Serialization: result tables
# ---------------------------------------------------------------------------


def results_to_table(results: dict) -> dict:
    """{task: {"<classifier>": accuracy, ...}} from ProbeResult values."""
    table: dict = {}
    for key, res in results.items():
        table.setdefault(res.name, {})[res.classifier] = res.test_accuracy
    return table


def write_results_json(path: str | Path, results: dict) -> None:
    rows = {
        key: {
            "task": r.name,
            "classifier": r.classifier,
            "test_accuracy": r.test_accuracy,
            "valid_accuracy": r.valid_accuracy,
            "selected": r.selected,
            "grid": [[cfg, acc] for cfg, acc in r.table],
        }
        for key, r in results.items()
    }
    Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_results_tsv(path: str | Path, results: dict) -> None:
    lines = ["task\tclassifier\tconfig\tvalid_accuracy\ttest_accuracy"]
    for _, r in sorted(results.items()):
        for cfg, acc in r.table:
            label = ",".join(f"{k}={v}" for k, v in sorted(cfg.items()))
            lines.append(f"{r.name}\t{r.classifier}\t{label}\t{acc:.6f}\t")
        sel = ",".join(f"{k}={v}" for k, v in sorted(r.selected.items()))
        lines.append(
            f"{r.name}\t{r.classifier}\t[selected {sel}]\t{r.valid_accuracy:.6f}\t{r.test_accuracy:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
