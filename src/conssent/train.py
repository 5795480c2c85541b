"""Task scores, the loss, clipped SGD, and the single-task / multitask trainers.

``task_scores`` is the one place head tasks and ranking tasks differ. The
training loss is the softmax cross-entropy over its scores; validation
accuracy counts the rows whose target column scores strictly highest, so
a tie at the top is a miss for every task.

One engine (`_run_training`) drives every configuration: a single binary
task is a one-task rotation with one classification head, a single ranking
task is a one-task rotation with no head, and the multitask groups are the
same loop over several tasks sharing one encoder. Each epoch re-samples
perturbations (epoch index mixed into the RNG stream), shuffles batches,
measures validation accuracy on a fixed held-out set, snapshots the best
parameters, and updates the learning rate: multiply by `epoch_decay` when
accuracy did not drop below the best seen so far, by `drop_decay` when it
did.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .corpus import SplitCorpus
from .encoder import (
    EncoderParams,
    bind_params,
    copy_params,
    encode_batch,
    head_logits,
    init_params,
    params_view,
)
from .errors import DataError, NumericError
from .perturb import (
    PAIR_TASKS,
    SINGLE_TASKS,
    LabeledExample,
    PairBatch,
    gen_pair_batches,
    gen_single_examples,
    min_sentence_len,
)
from .rng import EXAMPLES, GRADCHECK, ORDER, VALID, stream

TASKS = SINGLE_TASKS + PAIR_TASKS + ("MT",)

# Head-task validation examples per frozen encode (as ``head_probs`` reads).
_VALID_CHUNK = 256

# The paper's k sweep range per task; TrainConfig rejects any k outside it.
K_RANGES = {
    "D": range(1, 6),
    "I": range(1, 6),
    "R": range(1, 6),
    "P": range(2, 7),
    "C": range(2, 7),
    "N": range(2, 7),
    "MT": range(2, 7),
}

# Multitask groups: group 1 trains one encoder with a head per task, group 2
# trains a second encoder through ranking losses alone. Tuple order is the
# round-robin rotation order.
GROUP1 = SINGLE_TASKS
GROUP2 = ("N", "C")

# Every task keeps its own data streams even when several share an encoder;
# the member index (its place in GROUP1 + GROUP2) is folded into the stream's
# epoch field (epochs stay far below 256, so the channels never collide).
_MEMBER_INDEX = {task: i for i, task in enumerate(GROUP1 + GROUP2)}


def _chan(epoch: int, task: str) -> int:
    return epoch + 256 * _MEMBER_INDEX[task]


class NonFiniteGradient(NumericError):
    """A NaN or infinity reached the optimizer; the step was abandoned.

    Training counts abandoned steps and goes on, unless an epoch abandons
    every step of a task; that raises a plain ``NumericError``.
    """


@dataclass(frozen=True)
class TrainConfig:
    task: str                 # D | P | I | R | C | N | MT
    k: int = 2                # perturbation size / candidate count
    hidden_size: int = 32     # LSTM units per direction
    embed_dim: int = 64       # word embedding width
    head_dim: int = 64        # classifier-head hidden width
    batch_size: int = 64
    lr0: float = 0.1
    max_epochs: int = 20
    gate_p: float = 0.5       # probability an example is perturbed
    init_gain: float = 4.0    # initialization scale for non-embedding weights
    valid_draws: int = 10     # perturbation draws averaged per validation
    seed: int = 0

    # The paper's optimizer: the rate shrinks x0.99 per epoch and x0.2 after
    # a validation drop; gradients are clipped to global norm 5.
    epoch_decay: ClassVar[float] = 0.99
    drop_decay: ClassVar[float] = 0.2
    clip_norm: ClassVar[float] = 5.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        r = K_RANGES[self.task]
        if self.k not in r:
            raise ValueError(f"task {self.task} needs k in {r.start}..{r.stop - 1}, got {self.k}")
        if self.task not in SINGLE_TASKS and self.batch_size < self.k:
            raise ValueError(
                f"batch_size {self.batch_size} < k {self.k}: the minibatch is the "
                "candidate pool for ranking tasks"
            )
        for name in ("hidden_size", "embed_dim", "head_dim", "batch_size", "max_epochs", "valid_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr0 <= 0 or self.init_gain <= 0:
            raise ValueError("lr0 and init_gain must be positive")
        if not 0 <= self.gate_p <= 1:
            raise ValueError(f"gate_p must be in [0, 1], got {self.gate_p}")


@dataclass
class TrainState:
    """Best-validation snapshot plus the full per-epoch metrics history."""

    params: EncoderParams
    best_valid: float
    best_epoch: int
    history: list[dict]
    config: TrainConfig
    member_accs: dict = field(default_factory=dict)  # task -> acc at the best epoch
    skipped_steps: int = 0


@dataclass
class MultitaskState:
    group1: TrainState
    group2: TrainState

    @property
    def output_dim(self) -> int:
        return self.group1.params.output_dim + self.group2.params.output_dim

    @property
    def history(self) -> list[dict]:
        return self.group1.history + self.group2.history

    @property
    def member_accs(self) -> dict:
        return {**self.group1.member_accs, **self.group2.member_accs}


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def task_scores(params, task: str, batch, tape: ad.Tape) -> tuple[ad.Var, np.ndarray]:
    """The (rows, columns) scores ``task`` gives one batch, and each row's
    target column; the one place head tasks and ranking tasks differ.

    D P I R: the task head's logits over a list of ``LabeledExample``s,
    with the labels as targets. C N: each anchor's dot products with its k
    candidates, gathered from one (B, B) score matrix over a ``PairBatch``,
    with the true part's slot as target; ranking adds no parameters.
    """
    if task in SINGLE_TASKS:
        enc = encode_batch([list(ex.tokens) for ex in batch], params, tape)
        labels = np.array([ex.label for ex in batch], dtype=np.int64)
        return head_logits(enc, params.heads[task]), labels
    left = encode_batch(batch.lefts, params, tape)
    right = encode_batch(batch.rights, params, tape)
    all_scores = ad.matmul(left, ad.transpose(right))  # (B, B) dot products
    return ad.gather_cols(all_scores, batch.cand_idx), np.asarray(batch.targets, dtype=np.int64)


def batch_loss(params, task: str, batch, tape: ad.Tape) -> ad.Var:
    """The loss training minimizes on one batch of ``task``: softmax
    cross-entropy over its task scores. For a ranking task the minibatch
    inequality "anchor · true part >= anchor · impostor part" becomes a
    k-way cross-entropy, which is exactly ln k at indifference.
    """
    return ad.softmax_xent(*task_scores(params, task, batch, tape))


def pair_batch_loss(batch: PairBatch, params, tape: ad.Tape) -> ad.Var:
    """``batch_loss`` on a ``PairBatch``; kept under its own name because
    the benchmark's training replica and the ranking-loss tests call it."""
    return batch_loss(params, batch.kind, batch, tape)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def sgd_step(params: EncoderParams, grads: dict, lr: float, clip_norm: float) -> float:
    """In-place update theta <- theta - lr * g with global-norm clipping.

    Returns the post-clip global norm, i.e. min(raw norm, clip_norm).
    Parameters without a gradient entry (heads of tasks not in the current
    minibatch) are left untouched.
    """
    raw = global_grad_norm(grads)
    if not np.isfinite(raw):
        raise NonFiniteGradient(f"global gradient norm is {raw}")
    scale = 1.0 if raw <= clip_norm else clip_norm / raw
    arrays = params.named_arrays()
    for name, g in grads.items():
        arrays[name] -= lr * scale * g
    return min(raw, clip_norm)


def lr_schedule(
    lr: float, valid_acc: float, best_so_far: float, drop_decay: float, epoch_decay: float
) -> tuple[float, float]:
    """End-of-epoch update; returns (new_lr, new_best).

    Accuracy below the best seen so far counts as a drop and cuts the rate
    hard; matching or beating it applies the gentle per-epoch decay.
    """
    if valid_acc < best_so_far:
        lr = lr * drop_decay
    else:
        lr = lr * epoch_decay
    return lr, max(best_so_far, valid_acc)


# ---------------------------------------------------------------------------
# Batches (training data is re-sampled every epoch) and validation
# ---------------------------------------------------------------------------


def _epoch_batches(train_sents, task, config: TrainConfig, epoch: int, vocab):
    ch = _chan(epoch, task)
    if task in SINGLE_TASKS:
        examples, _ = gen_single_examples(
            train_sents, task, config.k, config.gate_p, vocab, config.seed, epoch=ch, purpose=EXAMPLES
        )
        order = stream(config.seed, ORDER, ch)
        idx = list(range(len(examples)))
        order.shuffle(idx)
        return [
            [examples[j] for j in idx[s : s + config.batch_size]]
            for s in range(0, len(idx), config.batch_size)
        ]
    # filter before the shuffle: it fixes which sentences share a batch
    need = min_sentence_len(task, config.k)
    eligible = [s for s in train_sents if len(s) >= need]
    stream(config.seed, ORDER, ch).shuffle(eligible)
    batches, _ = gen_pair_batches(eligible, task, config.k, config.batch_size, config.seed, epoch=ch)
    return [b for b, _ in batches]


def _build_validation(data: SplitCorpus, task: str, config: TrainConfig):
    """Fixed validation batches: several independent draws over the valid split.

    Each draw uses its own slot of the VALID stream, so enlarging
    ``valid_draws`` extends rather than reshuffles the set. More draws
    shrink the noise on the accuracy estimate, which matters because any
    dip below the running best permanently cuts the learning rate. Head
    tasks pool the draws' examples and cut them into ``_VALID_CHUNK``-example
    batches; ranking tasks keep each draw's ``PairBatch``es.
    """
    out = []
    for d in range(config.valid_draws):
        ch = _chan(d, task)
        if task in SINGLE_TASKS:
            examples, _ = gen_single_examples(
                data.valid, task, config.k, config.gate_p, data.vocab, config.seed,
                epoch=ch, purpose=VALID,
            )
            out.extend(examples)
        else:
            batches, _ = gen_pair_batches(
                data.valid, task, config.k, config.batch_size, config.seed,
                epoch=ch, purpose=VALID,
            )
            out.extend(b for b, _ in batches)
    if not out:
        raise DataError(f"validation split yields no {task}(k={config.k}) data")
    if task in SINGLE_TASKS:
        out = [out[s : s + _VALID_CHUNK] for s in range(0, len(out), _VALID_CHUNK)]
    return out


def _validate(params: EncoderParams, task: str, valid_set) -> float:
    """Share of validation rows whose target column scores strictly above
    every other column: a tie at the top is a miss, for every task, since
    each constraint asks the true answer to beat the alternatives."""
    tape = ad.Tape(recording=False)
    correct = total = 0
    for batch in valid_set:
        scores, targets = task_scores(params, task, batch, tape)
        rows = np.arange(len(targets))
        others = scores.value.copy()
        others[rows, targets] = -np.inf
        correct += int(np.sum(scores.value[rows, targets] > others.max(axis=1)))
        total += len(targets)
    return correct / total


# ---------------------------------------------------------------------------
# Training engine
# ---------------------------------------------------------------------------


def _train_one_batch(params, task, batch, lr, clip_norm):
    """One forward/backward/update; returns (loss, post-clip norm)."""
    tape = ad.Tape()
    bound, leaves = bind_params(params, tape)
    loss = batch_loss(bound, task, batch, tape)
    tape.backward(loss)
    grads = {name: leaf.grad for name, leaf in leaves.items() if leaf.grad is not None}
    norm = sgd_step(params, grads, lr, clip_norm)
    return float(loss.value), norm


def _run_training(
    tasks: tuple, data: SplitCorpus, config: TrainConfig, init_item: int = 0, progress=None
) -> TrainState:
    head_tasks = tuple(t for t in tasks if t in SINGLE_TASKS)
    params = init_params(
        data.vocab.size,
        config.embed_dim,
        config.hidden_size,
        head_tasks=head_tasks,
        head_dim=config.head_dim,
        seed=config.seed,
        stream_item=init_item,
        init_gain=config.init_gain,
    )
    valid_sets = {t: _build_validation(data, t, config) for t in tasks}

    lr = config.lr0
    best = float("-inf")
    best_params = copy_params(params)
    best_epoch = 0
    best_accs: dict = {}
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        batch_lists = {t: _epoch_batches(data.train, t, config, epoch, data.vocab) for t in tasks}
        n_rounds = min(len(b) for b in batch_lists.values())
        if n_rounds == 0:
            raise DataError(
                f"epoch {epoch}: no training batches for "
                f"{[t for t in tasks if not batch_lists[t]]}"
            )
        losses = {t: [] for t in tasks}
        skips = dict.fromkeys(tasks, 0)
        max_norm = 0.0
        for r in range(n_rounds):
            for t in tasks:
                try:
                    loss, norm = _train_one_batch(params, t, batch_lists[t][r], lr, config.clip_norm)
                except NonFiniteGradient:
                    skips[t] += 1
                    continue
                losses[t].append(loss)
                max_norm = max(max_norm, norm)
        starved = [t for t in tasks if not losses[t]]
        if starved:
            raise NumericError(
                f"epoch {epoch}: every SGD step for {starved} had a non-finite gradient"
            )

        accs = {t: _validate(params, t, valid_sets[t]) for t in tasks}
        mean_acc = statistics.fmean(accs.values())
        for t in tasks:
            history.append(
                {
                    "epoch": epoch,
                    "task": t,
                    "k": config.k,
                    "train_loss": statistics.fmean(losses[t]),
                    "valid_acc": accs[t],
                    "lr": lr,
                    "max_grad_norm": max_norm,
                    "skipped_steps": skips[t],
                }
            )
        if progress is not None:
            progress(
                f"epoch {epoch:2d} lr {lr:.6f} "
                + " ".join(f"{t}:{accs[t]:.3f}" for t in tasks)
            )
        if mean_acc > best:
            best_params = copy_params(params)
            best_epoch = epoch
            best_accs = dict(accs)
        lr, best = lr_schedule(lr, mean_acc, best, config.drop_decay, config.epoch_decay)

    return TrainState(
        params=best_params,
        best_valid=best,
        best_epoch=best_epoch,
        history=history,
        config=config,
        member_accs=best_accs,
        skipped_steps=sum(row["skipped_steps"] for row in history),
    )


def train_single_task(config: TrainConfig, data: SplitCorpus, progress=None) -> TrainState:
    """Train one encoder on one consistency task; returns the best snapshot."""
    if config.task == "MT":
        raise ValueError("use train_multitask for task MT")
    return _run_training((config.task,), data, config, init_item=0, progress=progress)


def train_multitask(config: TrainConfig, data: SplitCorpus, progress=None) -> MultitaskState:
    """Round-robin multitask training: two encoders, two task groups.

    Encoder 1 serves D, P, I, R through four separate heads; encoder 2
    serves N and C with no heads at all. Within a group, consecutive
    minibatches rotate through the member tasks in fixed order, and the
    learning-rate schedule follows the unweighted mean of the members'
    validation accuracies. The groups share no parameters, so they are
    trained one after the other. The MT representation is both encoders'
    outputs side by side (``output_dim`` wide); each encoder is saved, and
    can be probed, on its own.
    """
    if config.task != "MT":
        raise ValueError(f"train_multitask requires task MT, got {config.task}")
    g1 = _run_training(GROUP1, data, config, init_item=0, progress=progress)
    g2 = _run_training(GROUP2, data, config, init_item=1, progress=progress)
    return MultitaskState(group1=g1, group2=g2)


# ---------------------------------------------------------------------------
# Metrics files: one JSON object per line
# ---------------------------------------------------------------------------


def write_metrics_jsonl(path, history: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Whole-model gradient verification
# ---------------------------------------------------------------------------


def run_gradcheck(n_models: int, seed: int, progress=None) -> dict:
    """Finite-difference check of ``batch_loss`` on full random models.

    Each model gets random sizes, fresh parameters, and a random minibatch;
    even indices check the head loss (task D over ``LabeledExample``s), odd
    indices the ranking loss (task C over a ``PairBatch``). Returns
    {"worst": float, "models": [...]} where worst is the maximum relative
    gradient error over every parameter of every model.
    """
    worst = 0.0
    models = []
    for i in range(n_models):
        r = stream(seed, GRADCHECK, item=i)
        vocab_size = 8 + r.randint(25)
        embed_dim = 2 + r.randint(5)
        hidden = 2 + r.randint(7)
        binary = i % 2 == 0

        def rand_sentences(count):
            return [
                [r.randint(vocab_size) for _ in range(1 + r.randint(5))] for _ in range(count)
            ]

        if binary:
            task, head_dim = "D", 3 + r.randint(6)
            params = init_params(
                vocab_size, embed_dim, hidden, head_tasks=(task,), head_dim=head_dim,
                seed=seed, stream_item=1000 + i,
            )
            seqs = rand_sentences(2 + r.randint(3))
            batch = [LabeledExample(tuple(s), r.randint(2), task, 1) for s in seqs]
        else:
            task, k = "C", 3
            params = init_params(
                vocab_size, embed_dim, hidden, seed=seed, stream_item=1000 + i
            )
            size = 3 + r.randint(2)
            lefts, rights = rand_sentences(size), rand_sentences(size)
            rows, targets = [], []
            for b in range(size):
                row = r.sample([j for j in range(size) if j != b], k - 1) + [b]
                r.shuffle(row)
                rows.append(row)
                targets.append(row.index(b))
            batch = PairBatch(
                lefts, rights, np.array(rows, dtype=np.int64), np.array(targets, dtype=np.int64), task, k
            )

        def build_loss(tape, leaves, task=task, batch=batch):
            return batch_loss(params_view(leaves), task, batch, tape)

        err = ad.finite_diff_check(params.named_arrays(), build_loss)
        worst = max(worst, err)
        models.append(
            {
                "model": i,
                "kind": "binary" if binary else "ranking",
                "vocab": vocab_size,
                "embed_dim": embed_dim,
                "hidden": hidden,
                "max_rel_error": err,
            }
        )
        if progress is not None:
            progress(f"model {i:2d} ({'binary ' if binary else 'ranking'}) max rel err {err:.3e}")
    return {"worst": worst, "models": models}
