"""Random sentence corruptions and partitions that define the training tasks.

Single-sequence tasks corrupt a sentence and ask a classifier to tell
originals from corrupted versions:

* ``D`` — delete k tokens,
* ``P`` — permute k tokens in place,
* ``I`` — insert k out-of-sentence tokens,
* ``R`` — replace k tokens with out-of-sentence tokens.

Pair tasks split a sentence in two and ask the model to rank the true
completion of a left part above in-batch impostor completions:

* ``C`` — contiguous split (prefix / suffix),
* ``N`` — order-preserving split into two interleaved subsequences.

All functions are deterministic given an ``RngStream`` and consume it in a
fixed documented order, so datasets regenerate byte-identically.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import EXAMPLES, PAIRS, stream

SINGLE_TASKS = ("D", "P", "I", "R")
PAIR_TASKS = ("C", "N")

_MAX_RETRIES = 64


class NoCandidates(DataError):
    pass


class NoValidPerturbation(DataError):
    pass


class BatchTooSmall(DataError):
    pass


def _candidate_pool(vocab, exclude) -> tuple:
    """Tokens that may be inserted, the Vocabulary's non-special ids minus
    the sentence, as (their count, a function giving the i-th in id order).
    The pool is indexed without being built: the i-th is the range's start
    + i plus the excluded ids with at most i pool ids below."""
    ids = vocab.content_ids()
    skip = sorted({t for t in exclude if ids.start <= t < ids.stop})
    below = [t - ids.start - j for j, t in enumerate(skip)]  # pool ids below each skipped id
    return len(ids) - len(skip), lambda i: ids.start + i + bisect_right(below, i)


def perturb_delete(s: list, k: int, rng) -> list:
    """Remove k tokens at uniformly chosen distinct positions."""
    n = len(s)
    if n < k + 1:
        raise DataError(f"deleting {k} of {n} tokens leaves nothing")
    drop = set(rng.sample(range(n), k))
    return [tok for i, tok in enumerate(s) if i not in drop]


def perturb_permute(s: list, k: int, rng) -> list:
    """Scramble the tokens at k uniformly chosen positions.

    The selected slots (in their original order) receive their own tokens
    under a permutation drawn uniformly from the non-identity permutations.
    With duplicate tokens the sequence can still come out unchanged; the
    whole draw is then retried, and after ``_MAX_RETRIES`` failures (e.g.
    a sentence made of one repeated token) NoValidPerturbation is raised.
    """
    n = len(s)
    if k < 2:
        raise ValueError(f"permuting {k} token(s) cannot change the sequence")
    if n < k:
        raise DataError(f"cannot pick {k} positions out of {n}")
    s = list(s)
    for _ in range(_MAX_RETRIES):
        slots = sorted(rng.sample(range(n), k))
        perm = list(range(k))
        while True:
            rng.shuffle(perm)
            if any(p != i for i, p in enumerate(perm)):
                break
        out = list(s)
        picked = [s[i] for i in slots]
        for slot, p in zip(slots, perm):
            out[slot] = picked[p]
        if out != s:
            return out
    raise NoValidPerturbation(
        f"selected tokens identical after {_MAX_RETRIES} draws"
    )


def perturb_insert(s: list, k: int, vocab, rng) -> list:
    """Insert k distinct vocabulary tokens absent from the sentence.

    Tokens are drawn without replacement, then placed one at a time at a
    uniformly random gap of the growing sequence (n+1 gaps, then n+2, ...).
    """
    size, candidate = _candidate_pool(vocab, s)
    if size < k:
        raise NoCandidates(f"pool has {size} tokens, need {k}")
    new_tokens = [candidate(i) for i in rng.sample(range(size), k)]
    out = list(s)
    for tok in new_tokens:
        gap = rng.randint(len(out) + 1)
        out.insert(gap, tok)
    return out


def perturb_replace(s: list, k: int, vocab, rng) -> list:
    """Overwrite k distinct positions with tokens absent from the sentence.

    Positions and replacement tokens are both sampled without replacement,
    so the result differs from the original at exactly k positions.
    """
    n = len(s)
    if n < k:
        raise DataError(f"cannot pick {k} positions out of {n}")
    size, candidate = _candidate_pool(vocab, s)
    if size < k:
        raise NoCandidates(f"pool has {size} tokens, need {k}")
    slots = sorted(rng.sample(range(n), k))
    new_tokens = [candidate(i) for i in rng.sample(range(size), k)]
    out = list(s)
    for slot, tok in zip(slots, new_tokens):
        out[slot] = tok
    return out


def perturb(s: list, kind: str, k: int, vocab, rng) -> list:
    if kind == "D":
        return perturb_delete(s, k, rng)
    if kind == "P":
        return perturb_permute(s, k, rng)
    if kind == "I":
        return perturb_insert(s, k, vocab, rng)
    if kind == "R":
        return perturb_replace(s, k, vocab, rng)
    raise ValueError(f"unknown single-sequence task {kind!r}")


def min_sentence_len(kind: str, k: int) -> int:
    """Shortest sentence each task can operate on."""
    if kind == "D":
        return k + 1
    if kind == "P":
        return max(k, 2)
    if kind == "R":
        return k
    if kind == "I":
        return 1
    if kind == "C":
        return 3
    if kind == "N":
        return 2
    raise ValueError(f"unknown task {kind!r}")


@dataclass(frozen=True)
class LabeledExample:
    """One classification example: label 1 = untouched, 0 = perturbed."""

    tokens: tuple
    label: int
    kind: str
    k: int
    source_index: int = 0


def make_single_example(
    s: list, kind: str, k: int, gate_p: float, vocab, rng, source_index: int = 0
) -> LabeledExample:
    """Keep or corrupt one sentence.

    A single gate draw decides: with probability ``gate_p`` the sentence is
    perturbed (label 0), otherwise passed through unchanged (label 1). The
    gate consumes exactly one uniform variate so that label balance depends
    only on ``gate_p``, never on sentence content.
    """
    if rng.random() < gate_p:
        return LabeledExample(
            tuple(perturb(s, kind, k, vocab, rng)), 0, kind, k, source_index
        )
    return LabeledExample(tuple(s), 1, kind, k, source_index)


def partition_contiguous(s: list, rng) -> tuple[list, list]:
    """Split before a uniformly chosen position i in {2, ..., n-1} (1-based).

    The left part is tokens 1..i-1, the right part tokens i..n, so the left
    part has at least one token and the right part at least two.
    """
    n = len(s)
    if n < 3:
        raise DataError(f"contiguous split needs >= 3 tokens, got {n}")
    i = 2 + rng.randint(n - 2)
    return list(s[: i - 1]), list(s[i - 1 :])


def partition_noncontiguous(s: list, rng) -> tuple[list, list]:
    """Assign each token to one side with p = 0.5, keeping relative order.

    Assignments leaving either side empty are redrawn wholesale; after
    ``_MAX_RETRIES`` single-sided draws DataError is raised (with a
    fair coin this has probability 2^-64 per retry budget, so it only
    triggers under a pathological rng).
    """
    n = len(s)
    if n < 2:
        raise DataError(f"two-sided split needs >= 2 tokens, got {n}")
    for _ in range(_MAX_RETRIES):
        side = [rng.random() < 0.5 for _ in range(n)]
        left = [tok for tok, go_left in zip(s, side) if go_left]
        right = [tok for tok, go_left in zip(s, side) if not go_left]
        if left and right:
            return left, right
    raise DataError(f"no two-sided assignment in {_MAX_RETRIES} draws")


def partition(s: list, kind: str, rng) -> tuple[list, list]:
    if kind == "C":
        return partition_contiguous(s, rng)
    if kind == "N":
        return partition_noncontiguous(s, rng)
    raise ValueError(f"unknown pair task {kind!r}")


@dataclass
class PairBatch:
    """A batch of ranking examples sharing one pool of right parts.

    ``cand_idx[b]`` holds indices into ``rights`` for the k candidates of
    anchor b; ``targets[b]`` is the slot of the true right part. Keeping
    indices instead of copies lets the trainer encode each right part once.
    """

    lefts: list
    rights: list
    cand_idx: np.ndarray
    targets: np.ndarray
    kind: str
    k: int

    def __len__(self) -> int:
        return len(self.lefts)


def make_pair_batch(sentences: list, kind: str, k: int, rng) -> PairBatch:
    """Partition every sentence, then rank each true right part among k-1
    in-batch impostors.

    Impostors for anchor i are sampled without replacement from the other
    right parts that differ tokenwise from the true one; the k candidates
    are then shuffled so the target slot is uniform. Consumption order is
    fixed: all partitions first (batch order), then per-anchor sampling.
    """
    B = len(sentences)
    if k < 2:
        raise ValueError(f"ranking needs k >= 2 candidates, got {k}")
    if B < k:
        raise BatchTooSmall(f"need >= {k} sentences for {k - 1} impostors, got {B}")
    parts = [partition(s, kind, rng) for s in sentences]
    lefts = [p[0] for p in parts]
    rights = [p[1] for p in parts]
    cand_idx = np.empty((B, k), dtype=np.int64)
    targets = np.empty(B, dtype=np.int64)
    for i in range(B):
        eligible = [j for j in range(B) if j != i and rights[j] != rights[i]]
        if len(eligible) < k - 1:
            raise BatchTooSmall(
                f"anchor {i}: {len(eligible)} distinct impostor parts, need {k - 1}"
            )
        row = [i] + rng.sample(eligible, k - 1)
        rng.shuffle(row)
        cand_idx[i] = row
        targets[i] = row.index(i)
    return PairBatch(lefts, rights, cand_idx, targets, kind, k)


@dataclass
class GenStats:
    """Bookkeeping for dataset generation: emitted vs. skipped inputs."""

    written: int = 0
    skipped: Counter = field(default_factory=Counter)

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


def gen_single_examples(
    sentences: list,
    kind: str,
    k: int,
    gate_p: float,
    vocab,
    seed: int,
    epoch: int = 0,
    purpose: int = EXAMPLES,
) -> tuple[list[LabeledExample], GenStats]:
    """Labeled examples for a whole corpus, one independent rng per sentence.

    Sentences too short to perturb are skipped before the gate draw, so the
    emitted label balance stays at ``gate_p``. Each sentence gets its own
    stream keyed by (seed, purpose, epoch, index): regenerating any subset
    of the corpus, in any order or thread layout, yields identical examples.
    """
    examples: list[LabeledExample] = []
    stats = GenStats()
    need = min_sentence_len(kind, k)
    for i, s in enumerate(sentences):
        if len(s) < need:
            stats.skipped["too_short"] += 1
            continue
        rng = stream(seed, purpose, epoch, i)
        try:
            ex = make_single_example(s, kind, k, gate_p, vocab, rng, source_index=i)
        except NoCandidates:
            stats.skipped["no_candidates"] += 1
            continue
        except NoValidPerturbation:
            stats.skipped["no_valid_perturbation"] += 1
            continue
        examples.append(ex)
        stats.written += 1
    return examples, stats


def gen_pair_batches(
    sentences: list,
    kind: str,
    k: int,
    batch_size: int,
    seed: int,
    epoch: int = 0,
    purpose: int = PAIRS,
) -> tuple[list[PairBatch], GenStats]:
    """Chunk the corpus into batches and build ranking examples per chunk.

    Sentences below the task's minimum length are dropped first; chunks
    that cannot supply k-1 distinct impostors per anchor are skipped and
    counted.
    """
    if batch_size < k:
        raise ValueError(f"batch_size {batch_size} < k {k} can never rank")
    stats = GenStats()
    need = min_sentence_len(kind, k)
    eligible = [i for i, s in enumerate(sentences) if len(s) >= need]
    if len(eligible) < len(sentences):
        stats.skipped["too_short"] = len(sentences) - len(eligible)
    out = []
    for b, start in enumerate(range(0, len(eligible), batch_size)):
        chunk = eligible[start : start + batch_size]
        rng = stream(seed, purpose, epoch, b)
        try:
            batch = make_pair_batch([sentences[i] for i in chunk], kind, k, rng)
        except BatchTooSmall:
            stats.skipped["batch_too_small"] += len(chunk)
            continue
        out.append(batch)
        stats.written += len(chunk)
    return out, stats


# ---------------------------------------------------------------------------
# Dataset files: `gen` writes epoch 0's training batches of the train split
# through these, in the order training steps through them.
#
# Single-sequence records are tab-separated lines
#     label  kind  k  source_index  tokens
# where source_index is the sentence's index in the train split. Pair
# records carry a `part` column in its place
#     label  kind  k  part  tokens
# written as one `anchor` line followed by its k `cand` lines, where exactly
# the true candidate carries label 1. Tokens are space-joined vocabulary
# ids; line n (from 0) of the `.vocab` sidecar `gen` writes holds id n + 2. The
# batches follow one another with no marker: consecutive runs of batch_size
# records (or anchors), the last run possibly shorter.
# ---------------------------------------------------------------------------


def write_single_dataset(path: str | Path, batches: list[list[LabeledExample]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for batch in batches:
            for ex in batch:
                fh.write(
                    f"{ex.label}\t{ex.kind}\t{ex.k}\t{ex.source_index}\t"
                    + " ".join(str(t) for t in ex.tokens)
                    + "\n"
                )


def write_pair_dataset(path: str | Path, batches: list[PairBatch]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for batch in batches:
            for b, left in enumerate(batch.lefts):
                fh.write(
                    f"1\t{batch.kind}\t{batch.k}\tanchor\t"
                    + " ".join(str(t) for t in left)
                    + "\n"
                )
                for j, cand in enumerate(batch.cand_idx[b]):
                    lab = 1 if j == batch.targets[b] else 0
                    fh.write(
                        f"{lab}\t{batch.kind}\t{batch.k}\tcand\t"
                        + " ".join(str(t) for t in batch.rights[cand])
                        + "\n"
                    )
