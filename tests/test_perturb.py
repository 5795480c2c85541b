"""Corruption and partition operators: invariants, exact output
distributions against enumeration oracles, and dataset file round trips."""

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_rng import sample_by_copy

import conssent.perturb as perturb_module
from conssent.corpus import build_vocab
from conssent.errors import DataError
from conssent.perturb import (
    BatchTooSmall,
    LabeledExample,
    NoCandidates,
    NoValidPerturbation,
    gen_pair_batches,
    gen_single_examples,
    make_pair_batch,
    make_single_example,
    min_sentence_len,
    partition_contiguous,
    partition_noncontiguous,
    perturb,
    perturb_delete,
    perturb_insert,
    perturb_permute,
    perturb_replace,
    write_pair_dataset,
    write_single_dataset,
)
from conssent.rng import EXAMPLES, RngStream, stream

# --------------------------------------------------------------------------
# test-side oracles
# --------------------------------------------------------------------------


def is_subsequence(small, big):
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


def is_interleaving(s, left, right):
    """Can s be split into subsequences left and right? (dynamic program)"""
    if len(left) + len(right) != len(s):
        return False
    reach = {(0, 0)}
    for tok in s:
        new = set()
        for i, j in reach:
            if i < len(left) and left[i] == tok:
                new.add((i + 1, j))
            if j < len(right) and right[j] == tok:
                new.add((i, j + 1))
        reach = new
        if not reach:
            return False
    return (len(left), len(right)) in reach


def enumerate_deletions(s, k):
    return {
        tuple(t for i, t in enumerate(s) if i not in drop)
        for drop in itertools.combinations(range(len(s)), k)
    }


def enumerate_permutations(s, k):
    outcomes = set()
    for slots in itertools.combinations(range(len(s)), k):
        picked = [s[i] for i in slots]
        for perm in itertools.permutations(range(k)):
            out = list(s)
            for slot, p in zip(slots, perm):
                out[slot] = picked[p]
            if out != list(s):
                outcomes.add(tuple(out))
    return outcomes


def vocab_pool(s, pool):
    """A Vocabulary of the sentence's and the pool's tokens, with the
    sentence and the pool as its ids: insert and replace draw from it."""
    vocab = build_vocab([s + pool])
    return vocab, vocab.encode(s), vocab.encode(pool)


def enumerate_insertions(s, pool):
    outcomes = set()
    for tok in pool:
        for gap in range(len(s) + 1):
            out = list(s)
            out.insert(gap, tok)
            outcomes.add(tuple(out))
    return outcomes


def enumerate_contiguous(s):
    return {(tuple(s[: i - 1]), tuple(s[i - 1 :])) for i in range(2, len(s))}


def enumerate_noncontiguous(s):
    outcomes = set()
    for bits in itertools.product((True, False), repeat=len(s)):
        left = tuple(t for t, b in zip(s, bits) if b)
        right = tuple(t for t, b in zip(s, bits) if not b)
        if left and right:
            outcomes.add((left, right))
    return outcomes


def rngs(n, seed=0):
    """Independent per-trial streams, as data generation uses them."""
    return (stream(seed, EXAMPLES, item=i) for i in range(n))


tokens_strategy = st.lists(
    st.sampled_from("abcdefgh"), min_size=1, max_size=10
)
distinct_tokens_strategy = st.lists(
    st.sampled_from(list("abcdefghijkl")), min_size=2, max_size=10, unique=True
)


# --------------------------------------------------------------------------
# structural invariants
# --------------------------------------------------------------------------


@given(tokens_strategy, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000))
def test_delete_invariants(s, k, seed):
    if len(s) < k + 1:
        with pytest.raises(DataError, match=f"deleting {k} of {len(s)} tokens leaves nothing"):
            perturb_delete(s, k, RngStream(seed, 0))
        return
    out = perturb_delete(s, k, RngStream(seed, 0))
    assert len(out) == len(s) - k
    assert is_subsequence(out, s)


@given(distinct_tokens_strategy, st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
def test_permute_invariants(s, k, seed):
    if len(s) < k:
        with pytest.raises(DataError, match=f"cannot pick {k} positions out of {len(s)}"):
            perturb_permute(s, k, RngStream(seed, 0))
        return
    out = perturb_permute(s, k, RngStream(seed, 0))
    assert out != s
    assert Counter(out) == Counter(s)
    assert len(out) == len(s)


def test_permute_k1_rejected():
    with pytest.raises(ValueError):
        perturb_permute(["a", "b"], 1, RngStream(0, 0))


def test_permute_identical_tokens_raises():
    with pytest.raises(NoValidPerturbation):
        perturb_permute(["a", "a", "a"], 2, RngStream(0, 0))


def test_permute_duplicates_still_succeeds_when_possible():
    # two distinct values among duplicates: a valid scramble exists
    for i in range(50):
        out = perturb_permute(["a", "a", "b"], 2, RngStream(7, i))
        assert Counter(out) == Counter({"a": 2, "b": 1})
        assert out != ["a", "a", "b"]


@given(tokens_strategy, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=1000))
def test_insert_invariants(s, k, seed):
    vocab, s, pool = vocab_pool(s, [f"new{i}" for i in range(6)])
    out = perturb_insert(s, k, vocab, RngStream(seed, 0))
    assert len(out) == len(s) + k
    assert is_subsequence(s, out)
    added = Counter(out) - Counter(s)
    assert sum(added.values()) == k
    assert all(tok in pool for tok in added)
    assert all(c == 1 for c in added.values())  # drawn without replacement


def test_insert_pool_excludes_sentence_tokens():
    vocab, s, _ = vocab_pool(["a", "b"], ["c"])
    out = perturb_insert(s, 1, vocab, RngStream(3, 0))
    added = (Counter(out) - Counter(s)).keys()
    assert set(added) == set(vocab.encode(["c"]))


def test_insert_pool_too_small():
    with pytest.raises(NoCandidates):
        vocab, s, _ = vocab_pool(["a"], ["b"])
        perturb_insert(s, 2, vocab, RngStream(0, 0))


@given(distinct_tokens_strategy, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1000))
def test_replace_invariants(s, k, seed):
    vocab, s, pool = vocab_pool(s, [f"new{i}" for i in range(8)])
    if len(s) < k:
        with pytest.raises(DataError, match=f"cannot pick {k} positions out of {len(s)}"):
            perturb_replace(s, k, vocab, RngStream(seed, 0))
        return
    out = perturb_replace(s, k, vocab, RngStream(seed, 0))
    assert len(out) == len(s)
    changed = [i for i, (x, y) in enumerate(zip(s, out)) if x != y]
    assert len(changed) == k
    new_tokens = [out[i] for i in changed]
    assert all(tok in pool for tok in new_tokens)
    assert len(set(new_tokens)) == k


def test_replace_with_vocabulary_pool():
    vocab = build_vocab([["a", "b", "c", "d", "e"]])
    s = vocab.encode(["a", "b", "c"])
    out = perturb_replace(s, 2, vocab, RngStream(1, 0))
    changed = {y for x, y in zip(s, out) if x != y}
    assert changed <= set(vocab.content_ids()) - set(s)


def _pool_as_sorted_list(vocab, exclude):
    """``_candidate_pool`` as it was for a Vocabulary: the whole sorted list."""
    excluded = set(exclude)
    return sorted(t for t in vocab.content_ids() if t not in excluded)


def _insert_as_it_was(s, k, vocab, rng):
    pool = _pool_as_sorted_list(vocab, s)
    if len(pool) < k:
        raise NoCandidates
    out = list(s)
    for tok in sample_by_copy(rng, pool, k):
        out.insert(rng.randint(len(out) + 1), tok)
    return out


def _replace_as_it_was(s, k, vocab, rng):
    if len(s) < k:
        raise DataError
    pool = _pool_as_sorted_list(vocab, s)
    if len(pool) < k:
        raise NoCandidates
    out = list(s)
    slots = sorted(sample_by_copy(rng, range(len(s)), k))
    for slot, tok in zip(slots, sample_by_copy(rng, pool, k)):
        out[slot] = tok
    return out


def _outcome(op, s, k, vocab, rng):
    try:
        return op(s, k, vocab, rng), rng.next_u32()
    except DataError as exc:  # NoCandidates or a too-short sentence
        return type(exc), rng.next_u32()


@given(st.integers(min_value=3, max_value=40), st.data(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=1000))
def test_vocabulary_draws_match_the_sorted_list_drawn_by_copy(size, data, k, seed):
    vocab = build_vocab([[f"w{i}"] for i in range(size - 2)])
    s = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), min_size=1, max_size=12))
    n, candidate = perturb_module._candidate_pool(vocab, s)
    assert [candidate(i) for i in range(n)] == _pool_as_sorted_list(vocab, s)
    for op, oracle in ((perturb_insert, _insert_as_it_was), (perturb_replace, _replace_as_it_was)):
        assert _outcome(op, s, k, vocab, RngStream(seed, 0)) == \
            _outcome(oracle, s, k, vocab, RngStream(seed, 0))


@given(st.lists(st.sampled_from("abcde"), min_size=3, max_size=9), st.integers(min_value=0, max_value=1000))
def test_contiguous_partition_invariants(s, seed):
    left, right = partition_contiguous(s, RngStream(seed, 0))
    assert left + right == s
    assert len(left) >= 1
    assert len(right) >= 2


def test_contiguous_too_short():
    with pytest.raises(DataError, match="contiguous split needs >= 3 tokens, got 2"):
        partition_contiguous(["a", "b"], RngStream(0, 0))


@given(st.lists(st.sampled_from("abcde"), min_size=2, max_size=9), st.integers(min_value=0, max_value=1000))
def test_noncontiguous_partition_invariants(s, seed):
    left, right = partition_noncontiguous(s, RngStream(seed, 0))
    assert left and right
    assert is_interleaving(s, left, right)


def test_noncontiguous_too_short():
    with pytest.raises(DataError, match="two-sided split needs >= 2 tokens, got 1"):
        partition_noncontiguous(["a"], RngStream(0, 0))


def test_noncontiguous_degenerate_rng():
    class AllLeft:
        def random(self):
            return 0.0

    with pytest.raises(DataError, match="no two-sided assignment in 64 draws"):
        partition_noncontiguous(["a", "b", "c"], AllLeft())


def test_perturb_dispatch_unknown_kind():
    with pytest.raises(ValueError):
        perturb(["a", "b"], "X", 1, ["c"], RngStream(0, 0))


def test_min_sentence_len():
    assert min_sentence_len("D", 1) == 2
    assert min_sentence_len("P", 2) == 2
    assert min_sentence_len("I", 3) == 1
    assert min_sentence_len("R", 1) == 1
    assert min_sentence_len("C", 4) == 3
    assert min_sentence_len("N", 2) == 2
    with pytest.raises(ValueError):
        min_sentence_len("Q", 1)


# --------------------------------------------------------------------------
# output distributions vs. enumeration oracles
# --------------------------------------------------------------------------

N_TRIALS = 10_000


def empirical(draw_fn, n=N_TRIALS, seed=0):
    counts = Counter()
    for rng in rngs(n, seed):
        counts[draw_fn(rng)] += 1
    return {outcome: c / n for outcome, c in counts.items()}


def test_delete_distribution_matches_enumeration():
    s = ["a", "b", "c"]
    oracle = enumerate_deletions(s, 2)
    assert oracle == {("a",), ("b",), ("c",)}
    freqs = empirical(lambda rng: tuple(perturb_delete(s, 2, rng)))
    assert set(freqs) == oracle
    for outcome in oracle:
        assert 0.30 <= freqs[outcome] <= 0.37


def test_permute_distribution_matches_enumeration():
    s = ["a", "b", "c"]
    oracle = enumerate_permutations(s, 3)
    assert len(oracle) == 5  # 3! - 1 non-identity arrangements
    freqs = empirical(lambda rng: tuple(perturb_permute(s, 3, rng)))
    assert set(freqs) == oracle
    for outcome in oracle:
        assert 0.17 <= freqs[outcome] <= 0.23


def test_insert_distribution_matches_enumeration():
    vocab, s, pool = vocab_pool(["a", "b"], ["x", "y"])
    oracle = enumerate_insertions(s, pool)
    assert len(oracle) == 6  # 2 tokens x 3 gaps
    freqs = empirical(lambda rng: tuple(perturb_insert(s, 1, vocab, rng)))
    assert set(freqs) == oracle
    for outcome in oracle:
        assert 0.14 <= freqs[outcome] <= 0.20


def test_contiguous_distribution_matches_enumeration():
    s = ["a", "b", "c", "d", "e"]
    oracle = enumerate_contiguous(s)
    assert len(oracle) == 3  # split positions 2, 3, 4
    freqs = empirical(
        lambda rng: tuple(map(tuple, partition_contiguous(s, rng)))
    )
    assert set(freqs) == oracle
    for outcome in oracle:
        assert 0.31 <= freqs[outcome] <= 0.36


def test_noncontiguous_distribution_matches_enumeration():
    s = ["a", "b", "c", "d"]
    oracle = enumerate_noncontiguous(s)
    assert len(oracle) == 14  # 2^4 - 2 two-sided assignments
    freqs = empirical(
        lambda rng: tuple(map(tuple, partition_noncontiguous(s, rng)))
    )
    assert set(freqs) == oracle
    for outcome in oracle:
        assert 0.060 <= freqs[outcome] <= 0.083


def test_noncontiguous_two_tokens_has_both_orders():
    s = ["a", "b"]
    oracle = enumerate_noncontiguous(s)
    assert oracle == {(("a",), ("b",)), (("b",), ("a",))}
    freqs = empirical(
        lambda rng: tuple(map(tuple, partition_noncontiguous(s, rng))), n=2000
    )
    assert set(freqs) == oracle


# --------------------------------------------------------------------------
# gated example construction
# --------------------------------------------------------------------------


def test_gate_balance_at_half():
    vocab = build_vocab([[c] for c in "abcdefghij"])
    s = vocab.encode(["a", "b", "c", "d"])
    labels = Counter()
    for rng in rngs(N_TRIALS, seed=11):
        ex = make_single_example(s, "R", 1, 0.5, vocab, rng)
        labels[ex.label] += 1
    frac_perturbed = labels[0] / N_TRIALS
    assert 0.48 <= frac_perturbed <= 0.52


def test_gate_extremes():
    vocab = build_vocab([[c] for c in "abcdefghij"])
    s = vocab.encode(["a", "b", "c"])
    for rng in rngs(200, seed=5):
        ex = make_single_example(s, "D", 1, 0.0, vocab, rng)
        assert ex.label == 1 and list(ex.tokens) == s
    for rng in rngs(200, seed=6):
        ex = make_single_example(s, "D", 1, 1.0, vocab, rng)
        assert ex.label == 0 and list(ex.tokens) != s


def test_label_semantics():
    vocab = build_vocab([[c] for c in "abcdefghij"])
    s = vocab.encode(["a", "b", "c", "d"])
    for rng in rngs(500, seed=7):
        ex = make_single_example(s, "P", 2, 0.5, vocab, rng)
        if ex.label == 1:
            assert list(ex.tokens) == s
        else:
            assert list(ex.tokens) != s
            assert Counter(ex.tokens) == Counter(s)


# --------------------------------------------------------------------------
# pair batches
# --------------------------------------------------------------------------

SENTS = [
    ["a", "b", "c", "d"],
    ["e", "f", "g"],
    ["h", "i", "j", "k", "l"],
    ["m", "n", "o"],
    ["p", "q", "r", "s"],
    ["t", "u", "v"],
]


@pytest.mark.parametrize("kind", ["C", "N"])
def test_pair_batch_invariants(kind):
    for trial in range(30):
        batch = make_pair_batch(SENTS, kind, 3, stream(1, EXAMPLES, item=trial))
        assert len(batch) == len(SENTS)
        for b in range(len(batch)):
            row = list(batch.cand_idx[b])
            assert len(set(row)) == 3
            assert row[batch.targets[b]] == b
            true_right = batch.rights[b]
            for j in row:
                if j != b:
                    assert batch.rights[j] != true_right
            left, right = batch.lefts[b], batch.rights[b]
            if kind == "C":
                assert left + right == SENTS[b]
            else:
                assert is_interleaving(SENTS[b], left, right)


def test_pair_batch_target_slot_uniform():
    counts = Counter()
    trials = 400
    for t in range(trials):
        batch = make_pair_batch(SENTS, "C", 3, stream(2, EXAMPLES, item=t))
        counts.update(int(x) for x in batch.targets)
    total = sum(counts.values())
    for slot in range(3):
        assert abs(counts[slot] / total - 1 / 3) < 0.05


def test_pair_batch_too_few_sentences():
    with pytest.raises(BatchTooSmall):
        make_pair_batch(SENTS[:2], "C", 3, RngStream(0, 0))


def test_pair_batch_identical_rights():
    # n=3 forces the contiguous split point, so identical sentences yield
    # identical right parts and no anchor can find a distinct impostor.
    sents = [["a", "b", "c"]] * 4
    with pytest.raises(BatchTooSmall):
        make_pair_batch(sents, "C", 3, RngStream(0, 0))


def test_pair_batch_k_too_small():
    with pytest.raises(ValueError):
        make_pair_batch(SENTS, "C", 1, RngStream(0, 0))


# --------------------------------------------------------------------------
# corpus-level generation
# --------------------------------------------------------------------------


def corpus_fixture():
    vocab = build_vocab([[c] for c in "abcdefghijklmnopqrst"])
    sents = [
        vocab.encode(list(w))
        for w in ["abcd", "efgh", "ijkl", "mnop", "qrst", "abef", "cdgh", "ik"]
    ]
    return vocab, sents


def test_gen_single_deterministic_and_epoch_sensitive():
    vocab, sents = corpus_fixture()
    a, stats_a = gen_single_examples(sents, "R", 2, 0.5, vocab, seed=9)
    b, _ = gen_single_examples(sents, "R", 2, 0.5, vocab, seed=9)
    c, _ = gen_single_examples(sents, "R", 2, 0.5, vocab, seed=9, epoch=1)
    d, _ = gen_single_examples(sents, "R", 2, 0.5, vocab, seed=10)
    assert a == b
    assert a != c
    assert a != d
    assert stats_a.written == len(sents)


def test_gen_single_item_streams_are_order_independent():
    vocab, sents = corpus_fixture()
    examples, _ = gen_single_examples(sents, "D", 1, 0.5, vocab, seed=4)
    by_index = {ex.source_index: ex for ex in examples}
    # regenerate item 5 in isolation: same stream key, same example
    rng = stream(4, EXAMPLES, epoch=0, item=5)
    ex5 = make_single_example(sents[5], "D", 1, 0.5, vocab, rng, source_index=5)
    assert ex5 == by_index[5]


def test_gen_single_skips_short_sentences():
    vocab, sents = corpus_fixture()
    examples, stats = gen_single_examples(sents, "D", 2, 0.5, vocab, seed=0)
    # "ik" has 2 tokens; deleting 2 would empty it
    assert stats.skipped["too_short"] == 1
    assert stats.written == len(sents) - 1
    assert all(ex.source_index != 7 for ex in examples)


def test_gen_pair_batches_deterministic():
    vocab, sents = corpus_fixture()
    a, stats_a = gen_pair_batches(sents, "N", 3, batch_size=4, seed=1)
    b, _ = gen_pair_batches(sents, "N", 3, batch_size=4, seed=1)
    assert len(a) == len(b) == 2
    for ba, bb in zip(a, b):
        assert ba.lefts == bb.lefts and ba.rights == bb.rights
        assert (ba.cand_idx == bb.cand_idx).all()
        assert (ba.targets == bb.targets).all()
    assert stats_a.written == 8


def test_gen_pair_batches_skips_short_and_small():
    vocab, sents = corpus_fixture()
    # "ik" (2 tokens) is ineligible for C; remaining 7 split into 4 + 3, and
    # the remainder chunk of 3 < k=4 cannot rank
    batches, stats = gen_pair_batches(sents, "C", 4, batch_size=4, seed=2)
    assert stats.skipped["too_short"] == 1
    assert stats.skipped["batch_too_small"] == 3
    assert stats.written == 4
    assert len(batches) == 1


def test_gen_pair_batch_size_below_k():
    vocab, sents = corpus_fixture()
    with pytest.raises(ValueError):
        gen_pair_batches(sents, "C", 5, batch_size=4, seed=0)


# --------------------------------------------------------------------------
# dataset files
# --------------------------------------------------------------------------


def _records(path):
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def test_single_dataset_round_trip(tmp_path):
    vocab = build_vocab([[c] for c in "abcdefgh"])
    sents = [list(w) for w in ["abcd", "efgh", "aceg", "bdfh"]]
    examples, _ = gen_single_examples(sents, "P", 2, 0.5, vocab, seed=3)
    path = tmp_path / "data.tsv"
    write_single_dataset(path, [examples[:3], examples[3:]])
    loaded = [LabeledExample(tuple(toks.split()), int(label), kind, int(k), int(src))
              for label, kind, k, src, toks in _records(path)]
    assert loaded == examples


def test_pair_dataset_round_trip(tmp_path):
    sents = [list(w) for w in ["abcd", "efgh", "ijkl", "mnop", "qrst", "uvwx", "yzab"]]
    batches, _ = gen_pair_batches(sents, "C", 3, batch_size=4, seed=5)
    assert [len(b) for b in batches] == [4, 3]
    path = tmp_path / "pairs.tsv"
    write_pair_dataset(path, batches)
    rows = _records(path)
    # each anchor row is followed by its k candidate rows; one is labelled 1
    loaded = []
    for a in range(0, len(rows), 4):
        anchor, *cands = rows[a : a + 4]
        assert anchor[:4] == ["1", "C", "3", "anchor"]
        assert all(c[1:4] == ["C", "3", "cand"] for c in cands)
        labels = [c[0] for c in cands]
        assert sorted(labels) == ["0", "0", "1"]
        loaded.append((anchor[4].split(), [c[4].split() for c in cands], labels.index("1")))
    assert loaded == [(b.lefts[i], [b.rights[j] for j in b.cand_idx[i]], b.targets[i])
                      for b in batches for i in range(len(b))]
