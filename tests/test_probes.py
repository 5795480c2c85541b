"""Probing harness: label exactness, split discipline, classifier contracts."""

import hashlib
import math
import multiprocessing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conssent import encoder, parallel
from conssent import probes as P
from conssent.corpus import prepare_corpus
from conssent.encoder import EncoderParams, init_params
from conssent.errors import DataError, UsageError
from conssent.rng import PROBE, stream
from conssent.toydata import make_toy_corpus
from mlp_reference import fit_mlp_float64, mlp_logits_float64


@pytest.fixture(scope="module")
def corpus():
    return make_toy_corpus(500, seed=11)


@pytest.fixture(scope="module")
def tiny_vocab(corpus):
    return prepare_corpus(corpus, valid_fraction=0.2, seed=0, min_freq=1).vocab


# ---------------------------------------------------------------------------
# SentLen
# ---------------------------------------------------------------------------


def test_sentlen_labels_match_counting_oracle(corpus):
    edges = P.default_length_bins(corpus)
    task = P.gen_probe_sentlen(corpus, edges, seed=0)
    for (tokens, cls), sent in zip(task.examples, corpus):
        assert list(tokens) == sent
        # oracle: first edge >= len
        expect = min(i for i, e in enumerate(edges) if len(sent) <= e)
        assert cls == expect


def test_sentlen_histogram_matches_counting(corpus):
    edges = P.default_length_bins(corpus)
    task = P.gen_probe_sentlen(corpus, edges, seed=0)
    got = [0] * task.num_classes
    for _, cls in task.examples:
        got[cls] += 1
    want = [sum(1 for s in corpus if len(s) <= e and (i == 0 or len(s) > edges[i - 1]))
            for i, e in enumerate(edges)]
    assert got == want


def test_sentlen_binning_examples():
    assert P.length_class(5, (4, 8, 12)) == 1
    assert P.length_class(1, (4, 8, 12)) == 0
    assert P.length_class(4, (4, 8, 12)) == 0   # edges are inclusive
    assert P.length_class(12, (4, 8, 12)) == 2


def test_sentlen_uncovered_length_raises():
    with pytest.raises(DataError, match="length 13 exceeds the last bin edge 12"):
        P.length_class(13, (4, 8, 12))
    with pytest.raises(DataError, match="length 13 exceeds the last bin edge 12"):
        P.gen_probe_sentlen([["w"] * 13, ["w"] * 2, ["w"] * 5], (4, 8, 12), seed=0)


def test_sentlen_bad_edges_raise():
    with pytest.raises(UsageError):
        P.gen_probe_sentlen([["w"]], (4, 4, 8), seed=0)
    with pytest.raises(UsageError):
        P.gen_probe_sentlen([["w"]], (8,), seed=0)


def test_default_length_bins_cover_exactly(corpus):
    edges = P.default_length_bins(corpus)
    assert edges == tuple(sorted(set(len(s) for s in corpus)))
    task = P.gen_probe_sentlen(corpus, edges, seed=0)
    assert task.num_classes == len(edges)


def test_defaults_of_a_corpus_without_the_task_are_data_errors():
    # the fault is in the corpus, not in edges or targets a caller chose
    corpus = [["a", "b", "c"], ["d", "e", "f"]]
    with pytest.raises(DataError, match=r"only lengths \[3\]"):
        P.default_length_bins(corpus)
    with pytest.raises(DataError, match="only 6 token types, WordContent needs 14"):
        P.default_wordcontent_targets(corpus)


# ---------------------------------------------------------------------------
# WordContent
# ---------------------------------------------------------------------------


def test_wordcontent_matches_brute_force_filter(corpus):
    targets = P.default_wordcontent_targets(corpus)
    task = P.gen_probe_wordcontent(corpus, targets, seed=0)
    kept = []
    for s in corpus:
        hits = [t for t in targets if t in s]
        if len(hits) == 1 and s.count(hits[0]) == 1:
            kept.append((tuple(s), targets.index(hits[0])))
    assert list(task.examples) == kept


def test_wordcontent_class_is_position_in_given_order():
    corpus = [
        ["maya", "goes", "to", "school", "."],
        ["the", "dog", "sleeps", "."],
    ] * 10  # each class at the minimum of 10 examples
    task = P.gen_probe_wordcontent(corpus, ("school", "dog"), seed=0)
    assert [cls for _, cls in task.examples] == [0, 1] * 10
    flipped = P.gen_probe_wordcontent(corpus, ("dog", "school"), seed=0)
    assert [cls for _, cls in flipped.examples] == [1, 0] * 10


def test_wordcontent_excludes_multi_target_sentences():
    corpus = [
        ["school", "dog", "."],       # both targets -> dropped
        ["school", "school", "."],    # duplicate occurrences -> dropped
        ["school", "."],
        ["dog", "."],
    ] * 10
    task = P.gen_probe_wordcontent(corpus, ("school", "dog"), seed=0)
    assert len(task.examples) == 20
    assert all(len(tokens) == 2 for tokens, _ in task.examples)


def test_wordcontent_insufficient_examples_raises():
    corpus = [["school", "."]] * 10 + [["dog", "."]] * 9
    with pytest.raises(DataError, match=r"classes below the minimum of 10 examples: \{'dog': 9\}"):
        P.gen_probe_wordcontent(corpus, ("school", "dog"), seed=0)
    P.gen_probe_wordcontent(corpus + [["dog", "run", "."]], ("school", "dog"), seed=0)


def test_wordcontent_bad_targets_raise():
    with pytest.raises(UsageError):
        P.gen_probe_wordcontent([["a"]], ("only",), seed=0)
    with pytest.raises(UsageError):
        P.gen_probe_wordcontent([["a"]], ("two", "two"), seed=0)


def test_default_targets_skip_function_words(corpus):
    targets = P.default_wordcontent_targets(corpus)
    freq = {}
    for s in corpus:
        for tok in s:
            freq[tok] = freq.get(tok, 0) + 1
    top8 = set(sorted(freq, key=lambda t: (-freq[t], t))[:8])
    assert not top8 & set(targets)
    assert len(targets) == 6


# ---------------------------------------------------------------------------
# BigramShift
# ---------------------------------------------------------------------------


def test_bigramshift_label_marks_provenance(corpus):
    rng = stream(3, PROBE, epoch=2, item=0)
    task = P.gen_probe_bigramshift(corpus, rng, seed=0)
    n_diff = 0
    for (tokens, cls), orig in zip(task.examples, corpus):
        if cls == 0:
            assert list(tokens) == orig
        else:
            assert sorted(tokens) == sorted(orig)
            diffs = [i for i, (a, b) in enumerate(zip(tokens, orig)) if a != b]
            # one adjacent transposition: either invisible (equal tokens)
            # or exactly two adjacent positions crossed over
            if diffs:
                n_diff += 1
                assert len(diffs) == 2 and diffs[1] == diffs[0] + 1
                i, j = diffs
                assert tokens[i] == orig[j] and tokens[j] == orig[i]
    assert n_diff > 0


def test_bigramshift_balance_over_10k():
    corpus = make_toy_corpus(10_000, seed=2)
    task = P.gen_probe_bigramshift(corpus, stream(7, PROBE, epoch=2, item=1), seed=0)
    frac = sum(cls for _, cls in task.examples) / len(task.examples)
    assert 0.48 <= frac <= 0.52


def test_bigramshift_drops_sentences_too_short_to_swap(corpus):
    assert min(map(len, corpus)) >= 3
    mixed = [["a"]] + corpus[:40] + [["a", "b"]] + corpus[40:200] + [["b", "a"]] + corpus[200:] + [["c"]]
    want = P.gen_probe_bigramshift(corpus, stream(5, PROBE, epoch=2, item=0), seed=5)
    assert P.gen_probe_bigramshift(mixed, stream(5, PROBE, epoch=2, item=0), seed=5) == want


def test_bigramshift_of_only_short_sentences_raises():
    with pytest.raises(DataError):
        P.gen_probe_bigramshift([["a", "b"], ["c"]] * 20, stream(0, PROBE), seed=0)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def test_splits_disjoint_cover_and_stable(corpus):
    task = P.gen_probe_sentlen(corpus, P.default_length_bins(corpus), seed=4)
    again = P.gen_probe_sentlen(corpus, P.default_length_bins(corpus), seed=4)
    assert (task.train_idx, task.valid_idx, task.test_idx) == (
        again.train_idx, again.valid_idx, again.test_idx)
    tr, va, te = set(task.train_idx), set(task.valid_idx), set(task.test_idx)
    assert not (tr & va or tr & te or va & te)
    assert tr | va | te == set(range(len(task.examples)))
    other = P.gen_probe_sentlen(corpus, P.default_length_bins(corpus), seed=5)
    assert other.train_idx != task.train_idx


def test_split_proportions(corpus):
    task = P.gen_probe_sentlen(corpus, P.default_length_bins(corpus), seed=0)
    n = len(task.examples)
    assert len(task.train_idx) == int(n * 0.70)
    assert len(task.valid_idx) == int(n * 0.15)
    assert len(task.train_idx) + len(task.valid_idx) + len(task.test_idx) == n


def test_empty_class_rejected():
    with pytest.raises(DataError, match=r"x: classes \[1\] have no examples \(num_classes=2\)"):
        P.ProbeTask("x", ((("a",), 0), (("b",), 0)), 2, (0,), (1,), ())


def test_overlapping_splits_rejected():
    with pytest.raises(DataError):
        P.ProbeTask("x", ((("a",), 0), (("b",), 1)), 2, (0, 1), (1,), (0,))


# ---------------------------------------------------------------------------
# Logistic-regression probe
# ---------------------------------------------------------------------------


def _toy_encodings(n=300, d=8, num_classes=2, separable=True, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, num_classes, size=n)
    if separable:
        for c in range(num_classes):
            x[y == c, c] += 4.0
    n_tr, n_va = int(n * 0.7), int(n * 0.15)
    return P.ProbeEncodings(
        "toy", num_classes,
        {"train": x[:n_tr], "valid": x[n_tr:n_tr + n_va], "test": x[n_tr + n_va:]},
        {"train": y[:n_tr], "valid": y[n_tr:n_tr + n_va], "test": y[n_tr + n_va:]},
    )


def test_logreg_separable_reaches_one():
    res = P.eval_logreg(_toy_encodings(separable=True))
    assert res.test_accuracy == 1.0


def test_logreg_shuffled_labels_near_chance():
    enc = _toy_encodings(n=2000, num_classes=2, separable=False, seed=1)
    res = P.eval_logreg(enc)
    assert abs(res.test_accuracy - 0.5) <= 0.05


def test_logreg_huge_l2_predicts_majority():
    enc = _toy_encodings(n=400, num_classes=3, separable=True, seed=2)
    # unbalance the training labels so majority is well defined
    enc.y["train"][:150] = 2
    w, b, _ = P.fit_logreg(enc.x["train"], enc.y["train"], 3, l2=1e9)
    preds = np.argmax(enc.x["test"] @ w + b, axis=1)
    majority = np.bincount(enc.y["train"]).argmax()
    assert np.mean(preds == majority) > 0.99


def test_logreg_convex_init_independent():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 6))
    y = rng.integers(0, 3, size=150)
    _, _, f_zero = P.fit_logreg(x, y, 3, l2=1e-2)
    # the same objective minimized from a random start reaches the same optimum
    from scipy.optimize import minimize

    f_rand = minimize(P._logreg_value_and_grad, rng.normal(size=6 * 3 + 3), args=(x, y, 1e-2, 3),
                      method="L-BFGS-B", jac=True,
                      options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-9}).fun
    assert abs(f_zero - f_rand) < 1e-6


def test_logreg_tie_breaks_to_smaller_l2():
    # perfectly separable and easy: several l2 values tie at 1.0; the
    # selected one must be the smallest such value, whatever the grid order
    enc = _toy_encodings(separable=True)
    res = P.eval_logreg(enc)
    ties = [cfg["l2"] for cfg, acc in res.table if acc == res.valid_accuracy]
    assert len(ties) > 1 and res.selected["l2"] == min(ties)
    assert P.eval_logreg(enc, l2_grid=P.ProbeConfig.l2_grid[::-1]) == res


def test_logreg_grid_table_is_complete():
    res = P.eval_logreg(_toy_encodings())
    assert [cfg["l2"] for cfg, _ in res.table] == [1e-4, 1e-3, 1e-2, 1e-1, 1.0]


@pytest.mark.parametrize("grid", [(), (0.0,), (-1e-3,), (1e-3, math.inf), (math.nan,), ("a",)],
                         ids=["empty", "zero", "negative", "inf", "nan", "text"])
def test_logreg_rejects_unusable_l2_grid_before_any_pool(grid):
    # a zero or negative penalty makes the fit non-convex or unbounded, and
    # inf/nan make it meaningless; each is refused before a worker starts
    parallel.shutdown()
    with pytest.raises(UsageError, match="l2_grid"):
        P.eval_logreg(_toy_encodings(), l2_grid=grid)
    assert parallel._pool is None and multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# MLP probe
# ---------------------------------------------------------------------------


def test_mlp_separable_reaches_one():
    res = P.eval_mlp_probe(_toy_encodings(separable=True), P.ProbeConfig())
    assert res.test_accuracy == 1.0
    assert res.selected == {"hidden": 50, "dropout": 0.0}


def test_mlp_tie_breaks_smaller_hidden_then_dropout():
    # trivially easy data ensures widespread ties at validation accuracy 1.0
    res = P.eval_mlp_probe(_toy_encodings(separable=True), P.ProbeConfig())
    tied = [c for c, acc in res.table if acc == res.valid_accuracy]
    assert len(tied) > 1
    best = min(tied, key=lambda c: (c["hidden"], c["dropout"]))
    assert res.selected == best


def test_mlp_grid_is_exhaustive_and_sorted():
    res = P.eval_mlp_probe(_toy_encodings(n=60), P.ProbeConfig())
    combos = [(c["hidden"], c["dropout"]) for c, _ in res.table]
    assert combos == [(h, d) for h in (50, 100, 200) for d in (0.0, 0.1, 0.2)]


def test_mlp_deterministic_per_seed():
    cfg = P.ProbeConfig(seed=3)
    enc = _toy_encodings(n=120)
    a = P.eval_mlp_probe(enc, cfg)
    b = P.eval_mlp_probe(enc, cfg)
    assert a.test_accuracy == b.test_accuracy
    assert a.table == b.table


def test_probe_config_fixes_the_protocol():
    assert [f.name for f in fields(P.ProbeConfig)] == ["seed"]
    for grid in (P.ProbeConfig.l2_grid, P.ProbeConfig.mlp_hidden, P.ProbeConfig.dropout):
        assert list(grid) == sorted(set(grid))  # ascending: ties go to the first cell
    assert P.ProbeConfig(seed=5).l2_grid is P.ProbeConfig.l2_grid


# one case per protocol value that was a field: none can be set any more
@pytest.mark.parametrize("bad", [
    {"l2_grid": (-1.0,)},
    {"mlp_hidden": (2.5,)},
    {"dropout": (1.0,)},
    {"epochs": 0},
    {"lr": 0.0},
    {"batch_size": 0},
])
def test_probe_config_rejects_unusable_grids(bad):
    with pytest.raises(TypeError):
        P.ProbeConfig(**bad)


@pytest.mark.parametrize("num_classes, dropout", [(2, 0.0), (2, 0.2), (5, 0.1)])
def test_fit_mlp_float32_follows_the_float64_fit(num_classes, dropout):
    # From one generator state the float32 fit draws the same init, the
    # same minibatch orders and the same dropout masks as the float64
    # reference, so after 2 epochs only rounding separates them. Measured
    # on such data the gap is at most 1e-5 of each array's largest entry;
    # the bound below leaves a 10x margin and is ~1000 float32 ulps.
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(210, 16)), rng.integers(0, num_classes, 210)
    rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
    got = P.fit_mlp(x, y, num_classes, 20, dropout, rng_got, 2, 0.2, 32)
    want = fit_mlp_float64(x, y, num_classes, 20, dropout, rng_want, 2, 0.2, 32)
    for g, w in zip(got, want):
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, w, rtol=1e-4, atol=1e-4 * np.abs(w).max())
    assert rng_got.random() == rng_want.random()  # the same draws were used
    logits = P._mlp_logits(got, x)
    assert logits.dtype == np.float32
    np.testing.assert_array_equal(
        np.argmax(logits, axis=1), np.argmax(mlp_logits_float64(want, x), axis=1))


# ---------------------------------------------------------------------------
# Frozen-encoder discipline
# ---------------------------------------------------------------------------


def _params_checksum(params) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(params.named_arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_float32_readout_takes_a_loaded_checkpoint_as_it_is(tmp_path):
    """A checkpoint loads as float32, and the frozen readout reads those
    arrays themselves: no per-call copy."""
    path = tmp_path / "m.ckpt"
    encoder.save_checkpoint(path, init_params(20, 8, 4, seed=0))
    loaded, _meta = encoder.load_checkpoint(path)
    cast = encoder.as_stored(loaded).named_arrays()
    assert all(cast[name] is arr for name, arr in loaded.named_arrays().items())


def test_eval_never_updates_encoder(corpus, tiny_vocab):
    params = init_params(tiny_vocab.size, 8, 4, seed=0)
    before = _params_checksum(params)
    task = P.gen_probe_sentlen(corpus[:200], P.default_length_bins(corpus[:200]), seed=0)
    enc = P.encode_probe(task, params, tiny_vocab)
    P.eval_logreg(enc)
    P.eval_mlp_probe(enc, P.ProbeConfig())
    assert _params_checksum(params) == before


def test_encode_probe_encodes_the_task_once_and_keeps_split_order(corpus, tiny_vocab, monkeypatch):
    params = init_params(tiny_vocab.size, 8, 4, seed=0)
    task = P.gen_probe_sentlen(corpus[:200], P.default_length_bins(corpus[:200]), seed=0)
    calls, real_encode_sentences = [], P.encode_sentences

    def spy(seqs, *args):
        calls.append(len(seqs))
        return real_encode_sentences(seqs, *args)

    monkeypatch.setattr(P, "encode_sentences", spy)
    enc = P.encode_probe(task, params, tiny_vocab)
    assert calls == [len(task.examples)]
    # probes read the encoder out in float32
    params32 = EncoderParams({k: v.astype(np.float32) for k, v in params.named_arrays().items()})
    for split, idx in (("train", task.train_idx), ("valid", task.valid_idx), ("test", task.test_idx)):
        rows = [task.examples[i] for i in idx]
        want = real_encode_sentences([tiny_vocab.encode(list(s)) for s, _ in rows], params32)
        np.testing.assert_array_equal(enc.x[split], want)
        assert enc.y[split].tolist() == [c for _, c in rows]


def test_untrained_baseline_same_seed_identical_table(corpus, tiny_vocab):
    task = P.gen_probe_sentlen(corpus[:150], P.default_length_bins(corpus[:150]), seed=0)
    tables = [
        P.results_to_table(P.probe_encoder(
            {"SentLen": task}, init_params(tiny_vocab.size, 8, 4, seed=9), tiny_vocab,
            ("logreg", "mlp"), P.ProbeConfig()))
        for _ in range(2)
    ]
    assert tables[0] == tables[1]
    assert set(tables[0]["SentLen"]) == {"logreg", "mlp"}


# ---------------------------------------------------------------------------
# One readout path: the probe table and the encode-and-fit loop
# ---------------------------------------------------------------------------


def test_build_probe_tasks_matches_each_generator(corpus):
    tasks = P.build_probe_tasks(P.PROBE_NAMES, corpus, seed=4)
    assert list(tasks) == list(P.PROBE_NAMES)
    assert tasks["SentLen"] == P.gen_probe_sentlen(corpus, P.default_length_bins(corpus), seed=4)
    assert tasks["WordContent"] == P.gen_probe_wordcontent(
        corpus, P.default_wordcontent_targets(corpus), seed=4)
    assert tasks["BigramShift"] == P.gen_probe_bigramshift(
        corpus, stream(4, PROBE, epoch=2, item=0), seed=4)
    assert list(P.build_probe_tasks(["BigramShift"], corpus, seed=4)) == ["BigramShift"]
    for names in (["SentLen", "Tense"], []):
        with pytest.raises(UsageError):
            P.build_probe_tasks(names, corpus, seed=4)


def test_probe_encoder_encodes_once_and_fits_each_classifier(corpus, tiny_vocab, monkeypatch):
    params = init_params(tiny_vocab.size, 8, 4, seed=0)
    tasks = P.build_probe_tasks(["SentLen", "BigramShift"], corpus[:150], seed=0)
    config = P.ProbeConfig()
    want = {}
    for name, task in tasks.items():
        enc = P.encode_probe(task, params, tiny_vocab)
        want[f"{name}/logreg"] = P.eval_logreg(enc, config.l2_grid)
        want[f"{name}/mlp"] = P.eval_mlp_probe(enc, config)
    distinct = {tuple(tiny_vocab.encode(list(s))) for t in tasks.values() for s, _ in t.examples}
    assert len(distinct) < sum(len(t.examples) for t in tasks.values())
    encoded, real_encode_batch = [], encoder.encode_batch

    def spy(seqs, *args):
        encoded.extend(tuple(s) for s in seqs)
        return real_encode_batch(seqs, *args)

    monkeypatch.setattr(encoder, "encode_batch", spy)
    got = P.probe_encoder(tasks, params, tiny_vocab, ("logreg", "mlp"), config)
    assert len(encoded) == len(distinct) and set(encoded) == distinct
    assert list(got) == ["SentLen/logreg", "SentLen/mlp", "BigramShift/logreg", "BigramShift/mlp"]
    assert got == want
    assert P.probe_encoder({}, params, tiny_vocab, ("logreg", "mlp"), config) == {}
    with pytest.raises(UsageError):
        P.probe_encoder(tasks, params, tiny_vocab, ("svm",), config)


def test_probe_encoder_shares_rows_with_the_bytes_of_encode_probe(corpus, tiny_vocab, monkeypatch):
    params = init_params(tiny_vocab.size, 8, 4, seed=2)
    tasks = P.build_probe_tasks(P.PROBE_NAMES, corpus, seed=2)
    seen, real_eval_logreg = {}, P.eval_logreg

    def spy(enc, *args):
        seen[enc.name] = enc
        return real_eval_logreg(enc, *args)

    monkeypatch.setattr(P, "eval_logreg", spy)
    P.probe_encoder(tasks, params, tiny_vocab, ("logreg",), P.ProbeConfig())
    assert list(seen) == list(tasks)
    for name, task in tasks.items():
        alone = P.encode_probe(task, params, tiny_vocab)
        for split in ("train", "valid", "test"):
            assert seen[name].x[split].tobytes() == alone.x[split].tobytes()
            assert seen[name].y[split].tolist() == alone.y[split].tolist()


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


def test_results_json_and_tsv(tmp_path):
    res = {"sentlen/logreg": P.eval_logreg(_toy_encodings())}
    jpath, tpath = tmp_path / "r.json", tmp_path / "r.tsv"
    P.write_results_json(jpath, res)
    P.write_results_tsv(tpath, res)
    import json
    loaded = json.loads(jpath.read_text())
    row = loaded["sentlen/logreg"]
    assert row["test_accuracy"] == res["sentlen/logreg"].test_accuracy
    assert row["selected"] == res["sentlen/logreg"].selected
    lines = tpath.read_text().strip().split("\n")
    assert lines[0].startswith("task\t")
    assert len(lines) == 1 + len(P.ProbeConfig.l2_grid) + 1


def test_results_to_table():
    res = {"a": P.eval_logreg(_toy_encodings())}
    table = P.results_to_table(res)
    assert table == {"toy": {"logreg": res["a"].test_accuracy}}


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=40, max_size=80),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_sentlen_property_class_bounds(lengths, seed):
    assume(len(set(lengths)) >= 2)
    corpus = [["w"] * n for n in lengths]
    edges = P.default_length_bins(corpus)
    task = P.gen_probe_sentlen(corpus, edges, seed=seed)
    for (tokens, cls), n in zip(task.examples, lengths):
        assert 0 <= cls < len(edges)
        assert len(tokens) <= edges[cls]
        if cls > 0:
            assert len(tokens) > edges[cls - 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_split_property_partition(seed):
    corpus = make_toy_corpus(60, seed=1)
    task = P.gen_probe_sentlen(corpus, P.default_length_bins(corpus), seed=seed)
    tr, va, te = set(task.train_idx), set(task.valid_idx), set(task.test_idx)
    assert len(tr) + len(va) + len(te) == len(task.examples)
    assert tr | va | te == set(range(len(task.examples)))
