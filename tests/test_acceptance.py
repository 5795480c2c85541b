"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test name starts with ``test_criterion_``; conftest.py prints a
PASS/FAIL line per criterion as it finishes. Training-based criteria share
one module-scoped toy corpus so the whole gate runs in a few minutes on a
single core.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

import test_perturb as oracles
from conssent import ensemble as ens
from conssent import probes as pr
from conssent.cli import main as cli_main
from conssent.corpus import build_vocab, prepare_corpus
from conssent.encoder import encode_sentences, head_probs, init_params
from conssent.perturb import (
    gen_single_examples,
    make_single_example,
    partition_contiguous,
    partition_noncontiguous,
    perturb_delete,
    perturb_insert,
    perturb_permute,
    perturb_replace,
)
from conssent.rng import EXAMPLES, PROBE, VALID, stream
from conssent.toydata import make_toy_corpus
from conssent.train import (
    TrainConfig,
    lr_schedule,
    run_gradcheck,
    train_multitask,
    train_single_task,
)

RUNTIME_BUDGET_S = 300.0   # per training run: "< 5 min CPU"


# ---------------------------------------------------------------------------
# Shared corpus and trained models
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_corpus():
    return make_toy_corpus(2400, seed=0)


@pytest.fixture(scope="module")
def toy_data(toy_corpus):
    return prepare_corpus(toy_corpus, valid_fraction=0.05, seed=0, min_freq=1)


def _train(data, **kw):
    t0 = time.perf_counter()
    state = train_single_task(TrainConfig(**kw), data)
    return state, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_r1(toy_data):
    return _train(toy_data, task="R", k=1, hidden_size=32, embed_dim=32,
                  batch_size=64, head_dim=512, init_gain=6.0, valid_draws=20,
                  seed=9)


@pytest.fixture(scope="module")
def trained_p2(toy_data):
    return _train(toy_data, task="P", k=2, hidden_size=32, embed_dim=32,
                  batch_size=64, head_dim=512, init_gain=6.0, valid_draws=20,
                  seed=1)


# ---------------------------------------------------------------------------
# 1. Gradient exactness
# ---------------------------------------------------------------------------


# Each model's max relative error at seed 0, as `conssent gradcheck --models 20`
# computes them: a change that keeps the gradients' bytes keeps these.
GRADCHECK_ERRORS = [
    1.51709451791231e-07, 1.2817014548452033e-06, 4.43103789338174e-07, 3.234049864627563e-07,
    2.3409033177090352e-07, 7.064977977829017e-07, 5.536873838242407e-07, 6.970831252357443e-07,
    3.796601839030206e-07, 8.681497989964013e-07, 1.2321480458953034e-07, 8.86725906591786e-07,
    4.3113819826112084e-07, 1.014669025921726e-06, 4.086202241569051e-07, 8.291124689681256e-07,
    4.305839022640416e-07, 1.1154172190894634e-06, 4.6781495987924407e-07, 8.102056088207543e-07,
]


def test_criterion_01_gradient_exactness():
    """20 random small models, both losses: max rel err < 1e-4 in < 1 min,
    and each model's error the pinned one."""
    t0 = time.perf_counter()
    report = run_gradcheck(n_models=20, seed=0)
    elapsed = time.perf_counter() - t0
    models = report["models"]
    assert len(models) == 20
    assert {m["kind"] for m in models} == {"binary", "ranking"}
    assert all(m["hidden"] <= 8 and m["vocab"] <= 32 for m in models)
    assert report["worst"] < 1e-4, f"max rel err {report['worst']:.3e}"
    assert [m["max_rel_error"] for m in models] == GRADCHECK_ERRORS
    assert report["worst"] == 1.2817014548452033e-06
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Generator invariants, zero violations over 10k random sentences each
# ---------------------------------------------------------------------------


def _random_sentence(rng, ids, lo, hi):
    return [ids[rng.randint(len(ids))] for _ in range(lo + rng.randint(hi - lo + 1))]


def test_criterion_02_generator_invariants():
    vocab = build_vocab([[c] for c in "abcdefghijklmnopqrstuvwxyz1234"])
    ids = list(vocab.content_ids())
    N = 10_000

    for i in range(N):
        rng = stream(101, EXAMPLES, item=i)
        s = _random_sentence(rng, ids, 2, 12)

        k = 1 + rng.randint(min(5, len(s) - 1))
        out = perturb_delete(s, k, rng)
        assert len(out) == len(s) - k
        assert oracles.is_subsequence(out, s)

        if len(set(s)) >= 2:
            k = 2 + rng.randint(min(6, len(s)) - 1)
            out = perturb_permute(s, k, rng)
            assert sorted(out) == sorted(s)
            assert out != s

        k = 1 + rng.randint(5)
        out = perturb_insert(s, k, vocab, rng)
        assert len(out) == len(s) + k
        added = Counter(out) - Counter(s)
        assert sum(added.values()) == k
        assert not set(added) & set(s)

        k = 1 + rng.randint(min(5, len(s)))
        out = perturb_replace(s, k, vocab, rng)
        assert len(out) == len(s)
        changed = [j for j in range(len(s)) if out[j] != s[j]]
        assert len(changed) == k
        assert not {out[j] for j in changed} & set(s)

        if len(s) >= 3:
            left, right = partition_contiguous(s, rng)
            assert left and right and left + right == s
        left, right = partition_noncontiguous(s, rng)
        assert left and right
        assert oracles.is_interleaving(s, left, right)


# ---------------------------------------------------------------------------
# 3. Gate balance at p = 0.5
# ---------------------------------------------------------------------------


def test_criterion_03_gate_balance():
    vocab = build_vocab([[c] for c in "abcdefghijklmnop"])
    s = vocab.encode(["a", "b", "c", "d", "e"])
    labels = Counter()
    N = 10_000
    for i in range(N):
        ex = make_single_example(s, "R", 1, 0.5, vocab, stream(202, EXAMPLES, item=i))
        labels[ex.label] += 1
    frac_inconsistent = labels[0] / N
    assert 0.48 <= frac_inconsistent <= 0.52, frac_inconsistent


# ---------------------------------------------------------------------------
# 4. Output distributions match brute-force enumeration within 3 sigma
# ---------------------------------------------------------------------------


def _check_uniform(draw_fn, oracle, seed, n=10_000):
    counts = Counter(draw_fn(stream(seed, EXAMPLES, item=i)) for i in range(n))
    assert set(counts) == oracle
    p = 1.0 / len(oracle)
    band = 3.0 * math.sqrt(p * (1.0 - p) / n)
    for outcome in oracle:
        f = counts[outcome] / n
        assert abs(f - p) <= band, (outcome, f, p, band)


def test_criterion_04_enumeration_distributions():
    s3 = ["a", "b", "c"]
    _check_uniform(lambda rng: tuple(perturb_delete(s3, 2, rng)),
                   oracles.enumerate_deletions(s3, 2), seed=301)
    _check_uniform(lambda rng: tuple(perturb_permute(s3, 3, rng)),
                   oracles.enumerate_permutations(s3, 3), seed=302)
    vocab, s2, pool = oracles.vocab_pool(["a", "b"], ["x", "y"])
    _check_uniform(lambda rng: tuple(perturb_insert(s2, 1, vocab, rng)),
                   oracles.enumerate_insertions(s2, pool), seed=303)
    s4 = ["a", "b", "c", "d"]
    _check_uniform(lambda rng: tuple(map(tuple, partition_noncontiguous(s4, rng))),
                   oracles.enumerate_noncontiguous(s4), seed=304)


# ---------------------------------------------------------------------------
# 5. Toy learnability at the pinned architecture
# ---------------------------------------------------------------------------


def test_criterion_05_toy_learnability(toy_data, trained_r1):
    state_r, time_r = trained_r1
    assert state_r.best_valid >= 0.90, f"R(1) valid acc {state_r.best_valid:.4f}"
    assert time_r < RUNTIME_BUDGET_S

    state_d, time_d = _train(toy_data, task="D", k=1, hidden_size=32, embed_dim=32,
                             batch_size=64, head_dim=512, init_gain=6.0,
                             valid_draws=20, seed=0)
    assert state_d.best_valid >= 0.75, f"D(1) valid acc {state_d.best_valid:.4f}"
    assert time_d < RUNTIME_BUDGET_S

    state_c, time_c = _train(toy_data, task="C", k=3, hidden_size=32, embed_dim=32,
                             batch_size=64, init_gain=16.0, valid_draws=20, seed=0)
    assert state_c.best_valid >= 0.60, f"C(3) ranking acc {state_c.best_valid:.4f}"
    assert time_c < RUNTIME_BUDGET_S


# ---------------------------------------------------------------------------
# 6. Trained P(2) beats the untrained encoder on BigramShift by >= 5 points
# ---------------------------------------------------------------------------


def test_criterion_06_probe_ordering(toy_corpus, toy_data, trained_p2):
    state, _ = trained_p2
    task = pr.gen_probe_bigramshift(toy_corpus, stream(0, PROBE, epoch=2, item=0),
                                    seed=0)
    trained_acc = pr.eval_logreg(
        pr.encode_probe(task, state.params, toy_data.vocab)).test_accuracy
    twin = init_params(toy_data.vocab.size, 32, 32, seed=0)
    untrained = pr.probe_encoder({"BigramShift": task}, twin, toy_data.vocab, ("logreg",),
                                 pr.ProbeConfig())["BigramShift/logreg"].test_accuracy
    gap = trained_acc - untrained
    assert gap >= 0.05, (trained_acc, untrained)


# ---------------------------------------------------------------------------
# 7. Multitask round robin: every member above chance by >= 10 points
# ---------------------------------------------------------------------------


def test_criterion_07_multitask(toy_data):
    config = TrainConfig(task="MT", k=3, hidden_size=32, embed_dim=32,
                         batch_size=12, head_dim=64, init_gain=6.0,
                         valid_draws=5, max_epochs=10, seed=0)
    t0 = time.perf_counter()
    groups = train_multitask(config, toy_data)
    assert time.perf_counter() - t0 < RUNTIME_BUDGET_S
    accs = {**groups[0].member_accs, **groups[1].member_accs}
    assert set(accs) == {"D", "P", "I", "R", "N", "C"}
    for task, acc in accs.items():
        chance = 1.0 / 3.0 if task in ("C", "N") else 0.5
        assert acc >= chance + 0.10, f"{task}: {acc:.3f} vs chance {chance:.3f}"
    for group in groups:
        assert encode_sentences(toy_data.valid[:3], group.params).shape == (3, 2 * 32)


# ---------------------------------------------------------------------------
# 8. Ensembling
# ---------------------------------------------------------------------------


def test_criterion_08_ensemble(toy_data):
    rng = np.random.default_rng(0)
    probs = [rng.dirichlet(np.ones(3), size=40) for _ in range(2)]
    assert ens.ensemble_accuracy(probs, (1.0, 0.0), np.argmax(probs[0], axis=1)) == 1.0

    members = [
        _train(toy_data, task="R", k=1, hidden_size=16, embed_dim=16,
               batch_size=64, head_dim=64, init_gain=6.0, valid_draws=5,
               max_epochs=6, seed=seed)[0]
        for seed in (0, 1, 2)
    ]
    examples, _ = gen_single_examples(toy_data.valid, "R", 1, 0.5,
                                      toy_data.vocab, 123, purpose=VALID)
    labels = np.array([ex.label for ex in examples])
    member_probs = [head_probs([ex.tokens for ex in examples], m.params, "R")
                    for m in members]
    member_accs = [float(np.mean(np.argmax(p, axis=1) == labels))
                   for p in member_probs]
    weights = ens.normalize_weights([m.best_valid for m in members])
    acc = ens.ensemble_accuracy(member_probs, weights, labels)
    assert acc >= max(member_accs) - 0.01, (acc, member_accs)


# ---------------------------------------------------------------------------
# 9. Determinism through the command line
# ---------------------------------------------------------------------------


def test_criterion_09_determinism(tmp_path, capsys):
    for name in ("a", "b"):
        assert cli_main(["gen", "--task", "R", "--k", "2", "--seed", "7",
                         "--toy-n", "60", "--out", str(tmp_path / f"{name}.tsv")]) == 0
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    losses = []
    for name in ("c", "d"):
        assert cli_main(["train", "--task", "D", "--k", "1", "--seed", "5",
                         "--toy-n", "80", "--hidden-size", "4", "--embed-dim", "8",
                         "--head-dim", "8", "--batch-size", "16",
                         "--max-epochs", "2", "--valid-draws", "2",
                         "--out", str(tmp_path / f"{name}.ckpt")]) == 0
        losses.append(json.loads(
            capsys.readouterr().out.strip().split("\n")[-1])["final_loss"])
    assert losses[0] == losses[1]   # bit-identical, not merely close
    assert (tmp_path / "c.ckpt").read_bytes() == (tmp_path / "d.ckpt").read_bytes()


# ---------------------------------------------------------------------------
# 10. Logged schedule conforms to the decay rules; clipping bound respected
# ---------------------------------------------------------------------------


def test_criterion_10_schedule_conformance(trained_r1):
    state, _ = trained_r1
    history = state.history
    assert history and history[0]["lr"] == pytest.approx(0.1)
    lr, best = 0.1, float("-inf")
    dropped = False
    for e, row in enumerate(history):
        assert row["lr"] == pytest.approx(lr, rel=1e-12)
        if not dropped:
            # until the first accuracy drop the rate is exactly 0.1 * 0.99^e
            assert row["lr"] == pytest.approx(0.1 * 0.99 ** e, rel=1e-12)
        if row["valid_acc"] < best:
            dropped = True
        lr, best = lr_schedule(lr, row["valid_acc"], best,
                               TrainConfig.drop_decay, TrainConfig.epoch_decay)
        assert row["max_grad_norm"] <= 5.0 + 1e-9
    lrs = [row["lr"] for row in history]
    assert all(b < a for a, b in zip(lrs, lrs[1:]))
