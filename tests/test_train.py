"""Trainer contract: losses, optimizer, schedule, engines, metrics."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conssent import autodiff as ad
from conssent import train
from conssent.corpus import prepare_corpus
from conssent.encoder import bind_params, encode_batch, encode_sentences, head_logits, init_params
from conssent.errors import DataError, NumericError
from conssent.perturb import PairBatch, gen_single_examples
from conssent.toydata import make_toy_corpus
from conssent.train import (
    GROUP1,
    GROUP2,
    K_RANGES,
    NonFiniteGradient,
    TrainConfig,
    global_grad_norm,
    lr_schedule,
    pair_batch_loss,
    run_gradcheck,
    sgd_step,
    train_multitask,
    train_single_task,
    write_metrics_jsonl,
)


@pytest.fixture(scope="module")
def tiny_data():
    return prepare_corpus(make_toy_corpus(160, seed=3), valid_fraction=0.2, seed=3, min_freq=1)


def tiny_config(task, **kw):
    base = dict(
        task=task,
        k=2,
        hidden_size=4,
        embed_dim=8,
        head_dim=8,
        batch_size=16,
        max_epochs=2,
        valid_draws=2,
        seed=7,
    )
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# binary loss: softmax_xent over a head's two logits
# ---------------------------------------------------------------------------


def binary_loss(logits, labels):
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return float(ad.softmax_xent(ad.Tape(recording=False).leaf(z), np.atleast_1d(labels)).value)


def test_binary_loss_indifference_is_ln2():
    for label in (0, 1):
        assert binary_loss([0.0, 0.0], label) == pytest.approx(math.log(2), rel=1e-12)


def test_binary_loss_confident_correct_is_tiny():
    assert binary_loss([50.0, -50.0], 0) < 1e-20


def test_binary_loss_frozen_example():
    got = binary_loss([1.0, -1.0], 1)
    assert got == pytest.approx(math.log1p(math.exp(2.0)), rel=1e-12)
    assert got == pytest.approx(2.1269280110429727, rel=1e-12)


def test_binary_loss_batch_is_mean_of_rows():
    logits = np.array([[0.0, 0.0], [1.0, -1.0]])
    lone = [binary_loss(row, lab) for row, lab in zip(logits, [0, 1])]
    both = binary_loss(logits, [0, 1])
    assert both == pytest.approx(sum(lone) / 2, rel=1e-12)


@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=1),
)
def test_binary_loss_nonnegative(logits, label):
    assert binary_loss(logits, label) >= 0.0


# ---------------------------------------------------------------------------
# ranking loss: pair_batch_loss over minibatch dot products
# ---------------------------------------------------------------------------


def ranking_loss(anchor, candidates, target, tape=None):
    """pair_batch_loss for one anchor among k candidates, with the encoder
    swapped for the identity so the scores are the given dot products.
    Returns the loss and the (k, d) leaf holding the candidates."""
    if tape is None:
        tape = ad.Tape(recording=False)
    leaves = []

    def identity(vectors, params, tape):
        leaves.append(tape.leaf(np.array(vectors, dtype=np.float64)))
        return leaves[-1]

    k = len(candidates)
    batch = PairBatch([anchor], list(candidates), np.arange(k)[None, :],
                      np.array([target]), "C", k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "encode_batch", identity)
        loss = pair_batch_loss(batch, None, tape)
    return loss, leaves[1]


def test_ranking_loss_indifference_is_ln_k():
    for k in (2, 3, 5):
        cand = [np.array([1.0, 2.0, 3.0])] * k
        got, _ = ranking_loss(np.array([0.5, -0.5, 1.0]), cand, 0)
        assert float(got.value) == pytest.approx(math.log(k), abs=1e-12)


def test_ranking_loss_confident_example():
    anchor = np.array([5.0, 0.0])
    cands = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]  # dots (5, -5)
    got, _ = ranking_loss(anchor, cands, 0)
    assert float(got.value) == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_ranking_loss_frozen_three_way():
    # dots (1, 0, -1), target 0
    anchor = np.array([1.0, 0.0])
    cands = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
    got, _ = ranking_loss(anchor, cands, 0)
    expect = -math.log(math.e / (math.e + 1.0 + math.exp(-1.0)))
    assert float(got.value) == pytest.approx(expect, rel=1e-12)
    assert float(got.value) == pytest.approx(0.4076059644443803, rel=1e-12)


@given(st.integers(0, 2), st.lists(st.floats(-8, 8), min_size=3, max_size=3))
@settings(max_examples=40)
def test_ranking_gradient_signs(target, dot_values):
    """Target dot pulls up (negative gradient), impostors push down."""
    tape = ad.Tape()
    loss, cands = ranking_loss(np.array([1.0, 0.0]), [np.array([d, 0.0]) for d in dot_values],
                               target, tape)
    tape.backward(loss)
    for j in range(len(dot_values)):
        if j == target:
            assert cands.grad[j, 0] < 0.0
        else:
            assert cands.grad[j, 0] > 0.0


@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=30)
def test_ranking_loss_nonnegative(k, dim, data):
    vecs = data.draw(
        st.lists(
            st.lists(st.floats(-3, 3), min_size=dim, max_size=dim),
            min_size=k + 1,
            max_size=k + 1,
        )
    )
    anchor, *cands = [np.array(v) for v in vecs]
    target = data.draw(st.integers(0, k - 1))
    assert float(ranking_loss(anchor, cands, target)[0].value) >= 0.0


def test_pair_batch_loss_equals_mean_of_per_anchor_ranking(tiny_data):
    """Dual route: the batched (B, k) score path must agree with the k-way
    ranking loss computed anchor by anchor in numpy on the same encodings."""
    params = init_params(tiny_data.vocab.size, 8, 4, seed=5)
    sents = [s for s in tiny_data.train if len(s) >= 4][:6]
    from conssent.perturb import make_pair_batch
    from conssent.rng import stream

    batch = make_pair_batch(sents, "C", 3, stream(11, 3, 0, 0))
    tape = ad.Tape()
    loss = pair_batch_loss(batch, params, tape)

    quiet = ad.Tape(recording=False)
    left = encode_batch(batch.lefts, params, quiet).value
    right = encode_batch(batch.rights, params, quiet).value
    per_anchor = []
    for i in range(len(batch.lefts)):
        scores = right[batch.cand_idx[i]] @ left[i]
        top = scores.max()
        logsumexp = top + np.log(np.exp(scores - top).sum())
        per_anchor.append(logsumexp - scores[batch.targets[i]])
    assert float(loss.value) == pytest.approx(sum(per_anchor) / len(per_anchor), rel=1e-10)


def test_training_step_frees_activations_without_gc():
    # every Var points at its tape; if the tape kept its recording after
    # the sweep, a step's activations would live until a cyclic GC pass
    params = init_params(12, 4, 5, head_tasks=("D",), head_dim=6, seed=3)

    def step():
        tape = ad.Tape()
        bound, leaves = bind_params(params, tape)
        pooled = encode_batch([[2, 3, 4], [5, 6], [7, 8, 9, 10]], bound, tape)
        logits = head_logits(pooled, bound.heads["D"])
        tape.backward(ad.softmax_xent(logits, np.array([0, 1, 1])))
        sgd_step(params, {name: leaf.grad for name, leaf in leaves.items()}, 0.1, 5.0)
        return weakref.ref(pooled.value), weakref.ref(logits.value)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = step()
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# sgd_step / clipping
# ---------------------------------------------------------------------------


def small_params():
    return init_params(5, 3, 2, head_tasks=("D",), head_dim=3, seed=1)


def test_sgd_step_basic_update():
    params = small_params()
    params.embedding[0, 0] = 1.0
    g = np.zeros_like(params.embedding)
    g[0, 0] = 0.5
    norm = sgd_step(params, {"embedding": g}, lr=0.1, clip_norm=5.0)
    assert params.embedding[0, 0] == pytest.approx(0.95, rel=1e-12)
    assert norm == pytest.approx(0.5)


def test_sgd_step_clips_norm_ten_by_half():
    params = small_params()
    before = params.embedding.copy()
    g = np.full_like(params.embedding, 10.0 / math.sqrt(params.embedding.size))
    assert global_grad_norm({"embedding": g}) == pytest.approx(10.0)
    norm = sgd_step(params, {"embedding": g}, lr=0.1, clip_norm=5.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(before - params.embedding, 0.1 * 0.5 * g, rtol=1e-12)


def test_sgd_step_zero_gradients_noop():
    params = small_params()
    before = {n: a.copy() for n, a in params.named_arrays().items()}
    norm = sgd_step(params, {}, lr=0.1, clip_norm=5.0)
    assert norm == 0.0
    for name, arr in params.named_arrays().items():
        np.testing.assert_array_equal(arr, before[name])


def test_sgd_step_rejects_nonfinite_and_leaves_params_alone():
    params = small_params()
    before = params.embedding.copy()
    g = np.zeros_like(params.embedding)
    g[0, 0] = np.nan
    with pytest.raises(NonFiniteGradient):
        sgd_step(params, {"embedding": g}, lr=0.1, clip_norm=5.0)
    np.testing.assert_array_equal(params.embedding, before)


def test_sgd_step_untouched_heads_stay_put():
    params = small_params()
    head_before = params.heads["D"].w1.copy()
    g = np.ones_like(params.embedding)
    sgd_step(params, {"embedding": g}, lr=0.1, clip_norm=5.0)
    np.testing.assert_array_equal(params.heads["D"].w1, head_before)


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4))
@settings(max_examples=40)
def test_post_clip_norm_never_exceeds_limit(scales):
    params = small_params()
    rng = np.random.default_rng(0)
    grads = {}
    names = list(params.named_arrays())
    for i, s in enumerate(scales):
        name = names[i % len(names)]
        grads[name] = rng.normal(size=params.named_arrays()[name].shape) * s
    post = sgd_step(params, grads, lr=0.01, clip_norm=5.0)
    assert post <= 5.0 + 1e-9


# ---------------------------------------------------------------------------
# Frozen readout: validation accuracy and ensemble probabilities
# ---------------------------------------------------------------------------


def test_frozen_readout_encodes_256_at_a_time_through_the_encoder_module(tiny_data, monkeypatch):
    """head_probs looks encode_batch up on the encoder module and validation
    on the train module, 256 sentences at a time on a non-recording tape: a
    tracer that swaps those attributes sees every frozen encode."""
    from conssent import encoder

    params = init_params(tiny_data.vocab.size, 8, 4, head_tasks=("D",), head_dim=8, seed=1)
    seqs = (tiny_data.train * 3)[:300]
    sizes = []

    def spy_on(module):
        real_encode_batch = module.encode_batch

        def spy(batch, p, tape):
            assert not tape.recording
            sizes.append(len(batch))
            return real_encode_batch(batch, p, tape)

        monkeypatch.setattr(module, "encode_batch", spy)

    spy_on(encoder)
    probs = encoder.head_probs(seqs, params, "D")
    assert probs.shape == (300, 2) and sizes == [256, 44]
    with pytest.raises(DataError):
        encoder.head_probs(seqs, params, "R")

    # ten validation draws pool 320 D examples: one full chunk and a tail
    spy_on(train)
    sizes.clear()
    valid_set = train._build_validation(tiny_data, "D", tiny_config("D", k=1, valid_draws=10))
    acc = train._validate(params, "D", valid_set)
    assert sizes == [256, 64]
    quiet = ad.Tape(recording=False)
    scored = [train.task_scores(params, "D", b, quiet) for b in valid_set]
    logits = np.concatenate([scores.value for scores, _ in scored])
    labels = np.concatenate([targets for _, targets in scored])
    rows = np.arange(len(labels))
    assert acc == np.mean(logits[rows, labels] > logits[rows, 1 - labels])
    # head_probs reads the same logits validation scores
    sents = [list(ex.tokens) for b in valid_set for ex in b]
    np.testing.assert_array_equal(encoder.head_probs(sents, params, "D"), ad.softmax_rows(logits))


def _toy300():
    return prepare_corpus(make_toy_corpus(300, seed=0), seed=0)


def _zero_head_d_validation():
    """A D model whose head is all zeros, so every logit ties, on D
    validation data from a 300-sentence toy corpus."""
    data = _toy300()
    params = init_params(data.vocab.size, 8, 4, head_tasks=("D",), head_dim=8, seed=0)
    for arr in vars(params.heads["D"]).values():
        arr[...] = 0.0
    config = TrainConfig(task="D", hidden_size=4, embed_dim=8, head_dim=8, valid_draws=2, seed=0)
    return params, "D", train._build_validation(data, "D", config)


def _tied_pair_validation():
    """A C batch where each anchor's impostor slot names its true right
    part again, so the two dot products tie exactly."""
    data = _toy300()
    params = init_params(data.vocab.size, 8, 4, seed=0)
    lefts, rights = data.valid[:2], data.valid[2:4]
    batch = PairBatch(lefts, rights, np.array([[0, 0], [1, 1]]), np.array([0, 1]), "C", 2)
    return params, "C", [batch]


@pytest.mark.parametrize("build", [_zero_head_d_validation, _tied_pair_validation],
                         ids=["head", "ranking"])
def test_a_tie_at_the_top_is_a_miss_for_every_task(build):
    assert train._validate(*build()) == 0.0


# ---------------------------------------------------------------------------
# lr_schedule
# ---------------------------------------------------------------------------


# TrainConfig's decay factors: 0.2 on a drop, 0.99 otherwise
DECAYS = {"drop_decay": TrainConfig.drop_decay, "epoch_decay": TrainConfig.epoch_decay}


def test_lr_schedule_examples():
    lr, best = lr_schedule(0.1, valid_acc=0.7, best_so_far=0.6, **DECAYS)
    assert lr == pytest.approx(0.099, rel=1e-12) and best == 0.7
    lr, best = lr_schedule(0.1, valid_acc=0.5, best_so_far=0.6, **DECAYS)
    assert lr == pytest.approx(0.02, rel=1e-12) and best == 0.6
    lr, _ = lr_schedule(*lr_schedule(0.1, 0.5, 0.6, **DECAYS)[:1], valid_acc=0.5, best_so_far=0.6,
                        **DECAYS)
    assert lr == pytest.approx(0.004, rel=1e-12)


def test_lr_schedule_tie_is_not_a_drop():
    lr, best = lr_schedule(0.1, valid_acc=0.6, best_so_far=0.6, **DECAYS)
    assert lr == pytest.approx(0.099, rel=1e-12) and best == 0.6


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
@settings(max_examples=60)
def test_lr_schedule_strictly_decreasing_and_powerlaw_on_improvement(accs):
    lr, best = 0.1, float("-inf")
    seen = [lr]
    for a in accs:
        lr, best = lr_schedule(lr, a, best, **DECAYS)
        seen.append(lr)
    assert all(b < a for a, b in zip(seen, seen[1:]))
    # a purely improving prefix obeys lr = 0.1 * 0.99^E
    lr, best = 0.1, float("-inf")
    E = 0
    for a in sorted(accs):  # nondecreasing sequence never triggers the drop branch
        lr, best = lr_schedule(lr, a, best, **DECAYS)
        E += 1
        assert lr == pytest.approx(0.1 * 0.99**E, rel=1e-9)


# ---------------------------------------------------------------------------
# TrainConfig validation
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_task():
    with pytest.raises(ValueError):
        TrainConfig(task="X")


def test_config_default_k_ranges():
    assert list(K_RANGES["D"]) == [1, 2, 3, 4, 5]
    assert list(K_RANGES["I"]) == [1, 2, 3, 4, 5]
    assert list(K_RANGES["R"]) == [1, 2, 3, 4, 5]
    for t in ("P", "C", "N", "MT"):
        assert list(K_RANGES[t]) == [2, 3, 4, 5, 6]


def test_config_enforces_k_range_unless_overridden():
    with pytest.raises(ValueError):
        TrainConfig(task="D", k=6)
    with pytest.raises(ValueError):
        TrainConfig(task="P", k=1)


def test_config_requires_batch_at_least_k_for_ranking():
    with pytest.raises(ValueError):
        TrainConfig(task="C", k=4, batch_size=3)
    with pytest.raises(ValueError):
        TrainConfig(task="MT", k=4, batch_size=3)
    TrainConfig(task="D", k=4, batch_size=3)  # binary tasks unconstrained


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError):
        TrainConfig(task="D", k=1, lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(task="D", k=1, valid_draws=0)
    with pytest.raises(ValueError):
        TrainConfig(task="D", k=1, gate_p=1.5)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def test_train_single_task_rejects_mt(tiny_data):
    with pytest.raises(ValueError):
        train_single_task(tiny_config("MT", k=3), tiny_data)


def test_training_is_deterministic(tiny_data):
    runs = [train_single_task(tiny_config("D"), tiny_data) for _ in range(2)]
    a, b = runs
    assert a.history == b.history  # bit-identical floats included
    for name, arr in a.params.named_arrays().items():
        np.testing.assert_array_equal(arr, b.params.named_arrays()[name])
    assert a.best_valid == b.best_valid and a.best_epoch == b.best_epoch


def test_history_schema_and_metrics_roundtrip(tiny_data, tmp_path):
    state = train_single_task(tiny_config("D"), tiny_data)
    assert len(state.history) == 2  # one row per epoch for a single task
    for row in state.history:
        assert {"epoch", "task", "train_loss", "valid_acc", "lr"} <= set(row)
        assert row["task"] == "D" and row["k"] == 2
        assert row["lr"] > 0 and 0.0 <= row["valid_acc"] <= 1.0
        assert math.isfinite(row["train_loss"])
    path = tmp_path / "metrics.jsonl"
    write_metrics_jsonl(path, state.history)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(state.history)
    assert [json.loads(line) for line in lines] == state.history


def test_lr_column_follows_schedule(tiny_data):
    state = train_single_task(tiny_config("D", max_epochs=4), tiny_data)
    lrs = [row["lr"] for row in state.history]
    accs = [row["valid_acc"] for row in state.history]
    assert lrs[0] == 0.1  # first epoch trains at lr0
    best = float("-inf")
    for i in range(1, len(lrs)):
        expect = lrs[i - 1] * (0.2 if accs[i - 1] < best else 0.99)
        best = max(best, accs[i - 1])
        assert lrs[i] == pytest.approx(expect, rel=1e-12)


def test_gate_p_zero_degenerates_to_majority(tiny_data):
    state = train_single_task(tiny_config("D", k=1, gate_p=0.0, max_epochs=3), tiny_data)
    assert state.best_valid >= 0.99  # consistent-only data: predict class 0
    assert state.history[-1]["train_loss"] < state.history[0]["train_loss"]


def test_round_robin_rotation_order(tiny_data, monkeypatch):
    calls = []

    def fake_train(params, task, batch, lr, clip_norm):
        calls.append(task)
        return 0.5, 1.0

    monkeypatch.setattr(train, "_train_one_batch", fake_train)
    cfg = tiny_config("MT", k=2, max_epochs=1)
    train_multitask(cfg, tiny_data)
    g1 = [t for t in calls if t in GROUP1]
    g2 = [t for t in calls if t in GROUP2]
    assert g1 and g1 == list(GROUP1) * (len(g1) // len(GROUP1))
    assert g2 and g2 == list(GROUP2) * (len(g2) // len(GROUP2))
    assert g1[:8] == ["D", "P", "I", "R", "D", "P", "I", "R"]


def _nan_norm_on_calls(monkeypatch, bad_calls):
    """Make global_grad_norm report NaN on the given (0-based) calls."""
    real, calls = train.global_grad_norm, []

    def norm(grads):
        calls.append(None)
        return float("nan") if len(calls) - 1 in bad_calls else real(grads)

    monkeypatch.setattr(train, "global_grad_norm", norm)


def test_epoch_with_every_step_skipped_is_numeric_error(tiny_data, monkeypatch):
    _nan_norm_on_calls(monkeypatch, range(10**6))
    with pytest.raises(NumericError, match="epoch 0: every SGD step for \\['D'\\]") as info:
        train_single_task(tiny_config("D"), tiny_data)
    assert type(info.value) is NumericError


def test_skipped_steps_are_counted_and_training_goes_on(tiny_data, monkeypatch):
    healthy = train_single_task(tiny_config("D"), tiny_data)
    _nan_norm_on_calls(monkeypatch, {0, 2})
    state = train_single_task(tiny_config("D"), tiny_data)
    assert state.skipped_steps == 2
    assert len(state.history) == len(healthy.history)
    assert all(math.isfinite(row["train_loss"]) for row in state.history)
    assert [row["skipped_steps"] for row in state.history] == [2, 0]
    assert all(row["skipped_steps"] == 0 for row in healthy.history)


def test_multitask_state_shapes(tiny_data):
    cfg = tiny_config("MT", k=2, max_epochs=1)
    state = train_multitask(cfg, tiny_data)
    assert state.output_dim == 2 * cfg.hidden_size + 2 * cfg.hidden_size
    assert set(state.member_accs) == set(GROUP1) | set(GROUP2)
    widths = [encode_sentences(tiny_data.valid[:5], g.params).shape for g in (state.group1, state.group2)]
    assert widths == [(5, 2 * cfg.hidden_size)] * 2
    rows = {(r["task"], r["epoch"]) for r in state.history}
    assert rows == {(t, e) for t in GROUP1 + GROUP2 for e in range(1)}


def test_best_snapshot_is_not_last_epoch_params(tiny_data):
    """The returned params must correspond to the best epoch, not the final
    one: training further than the best epoch must not change them."""
    cfg = tiny_config("D", k=1, seed=2, max_epochs=1)
    one = train_single_task(cfg, tiny_data)
    more = train_single_task(tiny_config("D", k=1, seed=2, max_epochs=6), tiny_data)
    if more.best_epoch == 0:  # best stayed at the first epoch: params frozen there
        np.testing.assert_array_equal(
            more.params.embedding, one.params.embedding
        )
    assert more.best_valid >= one.best_valid - 1e-12


def test_learning_signal_all_tasks_twenty_seeds(tiny_data):
    """Final mean training loss beats the first epoch's for every task.

    Pair tasks need enough updates and gradient scale to clear the noise
    floor of per-epoch resampling; at this config the slimmest observed
    margin over all 120 runs is +0.006 (N), versus ~0.003 resample noise.
    """
    for task in ("D", "P", "I", "R", "C", "N"):
        for seed in range(20):
            cfg = tiny_config(task, seed=seed, max_epochs=10, batch_size=10,
                              init_gain=12.0)
            state = train_single_task(cfg, tiny_data)
            first = state.history[0]["train_loss"]
            last = state.history[-1]["train_loss"]
            assert last < first, f"{task} seed {seed}: {last} !< {first}"


# ---------------------------------------------------------------------------
# Gradcheck entry point
# ---------------------------------------------------------------------------


# max_rel_error of run_gradcheck(n_models=4, seed=0), recorded when the
# gradcheck still differentiated its own copies of the two training losses
GRADCHECK_4_ERRORS = [
    1.51709451791231e-07,
    1.2817014548452033e-06,
    4.43103789338174e-07,
    3.234049864627563e-07,
]


def test_run_gradcheck_smoke(monkeypatch):
    seen = []
    real = train.batch_loss

    def spy(params, task, batch, tape):
        seen.append(task)
        return real(params, task, batch, tape)

    monkeypatch.setattr(train, "batch_loss", spy)  # the loss training minimizes
    report = run_gradcheck(n_models=4, seed=0)
    assert len(report["models"]) == 4
    assert report["worst"] == max(m["max_rel_error"] for m in report["models"])
    assert report["worst"] < 1e-4
    assert [m["max_rel_error"] for m in report["models"]] == GRADCHECK_4_ERRORS
    assert {"D", "C"} <= set(seen)  # a head task and a ranking task
