"""Encoder: init contracts, agreement with a scalar re-implementation,
bit-exact agreement of the fused op with the per-op reference path,
padding neutrality, gradients, and checkpoint round trips."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import lstm_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conssent import autodiff as ad
from conssent import encoder, parallel
from conssent import train
from conssent.autodiff import Tape, finite_diff_check
from conssent.corpus import PAD_ID
from conssent.encoder import (
    EncoderParams,
    bind_params,
    copy_params,
    encode_batch,
    encode_sentences,
    head_logits,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from conssent.errors import ConsSentError, DataError
from conssent.perturb import PairBatch
from conssent.rng import INIT, RngStream, stream

# --------------------------------------------------------------------------
# oracle: the same recurrence written with Python scalars and loops
# --------------------------------------------------------------------------


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def _oracle_direction(seq, emb, w_x, w_h, b, H, reverse):
    D = len(emb[0])
    h = [0.0] * H
    c = [0.0] * H
    hs = [None] * len(seq)
    order = range(len(seq) - 1, -1, -1) if reverse else range(len(seq))
    for t in order:
        x = emb[seq[t]]
        z = [
            sum(x[d] * w_x[d][j] for d in range(D))
            + sum(h[u] * w_h[u][j] for u in range(H))
            + b[j]
            for j in range(4 * H)
        ]
        i = [_sig(z[j]) for j in range(H)]
        f = [_sig(z[H + j]) for j in range(H)]
        o = [_sig(z[2 * H + j]) for j in range(H)]
        g = [math.tanh(z[3 * H + j]) for j in range(H)]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(H)]
        h = [o[j] * math.tanh(c[j]) for j in range(H)]
        hs[t] = list(h)
    return hs


def oracle_encode(seq, params):
    emb = params.embedding.tolist()
    H = params.hidden_size
    hf = _oracle_direction(
        seq, emb, params.fwd.w_x.tolist(), params.fwd.w_h.tolist(), params.fwd.b.tolist(), H, False
    )
    hb = _oracle_direction(
        seq, emb, params.bwd.w_x.tolist(), params.bwd.w_h.tolist(), params.bwd.b.tolist(), H, True
    )
    per_pos = [hf[t] + hb[t] for t in range(len(seq))]
    return [max(row[d] for row in per_pos) for d in range(2 * H)]


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def test_init_shapes_and_bounds():
    p = init_params(vocab_size=11, embed_dim=4, hidden_size=5, head_tasks=("D", "R"), head_dim=7)
    assert p.embedding.shape == (11, 4)
    for w in (p.fwd, p.bwd):
        assert w.w_x.shape == (4, 20)
        assert w.w_h.shape == (5, 20)
        assert w.b.shape == (20,)
        np.testing.assert_allclose(w.b[5:10], 1.0)  # forget gate
        np.testing.assert_allclose(w.b[:5], 0.0)
        np.testing.assert_allclose(w.b[10:], 0.0)
        assert np.abs(w.w_x).max() <= 1.0 / math.sqrt(5)
        assert np.abs(w.w_h).max() <= 1.0 / math.sqrt(5)
    assert np.abs(p.embedding).max() <= 0.1
    assert set(p.heads) == {"D", "R"}
    assert p.heads["D"].w1.shape == (10, 7)
    assert p.heads["D"].w2.shape == (7, 2)
    assert encode_sentences([[2, 3]], p).shape == (1, 10)


def test_init_deterministic_per_seed():
    a = init_params(8, 3, 4, head_tasks=("P",), seed=5)
    b = init_params(8, 3, 4, head_tasks=("P",), seed=5)
    c = init_params(8, 3, 4, head_tasks=("P",), seed=6)
    np.testing.assert_array_equal(a.embedding, b.embedding)
    np.testing.assert_array_equal(a.fwd.w_x, b.fwd.w_x)
    np.testing.assert_array_equal(a.heads["P"].w1, b.heads["P"].w1)
    assert not np.array_equal(a.embedding, c.embedding)


def _params_sha256(params):
    h = hashlib.sha256()
    for name, a in sorted(params.named_arrays().items()):
        h.update(f"{name}{a.shape}{a.dtype.str}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Digests recorded from the scalar per-draw initialiser, before block draws
# replaced it: the bytes (signs of zeros included) must never change.
@pytest.mark.parametrize(
    "kwargs, digest",
    [
        (  # toy-R1's shape
            dict(vocab_size=172, embed_dim=32, hidden_size=32, head_tasks=("R",),
                 head_dim=512, seed=0, init_gain=6.0),
            "7e4247a870f1fe5e4c46b90b9be85ea0cf32ba36774481374e7f7d973d1d4297",
        ),
        (  # the frozen probing encoder with a small vocabulary
            dict(vocab_size=500, embed_dim=300, hidden_size=128, seed=7, stream_item=1),
            "73061f400de176d5d1b4d1757ba3707414ca61cb17cb1f5631fedc9d4af97662",
        ),
        (  # an empty embedding draw
            dict(vocab_size=0, embed_dim=8, hidden_size=4, head_tasks=("D",), head_dim=5, seed=3),
            "cd964f5171ad8e7cb53a567b89889ef1c37d8c3a0e42b7ade58ea296e928c756",
        ),
    ],
)
def test_init_bytes_are_pinned(kwargs, digest):
    assert _params_sha256(init_params(**kwargs)) == digest


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(0, 2**64 - 1), st.integers(0, 40)
)
def test_uniform_array_is_scalar_uniform_bit_for_bit(lo, hi, seed, n):
    got = encoder._uniform_array(RngStream(seed, 1), (n,), lo, hi)
    rng = RngStream(seed, 1)
    want = np.array([rng.uniform(lo, hi) for _ in range(n)])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_empty_embedding_draw_does_not_advance_the_stream():
    params = init_params(vocab_size=0, embed_dim=3, hidden_size=2, seed=4)
    assert params.embedding.shape == (0, 3)
    rng = stream(4, INIT)
    r = 1.0 / np.sqrt(2)
    want = [rng.uniform(-r, r) for _ in range(3 * 8)]
    assert params.fwd.w_x.ravel().tolist() == want


def test_named_arrays_order_is_stable():
    p = init_params(8, 3, 4, head_tasks=("R", "D"))
    names = list(p.named_arrays())
    assert names[:7] == [
        "embedding", "fwd.w_x", "fwd.w_h", "fwd.b", "bwd.w_x", "bwd.w_h", "bwd.b",
    ]
    assert names[7:] == [
        "head.D.w1", "head.D.b1", "head.D.w2", "head.D.b2",
        "head.R.w1", "head.R.b1", "head.R.w2", "head.R.b2",
    ]


# --------------------------------------------------------------------------
# forward agreement and padding
# --------------------------------------------------------------------------


def test_encode_matches_scalar_oracle():
    params = init_params(vocab_size=9, embed_dim=2, hidden_size=3, seed=1)
    seq = [2, 5, 8, 3]
    got = encode_sentences([seq], params)[0]
    want = oracle_encode(seq, params)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_encode_matches_oracle_single_token():
    params = init_params(vocab_size=6, embed_dim=2, hidden_size=2, seed=3)
    np.testing.assert_allclose(
        encode_sentences([[4]], params)[0], oracle_encode([4], params), rtol=1e-12
    )


def test_ragged_batch_matches_single_encoding():
    params = init_params(vocab_size=12, embed_dim=3, hidden_size=4, seed=2)
    seqs = [[2, 3, 4, 5, 6], [7, 8], [9], [10, 11, 2, 3]]
    batch = encode_sentences(seqs, params)
    for b, seq in enumerate(seqs):
        np.testing.assert_allclose(batch[b], encode_sentences([seq], params)[0], rtol=1e-12, atol=1e-12)


def test_batching_does_not_change_encodings(monkeypatch):
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=4)
    seqs = [[2, 3], [4, 5, 6], [7], [8, 9, 2, 3], [5, 5]]
    b = encode_sentences(seqs, params)
    monkeypatch.setattr(encoder, "_FROZEN_BATCH", 2)
    a = encode_sentences(seqs, params)
    np.testing.assert_allclose(a, b, rtol=1e-15)


# --------------------------------------------------------------------------
# frozen encoding: length-sorted batches, rows back at their input positions
# --------------------------------------------------------------------------

RAGGED = [[2, 3, 4, 5, 6], [7], [8, 9, 2], [3, 4], [5, 6, 7, 8], [9, 9], [2, 3, 4]]


def _spy_batches(monkeypatch) -> list:
    """The batches encode_sentences hands to the encoder module's encode_batch."""
    batches, real_encode_batch = [], encoder.encode_batch

    def spy(seqs, params, tape):
        assert not tape.recording
        batches.append([list(s) for s in seqs])
        return real_encode_batch(seqs, params, tape)

    monkeypatch.setattr(encoder, "encode_batch", spy)
    return batches


def test_frozen_batches_come_in_stable_length_order(monkeypatch):
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=4)
    batches = _spy_batches(monkeypatch)
    monkeypatch.setattr(encoder, "_FROZEN_BATCH", 3)
    encode_sentences(RAGGED, params)
    assert [s for batch in batches for s in batch] == sorted(RAGGED, key=len)


def test_a_lone_last_sentence_joins_the_batch_before_it(monkeypatch):
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=4)
    batches = _spy_batches(monkeypatch)
    monkeypatch.setattr(encoder, "_FROZEN_BATCH", 2)
    encode_sentences(RAGGED[:5], params)
    assert [len(batch) for batch in batches] == [2, 3]


def test_sorted_rows_come_back_in_input_order(monkeypatch):
    """Bit for bit the rows of contiguous batches of 4 (no batch of one),
    although sorting put other sentences beside each one."""
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=4)
    seqs = RAGGED + [[4, 5, 6, 7, 8, 9]]
    tape = Tape(recording=False)
    contiguous = np.concatenate([encode_batch(seqs[i : i + 4], params, tape).value for i in (0, 4)])
    batches = _spy_batches(monkeypatch)
    monkeypatch.setattr(encoder, "_FROZEN_BATCH", 4)
    got = encode_sentences(seqs, params)
    assert batches != [seqs[:4], seqs[4:]]
    np.testing.assert_array_equal(got, contiguous)


def test_repeated_sentences_get_the_bytes_of_their_distinct_rows(monkeypatch):
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=4)
    pick = [0, 2, 0, 5, 2, 2, 6, 0, 1]
    seqs = [RAGGED[i] for i in pick]
    monkeypatch.setattr(encoder, "_FROZEN_BATCH", 3)
    distinct = encode_sentences(RAGGED, params)
    batches = _spy_batches(monkeypatch)
    got = encode_sentences(seqs, params)
    assert got.tobytes() == distinct[pick].tobytes()
    encoded = [s for batch in batches for s in batch]
    assert sorted(encoded) == sorted(RAGGED[i] for i in set(pick))  # each distinct one once


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_repeated_lone_sentence_keeps_its_batch_bytes(dtype):
    """``[s, s, s]`` is one distinct sentence, encoded in a batch of two
    (GEMM) with the bytes ``s`` gets beside another sentence, not as a
    batch of one (GEMV)."""
    params = _cast(init_params(40, 32, 32, seed=12), dtype)
    s, other = TABLE_CASES["one-sentence"][0], [4, 8]
    beside = encode_sentences([s, other], params)[0]
    assert encode_sentences([s, s, s], params).tobytes() == np.stack([beside] * 3).tobytes()
    assert encode_sentences([s, s], params).tobytes() == np.stack([beside] * 2).tobytes()


def test_list_and_tuple_inputs_agree_and_empty_sentences_are_refused():
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=4)
    seqs = RAGGED + RAGGED[:3]
    want = encode_sentences(seqs, params).tobytes()
    assert encode_sentences([tuple(s) for s in seqs], params).tobytes() == want
    assert encode_sentences(tuple(seqs), params).tobytes() == want
    with pytest.raises(DataError):
        encode_sentences([[2, 3], [], [2, 3]], params)


# --------------------------------------------------------------------------
# the fused bilstm_max op against the per-op reference path, bit for bit
# --------------------------------------------------------------------------


def _assert_bitwise_equal(got, want, what):
    # array_equal alone would let -0.0 stand in for +0.0
    assert got.dtype == want.dtype, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


def _assert_same_run(run):
    """``run(encode)`` returns (forward values, leaf grads); compare both paths."""
    got_values, got_grads = run(encode_batch)
    want_values, want_grads = run(lstm_reference.encode_batch)
    _assert_bitwise_equal(got_values, want_values, "forward values")
    assert got_grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        got = got_grads[name]
        assert (got is None) == (want is None), name
        if want is not None:
            _assert_bitwise_equal(got, want, name)


def _single_step(params, seqs, labels):
    def run(encode):
        tape = Tape()
        bound, leaves = bind_params(params, tape)
        pooled = encode(seqs, bound, tape)
        tape.backward(ad.softmax_xent(head_logits(pooled, bound.heads["D"]), labels))
        return pooled.value, {name: leaf.grad for name, leaf in leaves.items()}

    return run


def _weighted_step(params, seqs, weights):
    """Loss sum(pooled * weights), which sends any chosen gradient upstream."""

    def run(encode):
        tape = Tape()
        bound, leaves = bind_params(params, tape)
        pooled = encode(seqs, bound, tape)
        tape.backward(lstm_reference.sum_all(lstm_reference.mul(pooled, weights)))
        return pooled.value, {name: leaf.grad for name, leaf in leaves.items()}

    return run


def test_fused_matches_reference_ragged_with_duplicates():
    params = init_params(15, 4, 5, head_tasks=("D",), head_dim=6, seed=21, init_gain=6.0)
    seqs = [[2, 3, 3, 9, 2, 14], [7, 7], [9], [3, 2, 3, 2, 11], [2, 3, 3, 9, 2, 14]]
    labels = np.array([1, 0, 1, 1, 0])
    _assert_same_run(_single_step(params, seqs, labels))


def test_fused_matches_reference_width_one():
    # E = H = 1 turns several products into BLAS matrix-vector calls, whose
    # rounding depends on operand strides
    rng = np.random.default_rng(26)
    for trial in range(20):
        params = init_params(40, 1, 1, seed=trial, init_gain=6.0)
        seqs = [list(rng.integers(0, 40, size=int(n))) for n in rng.integers(1, 9, size=int(rng.integers(2, 9)))]
        weights = rng.standard_normal((len(seqs), 2))
        _assert_same_run(_weighted_step(params, seqs, weights))


def test_fused_matches_reference_on_signed_zero_gradient():
    # an all-zero upstream gradient: only the signs of the zeros can differ
    params = init_params(12, 3, 4, seed=27, init_gain=6.0)
    seqs = [[2, 3, 4, 5]]  # one sentence, so no sum over the batch can hide a -0.0
    weights = np.full((1, 8), -0.0)
    weights[0, ::3] = 0.0
    _assert_same_run(_weighted_step(params, seqs, weights))


def test_fused_matches_reference_pair_step_shared_leaves(monkeypatch):
    # pair_batch_loss encodes twice on one tape into the same leaves, whose
    # running sums must carry on from one encode's backward into the next
    params = init_params(12, 3, 4, seed=22, init_gain=6.0)
    batch = PairBatch(
        lefts=[[2, 3, 4], [5, 6], [7, 8, 9, 10], [11, 2]],
        rights=[[3, 4, 5, 6], [6, 2], [9, 10], [2, 11, 11]],
        cand_idx=np.array([[0, 1, 2], [1, 3, 0], [2, 0, 3], [3, 2, 1]]),
        targets=np.array([0, 0, 0, 0]),
        kind="C",
        k=3,
    )

    def run(encode):
        monkeypatch.setattr(train, "encode_batch", encode)
        tape = Tape()
        bound, leaves = bind_params(params, tape)
        loss = train.pair_batch_loss(batch, bound, tape)
        tape.backward(loss)
        return loss.value, {name: leaf.grad for name, leaf in leaves.items()}

    _assert_same_run(run)


def test_fused_matches_reference_long_large_vocab():
    rng = np.random.default_rng(23)
    V = 18_000
    params = init_params(V, 32, 32, head_tasks=("D",), head_dim=16, seed=23, init_gain=6.0)
    seqs = [list(rng.integers(2, V, size=int(n))) for n in rng.integers(10, 41, size=64)]
    seqs[0] = list(rng.integers(2, V, size=40))
    seqs[1][:6] = seqs[2][:6]  # repeated ids within a timestep
    labels = rng.integers(0, 2, size=len(seqs))
    _assert_same_run(_single_step(params, seqs, labels))


def test_fused_matches_reference_longdouble_frozen():
    params = init_params(11, 3, 4, seed=24, init_gain=6.0)
    seqs = [[2, 3, 4, 5], [6, 7], [8, 9, 10], [0, 1]]

    def run(encode):
        tape = Tape(recording=False)
        leaves = {k: tape.leaf(v.astype(np.longdouble)) for k, v in params.named_arrays().items()}
        pooled = encode(seqs, EncoderParams(leaves), tape).value
        assert pooled.dtype == np.longdouble
        assert len(tape) == 0
        return pooled, {}

    _assert_same_run(run)


# --------------------------------------------------------------------------
# the frozen forward runs in the dtype of its params (probes read out in float32)
# --------------------------------------------------------------------------


def _cast(params, dtype):
    return EncoderParams({k: v.astype(dtype) for k, v in params.named_arrays().items()})


def _ragged_ids(n, vocab_size, seed):
    """``n`` sentences of 1-24 ids, lengths mixed so most batches are padded."""
    rng = np.random.default_rng(seed)
    return [rng.integers(2, vocab_size, size=rng.integers(1, 25)).tolist() for _ in range(n)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frozen_forward_runs_in_its_params_dtype_bit_for_bit(monkeypatch, dtype):
    """Every array the recurrence sees, its zero start state included, is
    in the params' dtype, and the rows equal the per-op reference's."""
    params = _cast(init_params(40, 32, 32, seed=26), dtype)
    seqs = _ragged_ids(12, 40, seed=26)
    seen, real_scan = [], encoder._scan

    def spy(table, rows, w_h, b, mask, keep, cache):
        hs = real_scan(table, rows, w_h, b, mask, keep, cache)
        seen.append({a.dtype for a in (table, w_h, b, mask, keep, hs)})
        return hs

    monkeypatch.setattr(encoder, "_scan", spy)

    def run(encode):
        return encode(seqs, params, Tape(recording=False)).value, {}

    _assert_same_run(run)
    assert seen == [{np.dtype(dtype)}]


def test_float32_rows_are_within_1e_5_of_the_float64_rows():
    params = init_params(60, 32, 32, seed=7)
    seqs = _ragged_ids(300, 60, seed=5)
    want = encode_sentences(seqs, params)
    got = encode_sentences(seqs, _cast(params, np.float32))
    assert got.dtype == np.float64  # stored as float64, computed in float32
    assert not np.array_equal(got, want)
    # measured 2.4e-7 of the largest |entry| at this shape
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_float32_rows_do_not_depend_on_their_batch_mates(monkeypatch):
    params = _cast(init_params(60, 32, 32, seed=7), np.float32)
    seqs = _ragged_ids(300, 60, seed=5)
    rows = encode_sentences(seqs, params)
    chunks = [encode_sentences(seqs[i : i + 50], params) for i in range(0, len(seqs), 50)]
    np.testing.assert_array_equal(np.concatenate(chunks), rows)
    monkeypatch.setattr(encoder, "_FROZEN_BATCH", 37)
    np.testing.assert_array_equal(encode_sentences(seqs, params), rows)


# --------------------------------------------------------------------------
# frozen batches on a thread per CPU above the work gate; chunked projection
# --------------------------------------------------------------------------


def _spy_threads(monkeypatch, parties: int) -> set:
    """Pretend two CPUs are usable and record which threads run encode_batch.
    Each call waits until ``parties`` calls are in encode_batch at once, so
    two batches on two threads pass, and one thread alone times out."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    barrier = threading.Barrier(parties, timeout=10)
    threads, real_encode_batch = set(), encoder.encode_batch

    def spy(seqs, params, tape):
        threads.add(threading.get_ident())
        barrier.wait()
        return real_encode_batch(seqs, params, tape)

    monkeypatch.setattr(encoder, "encode_batch", spy)
    return threads


@pytest.mark.parametrize("embed_dim, hidden, threads", [(300, 128, 2), (32, 32, 1)])
def test_frozen_batches_take_a_thread_per_cpu_only_above_the_work_gate(
        monkeypatch, embed_dim, hidden, threads):
    """Two batches of 128: the long-probe shape (E=300, H=128) starts a
    thread per usable CPU, the toy shape (E=H=32) stays on one thread."""
    params = _cast(init_params(40, embed_dim, hidden, seed=3), np.float32)
    seen = _spy_threads(monkeypatch, threads)
    encode_sentences(_ragged_ids(256, 40, seed=3), params)
    assert len(seen) == threads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_threaded_rows_equal_a_one_thread_batch_loop_bit_for_bit(monkeypatch, dtype):
    """257 sentences of 1-24 ids (up to three projection chunks) in batches
    of 128 and 129, the lone last sentence joining the second."""
    params = _cast(init_params(40, 300, 128, seed=8), dtype)
    seqs = _ragged_ids(257, 40, seed=8)
    order = np.argsort([len(s) for s in seqs], kind="stable")
    want = np.empty((257, 256))
    for batch in (order[:128], order[128:]):
        want[batch] = encode_batch([seqs[i] for i in batch], params, Tape(recording=False)).value
    seen = _spy_threads(monkeypatch, 2)
    _assert_bitwise_equal(encode_sentences(seqs, params), want, "rows")
    assert len(seen) == 2


def _spy_thread_objects(monkeypatch, cpus: int, parties: int) -> list:
    """Like ``_spy_threads``, but one set per encode_sentences call, of the
    Thread objects themselves: a new thread may reuse an old one's ident."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    barrier = threading.Barrier(parties, timeout=10)
    calls, real_encode_batch = [], encoder.encode_batch

    def spy(seqs, params, tape):
        calls[-1].add(threading.current_thread())
        barrier.wait()
        return real_encode_batch(seqs, params, tape)

    monkeypatch.setattr(encoder, "encode_batch", spy)
    return calls


def test_frozen_batch_threads_persist_across_calls(monkeypatch):
    """Two threaded calls at the long-probe shape run their batches on the
    same two threads; a call never starts threads of its own."""
    params = _cast(init_params(40, 300, 128, seed=4), np.float32)
    calls = _spy_thread_objects(monkeypatch, 2, 2)
    for seed in (4, 5):
        calls.append(set())
        encode_sentences(_ragged_ids(256, 40, seed=seed), params)
    assert len(calls[0]) == 2 and calls[1] == calls[0]
    assert threading.current_thread() not in calls[0]


def test_a_changed_cpu_count_gets_a_pool_of_its_size(monkeypatch):
    """Three batches in flight at once need three threads; back at two CPUs
    a new pool of at most two threads runs them."""
    params = _cast(init_params(40, 300, 128, seed=6), np.float32)
    seqs = _ragged_ids(384, 40, seed=6)
    calls = _spy_thread_objects(monkeypatch, 3, 3)
    calls.append(set())
    want = encode_sentences(seqs, params)
    assert len(calls[0]) == 3
    monkeypatch.undo()
    again = _spy_thread_objects(monkeypatch, 2, 1)
    again.append(set())
    np.testing.assert_array_equal(encode_sentences(seqs, params), want)
    assert len(again[0]) <= 2 and again[0].isdisjoint(calls[0])


def test_a_frozen_batch_never_holds_the_whole_input_projection():
    """B=128, T=40, E=300, H=128 in float32: the (2, T, B, 4H) projection
    is gathered only a chunk of steps at a time. Measured 17.3 MB (30.2 MB
    when the inputs were gathered whole); holding the whole projection
    took 43.0 MB."""
    B, T, E, H = 128, 40, 300, 128
    params = _cast(init_params(50, E, H, seed=9), np.float32)
    seqs = np.random.default_rng(9).integers(2, 50, size=(B, T)).tolist()
    inputs, projection = (2 * T * B * w * 4 for w in (E, 4 * H))
    tracemalloc.start()
    try:
        encode_batch(seqs, params, Tape(recording=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inputs + projection, (peak, inputs, projection)


# --------------------------------------------------------------------------
# the per-batch projection table and the frozen max pool, bit for bit
# --------------------------------------------------------------------------

TABLE_CASES = {
    "one-repeated-id": [[7] * 5, [7] * 5, [7] * 5],  # U = 1, B = 3: no PAD either
    "one-sentence": [[2, 9, 4, 9, 30, 2, 17, 5, 11, 3]],  # B = 1: a GEMV a row
    "ragged": [[2, 9, 4, 9], [30, 2], [17, 5, 11, 3, 9, 9, 2, 4, 8, 12, 6]],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("embed_dim, hidden", [(32, 32), (300, 128), (3, 4)])
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_rows_equal_the_reference_bit_for_bit(case, embed_dim, hidden, dtype):
    params = _cast(init_params(40, embed_dim, hidden, seed=12), dtype)

    def run(encode):
        return encode(TABLE_CASES[case], params, Tape(recording=False)).value, {}

    _assert_same_run(run)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_ids_and_rows_are_those_of_np_unique(case):
    emb, w_x = np.arange(40.0)[:, None].repeat(3, axis=1), np.ones((2, 3, 8))
    ids = np.array([s + [PAD_ID] * (11 - len(s)) for s in TABLE_CASES[case]])
    steps = np.ascontiguousarray(np.stack([ids.T, ids.T[::-1]]))
    u, inv = np.unique(steps, return_inverse=True)
    table, rows = encoder._project(emb, steps, w_x)
    half = len(table) // 2
    table_ids = table[:half, 0] / 3  # id i's embedding row is all i
    assert np.array_equal(np.unique(table_ids), u) and np.all(np.diff(table_ids) >= 0)
    assert np.array_equal(rows, inv.reshape(steps.shape) + [[[0]], [[half]]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_keeps_recorded_rows_and_gradients_bit_for_bit(case, dtype):
    params = _cast(init_params(40, 32, 32, seed=13, init_gain=6.0), dtype)
    seqs = TABLE_CASES[case]
    weights = np.random.default_rng(13).standard_normal((len(seqs), 64)).astype(dtype)
    _assert_same_run(_weighted_step(params, seqs, weights))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frozen_pool_keeps_the_first_signed_zero_and_nan(dtype):
    """The output gate's bias pins o at +0.0, so h = o * tanh(c) is a zero
    with the sign of the cell, which the g gate takes from the token: id 2
    gives +0.0, id 3 gives -0.0 and id 4 (a NaN embedding) gives NaN. The
    pool's maxima are then zero ties that a plain ``max`` settles as +0.0
    and NaNs; the rows must be the first-position argmax's, as the
    reference's, in an unmasked batch."""
    params = init_params(6, 1, 2, seed=15)
    arrays = {k: v.astype(dtype) for k, v in params.named_arrays().items()}
    arrays["embedding"][2:5, 0] = 5.0, -5.0, np.nan
    for d in ("fwd", "bwd"):
        arrays[f"{d}.w_h"][:] = 0.0
        arrays[f"{d}.w_x"][:] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]  # g from x alone
        arrays[f"{d}.b"][:] = [0.0, 0.0, -1e3, -1e3, -1e3, -1e3, 0.0, 0.0]  # f = o = +0.0
    params = EncoderParams(arrays)
    seqs = [[3, 2, 2], [2, 3, 3], [3, 4, 2], [2, 2, 3]]

    rows = encode_batch(seqs, params, Tape(recording=False)).value
    want = lstm_reference.encode_batch(seqs, params, Tape(recording=False)).value
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()  # NaN != NaN
    assert np.signbit(rows[0]).all() and not np.signbit(rows[1]).any()
    assert np.isnan(rows[2]).all() and not np.isnan(rows[3]).any()


def test_a_frozen_batch_holds_no_gathered_inputs():
    """B=128, T=40, E=300, H=128 in float32. Gathering the (2, T, B, E)
    inputs would hold them beside the states and one chunk of projections
    (21.7 MB together), and the inputs were held whole until the table
    replaced them (30.2 MB). Measured 17.3 MB."""
    B, T, E, H = 128, 40, 300, 128
    params = _cast(init_params(50, E, H, seed=9), np.float32)
    seqs = np.random.default_rng(9).integers(2, 50, size=(B, T)).tolist()
    inputs, states = (2 * T * B * w * 4 for w in (E, H))
    chunk = 2 * encoder._CHUNK * B * 4 * H * 4
    tracemalloc.start()
    try:
        encode_batch(seqs, params, Tape(recording=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inputs + states + chunk, (peak, inputs, states, chunk)


_TABLE_ROWS_DIGEST = """
import hashlib
import numpy as np
from conssent import encoder
from conssent.autodiff import Tape
params = encoder.init_params(6000, 300, 128, seed=16)
params = encoder.EncoderParams({k: v.astype(np.float32) for k, v in params.named_arrays().items()})
ids = np.random.default_rng(16).integers(2, 6000, size=(128, 40))
steps = np.ascontiguousarray(np.stack([ids.T, ids.T[::-1]]))
table, _ = encoder._project(params.embedding, steps, np.stack([params.fwd.w_x, params.bwd.w_x]))
rows = encoder.encode_batch(ids.tolist(), params, Tape(recording=False)).value
print(len(table) // 2, hashlib.sha256(table.tobytes() + rows.tobytes()).hexdigest())
"""


def test_table_rows_do_not_depend_on_the_blas_thread_count():
    """The CLI does not pin BLAS threads, and OpenBLAS may split a large
    GEMM's rows between them: a table of ~3,500 rows per direction, and
    the batch's rows, must have the same bytes on two threads as on one."""
    src = str(Path(encoder.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _TABLE_ROWS_DIGEST], capture_output=True,
                              text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert int(outputs[0][0]) > 3000
    assert outputs[0] == outputs[1]


def test_fused_op_is_one_tape_node():
    params = init_params(10, 3, 4, seed=25)
    tape = Tape()
    bound, _ = bind_params(params, tape)
    encode_batch([[2, 3, 4], [5]], bound, tape)
    assert len(tape) == 1


def test_pad_embedding_gets_no_gradient():
    params = init_params(vocab_size=10, embed_dim=3, hidden_size=3, seed=5)
    tape = Tape()
    bound, leaves = bind_params(params, tape)
    pooled = encode_batch([[2, 3, 4, 5], [6, 7]], bound, tape)
    tape.backward(lstm_reference.mean_all(pooled))
    emb_grad = leaves["embedding"].grad
    np.testing.assert_array_equal(emb_grad[PAD_ID], 0.0)
    np.testing.assert_array_equal(emb_grad[8], 0.0)  # token absent from batch
    assert np.abs(emb_grad[2]).sum() > 0.0


def test_empty_inputs_rejected():
    params = init_params(6, 2, 2)
    with pytest.raises(ValueError):
        encode_sentences([], params)
    with pytest.raises(DataError):
        encode_sentences([[]], params)


# --------------------------------------------------------------------------
# gradients through the whole model
# --------------------------------------------------------------------------


def test_full_model_gradcheck_binary():
    params = init_params(vocab_size=9, embed_dim=2, hidden_size=3, head_tasks=("D",), head_dim=4, seed=7)
    seqs = [[2, 3, 4], [5, 6]]
    labels = np.array([1, 0])

    def build(tape, leaves):
        bound = EncoderParams(leaves)
        pooled = encode_batch(seqs, bound, tape)
        return ad.softmax_xent(head_logits(pooled, bound.heads["D"]), labels)

    arrays = {k: v.copy() for k, v in params.named_arrays().items()}
    worst = finite_diff_check(arrays, build)
    assert worst < 1e-6, f"worst relative error {worst:.3e}"


def test_full_model_gradcheck_ranking():
    params = init_params(vocab_size=9, embed_dim=2, hidden_size=3, seed=8)
    lefts = [[2, 3], [4, 5, 6], [7, 8]]
    rights = [[3, 4], [5, 2], [6, 7, 8]]
    cand_idx = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    targets = np.array([0, 0, 0])

    def build(tape, leaves):
        bound = EncoderParams(leaves)
        a = encode_batch(lefts, bound, tape)
        r = encode_batch(rights, bound, tape)
        dots = ad.matmul(a, ad.transpose(r))
        scores = ad.gather_cols(dots, cand_idx)
        return ad.softmax_xent(scores, targets)

    arrays = {k: v.copy() for k, v in params.named_arrays().items()}
    worst = finite_diff_check(arrays, build)
    assert worst < 1e-6, f"worst relative error {worst:.3e}"


def test_head_logits_shape():
    params = init_params(8, 2, 3, head_tasks=("P",), head_dim=5)
    tape = Tape(recording=False)
    bound, _ = bind_params(params, tape)
    pooled = encode_batch([[2, 3], [4, 5]], bound, tape)
    logits = head_logits(pooled, bound.heads["P"])
    assert logits.value.shape == (2, 2)


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("rows_dtype, head_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.longdouble, np.longdouble),
    (np.float64, np.float32),  # validation's float64 rows on the stored float32 head
])
def test_frozen_head_logits_are_the_recording_tapes_bytes(rows_dtype, head_dtype, n):
    """The non-recording head (one hidden buffer, the bias added and the tanh
    taken in place) gives the recording tape's logits, with the head bound as
    leaves (as gradcheck's numeric losses bind it) and as plain arrays."""
    params = _cast(init_params(8, 2, 3, head_tasks=("P",), head_dim=64, seed=n, init_gain=6.0), head_dtype)
    rows = (np.random.default_rng(n).standard_normal((n, 6)) * 3).astype(rows_dtype)
    for bind in (False, True):
        logits = []
        for tape in (Tape(), Tape(recording=False)):
            heads = bind_params(params, tape)[0].heads if bind else params.heads
            logits.append(head_logits(tape.leaf(rows), heads["P"]).value)
        want, got = logits
        # a longdouble's padding bytes are undefined: compare values and signs
        assert got.dtype == want.dtype == np.result_type(rows_dtype, head_dtype)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        if got.dtype != np.longdouble:
            assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = init_params(10, 3, 4, head_tasks=("D", "C"), head_dim=6, seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"task": "D", "k": 2, "vocab_sha256": "ab" * 32})
    loaded, meta = load_checkpoint(path)
    assert meta["task"] == "D" and meta["k"] == 2
    assert meta["hidden_size"] == 4
    for name, arr in params.named_arrays().items():
        want = arr.astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(loaded.named_arrays()[name], want)


def _long_probe_like_params(vocab_size=4_000):
    """float64 params at E=300, H=128, and their float32 payload in bytes."""
    rng = np.random.default_rng(12)
    shapes = param_shapes(vocab_size, 300, 128, {})
    params = EncoderParams({name: rng.normal(size=shape) for name, shape in shapes.items()})
    return params, 4 * sum(math.prod(shape) for shape in shapes.values())


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_checkpoint_holds_one_copy_of_its_payload(tmp_path):
    """The arrays are read in place: no whole-file buffer, no float64 copy
    (the file's bytes plus a float64 copy were 3.0x the payload)."""
    params, payload = _long_probe_like_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    (loaded, _meta), peak = _traced_peak(load_checkpoint, path)
    assert peak <= 1.1 * payload, (peak, payload)
    for name, arr in loaded.named_arrays().items():
        assert arr.dtype == np.float32, name
        assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable, name
        assert arr.tobytes() == params.named_arrays()[name].astype("<f4").tobytes(), name


def test_saving_float64_params_holds_one_array_cast_at_a_time(tmp_path):
    """Each array is cast to float32 and written from that buffer (a
    ``tobytes`` copy on top of the cast made 1.46x the payload here, 1.85x
    at the long-probe vocabulary)."""
    params, payload = _long_probe_like_params()
    _, peak = _traced_peak(save_checkpoint, tmp_path / "m.ckpt", params)
    assert peak <= 1.1 * payload, (peak, payload)


class _FullDisk:
    """An array stand-in whose write fails as a full disk would."""

    def __init__(self, shape):
        self.shape = shape

    def __array__(self, dtype=None, copy=None):
        raise OSError(28, "No space left on device")


def test_a_failed_save_leaves_the_checkpoint_it_would_replace(tmp_path):
    path = tmp_path / "model.ckpt"
    old = init_params(6, 2, 2, seed=1)
    save_checkpoint(path, old)
    before = path.read_bytes()
    arrays = dict(init_params(6, 2, 2, seed=2).named_arrays())
    third = list(arrays)[2]
    arrays[third] = _FullDisk(arrays[third].shape)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, EncoderParams(arrays))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
    loaded, _meta = load_checkpoint(path)
    for name, arr in old.named_arrays().items():
        assert loaded.named_arrays()[name].tobytes() == arr.astype("<f4").tobytes(), name


def test_head_probs_read_the_model_a_checkpoint_stores(tmp_path):
    """float64 parameters give, bit for bit, the head readout of their saved
    and reloaded checkpoint: an in-memory ensemble member is scored as the
    stored one is."""
    params = init_params(30, 16, 12, head_tasks=("D",), head_dim=8, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    loaded, _meta = load_checkpoint(path)
    seqs = _ragged_ids(300, 30, seed=3)
    got = encoder.head_probs(seqs, params, "D")
    want = encoder.head_probs(seqs, loaded, "D")
    _assert_bitwise_equal(got, want, "head_probs")
    assert all(a.dtype == np.float64 for a in params.named_arrays().values())


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    params = init_params(7, 2, 3, head_tasks=("R",), seed=11)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, meta={"task": "R"})
    loaded, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded, meta={"task": meta["task"]})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_params(6, 2, 2, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(DataError):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_short_header(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(b"CSNT\x01")
    with pytest.raises(DataError, match="truncated header"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("vocab_size", None, "vocab_size"),  # None: drop the key
        ("embed_dim", None, "embed_dim"),
        ("hidden_size", None, "hidden_size"),
        ("heads", {"D": {"classes": 2}}, "hidden"),
        ("heads", ["D"], "mistypes"),
        ("vocab_size", "six", "non-negative integers"),
        ("hidden_size", 2.0, "non-negative integers"),
        ("embed_dim", -1, "non-negative integers"),
        ("heads", {"a.b": {"hidden": 3, "classes": 2}}, "head name"),  # names split on "."
    ],
)
def test_checkpoint_rejects_bad_shape_meta(tmp_path, key, value, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(6, 2, 2, head_tasks=("D",), head_dim=3, seed=1))
    _rewrite_meta(path, {key: value})
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_checkpoint_rejects_sizes_whose_product_wraps_int64(tmp_path):
    # 2**62 * 4 is 0 in int64 arithmetic, which once let a zero-length read
    # through to a reshape error instead of a DataError.
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(6, 2, 2, seed=1))
    _rewrite_meta(path, {"vocab_size": 2**62, "embed_dim": 4})
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def _rewrite_meta(path, changes):
    """Replace the checkpoint's metadata keys; a None value drops the key."""
    blob = path.read_bytes()
    meta_len = struct.unpack_from("<I", blob, 8)[0]
    meta = json.loads(blob[12 : 12 + meta_len])
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    new_meta = json.dumps(meta).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(new_meta)) + new_meta + blob[12 + meta_len :])


# Sizes that are valid, empty, astronomically large or of the wrong type.
_META_SIZE = st.sampled_from([0, 1, 2, 3, 2**62, 2**63, 10**30, -1, 2.0, "2", None, True, [2]])


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(
    {"vocab_size": _META_SIZE, "embed_dim": _META_SIZE, "hidden_size": _META_SIZE},
    optional={"heads": st.one_of(_META_SIZE, st.dictionaries(
        st.sampled_from(["D", "R", "a.b"]),
        st.one_of(_META_SIZE, st.dictionaries(st.sampled_from(["hidden", "classes"]), _META_SIZE)),
        max_size=2))},
))
@example({"vocab_size": 0, "embed_dim": 0, "hidden_size": 10**30})  # empty, yet too wide for numpy
@example({"vocab_size": 10**12, "embed_dim": 300})  # more floats than any file holds, or memory
def test_load_checkpoint_raises_only_package_errors(tmp_path_factory, changes):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, init_params(6, 2, 2, head_tasks=("D",), head_dim=3, seed=1))
    _rewrite_meta(path, changes)
    try:
        load_checkpoint(path)
    except ConsSentError:
        pass


@pytest.mark.parametrize("blob", [b"[" * 100_000, b"1" * 5_000], ids=["too_deep", "too_long_a_number"])
def test_checkpoint_rejects_json_python_cannot_read(tmp_path, blob):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"CSNT" + struct.pack("<II", 1, len(blob)) + blob)
    with pytest.raises(DataError, match="corrupt metadata"):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    params = init_params(6, 2, 2, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_checkpoint(path)


_LAYOUTS = [{}, {"R": (5, 2)}, {"D": (3, 2), "C": (6, 4)}]  # task -> (hidden, classes)


@pytest.mark.parametrize("heads", _LAYOUTS, ids=["no_head", "one_head", "two_widths"])
def test_init_params_builds_param_shapes(heads):
    for head_dim in (3, 6):
        params = init_params(9, 3, 4, head_tasks=tuple(heads), head_dim=head_dim, seed=1)
        want = param_shapes(9, 3, 4, dict.fromkeys(heads, (head_dim, 2)))
        assert [(n, a.shape) for n, a in params.named_arrays().items()] == list(want.items())


@pytest.mark.parametrize("heads", _LAYOUTS, ids=["no_head", "one_head", "two_widths"])
def test_checkpoints_store_param_shapes(tmp_path, heads):
    shapes = param_shapes(9, 3, 4, heads)
    rng = np.random.default_rng(0)
    params = EncoderParams({name: rng.normal(size=shape) for name, shape in shapes.items()})
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params)
    loaded, _meta = load_checkpoint(a)
    assert [(n, x.shape) for n, x in loaded.named_arrays().items()] == list(shapes.items())
    save_checkpoint(b, loaded)
    assert a.read_bytes() == b.read_bytes()


def test_copy_params_is_independent():
    params = init_params(6, 2, 2, head_tasks=("I",), seed=2)
    clone = copy_params(params)
    clone.embedding[0, 0] = 123.0
    clone.heads["I"].w1[0, 0] = 123.0
    assert params.embedding[0, 0] != 123.0
    assert params.heads["I"].w1[0, 0] != 123.0
