"""The per-op BiLSTM-max path, kept as a reference oracle for the fused op.

This is how ``encoder.encode_batch`` was written before ``bilstm_max``:
every timestep of every direction records a gather, two matmuls, two adds,
four column slices, four nonlinearities and the cell update (plus four
mask ops on a ragged batch), and the pool is a per-position concat, a
stack and a max over positions, all as separate tape nodes. The fused op
must reproduce its forward values and every leaf gradient bit for bit.
The nine ops below exist only for this path, and the package's tape does
not carry them: ``autodiff`` keeps the ops the fused encoder, the heads and
the losses run. The tests gradcheck these like the package's own ops and
build their scalar losses from ``mean_all`` and ``sum_all``.
"""

import numpy as np

from conssent import autodiff as ad
from conssent.corpus import PAD_ID
from conssent.encoder import EncoderParams, bind_params

_NEG_BIG = 1e30


def mul(a, b) -> ad.Var:
    tape = ad._tape_of(a, b)
    va, vb = ad._value(a), ad._value(b)
    out = va * vb

    def back(g):
        ad._accum(a, ad._unbroadcast(g * vb, va.shape))
        ad._accum(b, ad._unbroadcast(g * va, vb.shape))

    return tape._push(out, back)


def sigmoid(x) -> ad.Var:
    tape = ad._tape_of(x)
    s = ad.stable_sigmoid(ad._value(x))

    def back(g):
        ad._accum(x, g * s * (1.0 - s))

    return tape._push(s, back)


def gather_rows(x, ids) -> ad.Var:
    """Select rows of a matrix by integer index (embedding lookup)."""
    tape = ad._tape_of(x)
    vx = ad._value(x)
    ids = np.asarray(ids, dtype=np.int64)
    out = vx[ids]

    def back(g):
        gx = np.zeros_like(vx)
        np.add.at(gx, ids, g)
        ad._accum(x, gx)

    return tape._push(out, back)


def mean_all(x) -> ad.Var:
    tape = ad._tape_of(x)
    vx = ad._value(x)
    out = np.asarray(vx.mean())

    def back(g):
        ad._accum(x, np.full_like(vx, float(g) / vx.size))

    return tape._push(out, back)


def sum_all(x) -> ad.Var:
    tape = ad._tape_of(x)
    vx = ad._value(x)
    out = np.asarray(vx.sum())

    def back(g):
        ad._accum(x, np.full_like(vx, float(g)))

    return tape._push(out, back)


def slice_cols(x, start: int, stop: int) -> ad.Var:
    tape = ad._tape_of(x)
    vx = ad._value(x)
    out = vx[:, start:stop].copy()

    def back(g):
        gx = np.zeros_like(vx)
        gx[:, start:stop] = g
        ad._accum(x, gx)

    return tape._push(out, back)


def concat_cols(a, b) -> ad.Var:
    tape = ad._tape_of(a, b)
    va, vb = ad._value(a), ad._value(b)
    split = va.shape[1]
    out = np.concatenate([va, vb], axis=1)

    def back(g):
        ad._accum(a, g[:, :split])
        ad._accum(b, g[:, split:])

    return tape._push(out, back)


def stack_rows(xs) -> ad.Var:
    """Stack same-shape arrays along a new leading axis."""
    xs = list(xs)
    tape = ad._tape_of(*xs)
    out = np.stack([ad._value(x) for x in xs], axis=0)

    def back(g):
        for i, x in enumerate(xs):
            ad._accum(x, g[i])

    return tape._push(out, back)


def max_over_rows(x) -> ad.Var:
    """Elementwise max over the leading axis.

    The gradient flows only to the position that attains the max; on exact
    ties the lowest index wins (np.argmax returns the first occurrence).
    """
    tape = ad._tape_of(x)
    vx = ad._value(x)
    idx = np.argmax(vx, axis=0)
    out = np.take_along_axis(vx, idx[None, ...], axis=0)[0]

    def back(g):
        gx = np.zeros_like(vx)
        np.put_along_axis(gx, idx[None, ...], g[None, ...], axis=0)
        ad._accum(x, gx)

    return tape._push(out, back)


def _lstm_direction(ids, mask, emb, w, hidden, tape, reverse):
    """Run one direction over (B, T) ids; returns per-position h Vars."""
    B, T = ids.shape
    h = tape.leaf(np.zeros((B, hidden), dtype=emb.value.dtype))
    c = tape.leaf(np.zeros((B, hidden), dtype=emb.value.dtype))
    padded = mask is not None
    steps = range(T - 1, -1, -1) if reverse else range(T)
    hs = [None] * T
    for t in steps:
        x_t = gather_rows(emb, ids[:, t])
        z = ad.add(ad.add(ad.matmul(x_t, w.w_x), ad.matmul(h, w.w_h)), w.b)
        i_g = sigmoid(slice_cols(z, 0, hidden))
        f_g = sigmoid(slice_cols(z, hidden, 2 * hidden))
        o_g = sigmoid(slice_cols(z, 2 * hidden, 3 * hidden))
        g_g = ad.tanh(slice_cols(z, 3 * hidden, 4 * hidden))
        c_new = ad.add(mul(f_g, c), mul(i_g, g_g))
        h_new = mul(o_g, ad.tanh(c_new))
        if padded:
            m = mask[:, t : t + 1]  # (B, 1) constant
            c = ad.add(mul(c_new, m), mul(c, 1.0 - m))
            h = ad.add(mul(h_new, m), mul(h, 1.0 - m))
        else:
            c, h = c_new, h_new
        hs[t] = h
    return hs


def encode_batch(seqs: list, params: EncoderParams, tape: ad.Tape) -> ad.Var:
    """Per-op twin of ``conssent.encoder.encode_batch``."""
    lengths = [len(s) for s in seqs]
    B, T = len(seqs), max(lengths)
    ids = np.full((B, T), PAD_ID, dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[b, : len(s)] = s
    bound = params if isinstance(params.embedding, ad.Var) else bind_params(params, tape)[0]
    ragged = min(lengths) != T
    mask = None
    if ragged:  # in the params' dtype, like the state
        mask = np.zeros((B, T), dtype=bound.embedding.value.dtype)
        for b, n in enumerate(lengths):
            mask[b, :n] = 1.0

    hidden = bound.hidden_size
    hs_f = _lstm_direction(ids, mask, bound.embedding, bound.fwd, hidden, tape, reverse=False)
    hs_b = _lstm_direction(ids, mask, bound.embedding, bound.bwd, hidden, tape, reverse=True)

    per_pos = []
    for t in range(T):
        u = concat_cols(hs_f[t], hs_b[t])
        if ragged:
            u = ad.add(u, (mask[:, t : t + 1] - 1.0) * _NEG_BIG)
        per_pos.append(u)
    return max_over_rows(stack_rows(per_pos))
