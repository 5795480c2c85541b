"""Bidirectional LSTM sentence encoder with max pooling over positions.

The representation of a sentence is built by running an LSTM over the
token embeddings left-to-right and another right-to-left, concatenating
the two hidden states at every position, and taking the elementwise max
over positions. Classification heads are two-layer perceptrons applied on
top of (pairs of) these fixed-size vectors.

The whole BiLSTM-max is one tape op, ``bilstm_max``: a table of each
distinct id's input projection, a recurrence that steps both directions
together, and, on a recording tape only, caches gates, states and the pool
argmax for a hand-written backpropagation through time. Values and
gradients are bit-identical to the per-op graph this op replaced (kept in
the tests as the oracle): the backward forms each intermediate with the
same operations and association, and adds one term per timestep into each
parameter's gradient in that graph's reverse order, continuing any running
sum the parameter already holds. Training is chaotic: anything looser would
change trained models. ``param_shapes`` is the one parameter layout.
"""

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import parallel
from .corpus import PAD_ID
from .errors import DataError
from .rng import INIT, RngStream, stream

_MAGIC = b"CSNT"
_FORMAT_VERSION = 1
_NEG_BIG = 1e30
_CHUNK = 8  # steps whose input projections _scan gathers at once
_THREAD_WORK = 3_000_000  # per-step multiply-adds from which frozen batches get threads
_FROZEN_BATCH = 128  # sentences per frozen batch
_batch_pool: ThreadPoolExecutor | None = None  # frozen batches' threads, kept across calls


class LstmWeights(NamedTuple):
    """One direction's parameters; gate order along columns is i, f, o, g."""

    w_x: object
    w_h: object
    b: object


class HeadWeights(NamedTuple):
    """Two-layer perceptron: in -> tanh(hidden) -> out."""

    w1: object
    b1: object
    w2: object
    b2: object


def param_shapes(vocab_size: int, embed_dim: int, hidden: int, heads: dict) -> dict:
    """Every parameter's name -> shape in checkpoint order: the one layout.

    ``heads`` maps each task to its head's (hidden, classes) widths; heads
    follow the encoder in sorted task order. ``init_params`` draws in this
    order, ``load_checkpoint`` reads in it, and ``EncoderParams`` builds its
    views from these names.
    """
    V, E, H = vocab_size, embed_dim, hidden
    shapes = {"embedding": (V, E)}
    for d in ("fwd", "bwd"):
        shapes |= {f"{d}.w_x": (E, 4 * H), f"{d}.w_h": (H, 4 * H), f"{d}.b": (4 * H,)}
    for task in sorted(heads):
        n, k = heads[task]
        shapes |= {f"head.{task}.w1": (2 * H, n), f"head.{task}.b1": (n,),
                   f"head.{task}.w2": (n, k), f"head.{task}.b2": (k,)}
    return shapes


class EncoderParams:
    """The parameters as one flat name -> array dict in ``param_shapes``
    order. Values are arrays, or tape Vars once bound (``bind_params``);
    ``embedding``, ``fwd``, ``bwd``, ``heads`` and the sizes are read-only
    views of that dict."""

    __slots__ = ("_arrays",)

    def __init__(self, arrays: dict):
        self._arrays = arrays

    def named_arrays(self) -> dict:
        """The flat name -> array dict itself, in checkpoint order."""
        return self._arrays

    @property
    def embedding(self):
        return self._arrays["embedding"]

    @property
    def fwd(self) -> LstmWeights:
        return LstmWeights(*(self._arrays[f"fwd.{f}"] for f in LstmWeights._fields))

    @property
    def bwd(self) -> LstmWeights:
        return LstmWeights(*(self._arrays[f"bwd.{f}"] for f in LstmWeights._fields))

    @property
    def heads(self) -> dict:
        tasks = dict.fromkeys(n.split(".")[1] for n in self._arrays if n.startswith("head."))
        return {t: HeadWeights(*(self._arrays[f"head.{t}.{f}"] for f in HeadWeights._fields))
                for t in tasks}

    @property
    def hidden_size(self) -> int:
        return _value_of(self._arrays["fwd.w_h"]).shape[0]

    @property
    def embed_dim(self) -> int:
        return _value_of(self.embedding).shape[1]

    @property
    def vocab_size(self) -> int:
        return _value_of(self.embedding).shape[0]


def _value_of(x):
    return x.value if isinstance(x, ad.Var) else x


def _uniform_array(rng: RngStream, shape: tuple, lo: float, hi: float) -> np.ndarray:
    """``rng.uniform(lo, hi)`` per element, bit for bit, from one block draw."""
    flat = np.empty(math.prod(shape))
    rng.fill_u32(flat)
    # The same operations in the same order as RngStream.uniform.
    flat *= 2.0**-32
    flat *= hi - lo
    flat += lo
    return flat.reshape(shape)


def init_params(
    vocab_size: int,
    embed_dim: int,
    hidden_size: int,
    head_tasks: tuple = (),
    head_dim: int = 64,
    seed: int = 0,
    stream_item: int = 0,
    init_gain: float = 1.0,
) -> EncoderParams:
    """Fresh parameters from the (seed, INIT, stream_item) stream.

    Embeddings are U(-0.1, 0.1); every other weight matrix starts at
    U(-g/sqrt(fan), g/sqrt(fan)) where g is ``init_gain``. Biases are zero
    except the forget gate at 1. With the small fixed embedding range,
    gain 1 leaves both the gate pre-activations and the gradient flowing
    back to the embeddings so faint that plain SGD barely moves at desk
    scale, so trainers default to a larger gain. Draw order is fixed, so a
    given seed always produces the same model; ``stream_item`` separates
    sibling models built under one seed (e.g. the two encoders of a
    multitask run).
    """
    rng = stream(seed, INIT, item=stream_item)
    arrays = {}
    heads = dict.fromkeys(head_tasks, (head_dim, 2))  # binary tasks only
    for name, shape in param_shapes(vocab_size, embed_dim, hidden_size, heads).items():
        if len(shape) == 1:
            arrays[name] = np.zeros(shape)
            if name.endswith(".b"):  # forget gate starts open
                arrays[name][hidden_size : 2 * hidden_size] = 1.0
        elif name == "embedding":
            arrays[name] = _uniform_array(rng, shape, -0.1, 0.1)
        else:  # an LSTM matrix has fan H, a head matrix its input width
            r = 1.0 / np.sqrt(hidden_size if name.startswith(("fwd.", "bwd.")) else shape[0])
            arrays[name] = _uniform_array(rng, shape, -r, r)
            arrays[name] *= init_gain
    return EncoderParams(arrays)


def bind_params(params: EncoderParams, tape: ad.Tape) -> tuple[EncoderParams, dict]:
    """Wrap every parameter array as a leaf Var on the tape.

    Returns the Var-valued view plus a flat name -> leaf dict for reading
    gradients out after the backward sweep.
    """
    leaves = {name: tape.leaf(arr) for name, arr in params.named_arrays().items()}
    return EncoderParams(leaves), leaves


class _PairSum:
    """Running gradients of a (forward, backward) pair of operands.

    Terms arrive stacked (2, ...). The first one is assigned, or added to
    a gradient the operand already holds, exactly as ``autodiff._accum``
    did on the per-op tape; later terms are added in place into the
    stacked array this op owns. Constants (non-Var operands) take nothing.
    """

    __slots__ = ("pair", "total")

    def __init__(self, pair):
        self.pair = pair
        self.total = None

    def add(self, terms: np.ndarray) -> None:
        if self.total is not None:
            self.total += terms
            return
        self.total = np.stack([
            t if not isinstance(v, ad.Var) or v.grad is None else v.grad + t
            for v, t in zip(self.pair, terms)
        ])

    def done(self) -> None:
        for v, total in zip(self.pair, self.total):
            if isinstance(v, ad.Var):
                v.grad = total


def _scatter_rows(emb, dx: np.ndarray, steps: np.ndarray) -> None:
    """Add per-step embedding-row gradients into ``emb.grad``.

    ``dx`` (2, T, B, E) and ``steps`` (2, T, B) follow the step layout of
    ``_scan``. Repeats of an id within one step are summed in batch order
    first, as the per-op gather did into a zero matrix; then each step's
    rows join the running sum in the per-op tape's order: the backward
    direction's steps first, then the forward direction's, last step first.
    """
    if not isinstance(emb, ad.Var):
        return
    V, E = emb.value.shape
    T = steps.shape[1]
    # one slot per distinct (direction, step, id), sorted by step then id
    step_of = np.arange(2 * T).reshape(2, T, 1)
    keys, slot = np.unique(steps + V * step_of, return_inverse=True)
    part = np.zeros((len(keys), E), dtype=emb.value.dtype)
    np.add.at(part, slot.ravel(), dx.reshape(-1, E))
    bounds = np.searchsorted(keys, V * np.arange(2 * T + 1))
    rows = keys % V
    total = np.zeros_like(emb.value) if emb.grad is None else emb.grad.copy()
    for d in (1, 0):
        for k in range(T - 1, -1, -1):
            lo, hi = bounds[d * T + k], bounds[d * T + k + 1]
            total[rows[lo:hi]] += part[lo:hi]
    emb.grad = total


def _project(emb: np.ndarray, steps: np.ndarray, w_x: np.ndarray):
    """The (2*U, 4H) table of each distinct id's projection and the (2, T, B)
    row of each step in it. An OpenBLAS GEMM row rounds the same for any row
    count M >= 2, so a table row is a B >= 2 batch's per-step ``x_t @ w_x``
    row (a lone id goes in twice); at B = 1 a step is a GEMV, so each row is.
    A vocabulary lookup finds the sorted distinct ids (``np.unique`` sorts)."""
    seen = np.zeros(len(emb), dtype=bool)
    seen[steps[0]] = True  # direction 1 holds the same ids
    u = np.flatnonzero(seen)
    row_of = np.empty(len(emb), dtype=np.intp)
    row_of[u] = np.arange(len(u))
    if steps.shape[2] == 1:
        table = emb[u][:, None] @ w_x[:, None]  # (2, U, 1, 4H): one GEMV a row
    else:
        table = emb[u if len(u) > 1 else u.repeat(2)] @ w_x  # one GEMM a direction
    rows = row_of[steps]
    rows[1] += table.shape[1]  # direction 1's rows follow direction 0's
    return table.reshape(-1, table.shape[-1]), rows


def _scan(table, rows, w_h, b, mask, keep, cache):
    """Both directions' recurrences, stepped together; returns the hidden
    states (2, T, B, H). Everything is laid out (2, T, B, ...) in step
    order: direction 1 reads right to left, so its step k is position T-1-k.
    Each step adds ``h @ w_h``, its ``table`` row and ``b`` in the per-op
    order, the rows gathered ``_CHUNK`` steps at a time (measured faster
    than per step). When ``cache`` is a list, each step appends what its
    backward needs: (sigmoid gates, tanh gate, c before, h, tanh(c after))."""
    _, T, B = rows.shape
    H = w_h.shape[1]
    hs = np.empty((2, T, B, H), dtype=np.result_type(table, w_h, b))
    h = np.zeros((2, B, H), dtype=hs.dtype)
    c = np.zeros((2, B, H), dtype=hs.dtype)
    for k in range(T):
        if k % _CHUNK == 0:
            xw = table[rows[:, k : k + _CHUNK]]
        z = h @ w_h  # one BLAS call per direction
        z += xw[:, k % _CHUNK]
        z += b
        s = ad.stable_sigmoid(z[..., : 3 * H])  # i, f, o in one call
        g = np.tanh(z[..., 3 * H :])
        c_new = s[..., H : 2 * H] * c + s[..., :H] * g
        tc = np.tanh(c_new)
        h_new = s[..., 2 * H :] * tc
        if cache is not None:
            cache.append((s, g, c, h, tc))
        if mask is None:
            c, h = c_new, h_new
        else:  # padded steps carry the state through unchanged
            c = c_new * mask[:, k] + c * keep[:, k]
            h = h_new * mask[:, k] + h * keep[:, k]
        hs[:, k] = h
    return hs


def _bptt(pool, x, w_x, w_h, mask, keep, cache, sums):
    """Backward through both directions, step k = T-1 down to 0.

    ``pool`` (2, T, B, H) is the max-pool gradient reaching each step's h.
    Each intermediate is formed with the operations, operand order and
    association the per-op tape used, and each weight gets one term per
    step in that tape's order, so values and rounding match it bit for
    bit. Returns the embedding-row gradients (2, T, B, E) for the caller
    to scatter in the tape's order.
    """
    T = pool.shape[1]
    H = w_h.shape[1]
    sum_x, sum_h, sum_b = sums
    dx = np.empty(pool.shape[:3] + (w_x.shape[1],), dtype=pool.dtype)
    dh = pool[:, T - 1]  # the last step's h feeds only the pool
    dc = None  # the last step's c feeds nothing
    for k in range(T - 1, -1, -1):
        s, g, c_prev, h_prev, tc = cache[k]
        dhn = dh if mask is None else dh * mask[:, k]
        dcn = (dhn * s[..., 2 * H :]) * (1.0 - tc * tc)
        if dc is not None:
            dcn = (dc if mask is None else dc * mask[:, k]) + dcn
        ds = np.empty_like(s)  # upstream grads of the i, f, o gates
        np.multiply(dcn, g, out=ds[..., :H])
        np.multiply(dcn, c_prev, out=ds[..., H : 2 * H])
        np.multiply(dhn, tc, out=ds[..., 2 * H :])
        dz = np.empty(s.shape[:2] + (4 * H,), dtype=ds.dtype)
        dz[..., : 3 * H] = (ds * s) * (1.0 - s)
        dz[..., 3 * H :] = (dcn * s[..., :H]) * (1.0 - g * g)
        sum_b.add(dz.sum(axis=1))
        sum_h.add(h_prev.transpose(0, 2, 1) @ dz)
        sum_x.add(x[:, k].transpose(0, 2, 1) @ dz)
        np.matmul(dz, w_x.transpose(0, 2, 1), out=dx[:, k])
        if k > 0:
            f = s[..., H : 2 * H]
            if mask is None:
                dh = pool[:, k - 1] + dz @ w_h.transpose(0, 2, 1)
                dc = dcn * f
            else:
                dh = (pool[:, k - 1] + dh * keep[:, k]) + dz @ w_h.transpose(0, 2, 1)
                dc = dcn * f if dc is None else dc * keep[:, k] + dcn * f
    return dx


def _max_pool(hcat: np.ndarray) -> np.ndarray:
    """Max over positions, bit for bit the first argmax's value, without
    the copy ``argmax`` over the leading axis makes. ``max`` may settle a
    tie of signed zeros or NaNs differently, so those columns take argmax."""
    out = hcat.max(axis=0)
    odd = (out == 0) | np.isnan(out)
    cols = hcat[:, odd]
    out[odd] = cols[np.argmax(cols, axis=0), np.arange(cols.shape[1])]
    return out


def bilstm_max(ids: np.ndarray, mask, emb, fwd: LstmWeights, bwd: LstmWeights, tape: ad.Tape) -> ad.Var:
    """Both LSTM directions over padded (B, T) ids, max-pooled: one tape node.

    ``_project`` tables each distinct id's input projection (a GEMM of two
    rows at least, a GEMV a row when B = 1), and ``_scan`` steps both
    directions together. ``mask`` is None for a full batch, else (B, T)
    with 1 on real tokens. Everything runs in the dtype of the parameters.
    Only a recording tape keeps gates, states and the pool argmax, and only
    its backward gathers the (2, T, B, E) embeddings, for ``w_x``'s gradient.
    """
    B, T = ids.shape
    # (2, T, B) token ids in step order; direction 1 runs right to left.
    # C order keeps each gathered x[d, k] laid out like a per-step gather.
    steps = np.ascontiguousarray(np.stack([ids.T, ids.T[::-1]]))
    e = _value_of(emb)
    w_x, w_h, b = (np.stack([_value_of(p), _value_of(q)]) for p, q in zip(fwd, bwd))
    H = w_h.shape[1]
    m = keep = None
    if mask is not None:
        m = mask.T[:, :, None].astype(e.dtype, copy=False)  # (T, B, 1)
        m = np.stack([m, m[::-1]])
        keep = 1.0 - m
    cache = [] if tape.recording else None
    hs = _scan(*_project(e, steps, w_x), w_h, b[:, None], m, keep, cache)
    hcat = np.concatenate([hs[0], hs[1, ::-1]], axis=2)  # (T, B, 2H) by position
    if m is not None:  # padded positions can never win the pool
        hcat += (m[0] - 1.0) * _NEG_BIG
    if cache is None:
        return tape._push(_max_pool(hcat), None)
    idx = np.argmax(hcat, axis=0)  # first position wins ties
    out = np.take_along_axis(hcat, idx[None], axis=0)[0]

    def back(g):
        pool = np.zeros((T, B, 2 * H), dtype=g.dtype)
        np.put_along_axis(pool, idx[None], g[None], axis=0)
        pool = np.stack([pool[:, :, :H], pool[::-1, :, H:]])
        sums = [_PairSum(pair) for pair in zip(fwd, bwd)]  # w_x, w_h, b
        dx = _bptt(pool, e[steps], w_x, w_h, m, keep, cache, sums)
        for leaf_pair in sums:
            leaf_pair.done()
        _scatter_rows(emb, dx, steps)

    return tape._push(out, back)


def encode_batch(seqs: list, params: EncoderParams, tape: ad.Tape) -> ad.Var:
    """Encode a batch of id sequences into a (B, 2H) Var.

    Ragged batches are padded with PAD ids and masked: padded steps leave
    the recurrent state untouched and are pinned far below any reachable
    activation before the position max, so they can never win the pool.
    """
    if not seqs:
        raise ValueError("empty batch")
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    if lengths.min() == 0:
        raise DataError("cannot encode an empty sentence")
    real = np.arange(lengths.max()) < lengths[:, None]  # (B, T)
    ids = np.full(real.shape, PAD_ID, dtype=np.int64)
    ids[real] = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=lengths.sum())
    mask = None if real.all() else real.astype(np.float64)
    return bilstm_max(ids, mask, params.embedding, params.fwd, params.bwd, tape)


def encode_sentences(seqs: list, params: EncoderParams) -> np.ndarray:
    """Frozen encodings as a plain (N, 2H) float64 array; no tape kept. The
    encoder runs in the dtype of ``params`` (float32 params, float32 math).

    Each distinct id sequence is encoded once (the probe tasks share many
    sentences; toy corpora repeat some). The distinct ones are sorted by length (a stable
    sort) and encoded in runs of ``_FROZEN_BATCH``, so each batch pads only up
    to its own longest sentence; one index then gathers the rows into input
    order, so row i encodes ``seqs[i]``. The bytes are those of encoding
    every input, since a row does not depend on which sentences share its
    batch, except that numpy computes a batch of one with GEMV instead of
    GEMM, which rounds differently: so a lone last sentence joins the batch
    before it, and n >= 2 copies of one sentence make a batch of two.

    The batches run on one thread per usable CPU (``parallel.usable_cpus``)
    when the first batch's per-step multiply-adds, B*(E+H)*4H, reach
    ``_THREAD_WORK``; numpy releases the GIL inside each step's BLAS calls
    and ufuncs. Each batch writes its own rows, so the bytes are the same
    either way. The threads persist across calls, as do their malloc arenas.
    """
    if not seqs:
        raise ValueError("no sentences to encode")
    row_of: dict = {}  # distinct id sequence -> its row
    inv = [row_of.setdefault(tuple(s), len(row_of)) for s in seqs]
    distinct = list(row_of)
    if len(distinct) == 1 < len(seqs):
        distinct *= 2
    n = len(distinct)
    order = np.argsort([len(s) for s in distinct], kind="stable")
    bounds = list(range(0, n, _FROZEN_BATCH)) + [n]
    if n > _FROZEN_BATCH and n % _FROZEN_BATCH == 1:
        del bounds[-2]
    tape = ad.Tape(recording=False)
    out = np.empty((n, 2 * params.hidden_size))

    def encode(lo, hi):
        batch = order[lo:hi]
        out[batch] = encode_batch([distinct[i] for i in batch], params, tape).value

    E, H = params.embed_dim, params.hidden_size
    threads = min(parallel.usable_cpus(), len(bounds) - 1)
    if threads > 1 and bounds[1] * (E + H) * 4 * H >= _THREAD_WORK:
        global _batch_pool
        if _batch_pool is None or _batch_pool._max_workers != parallel.usable_cpus():
            _batch_pool = ThreadPoolExecutor(parallel.usable_cpus())  # a dropped pool's threads exit
        list(_batch_pool.map(encode, bounds, bounds[1:]))
    else:
        for lo, hi in zip(bounds, bounds[1:]):
            encode(lo, hi)
    return out if n == len(seqs) else out[inv]  # no repeats: rows already in input order


def head_logits(v: ad.Var, head: HeadWeights) -> ad.Var:
    """Two-layer perceptron with tanh between the layers. On a non-recording tape
    the hidden layer is one (N, hidden) buffer, biased and squashed in place by
    the tape ops' ufuncs in their order and dtype: the logits' bytes are the same."""
    if v.tape.recording:
        hidden = ad.tanh(ad.add(ad.matmul(v, head.w1), head.b1))
        return ad.add(ad.matmul(hidden, head.w2), head.b2)
    w1, b1, w2, b2 = map(_value_of, head)
    hidden = (v.value @ w1).astype(np.result_type(v.value, w1, b1), copy=False)
    hidden += b1
    np.tanh(hidden, out=hidden)
    out = (hidden @ w2).astype(np.result_type(hidden, w2, b2), copy=False)
    out += b2
    return v.tape._push(out, None)


def head_probs(seqs: list, params: EncoderParams, task: str) -> np.ndarray:
    """(N, classes) softmax of ``task``'s head over the frozen encodings of
    ``seqs``, read from the stored model (``as_stored``), as validation reads them."""
    if task not in params.heads:
        raise DataError(f"checkpoint has no classifier head for task {task!r}")
    params = as_stored(params)
    encodings = ad.Tape(recording=False).leaf(encode_sentences(seqs, params))
    return ad.softmax_rows(head_logits(encodings, params.heads[task]).value)


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, JSON metadata, then raw little-endian float32
# arrays in param_shapes() order.
# ---------------------------------------------------------------------------


def as_stored(params: EncoderParams) -> EncoderParams:
    """The float32 model ``save_checkpoint`` writes, which every frozen read
    (probes, ``head_probs``, validation) scores; float32 arrays are not copied."""
    return EncoderParams({n: a.astype(np.float32, copy=False) for n, a in params.named_arrays().items()})


def save_checkpoint(path, params: EncoderParams, meta: dict | None = None) -> None:
    """Write each array from its own float32 buffer to a file beside ``path``
    that then replaces it: a save that fails part-way leaves ``path`` as it was."""
    head_meta = {task: {"hidden": h.w1.shape[1], "classes": h.w2.shape[1]}
                 for task, h in params.heads.items()}
    full_meta = {
        "format_version": _FORMAT_VERSION,
        "vocab_size": params.vocab_size,
        "embed_dim": params.embed_dim,
        "hidden_size": params.hidden_size,
        "heads": head_meta,
        **(meta or {}),
    }
    blob = json.dumps(full_meta, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _FORMAT_VERSION, len(blob)))
            fh.write(blob)
            for arr in params.named_arrays().values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
    """A checkpoint's float32 arrays, each read in place once all extents fit the file, and its meta."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != _MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic {head[:4]!r})")
        if len(head) < 12:
            raise DataError(f"{path}: truncated header ({len(head)} bytes)")
        version, meta_len = struct.unpack_from("<II", head, 4)
        if version != _FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        try:
            meta = json.loads(fh.read(min(meta_len, size - 12)).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep or too long a number
            raise DataError(f"{path}: corrupt metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise DataError(f"{path}: metadata is not a JSON object")
        try:
            heads = {}
            for task, hm in meta.get("heads", {}).items():
                if "." in task:  # flat array names are split on "."
                    raise DataError(f"{path}: head name {task!r} contains '.'")
                heads[task] = (hm["hidden"], hm["classes"])
            shapes = param_shapes(meta["vocab_size"], meta["embed_dim"], meta["hidden_size"], heads)
        except (AttributeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: metadata lacks or mistypes {exc}") from exc
        if not all(type(n) is int and n >= 0 for shape in shapes.values() for n in shape):
            raise DataError(f"{path}: metadata sizes must be non-negative integers")

        end = 12 + meta_len
        for name, shape in shapes.items():
            end += 4 * math.prod(shape)
            if end > size:
                raise DataError(f"{path}: truncated at array {name!r}")
            try:  # only an empty array can have a dimension numpy cannot hold; it takes no memory
                math.prod(shape) or np.empty(shape, dtype="<f4")
            except ValueError as exc:
                raise DataError(f"{path}: array {name!r} cannot have shape {shape}: {exc}") from exc
        if end != size:
            raise DataError(f"{path}: {size - end} trailing bytes")
        arrays = {name: np.empty(shape, dtype="<f4") for name, shape in shapes.items()}
        for name, arr in arrays.items():
            if fh.readinto(arr) != arr.nbytes:  # the file shrank after its size was read
                raise DataError(f"{path}: truncated at array {name!r}")
    return EncoderParams(arrays), meta


def copy_params(params: EncoderParams) -> EncoderParams:
    """Deep copy of all arrays (used to snapshot the best validation model)."""
    return EncoderParams({name: arr.copy() for name, arr in params.named_arrays().items()})
