"""Bidirectional LSTM sentence encoder with max pooling over positions.

The representation of a sentence is built by running an LSTM over the
token embeddings left-to-right and another right-to-left, concatenating
the two hidden states at every position, and taking the elementwise max
over positions. Classification heads are two-layer perceptrons applied on
top of (pairs of) these fixed-size vectors.

The whole BiLSTM-max is one tape op, ``bilstm_max``: one gather and one
input-projection matmul, a recurrence that steps both directions together
and, on a recording tape only, caches gates, states and the pool argmax
for a hand-written backpropagation through time. Values and gradients are
bit-identical to the per-op graph this op replaced (kept in the tests as
the oracle): the backward forms each intermediate with the same operations
and association, and adds one term per timestep into each parameter's
gradient in that graph's reverse order, continuing any running sum the
parameter already holds. Training here is chaotic, so anything looser
would change trained models.
"""

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .corpus import PAD_ID
from .errors import DataError
from .rng import INIT, RngStream, stream

_MAGIC = b"CSNT"
_FORMAT_VERSION = 1
_NEG_BIG = 1e30


@dataclass
class LstmWeights:
    """One direction's parameters; gate order along columns is i, f, o, g."""

    w_x: object  # (embed_dim, 4H)
    w_h: object  # (H, 4H)
    b: object  # (4H,)


@dataclass
class HeadWeights:
    """Two-layer perceptron: in -> tanh(hidden) -> out."""

    w1: object
    b1: object
    w2: object
    b2: object


@dataclass
class EncoderParams:
    embedding: object  # (vocab_size, embed_dim)
    fwd: LstmWeights
    bwd: LstmWeights
    heads: dict = field(default_factory=dict)

    @property
    def hidden_size(self) -> int:
        return _value_of(self.fwd.w_h).shape[0]

    @property
    def embed_dim(self) -> int:
        return _value_of(self.embedding).shape[1]

    @property
    def vocab_size(self) -> int:
        return _value_of(self.embedding).shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden_size

    def named_arrays(self) -> dict:
        """Flat name -> array view, in the fixed checkpoint order."""
        out = {
            "embedding": self.embedding,
            "fwd.w_x": self.fwd.w_x,
            "fwd.w_h": self.fwd.w_h,
            "fwd.b": self.fwd.b,
            "bwd.w_x": self.bwd.w_x,
            "bwd.w_h": self.bwd.w_h,
            "bwd.b": self.bwd.b,
        }
        for task in sorted(self.heads):
            head = self.heads[task]
            out[f"head.{task}.w1"] = head.w1
            out[f"head.{task}.b1"] = head.b1
            out[f"head.{task}.w2"] = head.w2
            out[f"head.{task}.b2"] = head.b2
        return out


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


def _init_lstm(rng: RngStream, embed_dim: int, hidden: int) -> LstmWeights:
    r = 1.0 / np.sqrt(hidden)
    w_x = _uniform_array(rng, (embed_dim, 4 * hidden), -r, r)
    w_h = _uniform_array(rng, (hidden, 4 * hidden), -r, r)
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget gate starts open
    return LstmWeights(w_x, w_h, b)


def _init_head(rng: RngStream, in_dim: int, hidden: int, out_dim: int) -> HeadWeights:
    r1 = 1.0 / np.sqrt(in_dim)
    r2 = 1.0 / np.sqrt(hidden)
    return HeadWeights(
        w1=_uniform_array(rng, (in_dim, hidden), -r1, r1),
        b1=np.zeros(hidden),
        w2=_uniform_array(rng, (hidden, out_dim), -r2, r2),
        b2=np.zeros(out_dim),
    )


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
    embedding = _uniform_array(rng, (vocab_size, embed_dim), -0.1, 0.1)
    fwd = _init_lstm(rng, embed_dim, hidden_size)
    bwd = _init_lstm(rng, embed_dim, hidden_size)
    for w in (fwd, bwd):
        w.w_x *= init_gain
        w.w_h *= init_gain
    heads = {}
    for task in sorted(head_tasks):
        head = _init_head(rng, 2 * hidden_size, head_dim, 2)  # binary tasks only
        head.w1 *= init_gain
        head.w2 *= init_gain
        heads[task] = head
    return EncoderParams(embedding, fwd, bwd, heads)


def params_view(leaves: dict) -> EncoderParams:
    """Reassemble an EncoderParams structure from a flat name -> value dict.

    Head names are recovered from the ``head.<task>.w1`` keys, so the dict
    alone fully determines the shape of the result. Values may be Vars or
    plain arrays.
    """
    fwd = LstmWeights(leaves["fwd.w_x"], leaves["fwd.w_h"], leaves["fwd.b"])
    bwd = LstmWeights(leaves["bwd.w_x"], leaves["bwd.w_h"], leaves["bwd.b"])
    tasks = sorted(n.split(".")[1] for n in leaves if n.startswith("head.") and n.endswith(".w1"))
    heads = {
        task: HeadWeights(
            leaves[f"head.{task}.w1"],
            leaves[f"head.{task}.b1"],
            leaves[f"head.{task}.w2"],
            leaves[f"head.{task}.b2"],
        )
        for task in tasks
    }
    return EncoderParams(leaves["embedding"], fwd, bwd, heads)


def bind_params(params: EncoderParams, tape: ad.Tape) -> tuple[EncoderParams, dict]:
    """Wrap every parameter array as a leaf Var on the tape.

    Returns the Var-valued view plus a flat name -> leaf dict for reading
    gradients out after the backward sweep.
    """
    leaves = {name: tape.leaf(arr) for name, arr in params.named_arrays().items()}
    return params_view(leaves), leaves


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


def _scan(xw, w_h, b, mask, keep, cache):
    """Both directions' recurrences, stepped together.

    Everything is laid out (2, T, B, ...) in step order: direction 0 reads
    the sentence left to right, direction 1 right to left, so step k of
    direction 1 is position T-1-k. Returns the hidden states (2, T, B, H).
    When ``cache`` is a list, each step appends what its backward needs:
    (sigmoid gates, tanh gate, c before, h before, tanh(c after)).
    """
    _, T, B, _ = xw.shape
    H = w_h.shape[1]
    hs = np.empty((2, T, B, H), dtype=np.result_type(xw, w_h, b))
    h = np.zeros((2, B, H))
    c = np.zeros((2, B, H))
    for k in range(T):
        z = h @ w_h  # one BLAS call per direction
        z += xw[:, k]
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


def bilstm_max(ids: np.ndarray, mask, emb, fwd: LstmWeights, bwd: LstmWeights, tape: ad.Tape) -> ad.Var:
    """Both LSTM directions over padded (B, T) ids, max-pooled: one tape node.

    The embeddings are gathered once, step-major for each direction, and
    projected for every step with one matmul; numpy issues it as one BLAS
    call per direction and step, with exactly the operand shapes and
    layout of a per-step ``x_t @ w_x`` (OpenBLAS picks its kernel by
    shape, so one (T*B, E) @ (E, 8H) GEMM would round differently on small
    batches). The two directions then step together, the direction being a
    leading batch axis, adding ``h @ w_h`` and ``b`` in the per-step order.
    ``mask`` is None for a full batch, else (B, T) with 1 on real tokens.
    Gates, states and the pool argmax are kept only on a recording tape.
    """
    B, T = ids.shape
    # (2, T, B) token ids in step order; direction 1 runs right to left.
    # C order keeps each gathered x[d, k] laid out like a per-step gather.
    steps = np.ascontiguousarray(np.stack([ids.T, ids.T[::-1]]))
    x = _value_of(emb)[steps]  # (2, T, B, E)
    w_x, w_h, b = (np.stack([_value_of(getattr(fwd, n)), _value_of(getattr(bwd, n))])
                   for n in ("w_x", "w_h", "b"))
    H = w_h.shape[1]
    m = keep = None
    if mask is not None:
        m = mask.T[:, :, None]  # (T, B, 1)
        m = np.stack([m, m[::-1]])
        keep = 1.0 - m
    cache = [] if tape.recording else None
    hs = _scan(x @ w_x[:, None], w_h, b[:, None], m, keep, cache)
    hcat = np.concatenate([hs[0], hs[1, ::-1]], axis=2)  # (T, B, 2H) by position
    if m is not None:  # padded positions can never win the pool
        hcat += (m[0] - 1.0) * _NEG_BIG
    idx = np.argmax(hcat, axis=0)  # first position wins ties
    out = np.take_along_axis(hcat, idx[None], axis=0)[0]
    if cache is None:
        return tape._push(out, None)

    def back(g):
        pool = np.zeros((T, B, 2 * H), dtype=g.dtype)
        np.put_along_axis(pool, idx[None], g[None], axis=0)
        pool = np.stack([pool[:, :, :H], pool[::-1, :, H:]])
        sums = [_PairSum((fwd_p, bwd_p)) for fwd_p, bwd_p in
                ((fwd.w_x, bwd.w_x), (fwd.w_h, bwd.w_h), (fwd.b, bwd.b))]
        dx = _bptt(pool, x, w_x, w_h, m, keep, cache, sums)
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
    lengths = [len(s) for s in seqs]
    if min(lengths) == 0:
        raise DataError("cannot encode an empty sentence")
    B, T = len(seqs), max(lengths)
    ids = np.full((B, T), PAD_ID, dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[b, : len(s)] = s
    mask = None
    if min(lengths) != T:
        mask = np.zeros((B, T))
        for b, n in enumerate(lengths):
            mask[b, :n] = 1.0
    return bilstm_max(ids, mask, params.embedding, params.fwd, params.bwd, tape)


def encode_sentences(
    seqs: list, params: EncoderParams, batch_size: int = 128
) -> np.ndarray:
    """Frozen encodings as a plain (N, 2H) float array; no tape kept."""
    out = []
    for start in range(0, len(seqs), batch_size):
        chunk = seqs[start : start + batch_size]
        tape = ad.Tape(recording=False)
        out.append(encode_batch(chunk, params, tape).value)
    return np.concatenate(out, axis=0)


def head_logits(v, head: HeadWeights) -> ad.Var:
    """Two-layer perceptron with tanh between the layers."""
    hidden = ad.tanh(ad.add(ad.matmul(v, head.w1), head.b1))
    return ad.add(ad.matmul(hidden, head.w2), head.b2)


def head_probs(seqs: list, params: EncoderParams, task: str) -> np.ndarray:
    """(N, classes) softmax of ``task``'s head over frozen encodings of
    ``seqs``, encoded 256 sentences at a time."""
    if task not in params.heads:
        raise DataError(f"checkpoint has no classifier head for task {task!r}")
    head, tape = params.heads[task], ad.Tape(recording=False)
    logits = [
        head_logits(encode_batch(seqs[s : s + 256], params, tape), head).value
        for s in range(0, len(seqs), 256)
    ]
    return ad.softmax_rows(np.concatenate(logits, axis=0))


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, JSON metadata, then raw little-endian float32
# arrays in named_arrays() order.
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: EncoderParams, meta: dict | None = None) -> None:
    arrays = params.named_arrays()
    head_meta = {}
    for task in sorted(params.heads):
        h = params.heads[task]
        head_meta[task] = {"hidden": h.w1.shape[1], "classes": h.w2.shape[1]}
    full_meta = {
        "format_version": _FORMAT_VERSION,
        "vocab_size": params.vocab_size,
        "embed_dim": params.embed_dim,
        "hidden_size": params.hidden_size,
        "heads": head_meta,
        **(meta or {}),
    }
    blob = json.dumps(full_meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic {data[:4]!r})")
    if len(data) < 12:
        raise DataError(f"{path}: truncated header ({len(data)} bytes)")
    version, meta_len = struct.unpack_from("<II", data, 4)
    if version != _FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(data[12 : 12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{path}: metadata is not a JSON object")
    try:
        V, D, H = meta["vocab_size"], meta["embed_dim"], meta["hidden_size"]
        shapes = {
            "embedding": (V, D),
            "fwd.w_x": (D, 4 * H),
            "fwd.w_h": (H, 4 * H),
            "fwd.b": (4 * H,),
            "bwd.w_x": (D, 4 * H),
            "bwd.w_h": (H, 4 * H),
            "bwd.b": (4 * H,),
        }
        for task in sorted(meta.get("heads", {})):
            if "." in task:  # flat array names are split on "."
                raise DataError(f"{path}: head name {task!r} contains '.'")
            hm = meta["heads"][task]
            shapes[f"head.{task}.w1"] = (2 * H, hm["hidden"])
            shapes[f"head.{task}.b1"] = (hm["hidden"],)
            shapes[f"head.{task}.w2"] = (hm["hidden"], hm["classes"])
            shapes[f"head.{task}.b2"] = (hm["classes"],)
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: metadata lacks or mistypes {exc}") from exc
    if not all(type(n) is int and n >= 0 for shape in shapes.values() for n in shape):
        raise DataError(f"{path}: metadata sizes must be non-negative integers")

    offset = 12 + meta_len
    arrays = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        nbytes = 4 * count
        if offset + nbytes > len(data):
            raise DataError(f"{path}: truncated at array {name!r}")
        arrays[name] = (
            np.frombuffer(data, dtype="<f4", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += nbytes
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return params_view(arrays), meta


def copy_params(params: EncoderParams) -> EncoderParams:
    """Deep copy of all arrays (used to snapshot the best validation model)."""
    return params_view({name: arr.copy() for name, arr in params.named_arrays().items()})
