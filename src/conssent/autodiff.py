"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records intermediate ``Var`` nodes in execution order; since
every node is created after all of its inputs, a single reverse sweep over
the recording visits nodes in a valid reverse-topological order and no
explicit sort is needed. Gradients accumulate additively, so fan-out (one
value feeding several ops) is handled for free.

Only the operations the encoder and losses need are provided. Operands may
be ``Var`` or plain arrays/scalars; plain operands are treated as constants
and receive no gradient. Inference and finite-difference probing use
``Tape(recording=False)``: it records nothing, but each op still builds its
backward closure for ``_push`` to drop; only ``encoder.bilstm_max`` and
``encoder.head_logits`` (whose hidden layer is then one buffer) do not.
"""

import numpy as np


class Var:
    """A value on the tape plus its accumulated gradient."""

    __slots__ = ("value", "grad", "_back", "tape")
    __array_ufunc__ = None  # keep numpy from consuming Var operands

    def __init__(self, value, tape, back=None):
        self.value = value
        self.grad = None
        self._back = back
        self.tape = tape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, grad={'set' if self.grad is not None else 'none'})"


class Tape:
    """Execution-ordered recording of Vars for one forward/backward pass."""

    __slots__ = ("_items", "recording", "_used")

    def __init__(self, recording: bool = True):
        self._items: list[Var] = []
        self.recording = recording
        self._used = False

    def leaf(self, value) -> Var:
        """Wrap an input array. Leaves receive gradients but are never
        swept (they have no inputs), so they are not recorded.

        Floating dtypes are kept as given (the finite-difference oracle
        feeds extended precision through here); anything else is promoted
        to float64."""
        arr = np.asarray(value)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        return Var(arr, self)

    def _push(self, value, back) -> Var:
        if not self.recording:
            return Var(value, self)
        v = Var(value, self, back)
        self._items.append(v)
        return v

    def backward(self, loss: Var) -> None:
        """Accumulate d(loss)/d(node) into every node's ``grad``."""
        if self._used:
            raise ValueError("tape already swept; build a new tape per pass")
        self._used = True
        if not self.recording:
            raise ValueError("cannot backward a non-recording tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        loss.grad = np.ones_like(loss.value)
        try:
            for var in reversed(self._items):
                if var._back is not None and var.grad is not None:
                    var._back(var.grad)
        finally:
            # every Var points back at its tape; dropping the recording
            # breaks that cycle, so a step's activations are freed as soon
            # as the caller lets go of them instead of at the next GC pass
            self._items = []

    def __len__(self):
        return len(self._items)


def _value(x) -> np.ndarray:
    """A Var's value; a float array constant as it is; anything else in float64."""
    if isinstance(x, Var):
        return x.value
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        return x
    return np.asarray(x, dtype=np.float64)


def _tape_of(*xs) -> Tape:
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    raise TypeError("at least one operand must be a Var")


def _accum(x, g) -> None:
    if isinstance(x, Var):
        x.grad = g if x.grad is None else x.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    tape = _tape_of(a, b)
    va, vb = _value(a), _value(b)
    out = va + vb

    def back(g):
        _accum(a, _unbroadcast(g, va.shape))
        _accum(b, _unbroadcast(g, vb.shape))

    return tape._push(out, back)


def matmul(a, b) -> Var:
    tape = _tape_of(a, b)
    va, vb = _value(a), _value(b)
    if va.ndim != 2 or vb.ndim != 2:
        raise ValueError(f"matmul wants 2-D operands, got {va.shape} @ {vb.shape}")
    out = va @ vb

    def back(g):
        _accum(a, g @ vb.T)
        _accum(b, va.T @ g)

    return tape._push(out, back)


def transpose(x) -> Var:
    tape = _tape_of(x)
    out = _value(x).T

    def back(g):
        _accum(x, g.T)

    return tape._push(np.ascontiguousarray(out), back)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow, in any float dtype.

    Branch-free form of the two-branch formula (1 / (1 + e^-x) for x >= 0,
    e^x / (1 + e^x) below) with e = exp(min(x, -x)) = e^-|x|; the
    numerator max(e, [x >= 0]) is 1 where x >= 0 (as e <= 1) and e
    elsewhere. Every element goes through the same IEEE operations, NaN
    signs included, so results match the two-branch formula bit for bit.
    """
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, (x >= 0).astype(e.dtype)) / (1.0 + e)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array, shifted by each row's max."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def tanh(x) -> Var:
    tape = _tape_of(x)
    t = np.tanh(_value(x))

    def back(g):
        _accum(x, g * (1.0 - t * t))

    return tape._push(t, back)


def gather_cols(x, idx) -> Var:
    """out[b, j] = x[b, idx[b, j]] for a (B, k) integer index."""
    tape = _tape_of(x)
    vx = _value(x)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take_along_axis(vx, idx, axis=1)

    def back(g):
        gx = np.zeros_like(vx)
        rows = np.arange(vx.shape[0])[:, None]
        np.add.at(gx, (rows, idx), g)
        _accum(x, gx)

    return tape._push(out, back)


def softmax_xent(logits, targets) -> Var:
    """Mean cross-entropy of a row-wise softmax against integer targets."""
    tape = _tape_of(logits)
    z = _value(logits)
    t = np.asarray(targets, dtype=np.int64)
    if z.ndim != 2 or t.shape != (z.shape[0],):
        raise ValueError(f"logits {z.shape} vs targets {t.shape}")
    lse = _logsumexp_rows(z)
    rows = np.arange(z.shape[0])
    losses = lse - z[rows, t]
    out = np.asarray(losses.mean())

    def back(g):
        p = np.exp(z - lse[:, None])
        p[rows, t] -= 1.0
        _accum(logits, p * (g / z.shape[0]))

    return tape._push(out, back)


def finite_diff_check(params: dict, build_loss) -> float:
    """Worst relative disagreement between backprop and central differences
    (displacement 1e-5).

    ``build_loss(tape, leaves)`` must rebuild the same scalar loss from a
    dict of leaf Vars each time it is called. Arrays in ``params`` are
    perturbed in place one element at a time, so the loss must read them
    through the leaves, not through captured copies. The returned figure is
    max |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    The two probe losses are evaluated in extended precision
    (np.longdouble) so that the subtraction f(θ+h) - f(θ-h) does not drown
    near-zero gradients in float64 rounding noise; the analytic side stays
    float64, which is what is being validated.
    """
    high, step = np.longdouble, 1e-5

    def run_value():
        tape = Tape(recording=False)
        leaves = {name: tape.leaf(arr.astype(high)) for name, arr in params.items()}
        return build_loss(tape, leaves).value.astype(high)

    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.items()}
    loss = build_loss(tape, leaves)
    tape.backward(loss)

    worst = 0.0
    for name, arr in params.items():
        leaf = leaves[name]
        ana = leaf.grad if leaf.grad is not None else np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            theta_plus = high(arr[ix])
            f_plus = run_value()
            arr[ix] = orig - step
            theta_minus = high(arr[ix])
            f_minus = run_value()
            arr[ix] = orig
            # divide by the displacement actually realized in float64
            numeric = float((f_plus - f_minus) / (theta_plus - theta_minus))
            analytic = float(ana[ix])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
