"""Tape mechanics plus per-op agreement with central finite differences.

The per-op ops live with the reference encoder in ``lstm_reference``;
they are checked here like the package's loss because the fused encoder,
head and ranking scores are tested against them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lstm_reference import (
    add,
    concat_cols,
    gather_cols,
    gather_rows,
    matmul,
    max_over_rows,
    mean_all,
    mul,
    sigmoid,
    slice_cols,
    stack_rows,
    sum_all,
    tanh,
    transpose,
)

from conssent import autodiff as ad
from conssent.autodiff import Tape, finite_diff_check

TOL = 1e-7


def rand(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(shape)


# --------------------------------------------------------------------------
# tape mechanics
# --------------------------------------------------------------------------


def test_backward_accumulates_over_fanout():
    tape = Tape()
    x = tape.leaf(np.array([2.0, -3.0]))
    y = add(mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
    tape.backward(sum_all(y))
    np.testing.assert_allclose(x.grad, np.array([5.0, -5.0]))


def test_double_backward_raises():
    tape = Tape()
    x = tape.leaf(np.array([1.0]))
    loss = sum_all(mul(x, x))
    tape.backward(loss)
    with pytest.raises(ValueError, match="tape already swept; build a new tape per pass"):
        tape.backward(loss)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    y = mul(x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_constants_receive_no_grad():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    const = np.array([1.0, 2.0, 3.0])
    loss = sum_all(mul(x, const))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, const)
    np.testing.assert_allclose(const, [1.0, 2.0, 3.0])  # untouched


@pytest.mark.parametrize("recording", [True, False])
def test_float32_constants_keep_a_float32_var_in_float32(recording):
    tape = Tape(recording=recording)
    x = tape.leaf(np.ones((2, 3), dtype=np.float32))
    const = np.full((2, 3), 0.5, dtype=np.float32)
    assert add(x, const).value.dtype == np.float32
    assert add(const, x).value.dtype == np.float32
    assert matmul(x, const.T).value.dtype == np.float32
    assert matmul(const.T, x).value.dtype == np.float32
    assert add(x, [1, 2, 3]).value.dtype == np.float64  # a non-float constant is float64


def test_non_recording_tape_computes_values_only():
    tape = Tape(recording=False)
    x = tape.leaf(np.array([1.0, 2.0]))
    y = mul(x, x)
    np.testing.assert_allclose(y.value, [1.0, 4.0])
    assert len(tape) == 0
    with pytest.raises(ValueError, match="cannot backward a non-recording tape"):
        tape.backward(sum_all(y))


def test_dead_branch_is_skipped():
    tape = Tape()
    x = tape.leaf(np.ones(2))
    _unused = mul(x, 3.0)  # recorded but not part of the loss
    loss = sum_all(x)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


def test_bias_broadcast_grad_sums_rows():
    tape = Tape()
    x = tape.leaf(np.zeros((3, 4)))
    b = tape.leaf(np.zeros(4))
    loss = sum_all(add(x, b))
    tape.backward(loss)
    np.testing.assert_allclose(b.grad, [3.0, 3.0, 3.0, 3.0])
    assert b.grad.shape == (4,)


# --------------------------------------------------------------------------
# forward values
# --------------------------------------------------------------------------


def test_sigmoid_tanh_values():
    tape = Tape(recording=False)
    x = tape.leaf(np.array([0.0, 100.0, -100.0]))
    s = sigmoid(x).value
    np.testing.assert_allclose(s, [0.5, 1.0, 0.0], atol=1e-12)
    t = tanh(x).value
    np.testing.assert_allclose(t, [0.0, 1.0, -1.0], atol=1e-12)


def _two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 800.0, -800.0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(-800.0, 800.0, allow_subnormal=True), st.sampled_from(_SIGMOID_EDGES)),
        min_size=1,
        max_size=64,
    )
)
def test_stable_sigmoid_matches_two_branch_formula(values):
    x = np.array(values)
    block = np.stack([x, -x, x[::-1]], axis=1)
    for arr in (x, x[::2], block[:, :2], x.astype(np.longdouble)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = ad.stable_sigmoid(arr), _two_branch_sigmoid(arr)
        assert got.dtype == arr.dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_softmax_xent_known_values():
    tape = Tape(recording=False)
    # uniform logits over 2 classes
    loss = ad.softmax_xent(tape.leaf(np.zeros((1, 2))), [0])
    assert loss.value == pytest.approx(0.6931471805599453, rel=1e-12)
    # logits (0, 2) with true class 0: ln(1 + e^2)
    loss = ad.softmax_xent(tape.leaf(np.array([[0.0, 2.0]])), [0])
    assert loss.value == pytest.approx(2.1269280110429727, rel=1e-12)
    # near-certain correct answer
    loss = ad.softmax_xent(tape.leaf(np.array([[5.0, -5.0]])), [0])
    assert loss.value == pytest.approx(4.5398899216870535e-05, rel=1e-9)
    # mean over rows
    loss = ad.softmax_xent(tape.leaf(np.zeros((4, 3))), [0, 1, 2, 0])
    assert loss.value == pytest.approx(np.log(3.0), rel=1e-12)


def test_softmax_xent_extreme_logits_stay_finite():
    tape = Tape()
    z = tape.leaf(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    loss = ad.softmax_xent(z, [0, 0])
    assert np.isfinite(loss.value)
    tape.backward(loss)
    assert np.isfinite(z.grad).all()


def test_max_over_rows_value_and_ties():
    tape = Tape()
    x = tape.leaf(np.array([[1.0, 5.0], [1.0, 2.0], [1.0, 5.0]]))
    m = max_over_rows(x)
    np.testing.assert_allclose(m.value, [1.0, 5.0])
    tape.backward(sum_all(m))
    # column 0 is a three-way tie, column 1 ties rows 0 and 2: gradient must
    # land on the lowest row index only
    np.testing.assert_allclose(x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_matmul_rejects_non_2d():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    with pytest.raises(ValueError):
        matmul(x, x)


def test_softmax_xent_shape_mismatch():
    tape = Tape()
    with pytest.raises(ValueError):
        ad.softmax_xent(tape.leaf(np.zeros((2, 3))), [0])


# --------------------------------------------------------------------------
# gradients vs. central differences
# --------------------------------------------------------------------------


def check(build, **arrays):
    worst = finite_diff_check({k: v.astype(np.float64) for k, v in arrays.items()}, build)
    assert worst < TOL, f"finite-diff mismatch {worst:.3e}"


def test_grad_add_broadcast():
    check(
        lambda tape, v: mean_all(add(v["a"], v["b"])),
        a=rand(3, 4, seed=1),
        b=rand(4, seed=2),
    )


def test_grad_mul_broadcast():
    check(
        lambda tape, v: mean_all(mul(v["a"], v["b"])),
        a=rand(3, 4, seed=5),
        b=rand(3, 1, seed=6),
    )


def test_grad_matmul():
    check(
        lambda tape, v: mean_all(matmul(v["a"], v["b"])),
        a=rand(3, 4, seed=7),
        b=rand(4, 2, seed=8),
    )


def test_grad_transpose_reshape():
    check(
        lambda tape, v: mean_all(matmul(transpose(v["a"]), v["b"])),
        a=rand(3, 4, seed=9),
        b=rand(3, 2, seed=10),
    )


def test_grad_sigmoid_tanh():
    check(
        lambda tape, v: mean_all(mul(sigmoid(v["x"]), tanh(v["y"]))),
        x=rand(4, 3, seed=11),
        y=rand(4, 3, seed=12),
    )


def test_grad_slice_concat():
    def build(tape, v):
        left = slice_cols(v["x"], 0, 2)
        right = slice_cols(v["x"], 2, 5)
        cat = concat_cols(tanh(right), left)
        return mean_all(mul(cat, cat))

    check(build, x=rand(3, 5, seed=13))


def test_grad_stack_max():
    def build(tape, v):
        stacked = stack_rows([v["a"], v["b"], v["c"]])
        return mean_all(max_over_rows(stacked))

    # well-separated values so the argmax is stable under the probe step
    check(build, a=rand(2, 3, seed=14), b=rand(2, 3, seed=15) + 3.0, c=rand(2, 3, seed=16) - 3.0)


def test_grad_gather_rows_with_duplicates():
    ids = np.array([0, 2, 0, 1])  # row 0 used twice: grads must accumulate
    check(
        lambda tape, v: mean_all(tanh(gather_rows(v["emb"], ids))),
        emb=rand(4, 3, seed=17),
    )


def test_grad_gather_cols():
    idx = np.array([[0, 2], [1, 3], [3, 0]])
    check(
        lambda tape, v: mean_all(mul(gather_cols(v["x"], idx), 2.0)),
        x=rand(3, 4, seed=18),
    )


def test_grad_softmax_xent():
    targets = np.array([0, 2, 1])
    check(
        lambda tape, v: ad.softmax_xent(matmul(v["x"], v["w"]), targets),
        x=rand(3, 4, seed=19),
        w=rand(4, 3, seed=20),
    )


def test_grad_mean_sum():
    check(
        lambda tape, v: mean_all(mul(sum_all(v["x"]), mean_all(v["x"]))),
        x=rand(3, 3, seed=21),
    )


def test_grad_composite_mlp():
    def build(tape, v):
        h = tanh(add(matmul(v["x"], v["w1"]), v["b1"]))
        logits = add(matmul(h, v["w2"]), v["b2"])
        return ad.softmax_xent(logits, np.array([1, 0]))

    check(
        build,
        x=rand(2, 5, seed=22),
        w1=rand(5, 4, seed=23),
        b1=rand(4, seed=24),
        w2=rand(4, 2, seed=25),
        b2=rand(2, seed=26),
    )
