"""Stream generator: reference outputs, bounds, stream independence, and the
block path's draw-for-draw agreement with the scalar one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conssent.rng import (
    _CHUNK,
    EXAMPLES,
    ORDER,
    SPLIT,
    RngStream,
    stream,
    stream_index,
)

# First outputs of the reference PCG32 implementation for seed 42, stream 54
# (the demo vector shipped with the original C library). Our pure-Python port
# must reproduce them bit for bit.
REFERENCE_SEED = 42
REFERENCE_STREAM = 54
REFERENCE_U32 = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_matches_reference_vector():
    rng = RngStream(REFERENCE_SEED, REFERENCE_STREAM)
    assert [rng.next_u32() for _ in range(6)] == REFERENCE_U32


def test_block_path_matches_reference_vector():
    rng = RngStream(REFERENCE_SEED, REFERENCE_STREAM)
    out = np.empty(6, dtype=np.uint32)
    rng.fill_u32(out)
    assert out.tolist() == REFERENCE_U32


U64 = st.integers(min_value=0, max_value=2**64 - 1)
# Chunk edges: empty, one draw, one short of a chunk, exactly one, one over,
# and a multi-chunk fill whose last chunk is ragged.
BLOCK_SIZES = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]


def _scalar(rng, n):
    return [rng.next_u32() for _ in range(n)]


def _block(rng, n, dtype=np.uint64):
    out = np.empty(n, dtype=dtype)
    rng.fill_u32(out)
    return out.tolist()


@settings(max_examples=20, deadline=None)
@given(U64, U64, st.sampled_from(BLOCK_SIZES))
def test_block_draws_equal_scalar_draws(seed, index, n):
    block, scalar = RngStream(seed, index), RngStream(seed, index)
    assert _block(block, n) == _scalar(scalar, n)
    assert _scalar(block, 3) == _scalar(scalar, 3)


@settings(max_examples=40, deadline=None)
@given(
    U64,
    U64,
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(BLOCK_SIZES) | st.integers(0, 70)),
        max_size=3,
    ),
)
def test_interleaved_block_and_scalar_draws(seed, index, steps):
    mixed, scalar = RngStream(seed, index), RngStream(seed, index)
    for n_scalar, n_block in steps:
        assert _scalar(mixed, n_scalar) == _scalar(scalar, n_scalar)
        assert _block(mixed, n_block, np.float64) == _scalar(scalar, n_block)
    assert _scalar(mixed, 5) == _scalar(scalar, 5)


def test_fill_u32_rejects_multidimensional_out():
    with pytest.raises(ValueError):
        RngStream(0, 0).fill_u32(np.empty((2, 3)))


def test_same_key_same_sequence():
    a = RngStream(123, 7)
    b = RngStream(123, 7)
    assert [a.next_u32() for _ in range(100)] == [b.next_u32() for _ in range(100)]


def test_different_index_different_sequence():
    draws = {}
    for index in range(200):
        rng = RngStream(0, index)
        draws[index] = tuple(rng.next_u32() for _ in range(4))
    assert len(set(draws.values())) == 200


def test_different_seed_different_sequence():
    draws = set()
    for seed in range(200):
        rng = RngStream(seed, 5)
        draws.add(tuple(rng.next_u32() for _ in range(4)))
    assert len(draws) == 200


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
def test_random_unit_interval(seed, index):
    rng = RngStream(seed, index)
    for _ in range(8):
        x = rng.random()
        assert 0.0 <= x < 1.0


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=10_000),
)
def test_randint_in_bounds(seed, bound):
    rng = RngStream(seed, 1)
    for _ in range(8):
        assert 0 <= rng.randint(bound) < bound


def test_randint_rejects_nonpositive_bound():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        rng.randint(0)


def test_randint_roughly_uniform():
    rng = RngStream(2024, 0)
    bound, n = 7, 70_000
    counts = [0] * bound
    for _ in range(n):
        counts[rng.randint(bound)] += 1
    expected = n / bound
    for c in counts:
        assert abs(c - expected) < 0.06 * expected


def test_uniform_range():
    rng = RngStream(5, 5)
    for _ in range(100):
        x = rng.uniform(-2.5, 3.5)
        assert -2.5 <= x < 3.5


def test_shuffle_is_permutation():
    rng = RngStream(9, 3)
    items = list(range(50))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # 50! makes an accidental identity implausible


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=20))
def test_sample_without_replacement(seed, k):
    rng = RngStream(seed, 2)
    seq = list(range(20))
    got = rng.sample(seq, k)
    assert len(got) == k
    assert len(set(got)) == k
    assert set(got) <= set(seq)


def sample_by_copy(rng, seq, k):
    """``RngStream.sample`` as it was: a Fisher-Yates over a full copy."""
    arr = list(seq)
    for i in range(k):
        j = i + rng.randint(len(arr) - i)
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:k]


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=60), st.data())
def test_sample_draws_what_a_full_copy_shuffle_draws(seed, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    seq = [f"t{i}" for i in range(n)]
    rng, oracle = RngStream(seed, 4), RngStream(seed, 4)
    assert rng.sample(seq, k) == sample_by_copy(oracle, seq, k)
    assert rng.sample(range(n), k) == sample_by_copy(oracle, range(n), k)
    assert rng.next_u32() == oracle.next_u32()  # the same draws were taken


def test_sample_bad_k():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        rng.sample([1, 2, 3], 4)
    with pytest.raises(ValueError):
        rng.sample([1, 2, 3], -1)


def test_stream_index_fields_do_not_collide():
    # purpose, epoch, item occupy disjoint bit ranges
    assert stream_index(1, 0, 0) != stream_index(2, 0, 0)
    assert stream_index(1, 1, 0) != stream_index(1, 0, 1)
    assert stream_index(1, 0xFFFF, 0xFFFFFFFF) >> 48 == 1
    a = stream_index(ORDER, epoch=3, item=0)
    b = stream_index(EXAMPLES, epoch=3, item=0)
    assert a != b


def test_purpose_streams_diverge():
    s1 = stream(7, SPLIT).next_u32()
    s2 = stream(7, EXAMPLES).next_u32()
    s3 = stream(7, EXAMPLES, epoch=1).next_u32()
    s4 = stream(7, EXAMPLES, epoch=0, item=1).next_u32()
    assert len({s1, s2, s3, s4}) == 4
