"""Deterministic per-item random streams.

Every piece of randomness in the package flows through ``RngStream``, a
PCG32 generator (the "XSH RR 64/32" setseq variant): 64-bit LCG state,
32-bit output, multiplier 6364136223846793005, increment derived from the
stream index as ``(index << 1) | 1``. Every operation is exact modular
integer arithmetic, so a given (seed, index) pair produces the same byte
stream on every platform.

The generator has two paths over one state. ``next_u32`` steps the LCG with
Python integers; it is the reference, and it serves the streams that draw a
few values each (perturbations, splits, batch order, the toy grammar).
``fill_u32`` produces the next ``n`` outputs at once for bulk draws such as
weight initialisation: within each fixed-size chunk it builds all LCG states
in numpy ``uint64`` (which wraps modulo 2**64, like the scalar mask) by
jump-ahead doubling (Brown 1994, "Random number generation with arbitrary
strides"), applies the XSH-RR output function elementwise, and leaves the
stream exactly where ``n`` calls to ``next_u32`` would. The two paths are
interchangeable draw for draw.

Streams are keyed by (global_seed, item_index) so data generation is
order-independent: item 7 gets the same draws whether it is produced
first, last, or in a worker process.
"""

from collections.abc import Sequence
from typing import TypeVar

import numpy as np

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Draws per fill_u32 chunk: bounds its uint64 scratch to 256 KiB whatever n is.
_CHUNK = 1 << 15

# Purpose tags folded into the stream index by stream_index(); keeping the
# purposes disjoint guarantees e.g. batch-order draws never collide with
# per-sentence perturbation draws.
SPLIT = 1
EXAMPLES = 2
PAIRS = 3
ORDER = 4
VALID = 5
INIT = 6
PROBE = 7
TOY = 8
GRADCHECK = 9

T = TypeVar("T")


def stream_index(purpose: int, epoch: int = 0, item: int = 0) -> int:
    """Pack (purpose, epoch, item) into one 64-bit stream index."""
    return ((purpose & 0xFFFF) << 48) | ((epoch & 0xFFFF) << 32) | (item & _MASK32)


class RngStream:
    """PCG32 stream seeded from (global_seed, item_index)."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, index: int = 0):
        self._inc = (((index & _MASK64) << 1) | 1) & _MASK64
        self._state = 0
        self.next_u32()
        self._state = (self._state + (seed & _MASK64)) & _MASK64
        self.next_u32()

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * _MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & _MASK32

    def fill_u32(self, out: np.ndarray) -> None:
        """Write the next ``len(out)`` ``next_u32`` outputs into 1-D ``out``.

        ``out`` may have any dtype that holds 32-bit integers exactly (e.g.
        uint32, uint64, float64). The stream advances by ``len(out)`` draws.
        """
        if out.ndim != 1:
            raise ValueError(f"out must be 1-D, got shape {out.shape}")
        n = len(out)
        states = np.empty(min(n, _CHUNK), dtype=np.uint64)
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            s = states[:m]
            s[0] = self._state
            # s[k + j] = a_k * s[j] + c_k, where (a_k, c_k) is the k-step LCG;
            # composing it with itself gives a_2k = a_k**2, c_2k = c_k * (a_k + 1).
            a, c, k = _MULT, self._inc, 1
            while k < m:
                w = min(k, m - k)
                np.multiply(s[:w], np.uint64(a), out=s[k : k + w])
                s[k : k + w] += np.uint64(c)
                a, c, k = (a * a) & _MASK64, (c * (a + 1)) & _MASK64, 2 * k
            self._state = (int(s[m - 1]) * _MULT + self._inc) & _MASK64
            xorshifted = ((s >> 18) ^ s) >> 27
            xorshifted = xorshifted.astype(np.uint32)  # keeps the low 32 bits
            rot = (s >> 59).astype(np.uint32)
            out[start : start + m] = (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))

    def random(self) -> float:
        """Uniform float in [0, 1) with 32-bit resolution."""
        return self.next_u32() * 2.0**-32

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound); unbiased via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            r = self.next_u32()
            if r < limit:
                return r % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """k distinct elements, drawn without replacement: a Fisher-Yates
        shuffle of the first k slots that keeps only the slots it swapped."""
        n = len(seq)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n} items")
        moved: dict = {}  # slot -> index of the element swapped into it
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            out.append(seq[moved.get(j, j)])
            moved[j] = moved.get(i, i)
        return out


def stream(seed: int, purpose: int, epoch: int = 0, item: int = 0) -> RngStream:
    """RngStream keyed by (seed, packed purpose/epoch/item index)."""
    return RngStream(seed, stream_index(purpose, epoch, item))
