"""Deterministic randomness: SplitMix64 driven in counter mode.

Every random artifact in this package derives from the 64-bit finalizer of
SplitMix64 (Steele, Lea, Flood; OOPSLA 2014) applied to ``seed + i * GOLDEN``
for a stream position i.  Values depend only on (seed, position), so streams
can be generated in chunks, in any order, on any platform, and remain
bit-identical.  Scalar and numpy block paths agree exactly; golden vectors are
frozen in the test suite.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer of a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, i: int) -> int:
    """The i-th 64-bit value of the stream for ``seed`` (counter mode)."""
    return mix64((seed + (i + 1) * GOLDEN) & MASK64)


def stream_block(seed: int, start: int, count: int) -> np.ndarray:
    """Values ``start .. start+count-1`` of the stream, as a uint64 array.

    Bit-identical to calling stream_value at each position.
    """
    with np.errstate(over="ignore"):
        z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN)
        z += np.uint64(seed & MASK64)
        t = np.empty_like(z)  # the one scratch buffer: every step runs in place
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= np.uint64(_M1)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(_M2)
        z ^= np.right_shift(z, np.uint64(31), out=t)
        return z


class Stream:
    """Sequential convenience wrapper over the counter-mode stream."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.pos = 0

    def u64(self) -> int:
        v = stream_value(self.seed, self.pos)
        self.pos += 1
        return v

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (exact, unbiased)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def subseed(self) -> int:
        """A fresh 64-bit seed for a derived stream."""
        return self.u64()
