"""Finite-window density estimators and structure classifiers.

All five estimators return exact rationals.  The Banach pair scans every
length-n sub-window of the set's window; the asymptotic pair is the
documented proxy max/min of |A ∩ [1, i]| / i over i in [ceil(m/2), m]; the
Schnirelmann estimate is the prefix minimum.  Ties always resolve to the
least offset or the least i.

The Banach scan is byte-parallel and integer-only.  Moving the window from
offset i to i + 1 adds bit i + n and drops bit i, so the count at offset i is
the count at 0 plus the running sum of (entering - leaving) bits before i.
Both bit streams are read as packed bytes, 8 offsets per byte: the running
sum at the start of each byte is a cumulative sum of byte popcount
differences, and the best offset inside a byte comes from one 64 KiB table
indexed by the (leaving, entering) byte pair and holding the maximum prefix sum
over the byte's 8 offsets and the least offset attaining it.  The minimum is
the maximum with the two streams swapped.  No bit enters or leaves past the
last offset L - n, so in the last byte the sum stays flat beyond it, and the
table's least offset on a tie is never one of those.  The set's big-int is
converted to bytes once per scan: the leaving stream is its first bytes, the
last one masked to the (L - n) mod 8 bits still leaving, and the entering
stream is the same bytes from byte n // 8 on, shifted down by n mod 8 bits
with uint8 shifts.  The running sum is the difference of two window counts,
so its absolute value is at most n <= intset.MAX_WINDOW_LENGTH = 10^7 < 2^31,
and it is accumulated exactly in int32 (in int64 for an n of 2^31 or more,
which only a library caller past the parsers' cap can pass).

The anchored estimators read only [1, m] of the window, in one vectorised
pass: a float ratio may nominate the extremum, but the verdict is an int64
cross-multiplication, which is exact for every window length the parsers admit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .intset import (IntSet, Window, bit_bytes, bit_vector, check_anchored, combine_shifts,
                     restrict, self_overlap)

__all__ = [
    "DensityEstimate",
    "check_sub_window",
    "prefix_counts",
    "upper_banach_est",
    "lower_banach_est",
    "upper_asymptotic_est",
    "lower_asymptotic_est",
    "schnirelmann_est",
    "thick_witness",
    "longest_run",
    "syndetic_gap",
    "piecewise_syndetic_witness",
]

UPPER_BANACH = "upper_banach"
LOWER_BANACH = "lower_banach"
UPPER_ASYMPTOTIC = "upper_asymptotic"
LOWER_ASYMPTOTIC = "lower_asymptotic"
SCHNIRELMANN = "schnirelmann"


@dataclass(frozen=True)
class DensityEstimate:
    """An exact density estimate.

    For the Banach kinds, ``at`` is the least offset x whose sub-window
    [x+1, x+n] attains the extremum, and ``value`` has denominator ``n``.
    For the anchored kinds (asymptotic, schnirelmann), ``n`` is the horizon
    parameter and ``at`` is the least attaining initial-segment length i,
    so ``value`` = |A ∩ [1, at]| / at.
    """

    value: Fraction
    n: int
    at: int
    kind: str


def prefix_counts(a: IntSet) -> np.ndarray:
    """P[i] = number of members among the first i window positions (int64, length+1).

    The bits are copied into the int64 buffer and summed there in place, so
    the cumulative sum never casts from uint8 on the fly.
    """
    out = np.zeros(a.window.length + 1, dtype=np.int64)
    out[1:] = bit_vector(a)
    np.cumsum(out[1:], out=out[1:])
    return out


def check_sub_window(a: IntSet, n: int) -> None:
    """Input error unless 1 <= n <= the window length of a."""
    if not 1 <= n <= a.window.length:
        raise InputError(f"sub-window length {n} not in [1, {a.window.length}]")


def _prefix_max_table() -> np.ndarray:
    """Entry 256*down + up: 8*max + least argmax of the prefix sums over t in 0..7.

    The prefix sum at t is the sum over bits j < t of (up_j - down_j); it is 0
    at t = 0, so the maximum is in 0..7 and packs with its offset in a byte.
    """
    byte = np.arange(256, dtype=np.uint8)
    run = np.zeros((256, 256), dtype=np.int8)
    best = np.zeros((256, 256), dtype=np.int8)
    at = np.zeros((256, 256), dtype=np.uint8)
    for t in range(1, 8):
        bit = (byte >> (t - 1) & 1).astype(np.int8)
        run += bit[None, :] - bit[:, None]  # rows: down byte, columns: up byte
        gain = run > best  # strict: the least t keeps a tie
        best[gain] = run[gain]
        at[gain] = t
    return (best.view(np.uint8) << 3 | at).ravel()


_PREFIX_MAX = _prefix_max_table()


def _banach(a: IntSet, n: int, maximize: bool) -> DensityEstimate:
    check_sub_window(a, n)
    last = a.window.length - n  # offsets 0 .. last
    size = last // 8 + 1
    # bit j leaves and bit j + n enters on the step from offset j to j + 1 (j < last)
    full = bit_bytes(a, n // 8 + size + 1)
    leaving = full[:size].copy()
    leaving[-1] &= (1 << last % 8) - 1
    q, r = divmod(n, 8)
    entering = full[q:q + size]
    if r:
        entering = (entering >> r) | (full[q + 1:q + size + 1] << (8 - r))
    ub, db = (entering, leaving) if maximize else (leaving, entering)
    key = db.astype(np.uint16) << 8
    key |= ub
    packed = np.take(_PREFIX_MAX, key)
    step = (np.bitwise_count(ub) - np.bitwise_count(db)).view(np.int8)  # in -8..8: uint8 wraps back
    acc = np.int32 if n < 1 << 31 else np.int64  # |sum| <= n; the parsers cap n far below 2^31
    best = np.zeros(size, dtype=acc)  # the sum before each byte ...
    np.cumsum(step[:-1], dtype=acc, out=best[1:])
    best += packed >> 3  # ... plus the best prefix inside it
    g = int(np.argmax(best))  # first hit: least byte, and the table's least offset in it
    base = restrict(a, Window(a.window.lo, a.window.lo + n - 1)).count
    count = base + int(best[g]) if maximize else base - int(best[g])
    at = a.window.lo - 1 + 8 * g + int(packed[g] & 7)
    return DensityEstimate(Fraction(count, n), n, at, UPPER_BANACH if maximize else LOWER_BANACH)


def upper_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Best length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=True)


def lower_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Worst length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=False)


def _anchored_scan(a: IntSet, lo_i: int, hi_i: int, kind: str, maximize: bool) -> DensityEstimate:
    """Exact max/min of P[i]/i over i in [lo_i, hi_i], least i on ties (window at 1).

    Only [1, hi_i] is counted.  The float ratio nominates a candidate c/d;
    p*d - c*i then decides, in int64, which i beat it or tie with it.  Every
    factor is at most hi_i, at most the window length, which the parsers cap
    at intset.MAX_WINDOW_LENGTH = 10^7: every product is at most 10^14 < 2^63,
    so exact (int64 would stay exact up to lengths of 3*10^9).
    """
    check_anchored(a, "set")
    check_sub_window(a, hi_i)
    p = prefix_counts(restrict(a, Window(1, hi_i)))[lo_i:]
    i = np.arange(lo_i, hi_i + 1, dtype=np.int64)
    ratio = p / i
    pick = np.argmax if maximize else np.argmin
    k = int(pick(ratio))
    while True:
        diff = p * i[k] - p[k] * i
        better = diff > 0 if maximize else diff < 0
        if not better.any():
            break
        cands = np.flatnonzero(better)  # the float nominee lost: retry among the winners
        k = int(cands[pick(ratio[cands])])
    k = int(np.flatnonzero(diff == 0)[0])
    return DensityEstimate(Fraction(int(p[k]), int(i[k])), hi_i, lo_i + k, kind)


def upper_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """max of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    return _anchored_scan(a, (m + 1) // 2, m, UPPER_ASYMPTOTIC, maximize=True)


def lower_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    return _anchored_scan(a, (m + 1) // 2, m, LOWER_ASYMPTOTIC, maximize=False)


def schnirelmann_est(a: IntSet, n: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over 1 <= i <= n (window anchored at 1)."""
    return _anchored_scan(a, 1, n, SCHNIRELMANN, maximize=False)


def _runs_at_least(runs: IntSet, length: int) -> IntSet:
    """The x with x .. x+length-1 all in the set (length at most its window length)."""
    need = length - 1
    shift = 1
    while need > 0 and runs:
        s = min(shift, need)
        runs = self_overlap(runs, s)
        need -= s
        shift <<= 1
    return runs


def thick_witness(a: IntSet, length: int) -> int | None:
    """Least x with [x, x+length-1] entirely inside A, or None."""
    if length < 1:
        raise InputError("interval length must be >= 1")
    if length > a.window.length:
        return None
    runs = _runs_at_least(a, length)
    return runs.min() if runs else None


def longest_run(a: IntSet) -> tuple[int, int] | None:
    """(start, length) of the longest interval inside A; least start on ties."""
    if a.count == 0:
        return None
    arr = bit_vector(a)
    edges = np.diff(np.concatenate(([0], arr, [0])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    i = int(np.argmax(ends - starts))
    return a.window.lo + int(starts[i]), int(ends[i] - starts[i])


def syndetic_gap(a: IntSet) -> int:
    """Maximum gap between consecutive members (interior only; needs >= 2 members)."""
    if a.count < 2:
        raise InputError("syndetic_gap needs at least 2 members")
    idx = np.flatnonzero(bit_vector(a))
    return int(np.diff(idx).max())


def piecewise_syndetic_witness(a: IntSet, g: int, length: int) -> Window | None:
    """Least length-``length`` interval inside the window where A has gaps <= g.

    Implemented through the equivalent formulation: an interval of that length
    contained in A + [0, g-1], searched inside A's own window.
    """
    if g < 1:
        raise InputError("gap bound must be >= 1")
    if length < 1:
        raise InputError("interval length must be >= 1")
    if length > a.window.length:
        return None
    spread = range(min(g, a.window.length))  # a shift past the window length adds nothing
    runs = _runs_at_least(combine_shifts(a, spread, a.window, union=True), length)
    if not runs:
        return None
    x = runs.min()
    return Window(x, x + length - 1)
