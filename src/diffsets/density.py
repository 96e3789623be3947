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

The anchored estimators read only [1, m] of the window, and only at member
candidates: P[i]/i falls across a gap, so the maximum sits at lo_i or at a
member, and the minimum at lo_i, hi_i or just before a member.  The maximum
is ``upper_asymptotic_shifts`` at t = 0.  One verdict serves it and the
minima: a float ratio may nominate the extremum, but the decision is an int64
cross-multiplication, which is exact for every window length the parsers
admit, and ties go to the least i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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
    "upper_asymptotic_shifts",
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


def _least_extremum(p: np.ndarray, i: np.ndarray, maximize: bool) -> np.ndarray:
    """For each row of p, the least column whose p/i is the row's exact max (or min).

    i holds the positions of the columns, shared by every row and ascending,
    so the least column is the least i.  The float ratio nominates a column
    c; the sign of p*i[c] - p[c]*i then decides, in int64, which columns beat
    it or tie with it.  Every factor is a count or position of at most the
    window length, which the parsers cap at intset.MAX_WINDOW_LENGTH = 10^7:
    every product is at most 10^14 < 2^63, so exact (int64 would stay exact
    up to lengths of 3*10^9).  A row whose nominee lost retries among the
    winners, which ends: each retry strictly improves the row's nominee.
    """
    sign = 1 if maximize else -1
    pick = np.argmax if maximize else np.argmin
    ratio = p / i
    c = pick(ratio, axis=1)
    diff = p * i[c][:, None]
    diff -= p[np.arange(len(p)), c][:, None] * i
    diff *= sign  # > 0: the column beats c
    for r in np.flatnonzero((diff > 0).any(axis=1)):  # the float nominee lost this row
        while (won := np.flatnonzero(diff[r] > 0)).size:
            c = won[pick(ratio[r, won])]
            diff[r] = sign * (p[r] * i[c] - p[r, c] * i)
    return (diff == 0).argmax(axis=1)  # the first column that ties the extremum


def _anchored_scan(a: IntSet, lo_i: int, hi_i: int, kind: str) -> DensityEstimate:
    """Exact min of P[i]/i over i in [lo_i, hi_i], least i on ties (window at 1).

    Only [1, hi_i] is read, and only at member candidates.  P is flat across
    a gap while i grows, so P[i]/i falls strictly across a gap when P > 0 and
    stays 0 when P = 0.  The least minimiser is therefore lo_i, x - 1 for a
    member x > lo_i, or hi_i; P there is P[lo_i], then one less than at each
    such member, then P[hi_i].
    """
    check_anchored(a, "set")
    check_sub_window(a, hi_i)
    xs = np.flatnonzero(bit_vector(restrict(a, Window(1, hi_i)))) + 1
    base = int(np.searchsorted(xs, lo_i, side="right"))  # P[lo_i]
    p = np.concatenate(([base], np.arange(base, len(xs) + 1)))
    i = np.concatenate(([lo_i], xs[base:] - 1, [hi_i]))
    k = int(_least_extremum(p[None, :], i, maximize=False)[0])
    return DensityEstimate(Fraction(int(p[k]), int(i[k])), hi_i, int(i[k]), kind)


def upper_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """max of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    return next(upper_asymptotic_shifts(a, m, (0,)))


def lower_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    return _anchored_scan(a, (m + 1) // 2, m, LOWER_ASYMPTOTIC)


def schnirelmann_est(a: IntSet, n: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over 1 <= i <= n (window anchored at 1)."""
    return _anchored_scan(a, 1, n, SCHNIRELMANN)


# Cells (shifts x members) per block of upper_asymptotic_shifts.  On the sweep
# bench's delta --upper (about 3000 members, 2001 shifts) 2^13 took 0.11 s, 2^14
# 0.056 s, 2^16 0.047 s and 2^17 0.065 s, while the peak Python heap grew from
# 0.78 MiB at 2^14 to 2.6 MiB at 2^17.  A row longer than this runs alone, so a
# block never outgrows one shift's arrays.
_SHIFT_LANES = 1 << 14


def upper_asymptotic_shifts(a: IntSet, m: int, ts: Sequence[int]) -> Iterator[DensityEstimate]:
    """Yield upper_asymptotic_est(A ∩ (A - t) on [1, m], m) for each t in ts, in order.

    The window must start at 1 and hold m + |t| for every t (checked when
    iteration starts).  Yielding, not listing, keeps one estimate alive at a
    time, so memory does not grow with the number of shifts.  With x_1 < ... <
    x_c the members of A in [1, m], P_t at x_j is the running count of the
    x_j + t in A, so one gather from A's bits on [1 - r, m + r], r = max |t|
    (zero below 1), and one int32 row cumsum give P_t at every member, for a
    block of shifts at once.  The candidates are lo_i and the members past it:
    each is a genuine point (P_t[i], i), and P_t[i]/i falls across a gap of
    A ∩ (A - t), so the least maximiser sits at lo_i or at a member of
    A ∩ (A - t) ⊆ A, and ``_least_extremum`` over them is exact.
    """
    hi = check_anchored(a, "set")
    check_sub_window(a, m)
    t = np.asarray(ts, dtype=np.int64)
    reach = int(np.abs(t).max(initial=0))
    if m + reach > hi:
        raise InputError(f"m + |t| = {m + reach} exceeds window length {hi}")
    lo_i = (m + 1) // 2
    bits = bit_vector(restrict(a, Window(1, m + reach)))
    padded = np.concatenate((np.zeros(reach, dtype=np.uint8), bits))  # index of y: y - 1 + reach
    xs = np.flatnonzero(bits[:m])  # x_j - 1
    base = int(np.searchsorted(xs, lo_i - 1, side="right"))  # members up to lo_i
    i = np.concatenate(([lo_i], xs[base:] + 1))
    rows = max(1, _SHIFT_LANES // max(1, len(xs)))
    for start in range(0, len(t), rows):
        tb = t[start:start + rows]
        hit = padded[xs + reach + tb[:, None]]  # x_j + t in A
        counts = np.zeros((len(tb), len(xs) + 1), dtype=np.int32)
        np.cumsum(hit, axis=1, dtype=np.int32, out=counts[:, 1:])
        p = counts[:, base:]  # P_t at lo_i, then at each member past it
        k = _least_extremum(p, i, maximize=True)
        for c, d in zip(p[np.arange(len(tb)), k].tolist(), i[k].tolist()):
            yield DensityEstimate(Fraction(c, d), m, d, UPPER_ASYMPTOTIC)


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
