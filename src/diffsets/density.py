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

The anchored estimators read only [1, m] of the window, and only at the
member candidates of one block pass over shifts (``_anchored_rows``, which
states the gap argument); each is its t = 0 row.  A row's extremum is the
first argmax (argmin) of its columns' float64 ratios p / i, and that is exact:
a column is a point (P, i) with 0 <= P <= i <= hi_i, so two different ratios
differ by at least 1/(i_1 i_2), while integers below 2^53 convert exactly and
float64 division is correctly rounded, within 2^-53 on a value <= 1.  So for
hi_i < 2^26 the float order is the exact order, equal ratios give equal floats,
and the first hit is the least i, as the columns ascend in i.  A horizon over
intset.MAX_WINDOW_LENGTH = 10^7 < 2^26 is refused; under it two different
ratios differ by 10^-14 or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError
from .intset import (MAX_WINDOW_LENGTH, IntSet, Window, bit_bytes, bit_vector, check_anchored,
                     complement_in, empty_set, intersect, restrict, self_overlap)

__all__ = [
    "DensityEstimate",
    "check_sub_window",
    "upper_banach_est",
    "lower_banach_est",
    "best_window",
    "banach_word_bounds",
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
    # members at offset 0: the first n bits, q whole bytes and r bits of the next
    base = int(np.bitwise_count(full[:q]).sum()) + (int(full[q]) & (1 << r) - 1).bit_count()
    count = base + int(best[g]) if maximize else base - int(best[g])
    at = a.window.lo - 1 + 8 * g + int(packed[g] & 7)
    return DensityEstimate(Fraction(count, n), n, at, UPPER_BANACH if maximize else LOWER_BANACH)


def upper_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Best length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=True)


def lower_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Worst length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=False)


def best_window(a: IntSet, n: int) -> tuple[DensityEstimate, IntSet]:
    """upper_banach_est(a, n) and A ∩ [at + 1, at + n] moved down onto [1, n]."""
    est = upper_banach_est(a, n)
    return est, restrict(a, Window(est.at + 1, est.at + n)).shift(-est.at)


# Words (64 window positions each) per row block of banach_word_bounds.  On the
# sweep bench's delta --n (1001 magnitudes, about 1560 words a row, 2 vCPU, min
# of 25 calls) 2^12 took 44 ms, 2^14 25 ms, 2^15 21 ms and 2^17 27 ms, while the
# peak Python heap grew from 0.3 to 0.9, 1.7 and 4.1 MiB.  A row longer than this
# runs alone, so a block never outgrows one row's arrays.
_WORD_LANES = 1 << 14


def banach_word_bounds(a: IntSet, mags: Sequence[int], n: int) -> list[tuple[int, Window | None]]:
    """For each m in mags (ascending, n + m <= the window length): the best count of
    a length-n window of A ∩ (A - m) at a word-aligned offset, and the hull of the
    offsets whose count may exceed it (0 is the window's first position), or None.

    So the best length-n window count of A ∩ (A - m) is the returned count, or
    the best over the hull when there is one.  A's bits are read once as
    little-endian uint64 words W.  Row m holds R_m = A ∩ (A - m) as words
    W[k] & (W >> m)[k], one funnel shift of W[k + m // 64] and the word after
    it (numpy shifts a uint64 by 64 to 0, so m ≡ 0 (mod 64) needs no case).
    The rows of a block share m // 64, and a block holds about ``_WORD_LANES``
    words.  Bit i of R_m is bit i and bit i + m of A, so every bit past L - m
    is 0 (L the window length).

    Moving from offset 64w + j to 64w + j + 1 adds entering bit
    e_j = bit 64w + j + n and drops leaving bit l_j = bit 64w + j.  With E_w and
    L_w the 64 entering and leaving bits of word w, C(w), the count at offset
    64w, is C(0) plus an int32 row cumsum of popcount(E) - popcount(L) over the
    words before w.  It is taken only for 64w <= L - m - n, where every bit it
    counts is below L - m, so it is a real window count.  As e - l <= e (1 - l)
    for bits, each offset 64w .. 64w + 63 counts at most
    C(w) + popcount(E_w & ~L_w).  The hull is that of the words whose bound
    beats the best C(w), clipped to the last offset L - m - n, so every offset
    outside it counts at most the returned count.  Counts are at most L, below
    2^31 under the window length cap of 10^7 (int64 past it, for a library
    caller).
    """
    check_sub_window(a, n)
    length = a.window.length
    ms = np.asarray(mags, dtype=np.int64)
    if len(ms) and (ms[0] < 0 or ms[-1] > length - n or (ms[1:] < ms[:-1]).any()):
        raise InputError(f"magnitudes must ascend in [0, {length - n}] (n = {n}, window length {length})")
    words = bit_bytes(a, 8 * (length // 64 + 4)).view("<u8")  # zero words past the window
    acc = np.int32 if length < 1 << 31 else np.int64
    nq, nr = divmod(n, 64)
    low_n = np.uint64((1 << nr) - 1)
    out: list[tuple[int, Window | None]] = []
    start = 0
    while start < len(ms):
        q = int(ms[start]) // 64
        last = length - int(ms[start]) - n  # the group's longest row: offsets 0 .. last
        aligned = last // 64 + 1  # offsets 64w for w < aligned
        width = aligned + nq + 1  # R words read: C(w) and E_w of the last w
        block = ms[start:start + max(1, _WORD_LANES // width)]
        block = block[block // 64 == q]
        r = (block % 64).astype(np.uint64)[:, None]
        rows = words[q:q + width] >> r
        rows |= words[q + 1:q + width + 1] << (np.uint64(64) - r)
        rows &= words[:width]
        leaving = rows[:, :aligned]
        entering = rows[:, nq:nq + aligned] >> np.uint64(nr)
        entering |= rows[:, nq + 1:nq + aligned + 1] << np.uint64(64 - nr)
        count = np.empty(leaving.shape, dtype=acc)  # C(0), then C(w) - C(w - 1) ...
        count[:, 0] = np.bitwise_count(rows[:, :nq]).sum(axis=1) + np.bitwise_count(rows[:, nq] & low_n)
        step = np.bitwise_count(entering[:, :-1]) - np.bitwise_count(leaving[:, :-1])
        count[:, 1:] = step.view(np.int8)  # in -64..64: uint8 wraps back
        np.cumsum(count, axis=1, out=count)  # ... summed to C(w)
        entering &= ~leaving
        bound = count + np.bitwise_count(entering)
        # A row one aligned offset shorter than the group's has no offset in the last
        # column.  Its bound there, with no bit entering, is a count of fewer bits than
        # the window at the row's last offset holds, which the word before bounds; so
        # the hull, clipped to that offset, needs no mask.
        lasts = length - block - n
        count[lasts // 64 < aligned - 1, -1] = -1
        best = count.max(axis=1)
        beats = bound > best[:, None]
        first = beats.argmax(axis=1)
        final = aligned - 1 - beats[:, ::-1].argmax(axis=1)
        for c, hit, w0, w1, row_last in zip(best.tolist(), beats[np.arange(len(block)), first].tolist(),
                                            first.tolist(), final.tolist(), lasts.tolist()):
            out.append((c, Window(64 * w0, min(64 * w1 + 63, row_last)) if hit else None))
        start += len(block)
    return out


# Cells (shifts x members) per block of _anchored_rows.  On the sweep bench's
# delta --upper (about 3000 members, 2001 shifts) 2^13 took 0.11 s, 2^14 0.056 s,
# 2^16 0.047 s and 2^17 0.065 s, while the peak Python heap grew from 0.78 MiB
# at 2^14 to 2.6 MiB at 2^17.  A row longer than this runs alone, so a block
# never outgrows one shift's arrays.
_SHIFT_LANES = 1 << 14


def _anchored_rows(a: IntSet, lo_i: int, hi_i: int, ts: Sequence[int],
                   kind: str) -> Iterator[DensityEstimate]:
    """Yield, for each t in ts in order, the extremum of P_t[i]/i over i in [lo_i, hi_i],
    least i on ties, where P_t[i] = |A ∩ (A - t) ∩ [1, i]|: the maximum for
    UPPER_ASYMPTOTIC, the minimum for the other kinds.

    The window must start at 1 and hold hi_i + |t| for every t (checked when
    iteration starts).  Yielding, not listing, keeps one estimate alive at a
    time, so memory does not grow with the number of shifts.

    The gap argument: P_t is flat between members of A ∩ (A - t) ⊆ A, so
    across a gap P_t[i]/i falls strictly while P_t > 0 and stays 0 while
    P_t = 0.  The least maximiser is therefore lo_i or a member of A past it,
    and the least minimiser lo_i, x - 1 for a member x of A past lo_i, or
    hi_i.  Those are the columns, each a genuine point (P_t[i], i), ascending
    in i, so the first argmax (argmin) of their float ratios is exact (see the
    module docstring).  With x_1 < ... < x_c the members of A in [1, hi_i],
    the running count of the x_j + t in A is P_t at x_j, and the count
    before it P_t at x_j - 1: one gather from A's bits on
    [1 - r, hi_i + r], r = max |t| (zero below 1), a row sum up to lo_i and
    an int32 row cumsum past it give every column for a block of shifts at once.
    """
    hi = check_anchored(a, "set")
    check_sub_window(a, hi_i)
    if hi_i > MAX_WINDOW_LENGTH:  # before anything that long is built
        raise InputError(f"horizon {hi_i} is over the window length cap of {MAX_WINDOW_LENGTH}")
    t = np.asarray(ts, dtype=np.int64)
    reach = int(np.abs(t).max(initial=0))
    if hi_i + reach > hi:
        raise InputError(f"m + |t| = {hi_i + reach} exceeds window length {hi}")
    maximize = kind == UPPER_ASYMPTOTIC
    bits = bit_vector(restrict(a, Window(1, hi_i + reach)))
    padded = np.concatenate((np.zeros(reach, dtype=np.uint8), bits))  # index of y: y - 1 + reach
    xs = np.flatnonzero(bits[:hi_i].view(bool))  # x_j - 1 (nonzero is fastest on bool)
    base = int(np.searchsorted(xs, lo_i - 1, side="right"))  # members up to lo_i
    past = xs[base:]  # x - 1 for each member x past lo_i
    i = np.concatenate(([lo_i], past + 1) if maximize else ([lo_i], past, [hi_i]))
    rows = max(1, _SHIFT_LANES // max(1, len(xs)))
    for start in range(0, len(t), rows):
        tb = t[start:start + rows]
        hit = padded[xs + reach + tb[:, None]]  # x_j + t in A
        p = np.empty((len(tb), len(past) + 1), dtype=np.int32)
        p[:, 0] = hit[:, :base].sum(axis=1, dtype=np.int32)  # P_t at lo_i
        p[:, 1:] = hit[:, base:]
        np.cumsum(p, axis=1, out=p)  # ... then at each member past it, or just before it
        if not maximize:  # ... and P_t[hi_i] is the last of them
            p = np.concatenate((p[:, :1], p), axis=1)
        k = (np.argmax if maximize else np.argmin)(p / i, axis=1)
        for c, d in zip(p[np.arange(len(tb)), k].tolist(), i[k].tolist()):
            yield DensityEstimate(Fraction(c, d), hi_i, d, kind)


def upper_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """max of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    return next(upper_asymptotic_shifts(a, m, (0,)))


def lower_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    return next(_anchored_rows(a, (m + 1) // 2, m, (0,), LOWER_ASYMPTOTIC))


def schnirelmann_est(a: IntSet, n: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over 1 <= i <= n (window anchored at 1)."""
    return next(_anchored_rows(a, 1, n, (0,), SCHNIRELMANN))


def upper_asymptotic_shifts(a: IntSet, m: int, ts: Sequence[int]) -> Iterator[DensityEstimate]:
    """Yield upper_asymptotic_est(A ∩ (A - t) on [1, m], m) for each t in ts, in order."""
    return _anchored_rows(a, (m + 1) // 2, m, ts, UPPER_ASYMPTOTIC)


def _doublings(a: IntSet) -> Iterator[tuple[int, IntSet]]:
    """Yield (2^j, the x with x .. x + 2^j - 1 all in A) for j = 0, 1, ... while nonempty.

    Each set is the last one overlapped with itself at 2^(j-1): one big-int
    shift and AND, and the window shrinks by 2^(j-1).
    """
    size, runs = 1, a
    while runs:
        yield size, runs
        if size >= runs.window.length:  # no run of 2 * size fits the window
            return
        runs, size = self_overlap(runs, size), 2 * size


def _run_starts(a: IntSet, length: int) -> IntSet:
    """The x with x .. x+length-1 all in A, empty when none (length at most its window length)."""
    for size, runs in _doublings(a):
        if 2 * size > length:
            return self_overlap(runs, length - size) if length > size else runs
    return empty_set(a.window)


def thick_witness(a: IntSet, length: int) -> int | None:
    """Least x with [x, x+length-1] entirely inside A, or None."""
    if length < 1:
        raise InputError("interval length must be >= 1")
    if length > a.window.length:
        return None
    starts = _run_starts(a, length)
    return starts.min() if starts else None


def longest_run(a: IntSet) -> tuple[int, int] | None:
    """(start, length) of the longest interval inside A; least start on ties.

    From big-int doubling alone, with no pass over the window's positions:
    the starts of runs of 2^j for j up to the last nonempty one J fix
    2^J <= L < 2^(J+1), and a greedy descent adds 2^j for j = J-1 .. 0
    whenever a run of the longer length still starts somewhere.  Every step is
    one shift and AND of big ints, about 2 log2(L) of them, and at most
    log2(L) + 1 big ints of the window's size are alive at once.  The last
    starts are exactly those of runs of length L, which no run extends, so the
    least of them is the least start of a longest run.
    """
    levels = list(_doublings(a))
    if not levels:
        return None
    length, starts = levels.pop()
    for size, runs in reversed(levels):
        ahead = runs.shift(-length)  # x with x + length .. x + length + size - 1 in A
        if starts.window.overlaps(ahead.window):
            longer = intersect(starts, ahead)
            if longer:
                length, starts = length + size, longer
    return starts.min(), length


def syndetic_gap(a: IntSet) -> int:
    """Maximum gap between consecutive members (interior only; needs >= 2 members).

    One more than the longest run of non-members between the least and the
    greatest member, or 1 when there is none (see longest_run).
    """
    if a.count < 2:
        raise InputError("syndetic_gap needs at least 2 members")
    holes = longest_run(complement_in(a, Window(a.min(), a.max())))
    return 1 + (holes[1] if holes else 0)


def piecewise_syndetic_witness(a: IntSet, g: int, length: int) -> Window | None:
    """Least length-``length`` interval inside the window where A has gaps <= g.

    That is the least interval inside A + [0, g-1], searched inside A's own
    window.  A point v of the window is outside A + [0, g-1] exactly when
    v - g + 1 .. v are all non-members, and nothing below the window is a
    member; so the covered points are the window minus the ends of the runs of
    g non-members on [lo - g + 1, hi], found in O(log g) doublings, and the
    witness is their thick_witness.  A gap past the window length covers no more.
    """
    if g < 1:
        raise InputError("gap bound must be >= 1")
    g = min(g, a.window.length)
    holes = _run_starts(complement_in(a, Window(a.window.lo - g + 1, a.window.hi)), g)
    x = thick_witness(complement_in(holes.shift(g - 1), a.window), length)
    return None if x is None else Window(x, x + length - 1)
