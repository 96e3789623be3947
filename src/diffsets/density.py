"""Finite-window density estimators and structure classifiers.

All five estimators return exact rationals.  The Banach pair scans every
length-n sub-window of the set's window (numpy prefix sums over the bit
vector; integer arithmetic only); the asymptotic pair is the documented proxy
max/min of |A ∩ [1, i]| / i over i in [ceil(m/2), m]; the Schnirelmann
estimate is the prefix minimum.  The anchored estimators read only [1, m] of
the window, in one vectorised pass: a float ratio may nominate the extremum,
but the verdict is an int64 cross-multiplication, which is exact for every
window length the parsers admit.  Ties always resolve to the least offset or
the least i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .intset import IntSet, Window, bit_vector, combine_shifts, restrict

__all__ = [
    "DensityEstimate",
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


def _check_n(a: IntSet, n: int) -> None:
    if not 1 <= n <= a.window.length:
        raise InputError(f"sub-window length {n} not in [1, {a.window.length}]")


def _banach(a: IntSet, n: int, maximize: bool) -> DensityEstimate:
    _check_n(a, n)
    p = prefix_counts(a)
    neg = p[:-n]
    np.subtract(neg, p[n:], out=neg)  # -(window counts), in place: no second array
    i = int(np.argmin(neg) if maximize else np.argmax(neg))  # first hit: least offset
    kind = UPPER_BANACH if maximize else LOWER_BANACH
    return DensityEstimate(Fraction(-int(neg[i]), n), n, a.window.lo - 1 + i, kind)


def upper_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Best length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=True)


def lower_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Worst length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=False)


def _anchored_scan(a: IntSet, lo_i: int, hi_i: int, maximize: bool):
    """Exact max/min of P[i]/i over i in [lo_i, hi_i], least i on ties (window at 1).

    Only [1, hi_i] is counted.  The float ratio nominates a candidate c/d;
    p*d - c*i then decides, in int64, which i beat it or tie with it.  Every
    factor is at most hi_i, at most the window length, which the parsers cap
    at intset.MAX_WINDOW_LENGTH = 10^7: every product is at most 10^14 < 2^63,
    so exact (int64 would stay exact up to lengths of 3*10^9).
    """
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
    return Fraction(int(p[k]), int(i[k])), lo_i + k


def _check_anchor(a: IntSet) -> None:
    if a.window.lo != 1:
        raise InputError(f"window must start at 1 (got lo={a.window.lo}); rebase first")


def upper_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """max of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    _check_anchor(a)
    _check_n(a, m)
    lo_i = (m + 1) // 2
    value, i = _anchored_scan(a, lo_i, m, maximize=True)
    return DensityEstimate(value, m, i, UPPER_ASYMPTOTIC)


def lower_asymptotic_est(a: IntSet, m: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over i in [ceil(m/2), m] (window anchored at 1)."""
    _check_anchor(a)
    _check_n(a, m)
    lo_i = (m + 1) // 2
    value, i = _anchored_scan(a, lo_i, m, maximize=False)
    return DensityEstimate(value, m, i, LOWER_ASYMPTOTIC)


def schnirelmann_est(a: IntSet, n: int) -> DensityEstimate:
    """min of |A ∩ [1, i]| / i over 1 <= i <= n (window anchored at 1)."""
    _check_anchor(a)
    _check_n(a, n)
    value, i = _anchored_scan(a, 1, n, maximize=False)
    return DensityEstimate(value, n, i, SCHNIRELMANN)


def _runs_at_least(bits: int, length: int) -> int:
    """Bit x set in the result iff positions x .. x+length-1 are all set."""
    need = length - 1
    shift = 1
    while need > 0 and bits:
        s = min(shift, need)
        bits &= bits >> s
        need -= s
        shift <<= 1
    return bits


def thick_witness(a: IntSet, length: int) -> int | None:
    """Least x with [x, x+length-1] entirely inside A, or None."""
    if length < 1:
        raise InputError("interval length must be >= 1")
    if length > a.window.length:
        return None
    runs = _runs_at_least(a.bits, length)
    if not runs:
        return None
    return a.window.lo + (runs & -runs).bit_length() - 1


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
    if length > a.window.length:
        return None
    runs = _runs_at_least(combine_shifts(a, range(g), a.window, union=True).bits, length)
    if not runs:
        return None
    x = a.window.lo + (runs & -runs).bit_length() - 1
    return Window(x, x + length - 1)
