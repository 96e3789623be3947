"""Finite-window density estimators and structure classifiers.

All five estimators return exact rationals.  The Banach pair scans every
length-n sub-window of the set's window (numpy prefix sums over the bit
vector; integer arithmetic only); the asymptotic pair is the documented proxy
max/min of |A ∩ [1, i]| / i over i in [ceil(m/2), m]; the Schnirelmann
estimate is the prefix minimum.  Ties always resolve to the least offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .intset import IntSet, Window, bit_vector, combine_shifts

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
    """P[i] = number of members among the first i window positions (int64, length+1)."""
    out = np.zeros(a.window.length + 1, dtype=np.int64)
    np.cumsum(bit_vector(a), out=out[1:])
    return out


def _check_n(a: IntSet, n: int) -> None:
    if not 1 <= n <= a.window.length:
        raise InputError(f"sub-window length {n} not in [1, {a.window.length}]")


def _banach(a: IntSet, n: int, maximize: bool) -> DensityEstimate:
    _check_n(a, n)
    p = prefix_counts(a)
    counts = p[n:] - p[:-n]
    i = int(np.argmax(counts) if maximize else np.argmin(counts))
    kind = UPPER_BANACH if maximize else LOWER_BANACH
    return DensityEstimate(Fraction(int(counts[i]), n), n, a.window.lo - 1 + i, kind)


def upper_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Best length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=True)


def lower_banach_est(a: IntSet, n: int) -> DensityEstimate:
    """Worst length-n sub-window density; ties to the least offset."""
    return _banach(a, n, maximize=False)


def _anchored_scan(a: IntSet, lo_i: int, hi_i: int, maximize: bool):
    # exact max/min of P[i]/i by integer cross-multiplication, least i on ties
    p = prefix_counts(a)
    best_num, best_den = int(p[lo_i]), lo_i
    best_i = lo_i
    for i in range(lo_i + 1, hi_i + 1):
        c = int(p[i])
        d = c * best_den - best_num * i
        if (d > 0) if maximize else (d < 0):
            best_num, best_den, best_i = c, i, i
    return Fraction(best_num, best_den), best_i


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
