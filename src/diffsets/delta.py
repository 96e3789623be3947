"""Delta sets with a density threshold: which shifts t leave A ∩ (A - t) dense.

Membership is strict: t qualifies when the chosen estimator of A ∩ (A - t)
exceeds eps, compared by integer cross-multiplication.  Shift safety is a hard
precondition: every t in the requested range must satisfy
n + |t| <= window length, so the estimator never scans a silently truncated
intersection; violations raise an input error naming the offending t.

The Banach sweep scans each distinct |t| once.  This mirror is exact:
A ∩ (A + t) is A ∩ (A - t) moved up by t, window and all
(``intset.self_overlap``), and a translation keeps the best-window value
(only the offset ``at``, which ``per_t`` does not keep, moves).

The anchored ``upper`` sweep has no such mirror: it reads [1, n] of an
overlap that starts at 1 for t >= 0 and at 1 - t for t < 0, so the members it
reads differ between t and -t.  It evaluates every t, but in one pass over
A's members x_1 < ... < x_c in [1, n] for a block of shifts at a time
(``density.upper_asymptotic_shifts``), not one estimator call per shift.
Row t of the block holds whether x_j + t is in A, and its running sum is
|A ∩ (A - t) ∩ [1, x_j]|.  Each column is a genuine point of the objective
P_t[i] / i, and so is lo_i = ceil(n/2).  Since P_t is flat between members of
A ∩ (A - t), the least maximiser is lo_i or one of those members, and they
are all columns.  So the best column, least i on ties, is exact.  A block
holds about 2^14 cells (shifts x members); a row longer than that runs alone.
On the sweep bench's set (Bernoulli 3/10 on [1, 10^5], n = 10^4, 2001 shifts,
2 vCPU) the sweep takes about 0.06 s against 0.21 s for one call per shift,
and the bench's peak RSS rises by about 0.2 MiB of 40 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import par
from .density import (check_sub_window, syndetic_gap, upper_asymptotic_est, upper_asymptotic_shifts,
                      upper_banach_est)
from .errors import InputError
from .intset import IntSet, Window, check_anchored, make_set, restrict, self_overlap

__all__ = [
    "EpsDeltaResult",
    "shift_intersection",
    "shift_density",
    "eps_delta_banach",
    "eps_delta_upper",
    "delta_syndetic_check",
]


@dataclass(frozen=True)
class EpsDeltaResult:
    """Shifts whose intersection density clears eps, over a shift range."""

    eps: Fraction
    n: int
    trange: Window
    members: IntSet
    per_t: dict[int, Fraction]
    kind: str


def shift_intersection(a: IntSet, t: int) -> IntSet:
    """A ∩ (A - t) on the exact overlap window."""
    return self_overlap(a, t)


def shift_density(a: IntSet, t: int, n: int, upper: bool = False) -> Fraction:
    """Best length-n window density of A ∩ (A - t), or its anchored upper proxy."""
    s = shift_intersection(a, t)
    if upper:  # re-anchor at 1 (the overlap may start above it); [1, n] is all it reads
        return upper_asymptotic_est(restrict(s, Window(1, min(n, s.window.hi))), n).value
    return upper_banach_est(s, n).value


def _sweep(a: IntSet, eps: Fraction, n: int, trange: Window, upper: bool) -> EpsDeltaResult:
    if upper:
        check_anchored(a, "eps_delta_upper's set")
    if eps < 0:
        raise InputError("eps must be >= 0")
    eps = Fraction(eps)
    worst = max(abs(trange.lo), abs(trange.hi))
    if n + worst > a.window.length:
        t = trange.lo if abs(trange.lo) == worst else trange.hi
        raise InputError(
            f"shift t={t} unsafe: n + |t| = {n + worst} exceeds window length "
            f"{a.window.length}; shrink the shift range or n"
        )
    check_sub_window(a, n)

    def one(t: int) -> Fraction:  # not via shift_density: bench/spans.py traces these two calls
        return upper_banach_est(shift_intersection(a, t), n).value

    ts = range(trange.lo, trange.hi + 1)
    if upper:  # one pass over A's members for blocks of shifts (module docstring)
        per_t = {t: est.value for t, est in zip(ts, upper_asymptotic_shifts(a, n, ts))}
    else:  # the Banach value is even in t (module docstring): one scan per |t|
        mags = sorted({abs(t) for t in ts})
        by_mag = dict(zip(mags, par.ordered_map(one, mags)))
        per_t = {t: by_mag[abs(t)] for t in ts}
    members = make_set([t for t, v in per_t.items() if v > eps], trange)
    return EpsDeltaResult(eps, n, trange, members, per_t, "upper" if upper else "banach")


def eps_delta_banach(a: IntSet, eps: Fraction, n: int, trange: Window) -> EpsDeltaResult:
    """Shifts t in trange with best-window density of A ∩ (A - t) > eps."""
    return _sweep(a, eps, n, trange, upper=False)


def eps_delta_upper(a: IntSet, eps: Fraction, m: int, trange: Window) -> EpsDeltaResult:
    """Same sweep with the upper asymptotic proxy (window anchored at 1)."""
    return _sweep(a, eps, m, trange, upper=True)


def delta_syndetic_check(a: IntSet, n: int, g: int, trange: Window) -> dict:
    """Does the 0-threshold delta set over trange have gaps <= g?"""
    if upper_banach_est(a, n).value <= 0:
        raise InputError("set has no members in any sub-window; delta set is trivial")
    res = eps_delta_banach(a, Fraction(0), n, trange)
    gap = syndetic_gap(res.members) if res.members.count >= 2 else None
    return {
        "members": res.members,
        "gap": gap,
        "bound": g,
        "ok": gap is not None and gap <= g,
    }
