"""Delta sets with a density threshold: which shifts t leave A ∩ (A - t) dense.

Membership is strict: t qualifies when the chosen estimator of A ∩ (A - t)
exceeds eps, compared by integer cross-multiplication.  Shift safety is a hard
precondition: every requested t must satisfy
n + |t| <= window length, so the estimator never scans a silently truncated
intersection; violations raise an input error naming the offending t.

``shift_densities`` evaluates the density over a list of shifts, for both
sweeps and ``cover.certify_cover``; its Banach values are taken once per
distinct |t|.  This mirror is exact: A ∩ (A + t) is A ∩ (A - t) moved up by
t, window and all (``intset.self_overlap``), and a translation keeps the
best-window value (only the offset ``at``, which ``per_t`` does not keep,
moves).  One word pass over every |t| (``density.banach_word_bounds``) gives
each row its best count at the offsets 64w and the hull of the offsets that
may beat it.  A row with no hull is worth that count / n; any other row is
worth the larger of that and the byte-table scan (``upper_banach_est``) of
A ∩ (A - |t|) on the hull's windows alone.  So the byte table is still the
one exact scanner, and it reads only candidate offsets.  On the sweep bench's
delta --n (Bernoulli 3/10 on [1, 10^5], n = 10^4, 1001 magnitudes) every
row rescans a hull of about 4300 offsets, and the values take 62-115 ms
against 100-167 ms for a full scan per |t| (min of 9 calls in each of nine
alternating rounds, 2 vCPU shared host).

The anchored ``upper`` values have no such mirror: each reads [1, n] of an
overlap that starts at 1 for t >= 0 and at 1 - t for t < 0, so the members it
reads differ between t and -t.  Every t is evaluated, but in one pass over
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
from typing import Iterable

from . import par
from .density import banach_word_bounds, check_sub_window, upper_asymptotic_shifts, upper_banach_est
from .errors import InputError
from .intset import IntSet, Window, check_anchored, make_set, restrict, self_overlap

__all__ = [
    "EpsDeltaResult",
    "shift_intersection",
    "shift_density",
    "shift_densities",
    "eps_delta_banach",
    "eps_delta_upper",
]


@dataclass(frozen=True)
class EpsDeltaResult:
    """Shifts whose intersection density clears eps, over a shift range."""

    members: IntSet
    per_t: dict[int, Fraction]


def shift_intersection(a: IntSet, t: int) -> IntSet:
    """A ∩ (A - t) on the exact overlap window."""
    return self_overlap(a, t)


def shift_density(a: IntSet, t: int, n: int) -> Fraction:
    """Best length-n window density of A ∩ (A - t)."""
    return upper_banach_est(shift_intersection(a, t), n).value


def shift_densities(a: IntSet, ts: Iterable[int], n: int, upper: bool = False) -> dict[int, Fraction]:
    """{t: density of A ∩ (A - t)} for each distinct t in ts, in first-seen order: the
    best length-n window (``shift_density``), or with upper the anchored proxy.

    An unsafe shift is an input error naming the first t of largest |t|.  The
    Banach values come from the word bounds and a rescan of each hull (see the
    module docstring).
    """
    ts = list(dict.fromkeys(ts))
    worst = max(ts, key=abs, default=0)  # the first of largest |t|
    if n + abs(worst) > a.window.length:
        raise InputError(
            f"shift t={worst} unsafe: n + |t| = {n + abs(worst)} exceeds window length "
            f"{a.window.length}; shrink the shift range or n"
        )
    check_sub_window(a, n)
    if upper:
        return {t: est.value for t, est in zip(ts, upper_asymptotic_shifts(a, n, ts))}

    def one(row: tuple[int, tuple[int, Window | None]]) -> Fraction:
        m, (count, hull) = row  # bench/spans.py traces the two calls below
        if hull is None:
            return Fraction(count, n)
        part = Window(hull.lo, hull.hi + n - 1 + m).shift(a.window.lo)
        return max(Fraction(count, n), upper_banach_est(shift_intersection(restrict(a, part), m), n).value)

    mags = sorted({abs(t) for t in ts})
    by_mag = dict(zip(mags, par.ordered_map(one, list(zip(mags, banach_word_bounds(a, mags, n))))))
    return {t: by_mag[abs(t)] for t in ts}


def _sweep(a: IntSet, eps: Fraction, n: int, trange: Window, upper: bool) -> EpsDeltaResult:
    if upper:
        check_anchored(a, "eps_delta_upper's set")
    if eps < 0:
        raise InputError("eps must be >= 0")
    per_t = shift_densities(a, range(trange.lo, trange.hi + 1), n, upper)
    members = make_set([t for t, v in per_t.items() if v > eps], trange)
    return EpsDeltaResult(members, per_t)


def eps_delta_banach(a: IntSet, eps: Fraction, n: int, trange: Window) -> EpsDeltaResult:
    """Shifts t in trange with best-window density of A ∩ (A - t) > eps."""
    return _sweep(a, eps, n, trange, upper=False)


def eps_delta_upper(a: IntSet, eps: Fraction, m: int, trange: Window) -> EpsDeltaResult:
    """Same sweep with the upper asymptotic proxy (window anchored at 1)."""
    return _sweep(a, eps, m, trange, upper=True)

