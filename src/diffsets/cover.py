"""Shift covers certified in exact arithmetic.

The chain here is: a Cauchy-Schwarz counting inequality for finite families,
the pairwise-overlap bound it implies, and a greedy cover of a candidate shift
list X by translates of the dense-shift set
D(C, eps) = {t : |C ∩ (C - t) ∩ [1, N]| > eps * N}.  Every certificate stores
enough to be re-verified from scratch, and the re-verifier uses an independent
counting path (numpy bit vectors instead of big-int popcounts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

import numpy as np

from .delta import shift_densities
from .density import DensityEstimate, best_window, lower_banach_est, upper_banach_est
from .errors import InfeasibleError, InputError, VerificationError
from .intset import (IntSet, Window, bit_vector, check_anchored, combine_shifts, from_bit_vector,
                     intersect, restrict, self_overlap)

__all__ = [
    "CsInequality",
    "CoverCertificate",
    "ShiftCheck",
    "DeltaCoverResult",
    "CoverDensityReport",
    "QuotientCoverResult",
    "cs_family_inequality",
    "guaranteed_overlap",
    "dense_shift_member",
    "dense_shift_set",
    "candidate_order",
    "greedy_shift_cover",
    "verify_cover_certificate",
    "certify_cover",
    "delta_cover",
    "quotient_cover",
    "cover_density_check",
    "full_cover_density",
]


# -- Cauchy-Schwarz family inequality ----------------------------------------


@dataclass(frozen=True)
class CsInequality:
    """(sum |C_i|)^2 <= N * (sum |C_i| + 2 * sum_{i<j} |C_i ∩ C_j|), exact."""

    n: int
    k: int
    lhs: int
    rhs: int
    holds: bool


def _family_window(family: list[IntSet], n: int | None) -> int:
    if not family:
        raise InputError("empty family")
    hi = max(s.window.hi for s in family)
    if n is None:
        n = hi
    for s in family:
        if s.window.lo < 1 or s.window.hi > n:
            raise InputError(f"family member window {s.window} not inside [1, {n}]")
    return n


def cs_family_inequality(family: list[IntSet], n: int | None = None) -> CsInequality:
    """Exact integer check of the counting inequality for subsets of [1, n]."""
    n = _family_window(family, n)
    total = sum(s.count for s in family)
    cross = 0
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if family[i].window.overlaps(family[j].window):
                cross += intersect(family[i], family[j]).count
    lhs = total * total
    rhs = n * (total + 2 * cross)
    return CsInequality(n, len(family), lhs, rhs, lhs <= rhs)


def guaranteed_overlap(family: list[IntSet], n: int | None = None) -> Fraction:
    """Lower bound on the largest pairwise overlap density max |C_i ∩ C_j| / n.

    With c_i = |C_i|/n and g = min c_i, the counting inequality gives
    max_{i<j} |C_i ∩ C_j|/n >= (k^2 g^2 - sum c_i) / (k (k-1)).
    Needs k >= 2.
    """
    n = _family_window(family, n)
    k = len(family)
    if k < 2:
        raise InputError("guaranteed_overlap needs at least two sets")
    dens = [Fraction(s.count, n) for s in family]
    g = min(dens)
    return (k * k * g * g - sum(dens)) / (k * (k - 1))


# -- dense-shift membership ---------------------------------------------------


def dense_shift_member(c: IntSet, t: int, eps: Fraction) -> bool:
    """Strict threshold membership |C ∩ (C - t) ∩ [1, N]| > eps * N for C ⊆ [1, N], by
    cross-multiplication; the count is symmetric in the sign of t, and 0 once |t| >= N."""
    n = check_anchored(c, "base set")
    count = self_overlap(c, t).count if abs(t) < n else 0
    return count * eps.denominator > eps.numerator * n


def dense_shift_set(c: IntSet, h: int, hull: Window, eps: Fraction) -> IntSet:
    """{t in hull : h*t in D(C, eps)} as a set on hull."""
    keep = [dense_shift_member(c, h * t, eps) for t in range(hull.lo, hull.hi + 1)]
    return from_bit_vector(keep, hull)


# -- greedy cover -------------------------------------------------------------


def candidate_order(xs) -> list[int]:
    """Deterministic greedy order: ascending |x|, positive before negative."""
    return sorted(set(xs), key=lambda x: (abs(x), x < 0))


@dataclass(frozen=True)
class CoverCertificate:
    """Greedy cover of candidates by translates of the dense-shift set of C.

    shifts are in pick order, first one mandated by the caller.  witnesses maps
    each candidate x to the shift x_i that covers it, so x - x_i passed the
    threshold.  k_bound is floor((g - eps) / (g^2 - eps)) for g = |C|/N, the
    size the greedy cannot exceed when edge losses vanish; margin = max |x|/N
    measures those losses.

    The greedy stops only when no candidate is left uncovered, so every
    certificate covers all its candidates: covered and uncovered are constants
    of the type, not fields a caller sets, and stay only as report keys.
    """

    shifts: list[int]
    eps: Fraction
    gamma_hat: Fraction
    k_bound: int
    margin: Fraction
    covered: bool = field(default=True, init=False)
    uncovered: list[int] = field(default_factory=list, init=False)
    base_size: int
    witnesses: dict[int, int] = field(repr=False)


def greedy_shift_cover(
    c: IntSet, candidates, eps: Fraction, mandated_x: int
) -> CoverCertificate:
    """Cover candidates by D(C, eps) + F, growing F greedily from mandated_x."""
    n = check_anchored(c, "base set")
    eps = Fraction(eps)
    if eps < 0:
        raise InputError("eps must be >= 0")
    order = candidate_order(candidates)
    if not order:
        raise InputError("no candidates")
    if mandated_x not in set(order):
        raise InputError(f"mandated shift {mandated_x} not among the candidates")
    bad = [x for x in order if abs(x) > n]
    if bad:
        raise InputError(f"candidate {bad[0]} exceeds the base size {n}")
    gamma = Fraction(c.count, n)
    if eps >= gamma * gamma:
        raise InfeasibleError(
            f"eps = {eps} is not below the squared base density {gamma * gamma}; "
            "the size bound is undefined"
        )
    k_bound = floor((gamma - eps) / (gamma * gamma - eps))
    margin = Fraction(max(abs(x) for x in order), n)

    memo: dict[int, bool] = {}

    def member(t: int) -> bool:
        t = abs(t)
        hit = memo.get(t)
        if hit is None:
            hit = memo[t] = dense_shift_member(c, t, eps)
        return hit

    shifts: list[int] = []
    witnesses: dict[int, int] = {}
    uncovered = order
    while uncovered:  # picked covers itself, as eps < gamma^2 <= gamma: uncovered shrinks
        picked = uncovered[0] if shifts else mandated_x
        shifts.append(picked)
        remaining: list[int] = []
        for x in uncovered:
            if member(x - picked):
                witnesses[x] = picked
            else:
                remaining.append(x)
        uncovered = remaining
    return CoverCertificate(
        shifts=shifts,
        eps=eps,
        gamma_hat=gamma,
        k_bound=k_bound,
        margin=margin,
        base_size=n,
        witnesses=witnesses,
    )


def verify_cover_certificate(c: IntSet, candidates, cert: CoverCertificate) -> bool:
    """Recheck a cover certificate with an independent counting path.

    Counts come from numpy bit vectors rather than big-int popcounts; the
    stored base size, density, size bound and margin are recomputed from C
    and the candidates, and coverage of every candidate is re-derived from
    scratch.  Raises VerificationError on any mismatch.
    """
    n = check_anchored(c, "base set")
    arr = bit_vector(c).astype(bool)
    eps = cert.eps

    counts: dict[int, int] = {}

    def count(t: int) -> int:
        t = abs(t)
        if t not in counts:
            counts[t] = 0 if t >= n else int(np.count_nonzero(arr[: n - t] & arr[t:]))
        return counts[t]

    def member(t: int) -> bool:
        return count(t) * eps.denominator > eps.numerator * n

    order = candidate_order(candidates)
    if cert.shifts[0] not in set(order):
        raise VerificationError("mandated shift not among candidates")
    if len(set(cert.shifts)) != len(cert.shifts):
        raise VerificationError("duplicate shifts in certificate")
    if cert.base_size != n:
        raise VerificationError("stored base size does not match the base set")
    gamma = Fraction(int(np.count_nonzero(arr)), n)
    if cert.gamma_hat != gamma:
        raise VerificationError("stored base density does not match the base set")
    if not 0 <= eps < gamma * gamma or cert.k_bound != floor((gamma - eps) / (gamma * gamma - eps)):
        raise VerificationError("stored size bound does not match eps and the base density")
    if cert.margin != Fraction(max(abs(x) for x in order), n):
        raise VerificationError("stored margin does not match the candidates")
    for x in order:
        if not any(member(x - xi) for xi in cert.shifts):
            raise VerificationError(f"candidate {x} marked covered but is not")
        wx = cert.witnesses.get(x)
        if wx is None or wx not in cert.shifts or not member(x - wx):
            raise VerificationError(f"witness for candidate {x} does not verify")
    return True


# -- cover on the best window of a larger set (density.best_window) -----------


@dataclass(frozen=True)
class ShiftCheck:
    """Membership re-verification of one used shift against the full set."""

    t: int
    value: Fraction
    ok: bool = field(default=True, init=False)  # certify_cover raises on a failing shift


def certify_cover(candidates, eps: Fraction, mandated_x: int, prepare, ambient=(), n=0, upper=False):
    """The one certification path of every delta cover.

    Checks the candidate span against each ambient window before prepare()
    builds (base, context), covers greedily on the base, re-verifies each used
    shift as eps-dense in every ambient set at length n (one
    ``delta.shift_densities`` call per set), and recounts the certificate on
    the base.  Returns ((base, context), cert, checks per ambient set).
    """
    eps = Fraction(eps)
    order = candidate_order(candidates)
    if not order:
        raise InputError("no candidates")
    span = max(order) - min(order)
    for s in ambient:
        if n + span > s.window.length:
            raise InputError(f"n + candidate span = {n + span} exceeds the window length "
                             f"{s.window.length} of an ambient set; used shifts could not be verified")
    base, context = prepare()
    cert = greedy_shift_cover(base, order, eps, mandated_x)
    used = sorted({x - xi for x, xi in cert.witnesses.items()})
    per_set = [shift_densities(s, used, n, upper) for s in ambient]
    for t in used:
        if any(v[t] <= eps for v in per_set):
            raise VerificationError(f"used shift {t} passed on the base but not on the full set")
    checks = [[ShiftCheck(t, v[t]) for t in used] for v in per_set]
    verify_cover_certificate(base, order, cert)
    return (base, context), cert, checks


@dataclass(frozen=True)
class DeltaCoverResult:
    """Greedy cover computed on the best n-window of A, verified against A."""

    offset: int
    base_size: int
    cert: CoverCertificate
    checks: list[ShiftCheck]
    heuristic: bool
    base: IntSet = field(repr=False)


def delta_cover(
    a: IntSet,
    candidates,
    eps: Fraction,
    n: int,
    mandated_x: int = 0,
    upper: bool = False,
) -> DeltaCoverResult:
    """Cover candidates by translates of the eps-dense shift set of A.

    The greedy runs on C, the best (least-offset) length-n window of A,
    and every shift the cover actually uses is re-verified as an eps-dense
    shift of A itself at the same n.  With upper=True the initial segment
    [1, n] replaces the best window and the asymptotic proxy estimator does
    the re-verification; that variant is reported as heuristic.
    """
    def prepare() -> tuple[IntSet, int]:
        if upper:
            check_anchored(a, "set of the anchored variant")
            return restrict(a, Window(1, n)), 0
        est, c = best_window(a, n)
        return c, est.at

    (c, offset), cert, (checks,) = certify_cover(
        candidates, eps, mandated_x, prepare, ambient=(a,), n=n, upper=upper,
    )
    return DeltaCoverResult(offset, n, cert, checks, upper, c)


# -- covered-range density checks ---------------------------------------------


@dataclass(frozen=True)
class CoverDensityReport:
    """If S + F covers a range, S itself must be dense.

    The premise is cover_range ⊆ S + F; the assertion is
    lower_banach_est(S ∩ cover_range, n) >= 1/k - k*span(F)/n.  Shifts are
    normalized first so the hull of F contains 0 (cover by S + F equals cover
    by (S+c) + (F-c)); in that normal form the bound is provable: any length-n
    window J of the range contains (J + f_max) ∩ (J + f_min + n-span), an
    interval I of length n - span with I - f ⊆ J for every f, so each of its
    covered points pulls back into S ∩ J, at most k landing on one point.  So
    when the premise holds a density under the floor raises VerificationError,
    and ok is premise_ok.  mode and witness are constants of the type, kept
    as report keys.
    """

    mode: str = field(default="full_cover", init=False)
    premise_ok: bool
    normalize_shift: int
    threshold: Fraction
    nominal: Fraction
    estimate: DensityEstimate
    witness: None = field(default=None, init=False)
    ok: bool


def _normalize_shifts(shifts: list[int]) -> tuple[list[int], int]:
    f_min, f_max = min(shifts), max(shifts)
    c = 0 if f_min <= 0 <= f_max else (f_min if f_min > 0 else f_max)
    return [f - c for f in shifts], c


def cover_density_check(s: IntSet, shifts, n: int, cover_range: Window) -> CoverDensityReport:
    """Check the density consequence of a cover of cover_range by S + shifts."""
    shifts = list(dict.fromkeys(shifts))
    if not shifts:
        raise InputError("empty shift list")
    if n < 1:  # the threshold divides by n
        raise InputError(f"window length n = {n} must be >= 1")
    k = len(shifts)
    norm, c = _normalize_shifts(shifts)
    s_norm = s.shift(c)
    covered = combine_shifts(s_norm, norm, cover_range, union=True)
    premise_ok = covered.count == cover_range.length
    span = max(norm) - min(norm)
    nominal = Fraction(1, k)
    threshold = nominal - Fraction(k * span, n)
    est = lower_banach_est(restrict(s_norm, cover_range), n)
    if premise_ok and est.value < threshold:
        raise VerificationError(
            f"covering set density {est.value} under the proven floor {threshold}")
    return CoverDensityReport(premise_ok, c, threshold, nominal, est, premise_ok)


def full_cover_density(
    c: IntSet, h: int, hull: Window, eps: Fraction, shifts, n: int | None = None
) -> tuple[IntSet, CoverDensityReport]:
    """The quotient {t : h*t in D(C, eps)} and the full_cover check of its cover of hull
    by shifts, at length n (default a quarter of the hull).

    The cover reads the quotient at x - f for x in hull and f in shifts, so q is
    built on every such point, not on hull alone.
    """
    reach = Window(min(hull.lo, hull.lo - max(shifts)), max(hull.hi, hull.hi - min(shifts)))
    q = dense_shift_set(c, h, reach, eps)
    n = n if n is not None else max(1, hull.length // 4)
    return q, cover_density_check(q, shifts, n, hull)


# -- quotient cover -----------------------------------------------------------


@dataclass(frozen=True)
class QuotientCoverResult:
    """Cover of a base candidate list by the h-quotient of the dense-shift set.

    cover_ok is a constant: the quotient is read through the same
    dense_shift_member the greedy used on h*(x - f), over a reach holding
    every x - f, and verify_cover_certificate recounts each witness.
    """

    h: int
    full_range: bool
    offset: int | None
    cert: CoverCertificate | None
    base_shifts: list[int] | None
    quotient_members: IntSet | None
    cover_ok: bool = field(default=True, init=False)
    density: CoverDensityReport | None


def quotient_cover(
    a: IntSet,
    h: int,
    base_candidates,
    eps: Fraction,
    n: int,
    mandated_x: int = 0,
    density_n: int | None = None,
) -> QuotientCoverResult:
    """Cover base candidates x by {t : h*t is an eps-dense shift of A} + F/h.

    h = 0 degenerates: 0 is always an eps-dense shift when eps < density^2,
    so the quotient is everything and the report says so.
    """
    eps = Fraction(eps)
    if h == 0:
        est = upper_banach_est(a, n)
        if eps >= est.value ** 2:
            raise InfeasibleError(f"eps = {eps} not below squared density {est.value ** 2}")
        return QuotientCoverResult(0, True, est.at, None, None, None, None)

    base = candidate_order(base_candidates)
    scaled = [h * x for x in base]
    res = delta_cover(a, scaled, eps, n, mandated_x=h * mandated_x)
    base_shifts = [x // h for x in res.cert.shifts]

    hull = Window(min(base), max(base))
    q, density = full_cover_density(res.base, h, hull, eps, base_shifts, density_n)
    return QuotientCoverResult(
        h, False, res.offset, res.cert, base_shifts, restrict(q, hull), density
    )
