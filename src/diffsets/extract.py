"""Witness extraction pipelines with exact certificates.

The ladder: a pigeonhole alignment shift between two finite sets, the
prefix-dense offset region and its block-walk size bound, extraction of the
most frequent length-n trace (the finite stand-in for a limit object: we fix n
and take the modal trace class, ties to the lexicographically least pattern),
and the composed pipelines built from those parts.  Every inequality a result
claims is asserted in exact rational arithmetic; the ones the mathematics
guarantees raise VerificationError when they fail, because that means the code
is wrong, not the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

import numpy as np

from .cover import CoverCertificate, ShiftCheck, candidate_order, certify_cover
from .delta import shift_density
from .density import best_window, longest_run, upper_banach_est
from .embed import Pattern, shift_set_of, trace_classes, trace_pattern
from .errors import InfeasibleError, InputError, VerificationError
from .intset import (IntSet, Window, bit_vector, check_anchored, combine_shifts, convolve,
                     difference_set, from_bit_vector, intersect, make_set, minus, restrict)

__all__ = [
    "PigeonholeWitness",
    "pigeonhole_shift",
    "fraction_floor",
    "WalkReport",
    "block_walk_bound",
    "ExtractionCertificate",
    "verify_extraction",
    "trace_extract",
    "PrefixCheck",
    "DensePatternResult",
    "dense_pattern_extract",
    "JointExtractResult",
    "joint_extract",
    "ChainStage",
    "ChainExtractResult",
    "chain_extract",
    "BaselineCover",
    "DifferenceCoverResult",
    "difference_cover",
    "IntersectCoverResult",
    "intersect_delta_cover",
]

TRACE_CAP = 16  # longest trace extracted; the 2^-n match share degrades beyond it
MIN_RATIO = 10  # least window_len / sub_len: the sub_len/window_len correction stays small
RECOUNT_SPAN = 1 << 12  # positions of C held as a Python set while recounting match traces


# -- pigeonhole alignment ------------------------------------------------------


@dataclass(frozen=True)
class PigeonholeWitness:
    """Least x in [1, N] maximizing |(C - x) ∩ D|, with its averaging bound.

    ratio = count / nu, bound = |C|/N * |D|/nu - |D|/N; ratio >= bound always,
    because summing the count over all N shifts gives at least |D| (|C| - nu).
    """

    shift: int
    ratio: Fraction
    bound: Fraction
    base_len: int
    sub_len: int


def pigeonhole_shift(c: IntSet, d: IntSet) -> PigeonholeWitness:
    """Exhaustive max of |(C - x) ∩ D| over x in [1, N], via one convolution.

    Coefficient x + nu - 1 of C convolved with D reversed is |(C - x) ∩ D|,
    exact for any nu: ``convolve``'s lanes never carry, its tile products
    stay far below MAX_PREC, and Inexact and Overflow trap.
    """
    n = check_anchored(c, "first set")
    nu = check_anchored(d, "second set")
    # D read on [0, nu]: the extra zero lane carries the profile through x = N
    counts = convolve(bit_vector(c), bit_vector(restrict(d, Window(0, nu)))[::-1])[nu:]
    x = int(np.argmax(counts)) + 1
    ratio = Fraction(int(counts[x - 1]), nu)
    bound = Fraction(c.count * d.count, n * nu) - Fraction(d.count, n)
    if ratio < bound:
        raise VerificationError(f"alignment ratio {ratio} under the averaging bound {bound}")
    return PigeonholeWitness(x, ratio, bound, n, nu)


# -- prefix-dense offsets ------------------------------------------------------


def _thresholds(gamma: Fraction, n: int) -> list[int]:
    """ceil(gamma*i) for i = 1..n: an integer count meets gamma*i exactly when it reaches
    that value.  Clamping to [0, i+1] keeps every value an int64 and changes no verdict."""
    num, den = gamma.numerator, gamma.denominator
    return [min(max(-(-num * i // den), 0), i + 1) for i in range(1, n + 1)]


def fraction_floor(gamma: Fraction, n: int) -> Fraction:
    """Largest j/i strictly below gamma with 1 <= i <= n, 0 <= j <= i."""
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise InputError("gamma must be in (0, 1]")
    if n < 1:
        raise InputError("n must be >= 1")
    return max(Fraction(need - 1, i) for i, need in enumerate(_thresholds(gamma, n), start=1))


def _dense_classes(c: IntSet, n: int, gamma: Fraction):
    """(vec, ids, firsts, freq): C's bit vector, ``trace_classes(vec, n)``, and class k's
    offsets in the prefix-dense region, theta in [0, N-n] with |C ∩ [theta+1, theta+i]| >=
    gamma*i for all i <= n (all of its offsets or none).  That reads only bits
    theta .. theta+n-1 of C, the window labelled at theta; the labels are exact, so each class
    has one verdict, decided at its first offset, which holds the class's window, by a
    running count <= n < 2^31 in int32.
    """
    big = check_anchored(c, "base set")
    if not 1 <= n < big:
        raise InputError("need 1 <= n < N")
    vec = bit_vector(c)
    ids, firsts = trace_classes(vec, n)
    count = np.zeros(len(firsts), dtype=np.int32)
    dense = np.ones(len(firsts), dtype=bool)
    for i, need in enumerate(_thresholds(Fraction(gamma), n), start=1):
        count += vec[firsts + (i - 1)]
        dense &= count >= need
    return vec, ids, firsts, np.bincount(ids) * dense


@dataclass(frozen=True)
class WalkReport:
    """Block-walk lower bound on the prefix-dense region.

    The walk starts at 0; on a region offset it advances by 1, otherwise by
    the least prefix length i that misses the threshold.  A missing prefix has
    count strictly under gamma*i, hence at most gamma_floor*i since counts sit
    on the grid {j/i : i <= n}, and summing the walk's contributions against
    |C| forces visits * (1 - gamma_floor) > |C| - gamma_floor*N - n.  The walk
    visits every region offset, so visits == region_size and none is run: if
    theta misses first at length i, then for 0 < j < i the count on
    [theta+j+1, theta+i] is at most ceil(gamma*i) - 1 - ceil(gamma*j), under
    ceil(gamma*(i-j)) as the ceiling is subadditive, so theta+j misses too.
    """

    gamma: Fraction
    gamma_floor: Fraction
    bound: Fraction
    visits: int
    region_size: int
    base_size: int


def _walk_report(c: IntSet, n: int, gamma: Fraction, region_size: int) -> WalkReport:
    big = check_anchored(c, "base set")
    gn = fraction_floor(gamma, n)
    bound = (Fraction(c.count, big) - gn - Fraction(n, big)) / (1 - gn)
    if region_size <= bound * big:
        raise VerificationError("block walk failed to witness its own bound")
    return WalkReport(Fraction(gamma), gn, bound, region_size, region_size, big)


def block_walk_bound(c: IntSet, n: int, gamma: Fraction) -> WalkReport:
    return _walk_report(c, n, gamma, int(_dense_classes(c, n, gamma)[3].sum()))


# -- modal trace extraction ----------------------------------------------------


@dataclass(frozen=True)
class ExtractionCertificate:
    """The modal length-n trace of a set, with its offset class.

    prefix is (C - theta) ∩ [1, n] for every theta in matches; its counting
    function dominates gamma * i at every i <= n; and matches collects at
    least a 2^-n share of the region (pigeonhole over the possible traces),
    recorded as match_bound = region_size / 2^n <= |matches|.  gamma_floor
    (fraction_floor(gamma, n)) and match_bound are computed from the other
    fields, so neither a constructor nor ``dataclasses.replace`` sets them.
    """

    n: int
    gamma: Fraction
    gamma_floor: Fraction = field(init=False)
    prefix: Pattern
    region_size: int
    matches: IntSet
    match_bound: Fraction = field(init=False)
    base_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma_floor", fraction_floor(self.gamma, self.n))
        object.__setattr__(self, "match_bound", Fraction(self.region_size, 1 << self.n))


def verify_extraction(c: IntSet, cert: ExtractionCertificate) -> bool:
    """Recheck every certificate invariant through plain Python sets."""
    big = check_anchored(c, "base set")
    if cert.base_size != big:
        raise VerificationError("stored base size does not match the base set")
    n = cert.n
    elems = cert.prefix.elems
    if elems[0] < 1 or elems[-1] > n:
        raise VerificationError("prefix pattern escapes [1, n]")
    num, den = cert.gamma.numerator, cert.gamma.denominator
    have = 0
    it = iter(elems)
    nxt = next(it, None)
    for i in range(1, n + 1):
        if nxt == i:
            have += 1
            nxt = next(it, None)
        if have * den < num * i:
            raise VerificationError(f"prefix counting function fails at i = {i}")
    pset = set(elems)
    if cert.matches.window != Window(0, big - n):
        raise VerificationError("match offsets live on the wrong window")
    if cert.matches.count == 0:
        raise VerificationError("empty match class")
    held, held_hi = set(), 0  # members of C on [theta + 1, held_hi], refilled as theta grows
    for theta in cert.matches.members():
        if theta + n > held_hi:
            held_hi = min(theta + n + RECOUNT_SPAN, big)
            held = set(restrict(c, Window(theta + 1, held_hi)).members())
        trace = {x - theta for x in range(theta + 1, theta + n + 1) if x in held}
        if trace != pset:
            raise VerificationError(f"offset {theta} does not reproduce the prefix")
    if cert.region_size > big - n + 1:
        raise VerificationError("region exceeds the offset range")
    if cert.matches.count * (1 << n) < cert.region_size:
        raise VerificationError("match class under the pigeonhole share")
    return True


def trace_extract(c: IntSet, n: int, gamma: Fraction) -> ExtractionCertificate:
    """Certify the modal trace class of the prefix-dense offsets (least pattern on ties)."""
    big = check_anchored(c, "base set")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InputError("gamma must be positive")
    if n > TRACE_CAP:
        raise InputError(f"trace length {n} above the cap {TRACE_CAP}; the 2^-n bound degrades")
    vec, ids, firsts, freq = _dense_classes(c, n, gamma)
    region_size = int(freq.sum())
    if region_size == 0:
        raise InfeasibleError(
            f"no offset meets the prefix threshold {gamma}; lower gamma or grow the window"
        )
    # offset theta's trace is bits theta .. theta+n-1 of C: elements theta+1 .. theta+n
    tied = np.flatnonzero(freq == freq.max()).tolist()
    pattern_of = {k: trace_pattern(vec, int(firsts[k]), n).shift(1) for k in tied}
    best = min(tied, key=lambda k: pattern_of[k].elems)
    cert = ExtractionCertificate(
        n=n,
        gamma=gamma,
        prefix=pattern_of[best],
        region_size=region_size,
        matches=from_bit_vector(ids == best, Window(0, big - n)),
        base_size=big,
    )
    verify_extraction(c, cert)
    return cert


# -- extraction against a larger ambient set -----------------------------------


@dataclass(frozen=True)
class PrefixCheck:
    """Shift-set density of one prefix of the extracted pattern inside A."""

    length: int
    est_value: Fraction
    floor: Fraction
    ok: bool = field(default=True, init=False)  # dense_pattern_extract raises on a failing prefix


@dataclass(frozen=True)
class DensePatternResult:
    offset: int
    alpha: Fraction
    cert: ExtractionCertificate
    checks: list[PrefixCheck]
    walk: WalkReport


def dense_pattern_extract(
    a: IntSet, n: int, slack: Fraction, window_len: int
) -> DensePatternResult:
    """Extract the modal trace of the best window of A and tie it back to A.

    The certificate lives on C, the densest (least-offset) length-window_len
    sub-window, with gamma = density(C) - slack.  Every prefix of the extracted
    pattern then embeds into A at every match offset, so the shift set of the
    prefix inside A is at least as dense as the match class; both facts are
    asserted, the first bitwise, the second through the window estimator.
    The walk bound on C is checked from the region size the extraction counted.
    """
    slack = Fraction(slack)
    if slack < 0:
        raise InputError("slack must be >= 0")
    est, c = best_window(a, window_len)
    alpha, offset = est.value, est.at
    if alpha <= slack:
        raise InfeasibleError(f"window density {alpha} does not exceed the slack {slack}")
    cert = trace_extract(c, n, alpha - slack)
    srange = Window(offset, offset + window_len - n)
    shifted = cert.matches.shift(offset)
    floor_value = Fraction(cert.matches.count, window_len)
    checks: list[PrefixCheck] = []
    for j in range(1, len(cert.prefix) + 1):
        f = Pattern(cert.prefix.elems[:j])
        s = shift_set_of(f, a, srange)
        if minus(shifted, s):
            raise VerificationError(f"a match offset fails to embed the length-{j} prefix")
        value = upper_banach_est(s, srange.length).value
        if value < floor_value:
            raise VerificationError(f"shift-set density {value} under the match share {floor_value}")
        checks.append(PrefixCheck(j, value, floor_value))
    walk = _walk_report(c, n, cert.gamma, cert.region_size)
    return DensePatternResult(offset, alpha, cert, checks, walk)


# -- two-set pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class JointExtractResult:
    """Aligned overlap of the dense windows of two sets, with extraction.

    C and D are the densest windows of A (length window_len, offset offset_a)
    and B (length sub_len, offset offset_b); zeta aligns them, and the overlap
    W = (C - zeta) ∩ D has density at least alpha*beta - sub_len/window_len.
    The certificate extracts from W.  align_shift carries a match offset square
    back into both ambient sets: align_window.lo + matches lands in
    ((A - align_shift) ∩ B) - e for every prefix element e, which is recounted
    bitwise (align_count members over align_window).
    """

    alpha: Fraction
    beta: Fraction
    offset_a: int
    offset_b: int
    pig: PigeonholeWitness
    overlap: IntSet
    gamma: Fraction
    cert: ExtractionCertificate
    align_shift: int
    align_window: Window
    align_count: int
    eps_achieved: Fraction


def _alignment_recount(a: IntSet, b: IntSet, align: int, cert: ExtractionCertificate,
                       window: Window) -> int:
    """|((A - align) ∩ B) - e over every prefix element e| on window, by big-int shifts alone;
    a match offset (cert.matches moved to window.lo) outside that set raises."""
    inter = intersect(
        combine_shifts(a, [-(align + e) for e in cert.prefix], window),
        combine_shifts(b, [-e for e in cert.prefix], window),
    )
    if minus(cert.matches.shift(window.lo), inter):
        raise VerificationError("a match offset fails the joint alignment recount")
    return inter.count


def joint_extract(
    a: IntSet, b: IntSet, window_len: int, sub_len: int, n: int, slack: Fraction
) -> JointExtractResult:
    slack = Fraction(slack)
    if slack < 0:
        raise InputError("slack must be >= 0")
    if sub_len * MIN_RATIO > window_len:
        raise InputError(
            f"sub window {sub_len} too long for window {window_len} at ratio {MIN_RATIO}; "
            "the sub_len/window_len correction would dominate"
        )
    ea, c = best_window(a, window_len)
    eb, d = best_window(b, sub_len)
    alpha, off_a = ea.value, ea.at
    beta, off_b = eb.value, eb.at
    pig = pigeonhole_shift(c, d)
    zeta = pig.shift
    w = intersect(restrict(c.shift(-zeta), d.window), d)
    if Fraction(w.count, sub_len) != pig.ratio:
        raise VerificationError("overlap count disagrees with the convolution readout")
    if Fraction(w.count, sub_len) < alpha * beta - Fraction(sub_len, window_len):
        raise VerificationError("overlap density under the pigeonhole floor")
    gamma = alpha * beta - slack - Fraction(sub_len, window_len)
    if gamma <= 0:
        raise InfeasibleError(
            f"corrected density target {gamma} is not positive; "
            "shrink sub_len, the slack, or use denser sets"
        )
    cert = trace_extract(w, n, gamma)
    align = off_a + zeta - off_b
    align_window = Window(off_b, off_b + sub_len)
    return JointExtractResult(
        alpha=alpha,
        beta=beta,
        offset_a=off_a,
        offset_b=off_b,
        pig=pig,
        overlap=w,
        gamma=gamma,
        cert=cert,
        align_shift=align,
        align_window=align_window,
        align_count=_alignment_recount(a, b, align, cert, align_window),
        eps_achieved=Fraction(cert.matches.count, sub_len),
    )


# -- iterated pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class ChainStage:
    index: int
    kind: str
    alpha: Fraction
    gamma: Fraction
    prefix: Pattern
    matches_count: int
    correction: Fraction


@dataclass(frozen=True)
class ChainExtractResult:
    """Left fold of the two-set pipeline across a list of sets.

    Stage 1 extracts from the first set alone at trace length n + k - 1; each
    later stage pairs the next set with the previous stage's pattern
    (materialized on its own window) and shortens the trace by one.  The final
    pattern's counting function dominates final_gamma, which in turn dominates
    floor = prod(alpha_i) - sum of per-stage corrections; both are asserted.
    delta_checks re-verify that every difference of the final pattern is a
    shared dense shift: the shift intersection of each input set is nonempty.
    """

    stages: list[ChainStage]
    final_prefix: Pattern
    final_gamma: Fraction
    nominal: Fraction
    floor: Fraction
    delta_checks: list[tuple[int, list[Fraction]]]


def chain_extract(
    sets: list[IntSet],
    n: int,
    slack: Fraction,
    window_len: int | None = None,
) -> ChainExtractResult:
    if not sets:
        raise InputError("need at least one set")
    slack = Fraction(slack)
    k = len(sets)
    first_n = n + k - 1
    if first_n > TRACE_CAP:
        raise InputError(
            f"first-stage trace length {n + k - 1} above the cap {TRACE_CAP}; "
            "fewer sets or a shorter target trace"
        )
    if window_len is None:
        window_len = min(s.window.length for s in sets)
    base = dense_pattern_extract(sets[0], first_n, slack, window_len)
    stages = [
        ChainStage(1, "base", base.alpha, base.cert.gamma, base.cert.prefix,
                   base.cert.matches.count, slack)
    ]
    prefix, cur_n = base.cert.prefix, first_n
    gamma = base.cert.gamma
    nominal = base.alpha
    floor_value = base.alpha - slack
    for i in range(1, k):
        carried = make_set(prefix.elems, Window(1, cur_n))
        res = joint_extract(sets[i], carried, window_len, cur_n, cur_n - 1, slack)
        corr = slack + Fraction(cur_n, window_len)
        stages.append(
            ChainStage(i + 1, "joint", res.alpha, res.gamma, res.cert.prefix,
                       res.cert.matches.count, corr)
        )
        prefix, cur_n, gamma = res.cert.prefix, cur_n - 1, res.gamma
        # beta of this stage is the carried pattern's own density, at least
        # the previous gamma, so the floor recursion below stays provable
        floor_value = res.alpha * floor_value - corr
        nominal *= res.alpha
    if gamma < floor_value:
        raise VerificationError("final stage density target under the product floor")
    checks: list[tuple[int, list[Fraction]]] = []
    for t in prefix.differences():
        vals = []
        for s in sets:
            value = shift_density(s, t, min(first_n, s.window.length - abs(t)))
            if value <= 0:
                raise VerificationError(
                    f"difference {t} of the final pattern is not a dense shift of every input"
                )
            vals.append(value)
        checks.append((t, vals))
    return ChainExtractResult(stages, prefix, gamma, nominal, floor_value, checks)


# -- covers built from the pipeline --------------------------------------------


@dataclass(frozen=True)
class BaselineCover:
    shifts: list[int]
    covered: int
    target_len: int
    complete: bool


@dataclass(frozen=True)
class DifferenceCoverResult:
    pipeline: JointExtractResult
    cert: CoverCertificate
    expected_k: int
    covered_interval: tuple[int, int] | None
    baseline: BaselineCover


def _baseline_interval_cover(
    diff: IntSet, pool: list[int], target: Window, cap: int
) -> BaselineCover:
    """Plain marginal-gain greedy: cover target with shifts of the difference set."""
    tlen = target.length
    covered = np.zeros(tlen, dtype=bool)
    shifts: list[int] = []
    while len(shifts) < cap and not covered.all():
        best_gain, best_f, best_sl = 0, None, None
        for f in pool:
            sl = bit_vector(restrict(diff.shift(f), target)).view(bool)
            gain = int(np.count_nonzero(sl & ~covered))
            if gain > best_gain:
                best_gain, best_f, best_sl = gain, f, sl
        if best_f is None:
            break
        shifts.append(best_f)
        covered |= best_sl
    got = int(np.count_nonzero(covered))
    return BaselineCover(shifts, got, tlen, got == tlen)


def difference_cover(
    a: IntSet,
    b: IntSet,
    candidates,
    window_len: int,
    sub_len: int,
    n: int,
    slack: Fraction,
) -> DifferenceCoverResult:
    """Cover candidates by zero-threshold dense shifts of the aligned overlap.

    Runs the two-set pipeline, covers the candidate list greedily by
    D(W, 0) + F on the overlap W (the finite carrier of the extracted
    pattern: its certificate puts theta + prefix inside W for each match
    theta, so every difference of the pattern is a dense shift of W), then
    verifies on the raw data how much of an interval
    (A - B) + F actually covers, against a marginal-gain baseline.
    """

    def overlap():
        res = joint_extract(a, b, window_len, sub_len, n, slack)
        return res.overlap, res

    (_, res), cert, _ = certify_cover(candidates, Fraction(0), 0, overlap)
    expected_k = floor(1 / (res.alpha * res.beta))
    order = candidate_order(candidates)
    diff = difference_set(a, b)
    hull = Window(diff.window.lo + min(cert.shifts), diff.window.hi + max(cert.shifts))
    covered_interval = longest_run(combine_shifts(diff, cert.shifts, hull, union=True))
    target = Window(min(order), max(order))
    baseline = _baseline_interval_cover(diff, order, target, cap=max(2 * expected_k, 8))
    return DifferenceCoverResult(res, cert, expected_k, covered_interval, baseline)


@dataclass(frozen=True)
class IntersectCoverResult:
    pipeline: JointExtractResult
    cert: CoverCertificate
    expected_k: int
    checks_a: list[ShiftCheck]
    checks_b: list[ShiftCheck]


def intersect_delta_cover(
    a: IntSet,
    b: IntSet,
    eps: Fraction,
    candidates,
    window_len: int,
    sub_len: int,
    n: int,
    slack: Fraction,
    mandated_x: int = 0,
) -> IntersectCoverResult:
    """Cover candidates by shifts that are eps-dense for both sets at once.

    The greedy runs on the aligned overlap W; any shift it uses therefore has
    |W ∩ (W - t)| > eps * sub_len, and each witnessing pair sits inside one
    length-sub_len window of A (through C) and of B (through D), so the
    per-shift re-verifications against the full sets are guaranteed to pass.
    """
    eps = Fraction(eps)

    def overlap():
        res = joint_extract(a, b, window_len, sub_len, n, slack)
        ab = res.alpha * res.beta
        if eps >= ab * ab:
            raise InfeasibleError(f"eps = {eps} not below the squared joint density {ab * ab}")
        return res.overlap, res

    (_, res), cert, (checks_a, checks_b) = certify_cover(
        candidates, eps, mandated_x, overlap, ambient=(a, b), n=sub_len
    )
    ab = res.alpha * res.beta
    expected_k = floor((ab - eps) / (ab * ab - eps))
    return IntersectCoverResult(res, cert, expected_k, checks_a, checks_b)
