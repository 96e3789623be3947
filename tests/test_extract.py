"""Pigeonhole alignment, prefix-dense regions, and trace extraction."""

import dataclasses
from collections import Counter
from fractions import Fraction
from functools import partial
from math import floor

import numpy as np
import pytest
from hypothesis import given, strategies as st

import brute
from diffsets import (
    CoverCertificate,
    ExtractionCertificate,
    InfeasibleError,
    InputError,
    IntSet,
    Pattern,
    VerificationError,
    Window,
    block_walk_bound,
    chain_extract,
    dense_pattern_extract,
    difference_cover,
    fraction_floor,
    greedy_shift_cover,
    intersect_delta_cover,
    joint_extract,
    make_set,
    pigeonhole_shift,
    trace_extract,
    upper_banach_est,
    verify_cover_certificate,
    verify_extraction,
)
from diffsets.extract import TRACE_CAP
from diffsets.intset import from_bit_vector


def residues(classes, modulus, lo, hi):
    return make_set([x for x in range(lo, hi + 1) if x % modulus in classes], Window(lo, hi))


@st.composite
def anchored(draw, min_len=2, max_len=48, nonempty=True):
    length = draw(st.integers(min_len, max_len))
    low = 1 if nonempty else 0
    bits = draw(st.integers(low, (1 << length) - 1))
    return IntSet(Window(1, length), bits)


# ---------------------------------------------------------------------------
# pigeonhole alignment


@given(anchored(min_len=2, max_len=60), anchored(min_len=1, max_len=14))
def test_pigeonhole_matches_brute(c, d):
    got = pigeonhole_shift(c, d)
    nu = d.window.hi
    want_x, want_count = brute.best_alignment(
        set(c.members()), set(d.members()), c.window.hi, nu
    )
    assert got.shift == want_x
    assert got.ratio == Fraction(want_count, nu)
    assert got.ratio >= got.bound


@given(anchored(max_len=60), anchored(max_len=14))
def test_pigeonhole_bound_formula(c, d):
    got = pigeonhole_shift(c, d)
    n, nu = c.window.hi, d.window.hi
    assert got.bound == Fraction(len(c) * len(d), n * nu) - Fraction(len(d), n)
    assert (got.base_len, got.sub_len) == (n, nu)


def test_pigeonhole_window_policing():
    with pytest.raises(InputError):
        pigeonhole_shift(make_set([0, 1], Window(0, 9)), make_set([1], Window(1, 3)))
    with pytest.raises(InputError):
        pigeonhole_shift(make_set([1], Window(1, 9)), make_set([2], Window(2, 3)))


def test_pigeonhole_second_window_past_16_bits():
    # nu = 2^16 + 1, past the old 16-bit lanes; the overlap is recounted by AND.  C has
    # period 7 far beyond D, so the shifts before the chosen one and a period after it
    # show that it is the least maximizer
    nu = (1 << 16) + 1
    c = residues({0, 1, 3}, 7, 1, 10 * nu)
    d = residues({1, 2}, 5, 1, nu)
    got = pigeonhole_shift(c, d)
    assert got.sub_len == nu and got.ratio >= got.bound

    def overlap(x):  # |(C - x) ∩ D|, bit i standing for element i + 1 of both
        return ((c.bits >> x) & d.bits).bit_count()

    assert got.ratio == Fraction(overlap(got.shift), nu)
    assert all(overlap(x) < overlap(got.shift) for x in range(1, got.shift))
    assert max(overlap(x) for x in range(got.shift, got.shift + 7)) == overlap(got.shift)


def test_pigeonhole_frozen():
    c = residues({0}, 3, 1, 300)
    d = residues({0}, 3, 1, 30)
    got = pigeonhole_shift(c, d)
    # x = 3 aligns the progressions: every multiple of 3 in [1,30] lands back
    # on a multiple of 3
    assert got.shift == 3
    assert got.ratio == Fraction(10, 30)


# ---------------------------------------------------------------------------
# fraction floor


@given(
    st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64),
    st.integers(1, 24),
)
def test_fraction_floor_matches_enumeration(gamma, n):
    assert fraction_floor(gamma, n) == brute.fraction_floor(gamma, n)


def test_fraction_floor_frozen():
    assert fraction_floor(Fraction(9, 20), 12) == Fraction(4, 9)
    assert fraction_floor(Fraction(1), 5) == Fraction(4, 5)
    assert fraction_floor(Fraction(1, 2), 2) == Fraction(0)  # 0/1 and 0/2 only
    with pytest.raises(InputError):
        fraction_floor(Fraction(0), 5)
    with pytest.raises(InputError):
        fraction_floor(Fraction(3, 2), 5)
    with pytest.raises(InputError):
        fraction_floor(Fraction(1, 2), 0)


# ---------------------------------------------------------------------------
# prefix-dense region


@given(anchored(min_len=3, max_len=40), st.data())
def test_prefix_dense_region_matches_brute(c, data):
    big = c.window.hi
    n = data.draw(st.integers(1, big - 1))
    # denominators past 2^31 take the exact plain-integer path
    gamma = Fraction(data.draw(st.integers(0, 8)), 8) + Fraction(
        data.draw(st.sampled_from([0, 1, -1])), 2**40
    )
    gamma = min(max(gamma, Fraction(1, 2**40)), Fraction(1))
    want = brute.prefix_dense(set(c.members()), big, n, gamma)
    assert block_walk_bound(c, n, gamma).region_size == len(want)


def test_prefix_dense_region_bounds():
    c = make_set([1, 2], Window(1, 10))
    for n in (10, 0):
        with pytest.raises(InputError, match="^need 1 <= n < N$"):
            block_walk_bound(c, n, Fraction(1, 2))


@given(anchored(min_len=4, max_len=40), st.data())
def test_block_walk_bound_invariants(c, data):
    big = c.window.hi
    n = data.draw(st.integers(1, big - 1))
    gamma = Fraction(data.draw(st.integers(1, 8)), 8)
    rep = block_walk_bound(c, n, gamma)
    assert rep.visits > rep.bound * big
    assert rep.region_size >= rep.visits
    assert rep.gamma_floor == fraction_floor(gamma, n)
    assert rep.gamma_floor < gamma


# gammas on small grids, gamma = 1, and denominators past 2^31
walk_gammas = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(1, 8), st.just(8)),
    st.sampled_from([2**31 + 11, 2**40, 3**27]).flatmap(
        lambda den: st.builds(Fraction, st.integers(1, den), st.just(den))
    ),
)


@given(anchored(min_len=2, max_len=40), st.data())
def test_block_walk_bound_matches_brute_walk(c, data):
    big = c.window.hi
    n = data.draw(st.integers(1, big - 1))
    gamma = data.draw(walk_gammas)
    rep = block_walk_bound(c, n, gamma)
    visits, region_size, gamma_floor = brute.block_walk(set(c.members()), big, n, gamma)
    assert (rep.visits, rep.region_size, rep.gamma_floor) == (visits, region_size, gamma_floor)
    assert visits == region_size


# ---------------------------------------------------------------------------
# trace extraction


@st.composite
def extract_instances(draw):
    length = draw(st.integers(6, 40))
    bits = draw(st.integers(1, (1 << length) - 1))
    c = IntSet(Window(1, length), bits)
    n = draw(st.integers(1, min(TRACE_CAP, length - 1)))  # every direct-code width
    # denominators past 2^31, as in test_prefix_dense_region_matches_brute
    gamma = Fraction(draw(st.integers(1, 8)), 8) + Fraction(
        draw(st.sampled_from([0, 1, -1])), 2**40
    )
    return c, n, min(gamma, Fraction(1))


@given(extract_instances())
def test_trace_extract_modal_class(inst):
    c, n, gamma = inst
    mem = set(c.members())
    big = c.window.hi
    region = brute.prefix_dense(mem, big, n, gamma)
    if not region:
        with pytest.raises(InfeasibleError):
            trace_extract(c, n, gamma)
        return
    cert = trace_extract(c, n, gamma)
    by_trace = Counter(brute.trace(mem, theta, n) for theta in region)
    top = max(by_trace.values())
    want_prefix = min(t for t, k in by_trace.items() if k == top)
    assert cert.prefix.elems == want_prefix
    assert cert.region_size == len(region)
    assert set(cert.matches.members()) == {
        theta for theta in region if brute.trace(mem, theta, n) == want_prefix
    }
    assert cert.matches.count * (1 << n) >= cert.region_size
    assert cert.match_bound == Fraction(len(region), 1 << n)
    assert verify_extraction(c, cert)


def test_trace_extract_at_the_cap_matches_per_offset_prefix_sums():
    """n = 16 on a Bernoulli 1/2 window of 2^17, against the per-offset threshold passes
    over an int64 prefix-sum array."""
    n, gamma = TRACE_CAP, Fraction(9, 20)
    bits = np.random.default_rng(16).integers(0, 2, 1 << 17, dtype=np.uint8)
    c = from_bit_vector(bits, Window(1, len(bits)))
    p = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    width = len(bits) - n + 1
    dense = np.ones(width, dtype=bool)
    for i in range(1, n + 1):
        dense &= (p[i : i + width] - p[:width]) * gamma.denominator >= gamma.numerator * i
    windows = np.lib.stride_tricks.sliding_window_view(bits, n)
    by_trace = Counter(tuple(np.flatnonzero(w) + 1) for w in windows[dense])
    top = max(by_trace.values())
    want_prefix = min(t for t, k in by_trace.items() if k == top)
    cert = trace_extract(c, n, gamma)
    assert cert.region_size == int(dense.sum())
    assert cert.prefix.elems == want_prefix
    hits = dense & (windows == np.isin(np.arange(1, n + 1), want_prefix)).all(axis=1)
    assert cert.matches == from_bit_vector(hits, Window(0, width - 1))


def test_trace_extract_frozen_mod5():
    c = residues({0, 1}, 5, 1, 1000)
    cert = trace_extract(c, 5, Fraction(2, 5))
    assert cert.prefix.elems == (1, 2)
    assert cert.region_size == 199  # thetas congruent to 4 mod 5
    assert cert.matches.count == 199
    assert cert.match_bound == Fraction(199, 32)
    assert cert.gamma_floor == fraction_floor(Fraction(2, 5), 5)


def test_trace_extract_guards():
    c = residues({0}, 2, 1, 20)
    with pytest.raises(InputError):
        trace_extract(c, 3, Fraction(0))
    with pytest.raises(InputError):
        trace_extract(c, 17, Fraction(1, 2))
    with pytest.raises(InputError):
        trace_extract(c, 20, Fraction(1, 2))
    with pytest.raises(InfeasibleError):
        trace_extract(c, 2, Fraction(1))  # no two consecutive members
    short = residues({0}, 2, 1, 10)
    for n in (0, 10):  # refused by block_walk_bound, which reads the same range of n
        with pytest.raises(InputError, match="^need 1 <= n < N$"):
            trace_extract(short, n, Fraction(1, 2))


def test_verify_extraction_catches_tampering():
    c = residues({0, 1}, 5, 1, 1000)
    cert = trace_extract(c, 5, Fraction(2, 5))
    wrong_prefix = dataclasses.replace(cert, prefix=Pattern((1, 3)))
    with pytest.raises(VerificationError):
        verify_extraction(c, wrong_prefix)

    inflated = dataclasses.replace(cert, region_size=cert.region_size * 40)
    assert inflated.match_bound == Fraction(inflated.region_size, 32)
    with pytest.raises(VerificationError):
        verify_extraction(c, inflated)

    # the derived fields follow the others and cannot be forged on their own
    for name, value in (("gamma_floor", Fraction(99, 100)), ("match_bound", Fraction(0))):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(cert, **{name: value})


@pytest.mark.parametrize("span", [0, 1, 3, 7, 4096])
def test_verify_extraction_refills_its_recount_window(monkeypatch, span):
    from diffsets import extract

    monkeypatch.setattr(extract, "RECOUNT_SPAN", span)
    c = residues({0, 1}, 5, 1, 1000)
    cert = trace_extract(c, 5, Fraction(2, 5))
    assert verify_extraction(c, cert)
    # offsets 902 and 993 hold other traces; each must be read from its own window
    for theta in (902, 993):
        m = cert.matches
        forged = IntSet(m.window, m.bits | 1 << (theta - m.window.lo))
        with pytest.raises(VerificationError, match=f"offset {theta} "):
            verify_extraction(c, dataclasses.replace(cert, matches=forged))


# One field of a real certificate changed per row, and the refusal it must draw.
# Certificates on the mod-5 set {0, 1} of [1, 1000]: the extraction (n = 5,
# gamma = 2/5) holds prefix (1, 2) and 199 match offsets on [0, 995], the
# least at 4; the cover of -50..50 at eps = 0 picks shifts [0, 2] with
# gamma_hat = 2/5, k_bound = 2 and margin = 1/20.  The rows reach every
# refusal of both verifiers and forge every field a constructor sets
# (test_tamper_table_forges_every_certificate_field).
TAMPER_TABLE = [
    ("extraction", "base_size", lambda cert: cert.base_size + 1,
     "stored base size does not match the base set"),
    ("extraction", "prefix", lambda cert: Pattern((1, 2, 6)), "prefix pattern escapes [1, n]"),
    ("extraction", "gamma", lambda cert: Fraction(1), "prefix counting function fails at i = 3"),
    ("extraction", "matches", lambda cert: cert.matches.shift(1),
     "match offsets live on the wrong window"),
    ("extraction", "n", lambda cert: cert.n - 1, "match offsets live on the wrong window"),
    ("extraction", "matches", lambda cert: IntSet(cert.matches.window, 0), "empty match class"),
    ("extraction", "matches", lambda cert: make_set([cert.matches.min()], cert.matches.window),
     "match class under the pigeonhole share"),
    ("cover", "shifts", lambda cert: cert.shifts + cert.shifts[:1],
     "duplicate shifts in certificate"),
    ("extraction", "region_size", lambda cert: cert.matches.window.length + 1,
     "region exceeds the offset range"),
    ("cover", "shifts", lambda cert: [51] + cert.shifts[1:],
     "mandated shift not among candidates"),
    ("cover", "base_size", lambda cert: cert.base_size + 1,
     "stored base size does not match the base set"),
    ("cover", "gamma_hat", lambda cert: cert.gamma_hat + Fraction(1, 1000),
     "stored base density does not match the base set"),
    ("cover", "k_bound", lambda cert: cert.k_bound + 1,
     "stored size bound does not match eps and the base density"),
    ("cover", "eps", lambda cert: Fraction(1, 10),
     "stored size bound does not match eps and the base density"),
    ("cover", "margin", lambda cert: cert.margin + 1,
     "stored margin does not match the candidates"),
    ("cover", "shifts", lambda cert: cert.shifts[:1], "candidate 2 marked covered but is not"),
    ("cover", "witnesses", lambda cert: {}, "witness for candidate 0 does not verify"),
    ("extraction", "prefix", lambda cert: Pattern((1, 3)),
     "offset 4 does not reproduce the prefix"),
]


@pytest.mark.parametrize("kind, field, forge, message", TAMPER_TABLE)
def test_verifiers_refuse_each_tampered_field(kind, field, forge, message):
    c = residues({0, 1}, 5, 1, 1000)
    xs = list(range(-50, 51))
    cert, verify = {
        "extraction": (trace_extract(c, 5, Fraction(2, 5)), partial(verify_extraction, c)),
        "cover": (greedy_shift_cover(c, xs, Fraction(0), 0),
                  partial(verify_cover_certificate, c, xs)),
    }[kind]
    assert verify(cert)
    with pytest.raises(VerificationError) as err:
        verify(dataclasses.replace(cert, **{field: forge(cert)}))
    assert str(err.value) == message


def test_tamper_table_forges_every_certificate_field():
    """A certificate field a constructor sets is stored, so some row must forge it."""
    forged = {(kind, field) for kind, field, _, _ in TAMPER_TABLE}
    types = {"extraction": ExtractionCertificate, "cover": CoverCertificate}
    unforged = [(kind, f.name) for kind, cls in types.items()
                for f in dataclasses.fields(cls) if f.init and (kind, f.name) not in forged]
    assert unforged == []


# ---------------------------------------------------------------------------
# extraction from the best window of an ambient set


def test_dense_pattern_extract_frozen_mod5():
    a = residues({0, 1}, 5, 0, 2099)
    res = dense_pattern_extract(a, 5, Fraction(0), 1000)
    assert res.alpha == Fraction(2, 5)
    assert res.offset == -1
    assert res.cert.prefix.elems == (1, 2)
    assert len(res.checks) == 2
    assert all(ch.ok for ch in res.checks)
    for ch in res.checks:
        assert ch.est_value >= ch.floor


def test_dense_pattern_extract_slack_guard():
    a = residues({0, 1}, 5, 0, 2099)
    with pytest.raises(InfeasibleError):
        dense_pattern_extract(a, 5, Fraction(1, 2), 1000)
    with pytest.raises(InputError):
        dense_pattern_extract(a, 5, Fraction(-1, 4), 1000)


@given(st.data())
def test_dense_pattern_extract_invariants(data):
    length = data.draw(st.integers(40, 90))
    # dense-ish random set so the region is rarely empty
    bits = data.draw(st.integers(0, (1 << length) - 1))
    a = IntSet(Window(0, length - 1), bits | ((1 << length) - 1) & 0x5555555555555555555555)
    window_len = data.draw(st.integers(16, length // 2))
    n = data.draw(st.integers(1, 5))
    try:
        res = dense_pattern_extract(a, n, Fraction(1, 8), window_len)
    except InfeasibleError:
        return
    assert res.alpha == upper_banach_est(a, window_len).value
    assert res.cert.gamma == res.alpha - Fraction(1, 8)
    assert len(res.checks) == len(res.cert.prefix.elems)
    assert all(ch.ok for ch in res.checks)


# ---------------------------------------------------------------------------
# two-set pipeline


def test_joint_extract_shape_and_recount():
    a = residues({0}, 2, 1, 2000)
    b = residues({0}, 3, 1, 400)
    res = joint_extract(a, b, 1000, 100, 6, Fraction(1, 50))
    assert res.alpha == Fraction(1, 2)
    assert res.beta == Fraction(34, 100)
    assert res.pig.ratio >= res.pig.bound
    assert res.overlap.window == Window(1, 100)
    assert Fraction(res.overlap.count, 100) == res.pig.ratio
    assert res.gamma == res.alpha * res.beta - Fraction(1, 50) - Fraction(100, 1000)
    assert res.align_count >= res.cert.matches.count
    assert res.eps_achieved == Fraction(res.cert.matches.count, 100)
    # the alignment shift really maps the match square into both sets
    amem, bmem = set(a.members()), set(b.members())
    for theta in list(res.cert.matches.members())[:20]:
        base = res.align_window.lo + theta
        for e in res.cert.prefix.elems:
            assert base + e in bmem
            assert base + e + res.align_shift in amem


def test_joint_extract_guards():
    a = residues({0}, 2, 1, 2000)
    b = residues({0}, 3, 1, 400)
    with pytest.raises(InputError):
        joint_extract(a, b, 1000, 200, 6, Fraction(1, 50))  # ratio violated
    with pytest.raises(InfeasibleError):
        # alpha*beta is far below the corrections here
        joint_extract(residues({0}, 40, 1, 2000), residues({0}, 40, 1, 400),
                      1000, 100, 4, Fraction(1, 50))


# ---------------------------------------------------------------------------
# chained pipeline


def test_chain_extract_single_set_matches_base():
    a = residues({0, 1, 2, 3}, 5, 1, 3000)
    chain = chain_extract([a], 4, Fraction(1, 25), window_len=600)
    base = dense_pattern_extract(a, 4, Fraction(1, 25), 600)
    assert len(chain.stages) == 1
    assert chain.final_prefix == base.cert.prefix
    assert chain.final_gamma == base.cert.gamma
    assert chain.nominal == base.alpha
    assert chain.floor == base.alpha - Fraction(1, 25)


def test_chain_extract_two_stages():
    sets = [
        residues({0, 1, 2, 3}, 5, 1, 3000),
        residues({0, 1, 2, 3, 4}, 6, 1, 3000),
    ]
    res = chain_extract(sets, 3, Fraction(1, 25), window_len=600)
    assert len(res.stages) == 2
    assert [s.kind for s in res.stages] == ["base", "joint"]
    assert len(res.final_prefix.elems) >= 1
    assert res.final_gamma >= res.floor
    assert res.nominal == res.stages[0].alpha * res.stages[1].alpha
    assert res.delta_checks
    for _, vals in res.delta_checks:
        assert len(vals) == 2 and all(v > 0 for v in vals)


def test_chain_extract_window_defaults_to_the_shortest_input():
    a = residues({0, 1, 2, 3}, 5, 1, 3000)
    b = residues({0, 1, 2, 3, 4}, 6, 1, 600)
    got = chain_extract([a, b], 3, Fraction(1, 25))
    assert got == chain_extract([a, b], 3, Fraction(1, 25), window_len=600)


def test_chain_extract_guards():
    a = residues({0, 1, 2, 3}, 5, 1, 3000)
    with pytest.raises(InputError):
        chain_extract([], 4, Fraction(1, 25))
    with pytest.raises(InputError):
        chain_extract([a, a, a], 15, Fraction(1, 25), window_len=600)


# ---------------------------------------------------------------------------
# covers built on the pipeline


def test_difference_cover_shape():
    a = residues({0}, 3, 0, 2999)
    b = residues({0}, 3, 0, 2999)
    res = difference_cover(a, b, range(-30, 31), 900, 45, 5, Fraction(1, 50))
    ab = res.pipeline.alpha * res.pipeline.beta
    assert res.expected_k == floor(1 / ab)
    assert res.cert.covered
    assert res.cert.shifts[0] == 0
    assert res.covered_interval is not None
    start, length = res.covered_interval
    assert length >= 1
    assert res.baseline.covered <= res.baseline.target_len
    assert res.baseline.complete == (res.baseline.covered == res.baseline.target_len)


def test_difference_cover_needs_zero():
    a = residues({0}, 3, 0, 2999)
    with pytest.raises(InputError):
        difference_cover(a, a, [1, 2, 3], 900, 45, 5, Fraction(1, 50))


def test_intersect_delta_cover_both_sets_verified():
    a = residues({0}, 2, 1, 3000)
    b = residues({0}, 3, 1, 3000)
    res = intersect_delta_cover(a, b, Fraction(0), range(-20, 21), 1000, 100, 6, Fraction(1, 50))
    assert res.cert.covered
    assert res.checks_a and res.checks_b
    assert all(ch.ok for ch in res.checks_a)
    assert all(ch.ok for ch in res.checks_b)
    used = sorted({x - xi for x, xi in res.cert.witnesses.items()})
    assert [ch.t for ch in res.checks_a] == used
    ab = res.pipeline.alpha * res.pipeline.beta
    assert res.expected_k == floor((ab - 0) / (ab * ab - 0))


def test_intersect_delta_cover_guards():
    a = residues({0}, 2, 1, 3000)
    b = residues({0}, 3, 1, 3000)
    with pytest.raises(InputError):
        intersect_delta_cover(a, b, Fraction(0), range(-1500, 1501), 1000, 100, 6, Fraction(1, 50))
    with pytest.raises(InfeasibleError):
        intersect_delta_cover(a, b, Fraction(1, 2), range(-20, 21), 1000, 100, 6, Fraction(1, 50))
