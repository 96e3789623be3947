"""Density estimators and structure classifiers against brute-force scans."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute
from diffsets import (
    DensityEstimate,
    InputError,
    IntSet,
    Window,
    best_window,
    longest_run,
    lower_asymptotic_est,
    lower_banach_est,
    make_set,
    piecewise_syndetic_witness,
    schnirelmann_est,
    syndetic_gap,
    thick_witness,
    upper_asymptotic_est,
    upper_asymptotic_shifts,
    upper_banach_est,
)
from diffsets.intset import MAX_WINDOW_LENGTH


def residues(classes, modulus, lo, hi):
    return make_set([x for x in range(lo, hi + 1) if x % modulus in classes], Window(lo, hi))


@st.composite
def small_sets(draw, lo_min=-30, lo_max=30, max_len=50):
    lo = draw(st.integers(lo_min, lo_max))
    length = draw(st.integers(1, max_len))
    w = Window(lo, lo + length - 1)
    bits = draw(st.integers(0, (1 << length) - 1))
    return IntSet(w, bits)


@st.composite
def anchored_sets(draw, max_len=60):
    length = draw(st.integers(1, max_len))
    bits = draw(st.integers(0, (1 << length) - 1))
    return IntSet(Window(1, length), bits)


def _est(e):
    return e.value, e.at


# ---------------------------------------------------------------------------
# Banach pair


@given(small_sets(), st.data())
def test_banach_pair_matches_scan(a, data):
    n = data.draw(st.integers(1, a.window.length))
    up = upper_banach_est(a, n)
    lo = lower_banach_est(a, n)
    mem = set(a.members())
    want_up = brute.upper_banach(mem, a.window.lo, a.window.hi, n)
    want_lo = brute.lower_banach(mem, a.window.lo, a.window.hi, n)
    assert (up.value, up.at) == want_up
    assert (lo.value, lo.at) == want_lo
    assert lo.value <= up.value
    assert up.value.denominator <= n


@given(small_sets(), st.data())
def test_banach_at_window_inside(a, data):
    n = data.draw(st.integers(1, a.window.length))
    est = upper_banach_est(a, n)
    assert a.window.lo <= est.at + 1
    assert est.at + n <= a.window.hi
    assert est.n == n and est.kind == "upper_banach"


@given(small_sets(), st.data())
def test_best_window_is_the_densest_window_moved_onto_one(a, data):
    n = data.draw(st.integers(1, a.window.length))
    est, c = best_window(a, n)
    mem = set(a.members())
    assert (est.value, est.at) == brute.upper_banach(mem, a.window.lo, a.window.hi, n)
    assert est == upper_banach_est(a, n)
    assert c.window == Window(1, n)
    assert set(c.members()) == {x - est.at for x in mem if est.at < x <= est.at + n}
    assert c.count == est.value * n


def test_banach_frozen_examples():
    evens = residues({0}, 2, 0, 999)
    assert upper_banach_est(evens, 10).value == Fraction(1, 2)
    assert lower_banach_est(evens, 10).value == Fraction(1, 2)

    r = residues({0, 1, 2}, 10, 0, 999)
    assert upper_banach_est(r, 10).value == Fraction(3, 10)
    assert lower_banach_est(r, 10).value == Fraction(3, 10)

    full = IntSet(Window(5, 40), (1 << 36) - 1)
    assert upper_banach_est(full, 7).value == 1
    assert lower_banach_est(full, 7).value == 1
    empty = IntSet(Window(5, 40), 0)
    assert upper_banach_est(empty, 7).value == 0


def test_banach_ties_take_least_offset():
    # two isolated members give several windows with count 1; the scan must
    # report the first one
    a = make_set([3, 15], Window(0, 20))
    est = upper_banach_est(a, 4)
    assert est.value == Fraction(1, 4)
    assert est.at == a.window.lo - 1  # [0,3] already contains 3


@st.composite
def periodic_sets(draw, max_len=600):
    """Sets of 51..max_len bits that repeat a short pattern, a few bits flipped."""
    lo = draw(st.integers(-30, 30))
    length = draw(st.integers(51, max_len))
    k = draw(st.integers(1, 12))
    pattern = draw(st.integers(0, (1 << k) - 1))
    bits = int("".join(str(pattern >> (i % k) & 1) for i in range(length))[::-1], 2)
    for i in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        bits ^= 1 << i
    return IntSet(Window(lo, lo + length - 1), bits)


@settings(max_examples=60)
@given(periodic_sets(), st.data())
def test_banach_pair_ties_on_long_windows(a, data):
    # a repeated pattern ties the window count at every period: least offset wins
    n = data.draw(st.integers(1, a.window.length))
    mem = set(a.members())
    assert _est(upper_banach_est(a, n)) == brute.upper_banach(mem, a.window.lo, a.window.hi, n)
    assert _est(lower_banach_est(a, n)) == brute.lower_banach(mem, a.window.lo, a.window.hi, n)


@st.composite
def banach_cases(draw, max_len=600):
    """(set, n): windows of 1..max_len bits, random or periodic, lo far from 0 too.

    n is drawn near the byte and word sizes (8, 64) and near the window length,
    so the count of offsets L - n + 1 falls on and off multiples of 8 and 64.
    """
    lo = draw(st.sampled_from([-37, 0, 2**70]))
    length = draw(st.integers(1, max_len))
    if draw(st.booleans()):  # a repeated pattern ties the count at every period
        k = draw(st.integers(1, 16))
        pattern = draw(st.integers(0, (1 << k) - 1))
        bits = int("".join(str(pattern >> (i % k) & 1) for i in range(length))[::-1], 2)
    else:
        bits = draw(st.integers(0, (1 << length) - 1))
    near = st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129])
    n = draw(st.one_of(near, st.integers(1, 130), near.map(lambda d: length + 1 - d)))
    n = min(max(n, 1), length)
    return IntSet(Window(lo, lo + length - 1), bits), n


@settings(max_examples=120)
@given(banach_cases())
def test_banach_pair_matches_brute_on_byte_and_word_edges(case):
    a, n = case
    mem = set(a.members())
    assert _est(upper_banach_est(a, n)) == brute.upper_banach(mem, a.window.lo, a.window.hi, n)
    assert _est(lower_banach_est(a, n)) == brute.lower_banach(mem, a.window.lo, a.window.hi, n)


def test_banach_pair_matches_brute_at_every_byte_phase():
    """Every n mod 8 (the entering bytes' bit shift) against every (L - n) mod 8
    (where the last leaving byte is cut), n = L included, on random, full and
    empty windows, with n past a few bytes as well."""
    rng = random.Random(8)
    for n in [*range(1, 9), *range(64, 72)]:
        for extra in range(17):  # L - n
            length = n + extra
            for bits in (rng.getrandbits(length), (1 << length) - 1, 0):
                lo = rng.choice([-37, 0, 1, 2**70])
                a = IntSet(Window(lo, lo + length - 1), bits)
                mem = set(a.members())
                got = (_est(upper_banach_est(a, n)), _est(lower_banach_est(a, n)))
                want = (brute.upper_banach(mem, a.window.lo, a.window.hi, n),
                        brute.lower_banach(mem, a.window.lo, a.window.hi, n))
                assert got == want, (n, length, bits)


def test_banach_n_out_of_range():
    a = make_set([1], Window(0, 9))
    with pytest.raises(InputError):
        upper_banach_est(a, 0)
    with pytest.raises(InputError):
        lower_banach_est(a, 11)


# ---------------------------------------------------------------------------
# anchored estimators


@given(anchored_sets(), st.data())
def test_asymptotic_pair_matches_scan(a, data):
    m = data.draw(st.integers(1, a.window.length))
    mem = set(a.members())
    lo_i = (m + 1) // 2 if m > 1 else 1
    up = upper_asymptotic_est(a, m)
    lo = lower_asymptotic_est(a, m)
    assert (up.value, up.at) == brute.anchored_max(mem, lo_i, m)
    assert (lo.value, lo.at) == brute.anchored_min(mem, lo_i, m)


@given(anchored_sets(), st.data())
def test_schnirelmann_matches_scan(a, data):
    n = data.draw(st.integers(1, a.window.length))
    est = schnirelmann_est(a, n)
    assert (est.value, est.at) == brute.schnirelmann(set(a.members()), n)


@st.composite
def long_anchored_sets(draw, max_len=2000):
    """Anchored sets up to max_len bits: random bits, or a random period repeated."""
    length = draw(st.integers(2, max_len))
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << length) - 1))
    else:
        k = draw(st.integers(1, 12))
        pattern = draw(st.integers(0, (1 << k) - 1))
        bits = int("".join(str(pattern >> (i % k) & 1) for i in range(length))[::-1], 2)
    return IntSet(Window(1, length), bits)


def _anchored_want(a, lo_i, m):
    # brute counts members of [1, i] only, so members past m cannot matter
    mem = {x for x in a.members() if x <= m}
    return brute.anchored_max(mem, lo_i, m), brute.anchored_min(mem, lo_i, m)


@settings(max_examples=60)
@given(long_anchored_sets(), st.data())
def test_anchored_estimators_match_scan_on_long_windows(a, data):
    # m well below the window length: the scan reads [1, m] of a longer window
    m = data.draw(st.integers(1, max(1, a.window.length // 3)))
    want_up, want_lo = _anchored_want(a, (m + 1) // 2, m)
    up, lo = upper_asymptotic_est(a, m), lower_asymptotic_est(a, m)
    assert (up.value, up.at) == want_up
    assert (lo.value, lo.at) == want_lo
    sch = schnirelmann_est(a, m)
    assert (sch.value, sch.at) == _anchored_want(a, 1, m)[1]


def test_anchored_ties_take_least_i():
    # P[i]/i = 1/2 at every even i of the evens, 1/2 at every even i of the odds
    evens = residues({0}, 2, 1, 2000)
    assert upper_asymptotic_est(evens, 1000).at == 500
    assert lower_asymptotic_est(evens, 1001).at == 501  # 250/501 beats 1/2
    odds = residues({1}, 2, 1, 2000)
    assert upper_asymptotic_est(odds, 1000).at == 501  # 251/501
    assert lower_asymptotic_est(odds, 1000).at == 500
    assert schnirelmann_est(odds, 1000).at == 2
    # {0, 1} mod 5: 2/5 at every multiple of 5, (2k+1)/(5k+4) just below it
    r = residues({0, 1}, 5, 1, 2000)
    assert upper_asymptotic_est(r, 1000).at == 501
    assert lower_asymptotic_est(r, 1000).value == Fraction(201, 504)
    for a, m in ((evens, 1000), (evens, 1001), (odds, 1000), (r, 1000), (r, 999)):
        want_up, want_lo = _anchored_want(a, (m + 1) // 2, m)
        assert _est(upper_asymptotic_est(a, m)) == want_up
        assert _est(lower_asymptotic_est(a, m)) == want_lo
        assert _est(schnirelmann_est(a, m)) == _anchored_want(a, 1, m)[1]


def test_anchored_estimators_match_brute_on_periodic_and_random_sets():
    """The exact extremum at the least i, on sets with many tied ratios."""
    rng = random.Random(5)
    cases = [(residues({0, 1}, 5, 1, 2000), 999), (residues({1}, 2, 1, 2000), 1000)]
    for length in (7, 60, 500, 2000):
        cases.append((IntSet(Window(1, length), rng.getrandbits(length)), length // 2))
    for a, m in cases:
        want_up, want_lo = _anchored_want(a, (m + 1) // 2, m)
        assert _est(upper_asymptotic_est(a, m)) == want_up
        assert _est(lower_asymptotic_est(a, m)) == want_lo
        assert _est(schnirelmann_est(a, m)) == _anchored_want(a, 1, m)[1]


def _ratios(p, i):
    """p / i as the anchored estimators compute it: int32 counts over int64 positions."""
    return np.asarray(p, dtype=np.int32) / np.asarray(i, dtype=np.int64)


def test_float_ratios_keep_the_exact_order_up_to_the_cap():
    """The premise of picking the anchored extrema by float64 p / i.

    Farey neighbours p1/i1 > p2/i2 (p1*i2 - p2*i1 = 1) are the closest pairs
    of different ratios; with every i <= MAX_WINDOW_LENGTH their quotients keep
    that order.  A ratio scaled by k rounds to the same float, so ties stay ties.
    """
    cap = MAX_WINDOW_LENGTH
    rng = random.Random(3)
    pairs = [(1, cap, 0, 1), (1, cap - 1, 1, cap), (cap - 1, cap, cap - 2, cap - 1)]
    while len(pairs) < 20_000:
        i2 = rng.randint(cap // 2, cap)
        p2 = rng.randint(1, i2 - 1)
        if gcd(p2, i2) == 1:
            i1 = -pow(p2, -1, i2) % i2  # p2*i1 = -1 mod i2
            pairs.append(((1 + p2 * i1) // i2, i1, p2, i2))
    p1, i1, p2, i2 = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert (p1 * i2 - p2 * i1 == 1).all() and (p1 <= i1).all() and (i1 <= cap).all()
    assert (_ratios(p1, i1) > _ratios(p2, i2)).all()

    i = np.array([rng.randint(1, cap // 2) for _ in range(20_000)], dtype=np.int64)
    p = np.array([rng.randint(0, x) for x in i.tolist()], dtype=np.int64)
    k = np.array([rng.randint(2, cap // x) for x in i.tolist()], dtype=np.int64)
    assert (_ratios(k * p, k * i) == _ratios(p, i)).all()


def test_anchored_estimators_refuse_a_horizon_over_the_cap(monkeypatch):
    cap = MAX_WINDOW_LENGTH
    a = IntSet(Window(1, cap + 1), 1)
    ests = (upper_asymptotic_est, lower_asymptotic_est, schnirelmann_est,
            lambda a, m: next(upper_asymptotic_shifts(a, m, (0,))))
    refusal = f"^horizon {cap + 1} is over the window length cap of {cap}$"
    with monkeypatch.context() as patch:  # refused before anything of that length is built
        patch.setattr("diffsets.density.bit_vector", None)
        for est in ests:
            with pytest.raises(InputError, match=refusal):
                est(a, cap + 1)
    assert _est(schnirelmann_est(a, cap)) == (Fraction(1, cap), cap)


def test_anchored_empty_prefix_and_full_set():
    # members only past m: every ratio is 0, so the least i wins
    late = make_set(range(1500, 2001), Window(1, 2000))
    full = IntSet(Window(1, 2000), (1 << 2000) - 1)
    for a, ms, value in ((late, (1, 2, 999, 1000), 0), (full, (1, 2, 999, 1000, 2000), 1)):
        for m in ms:
            lo_i = (m + 1) // 2
            assert _est(upper_asymptotic_est(a, m)) == (value, lo_i)
            assert _est(lower_asymptotic_est(a, m)) == (value, lo_i)
            assert _est(schnirelmann_est(a, m)) == (value, 1)


@given(anchored_sets())
def test_schnirelmann_below_lower_asymptotic(a):
    m = a.window.length
    assert schnirelmann_est(a, m).value <= lower_asymptotic_est(a, m).value


def test_anchored_frozen_examples():
    evens = residues({0}, 2, 1, 1000)
    up = upper_asymptotic_est(evens, 1000)
    lo = lower_asymptotic_est(evens, 1000)
    assert up.value == Fraction(1, 2)
    assert lo.value == Fraction(250, 501)  # worst prefix is the odd i just past m/2
    assert abs(lo.value - Fraction(1, 2)) <= Fraction(1, 1000)

    odds = residues({1}, 2, 1, 100)
    est = schnirelmann_est(odds, 100)
    assert est.value == Fraction(1, 2) and est.at == 2
    assert schnirelmann_est(evens, 100).value == 0
    assert schnirelmann_est(evens, 100).at == 1

    full = IntSet(Window(1, 64), (1 << 64) - 1)
    assert upper_asymptotic_est(full, 64).value == 1
    assert schnirelmann_est(full, 64).value == 1


def test_anchored_requires_window_at_one():
    a = make_set([2, 4], Window(0, 9))
    for fn in (upper_asymptotic_est, lower_asymptotic_est, schnirelmann_est):
        with pytest.raises(InputError):
            fn(a, 5)


# ---------------------------------------------------------------------------
# classifiers


@given(small_sets())
def test_longest_run_matches_scan(a):
    got = longest_run(a)
    want = brute.longest_run(set(a.members()))
    assert got == want


def _runs_set(lo, length, runs):
    """The set on [lo, lo + length - 1] holding the intervals (offset, run length)."""
    return make_set([lo + o + j for o, n in runs for j in range(n)], Window(lo, lo + length - 1))


def _brute_gap(a):
    mem = sorted(a.members())
    return max(y - x for x, y in zip(mem, mem[1:]))


@st.composite
def long_run_sets(draw):
    """Sets on windows of 10^4 to 3*10^4 positions at lo -37, 0 or 2^70: random runs
    and gaps whose lengths straddle powers of two, or Bernoulli bits of density p."""
    lo = draw(st.sampled_from([-37, 0, 2**70]))
    length = draw(st.integers(10**4, 3 * 10**4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.5, 0.9, 0.99]))
        bits = sum(1 << i for i in range(length) if rng.random() < p)
        return IntSet(Window(lo, lo + length - 1), bits)
    runs, at = [], rng.randrange(3)
    sizes = [2**j + e for j in range(1, 12) for e in (-1, 0, 1)]
    while True:
        n = rng.choice(sizes)
        if at + n > length:
            break
        runs.append((at, n))
        at += n + rng.choice(sizes)
    return _runs_set(lo, length, runs)


@settings(max_examples=30, deadline=None)
@given(long_run_sets())
def test_run_statistics_on_long_windows_match_brute(a):
    mem = set(a.members())
    assert longest_run(a) == brute.longest_run(mem)
    if len(mem) >= 2:
        assert syndetic_gap(a) == _brute_gap(a)


@pytest.mark.parametrize("lo", [-5, 0, 2**70])
@pytest.mark.parametrize("j", range(1, 9))
@pytest.mark.parametrize("e", [-1, 0, 1])
def test_longest_run_at_powers_of_two(lo, j, e):
    n = 2**j + e
    runs = [(3, n - 1), (n + 5, n), (3 * n + 9, n)]  # a shorter run, then two equal longest
    a = _runs_set(lo, 4 * n + 12, runs)
    assert longest_run(a) == (lo + n + 5, n) == brute.longest_run(set(a))
    gap = 1 + (3 * n + 9) - (2 * n + 5)
    assert syndetic_gap(a) == _brute_gap(a) == gap
    ends = _runs_set(lo, 3 * n + 9 + n, runs)  # the last longest run ends at window.hi
    assert longest_run(ends) == (lo + n + 5, n)
    tail = _runs_set(lo, 3 * n + 9 + n + 1, runs[:2] + [(3 * n + 9, n + 1)])
    assert longest_run(tail) == (lo + 3 * n + 9, n + 1) == brute.longest_run(set(tail))


@pytest.mark.parametrize("lo", [-5, 0, 2**70])
@pytest.mark.parametrize("length", [1, 2, 3, 64, 65, 1000])
def test_run_statistics_of_full_and_edge_sets(lo, length):
    w = Window(lo, lo + length - 1)
    assert longest_run(IntSet(w, (1 << length) - 1)) == (lo, length)
    assert longest_run(IntSet(w, 0)) is None
    assert longest_run(IntSet(w, 1)) == (lo, 1)
    assert longest_run(IntSet(w, 1 << (length - 1))) == (w.hi, 1)
    if length >= 2:
        edges = IntSet(w, 1 | 1 << (length - 1))  # members at both window edges only
        assert syndetic_gap(edges) == length - 1
        assert syndetic_gap(IntSet(w, (1 << length) - 1)) == 1
    if length >= 5:
        inner = make_set([lo + 1, lo + length - 2], w)  # away from the edges
        assert syndetic_gap(inner) == length - 3
        assert syndetic_gap(make_set([lo + 1, lo + 2, lo + length - 2], w)) == length - 4


def test_longest_run_empty():
    assert longest_run(IntSet(Window(0, 5), 0)) is None


@given(small_sets(), st.integers(1, 12))
def test_thick_witness_agrees_with_longest_run(a, length):
    x = thick_witness(a, length)
    run = brute.longest_run(set(a.members()))
    if x is None:
        assert run is None or run[1] < length
    else:
        mem = set(a.members())
        assert all(v in mem for v in range(x, x + length))
        # least start: no earlier interval of that length fits
        for y in range(a.window.lo, x):
            assert not all(v in mem for v in range(y, y + length))


def test_thick_witness_frozen():
    # square-spaced blocks: k integers starting at 10k^2.  The first block
    # holding a 5-run is k=5 at 250.
    members = [10 * k * k + j for k in range(1, 8) for j in range(k)]
    a = make_set(members, Window(0, 700))
    assert thick_witness(a, 5) == 250
    assert thick_witness(a, 4) == 160
    assert thick_witness(a, 8) is None

    full = IntSet(Window(3, 12), (1 << 10) - 1)
    assert thick_witness(full, 10) == 3
    assert thick_witness(full, 11) is None  # longer than the window

    evens = residues({0}, 2, 0, 99)
    assert thick_witness(evens, 2) is None


@given(small_sets())
def test_syndetic_gap_matches_scan(a):
    mem = sorted(a.members())
    if len(mem) < 2:
        with pytest.raises(InputError):
            syndetic_gap(a)
        return
    want = max(y - x for x, y in zip(mem, mem[1:]))
    assert syndetic_gap(a) == want


def test_syndetic_gap_frozen():
    sevens = residues({0}, 7, 0, 999)
    assert syndetic_gap(sevens) == 7
    full = IntSet(Window(0, 9), (1 << 10) - 1)
    assert syndetic_gap(full) == 1


@given(small_sets(), st.integers(1, 6), st.integers(1, 10))
def test_piecewise_syndetic_witness_sound(a, g, length):
    got = piecewise_syndetic_witness(a, g, length)
    mem = set(a.members())
    if got is None:
        return
    assert got.length == length
    assert a.window.lo <= got.lo and got.hi <= a.window.hi
    # every point of the interval is within g-1 of a member to its left,
    # i.e. A + [0, g-1] covers it
    for v in range(got.lo, got.hi + 1):
        assert any(v - d in mem for d in range(g))


@given(small_sets(), st.integers(1, 6), st.integers(1, 10))
def test_piecewise_syndetic_witness_complete(a, g, length):
    # when the spread set contains an interval somewhere, a witness exists
    mem = set(a.members())
    spread = {x + d for x in mem for d in range(g)}
    has = any(
        all(v in spread for v in range(x, x + length))
        for x in range(a.window.lo, a.window.hi - length + 2)
    )
    got = piecewise_syndetic_witness(a, g, length)
    assert (got is not None) == has


@st.composite
def gap_cases(draw):
    """(A, g, length) with A's window near 0 or at +-2^70, g from 1 to two past the
    window length or 10^13, and length from 1 to two past the window length."""
    lo = draw(st.one_of(st.integers(-30, 30), st.sampled_from([-(2**70), 2**70])))
    a = draw(small_sets(lo_min=lo, lo_max=lo))
    g = draw(st.one_of(st.integers(1, a.window.length + 2), st.just(10**13)))
    return a, g, draw(st.integers(1, a.window.length + 2))


@settings(max_examples=300)
@given(gap_cases())
def test_piecewise_syndetic_witness_is_least(case):
    a, g, length = case
    want = brute.piecewise_syndetic_witness(set(a.members()), a.window.lo, a.window.hi, g, length)
    assert piecewise_syndetic_witness(a, g, length) == (None if want is None else Window(*want))


@given(small_sets(), st.integers(1, 10))
def test_piecewise_syndetic_witness_huge_gap(a, length):
    # gaps past the window length spread no further, and cost no more
    assert piecewise_syndetic_witness(a, 10**13, length) == piecewise_syndetic_witness(
        a, a.window.length, length
    )


def test_piecewise_syndetic_frozen():
    evens = residues({0}, 2, 0, 99)
    assert piecewise_syndetic_witness(evens, 1, 4) is None
    w = piecewise_syndetic_witness(evens, 2, 50)
    assert w == Window(0, 49)
    # an interval plus far-away dust: witness sits on the interval
    a = make_set(list(range(10, 20)) + [40, 55], Window(0, 60))
    assert piecewise_syndetic_witness(a, 1, 10) == Window(10, 19)
    # a lone member at lo covers the whole window once g reaches its length
    lone = make_set([0], Window(0, 9))
    assert piecewise_syndetic_witness(lone, 10**13, 10) == Window(0, 9)
    assert piecewise_syndetic_witness(lone, 9, 10) is None
    for length in (0, -5):  # an empty interval is refused, as in thick_witness
        with pytest.raises(InputError, match="interval length must be >= 1"):
            piecewise_syndetic_witness(evens, 2, length)
        with pytest.raises(InputError, match="interval length must be >= 1"):
            thick_witness(evens, length)
        with pytest.raises(InputError, match="gap bound must be >= 1"):
            piecewise_syndetic_witness(evens, length, 4)


# ---------------------------------------------------------------------------
# estimate plumbing


def test_density_estimate_is_frozen():
    est = DensityEstimate(Fraction(1, 2), 4, 0, "upper_banach")
    with pytest.raises(AttributeError):
        est.value = Fraction(1, 3)
