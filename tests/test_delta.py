"""Shift-intersection density sweeps against brute force."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from diffsets import (
    InputError,
    IntSet,
    Window,
    banach_word_bounds,
    difference_set,
    eps_delta_banach,
    eps_delta_upper,
    make_set,
    shift_densities,
    shift_intersection,
    upper_asymptotic_est,
    upper_asymptotic_shifts,
    upper_banach_est,
)
import diffsets.delta as delta_module
import diffsets.density as density_module
from diffsets.delta import shift_density
from diffsets.intset import MAX_WINDOW_LENGTH


def residues(classes, modulus, lo, hi):
    return make_set([x for x in range(lo, hi + 1) if x % modulus in classes], Window(lo, hi))


@st.composite
def sets_with_trange(draw, max_len=40):
    length = draw(st.integers(4, max_len))
    lo = draw(st.integers(-20, 20))
    bits = draw(st.integers(1, (1 << length) - 1))
    a = IntSet(Window(lo, lo + length - 1), bits)
    n = draw(st.integers(1, max(1, length // 2)))
    tmax = length - n
    thi = draw(st.integers(0, tmax))
    tlo = draw(st.integers(-tmax, thi))
    return a, n, Window(tlo, thi)


@given(st.data())
def test_shift_intersection_matches_brute(data):
    a, _, trange = data.draw(sets_with_trange())
    t = data.draw(st.integers(trange.lo, trange.hi))
    got = shift_intersection(a, t)
    assert set(got.members()) == brute.shift_intersection(set(a.members()), t)
    assert got.window == Window(max(a.window.lo, a.window.lo - t), min(a.window.hi, a.window.hi - t))


@given(st.data())
def test_banach_sweep_matches_brute(data):
    a, n, trange = data.draw(sets_with_trange())
    eps = Fraction(data.draw(st.integers(0, 3)), 4)
    res = eps_delta_banach(a, eps, n, trange)
    want = brute.eps_delta(
        set(a.members()), a.window.lo, a.window.hi, eps, n,
        range(trange.lo, trange.hi + 1),
    )
    assert set(res.members.members()) == want
    # the strict-threshold rule, directly
    for t in range(trange.lo, trange.hi + 1):
        assert (t in res.members) == (res.per_t[t] > eps)


@given(st.data())
def test_per_t_is_exact_banach_value(data):
    a, n, trange = data.draw(sets_with_trange())
    res = eps_delta_banach(a, Fraction(0), n, trange)
    t = data.draw(st.integers(trange.lo, trange.hi))
    inter = brute.shift_intersection(set(a.members()), t)
    wlo = max(a.window.lo, a.window.lo - t)
    whi = min(a.window.hi, a.window.hi - t)
    value, _ = brute.upper_banach(inter, wlo, whi, n)
    assert res.per_t[t] == value


@st.composite
def sets_with_one_sided_trange(draw):
    """A set, n, and a shift range straddling 0, on one side of it, or holding only 0."""
    length = draw(st.integers(60, 120))
    lo = draw(st.integers(-20, 20))
    a = IntSet(Window(lo, lo + length - 1), draw(st.integers(0, (1 << length) - 1)))
    n = draw(st.integers(1, 10))
    t1, t2 = sorted(draw(st.lists(st.integers(1, length - n), min_size=2, max_size=2)))
    trange = draw(st.sampled_from([Window(-3, 50), Window(0, 0), Window(t1, t2),
                                   Window(-t2, -t1), Window(-t1, t2), Window(-t2, t1)]))
    return a, n, trange


@given(sets_with_one_sided_trange())
def test_per_t_matches_per_shift_evaluation(case):
    """The sweep scans each |t| once; every t still reads its own per-shift value."""
    a, n, trange = case
    res = eps_delta_banach(a, Fraction(0), n, trange)
    ts = range(trange.lo, trange.hi + 1)
    assert list(res.per_t) == list(ts)
    assert res.per_t == {t: shift_density(a, t, n) for t in ts}


def test_banach_sweep_scans_each_magnitude_once(monkeypatch):
    """One Banach scan per distinct |t|; the anchored sweep makes no per-shift estimator
    call, yet every t reads its brute-force value."""
    a = IntSet(Window(1, 400), random.Random(3).getrandbits(400))
    calls = []
    for module, name in ((delta_module, "upper_banach_est"), (density_module, "upper_asymptotic_est")):
        scan = getattr(module, name)
        monkeypatch.setattr(module, name, lambda s, n, scan=scan: calls.append(s) or scan(s, n))
    for lo, hi, mags in [(-3, 50, 51), (-50, 50, 51), (5, 40, 36), (-40, -5, 36), (0, 0, 1)]:
        calls.clear()
        eps_delta_banach(a, Fraction(1, 5), 30, Window(lo, hi))
        assert len(calls) == mags, (lo, hi)
        calls.clear()
        res = eps_delta_upper(a, Fraction(1, 5), 30, Window(lo, hi))
        assert not calls, (lo, hi)
        ts = range(lo, hi + 1)
        assert list(res.per_t) == list(ts)
        assert res.per_t == {t: _upper_want(a, 30, t)[0] for t in ts}


@st.composite
def anchored_with_trange(draw, max_len=300):
    """An anchored set (empty, full, one member, sparse or random), m, and a shift
    range straddling 0, on one side of it, or {0}; its far end is often the
    tightest safe shift, m + |t| = the window length."""
    length = draw(st.integers(1, max_len))
    kind = draw(st.sampled_from(["empty", "full", "single", "sparse", "random"]))
    if kind == "empty":
        bits = 0
    elif kind == "full":
        bits = (1 << length) - 1
    elif kind == "single":
        bits = 1 << draw(st.integers(0, length - 1))
    elif kind == "sparse":
        bits = sum(1 << x for x in set(draw(st.lists(st.integers(0, length - 1), max_size=4))))
    else:
        bits = draw(st.integers(0, (1 << length) - 1))
    m = draw(st.integers(1, length))
    tmax = length - m
    far = tmax if draw(st.booleans()) else draw(st.integers(0, tmax))
    near = draw(st.integers(0, far))
    trange = draw(st.sampled_from([Window(-far, near), Window(-near, far), Window(near, far),
                                   Window(-far, -near), Window(0, 0)]))
    return IntSet(Window(1, length), bits), m, trange


def _upper_want(a, m, t):
    """(value, least i) of the anchored maximum on A ∩ (A - t), by brute force."""
    inter = {x for x in brute.shift_intersection(set(a.members()), t) if x <= m}
    return brute.anchored_max(inter, (m + 1) // 2, m)


@settings(max_examples=80)
@given(st.data())
def test_upper_per_t_matches_brute(data):
    """The sweep and the block pass both equal brute force, shift by shift."""
    a, m, trange = data.draw(anchored_with_trange())
    eps = Fraction(data.draw(st.integers(0, 3)), 4)
    ts = range(trange.lo, trange.hi + 1)
    res = eps_delta_upper(a, eps, m, trange)
    for t, est in zip(ts, upper_asymptotic_shifts(a, m, ts), strict=True):
        value, at = _upper_want(a, m, t)
        assert (est.value, est.at) == (value, at)
        assert res.per_t[t] == value
        assert (t in res.members) == (value > eps)


def test_upper_sweep_spans_many_blocks():
    """About 500 members in [1, m] and 2001 shifts: dozens of blocks of ~2^14 cells."""
    a = IntSet(Window(1, 3000), random.Random(11).getrandbits(3000))
    res = eps_delta_upper(a, Fraction(1, 3), 1000, Window(-1000, 1000))
    ts = range(-1000, 1001)
    assert res.per_t == {t: next(upper_asymptotic_shifts(a, 1000, [t])).value for t in ts}
    # brute force takes about 7 ms a shift here, so it checks every 25th
    assert all(res.per_t[t] == _upper_want(a, 1000, t)[0] for t in ts[::25])
    # a row longer than a block (over 2^14 members) runs alone; A ∩ (A - t) ∩ [1, m]
    # is [1, m] for t >= 0 and [1 - t, m] for t < 0, whose best ratio is at i = m
    m = 16_500
    full = IntSet(Window(1, 17_000), (1 << 17_000) - 1)
    ests = upper_asymptotic_shifts(full, m, range(-250, 251))
    want = [(Fraction(m + t, m), m) if t < 0 else (1, 8250) for t in range(-250, 251)]
    assert [(e.value, e.at) for e in ests] == want


def test_upper_sweep_matches_brute_on_periodic_and_random_sets():
    """The exact maximum at the least i on every shift, ties included."""
    rng = random.Random(7)
    cases = [(residues({0, 1}, 5, 1, 400), 199), (residues({1}, 2, 1, 400), 200)]
    for length in (7, 60, 400):
        cases.append((IntSet(Window(1, length), rng.getrandbits(length)), length // 2))
    for a, m in cases:
        tmax = a.window.length - m
        ts = range(-tmax, tmax + 1)
        ests = upper_asymptotic_shifts(a, m, ts)
        assert [(e.value, e.at) for e in ests] == [_upper_want(a, m, t) for t in ts], m


def test_upper_shift_sweep_refuses_unsafe_input():
    a = residues({0}, 2, 1, 100)
    with pytest.raises(InputError, match="exceeds window length 100"):
        list(upper_asymptotic_shifts(a, 90, range(-11, 5)))
    with pytest.raises(InputError, match="starting at 1"):
        list(upper_asymptotic_shifts(residues({0}, 2, 0, 99), 10, range(-5, 5)))
    ests = list(upper_asymptotic_shifts(a, 90, range(-10, 11)))  # m + |t| = 100 at both ends
    assert ests[10] == upper_asymptotic_est(a, 90)


@st.composite
def shift_lists(draw, trange):
    """Shifts from trange in any order, some of them repeated."""
    ts = draw(st.lists(st.integers(trange.lo, trange.hi), min_size=1, max_size=12))
    return ts + draw(st.lists(st.sampled_from(ts), max_size=4))


@given(st.data())
def test_shift_densities_match_brute(data):
    """Both estimators over an unsorted list with repeats and both signs: brute-force
    values, one key per distinct t in first-seen order."""
    a, n, trange = data.draw(sets_with_trange())
    ts = data.draw(shift_lists(trange))
    got = shift_densities(a, ts, n)
    assert list(got) == list(dict.fromkeys(ts))
    mem = set(a.members())
    for t, value in got.items():
        wlo, whi = max(a.window.lo, a.window.lo - t), min(a.window.hi, a.window.hi - t)
        assert value == brute.upper_banach(brute.shift_intersection(mem, t), wlo, whi, n)[0]
    a, m, trange = data.draw(anchored_with_trange())
    ts = data.draw(shift_lists(trange))
    got = shift_densities(a, ts, m, upper=True)
    assert list(got) == list(dict.fromkeys(ts))
    assert got == {t: _upper_want(a, m, t)[0] for t in ts}


def test_shift_densities_scan_each_magnitude_once(monkeypatch):
    """Each distinct |t| goes into the word pass once, and is rescanned at most once."""
    a = IntSet(Window(-5, 394), random.Random(4).getrandbits(400))
    passes, scans = [], []
    bounds, overlap = delta_module.banach_word_bounds, delta_module.shift_intersection
    monkeypatch.setattr(delta_module, "banach_word_bounds",
                        lambda s, mags, n: passes.append(list(mags)) or bounds(s, mags, n))
    monkeypatch.setattr(delta_module, "shift_intersection",
                        lambda s, t: scans.append(t) or overlap(s, t))
    ts = [9, -3, 0, 3, -9, 9, 17, -3, 2]
    got = shift_densities(a, ts, 50)
    assert passes == [[0, 2, 3, 9, 17]]
    assert len(scans) == len(set(scans)) and set(scans) <= {0, 2, 3, 9, 17}
    assert got == {t: shift_density(a, t, 50) for t in ts}


@st.composite
def word_cases(draw, max_len=400):
    """(set, n, ascending magnitudes m with n + m <= L) on and off the 64-bit word edges.

    Windows shorter than a word, n and m near multiples of 64, n + m = L and a
    far-off lo; half the sets are residues mod a short period, where the counts
    tie at every period when the period divides n.
    """
    lo = draw(st.sampled_from([-37, 0, 1, 2**70]))
    length = draw(st.one_of(st.integers(1, 63), st.integers(64, max_len)))
    if draw(st.booleans()):
        period = draw(st.integers(1, 9))
        classes = draw(st.integers(1, (1 << period) - 1))
        bits = sum(1 << i for i in range(length) if classes >> (i % period) & 1)
    else:
        bits = draw(st.integers(0, (1 << length) - 1))
    near = st.sampled_from([1, 63, 64, 65, 127, 128, 129, 191, 192])
    n = min(draw(st.one_of(near, st.integers(1, length))), length)
    room = length - n  # the largest magnitude
    m = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, room]), st.integers(0, room))
    mags = draw(st.lists(m.map(lambda x: min(x, room)), min_size=1, max_size=5))
    return IntSet(Window(lo, lo + length - 1), bits), n, sorted(set(mags))


def _window_counts(a, m, n):
    """Brute-force counts of A ∩ (A - m) at offsets 0 .. L - m - n of its overlap."""
    inter = brute.shift_intersection(set(a.members()), m)
    counts = brute.window_counts(inter, a.window.lo, a.window.hi - m, n)
    return [counts[x] for x in sorted(counts)]


@settings(max_examples=150)
@pytest.mark.parametrize("lanes", [1, None], ids=["one-row-blocks", "many-row-blocks"])
@given(word_cases())
# members only at the top: row m = 10 has offsets 0 .. 126, one aligned offset fewer than m = 0
@example(case=(IntSet(Window(1, 200), ((1 << 50) - 1) << 149), 64, [0, 10]))
def test_word_bounds_bound_every_offset_outside_the_hull(lanes, case):
    """The count is the best at an offset 64w; every offset outside the hull counts
    at most that, and the hull sits inside the row and starts on a word."""
    a, n, mags = case
    with pytest.MonkeyPatch.context() as patch:
        if lanes:
            patch.setattr(density_module, "_WORD_LANES", lanes)
        got = banach_word_bounds(a, mags, n)
    assert len(got) == len(mags)
    for m, (count, hull) in zip(mags, got):
        counts = _window_counts(a, m, n)
        assert count == max(counts[::64])
        if hull is None:
            assert max(counts) == count
        else:
            assert hull.lo % 64 == 0 and 0 <= hull.lo <= hull.hi < len(counts)
            outside = counts[:hull.lo] + counts[hull.hi + 1:]
            assert max(outside, default=0) <= count


@settings(max_examples=150)
@pytest.mark.parametrize("lanes", [1, None], ids=["one-row-blocks", "many-row-blocks"])
@given(word_cases())
def test_shift_densities_match_brute_on_word_edges(lanes, case):
    a, n, mags = case
    ts = [t for m in mags for t in (m, -m)]
    with pytest.MonkeyPatch.context() as patch:
        if lanes:
            patch.setattr(density_module, "_WORD_LANES", lanes)
        got = shift_densities(a, ts, n)
    for t in ts:
        assert got[t] == Fraction(max(_window_counts(a, abs(t), n)), n)
        w = a.window.intersect(a.window.shift(-t))
        assert got[t] == brute.upper_banach(brute.shift_intersection(set(a.members()), t), w.lo, w.hi, n)[0]


def test_word_bounds_refuse_magnitudes_out_of_order_or_range():
    a = residues({0, 1}, 5, 1, 100)
    assert banach_word_bounds(a, [], 10) == []
    assert len(banach_word_bounds(a, [0, 3, 90], 10)) == 3
    for mags in ([3, 0], [-1, 2], [0, 91]):
        with pytest.raises(InputError, match=r"magnitudes must ascend in \[0, 90\]"):
            banach_word_bounds(a, mags, 10)


def test_word_bounds_skip_or_rescan_whole_rows_of_residue_sets(monkeypatch):
    """Residues {0, 1} mod 5: with 5 | n every window ties, so no row is rescanned;
    with n = 1 mod 5 the aligned offsets already hold the best count, yet the
    bound leaves whole rows to rescan.  The values match brute force both ways."""
    a = residues({0, 1}, 5, 1, 700)
    mags = list(range(0, 131, 13))
    scans = []
    overlap = delta_module.shift_intersection
    monkeypatch.setattr(delta_module, "shift_intersection",
                        lambda s, t: scans.append(t) or overlap(s, t))
    for n, rescans in ((100, False), (101, True)):
        rows = banach_word_bounds(a, mags, n)
        assert all(hull is None for _, hull in rows) != rescans
        if rescans:
            assert any(hull == Window(0, 700 - m - n) for m, (_, hull) in zip(mags, rows))
        scans.clear()
        got = shift_densities(a, mags, n)
        assert bool(scans) == rescans
        mem = set(a.members())
        for m, (count, _) in zip(mags, rows):
            assert got[m] == Fraction(count, n)
            assert got[m] == brute.upper_banach(brute.shift_intersection(mem, m), 1, 700 - m, n)[0]


@pytest.mark.parametrize("n", [1000, 10**6])
def test_banach_sweep_peaks_below_one_full_scan_per_magnitude(n):
    """On a Bernoulli 1/2 set at the window length cap, the word pass and its
    rescans peak no higher than the full byte-table scan per |t| they replace.
    At n = 1000 three of the five rows rescan most of the row; at 10^6 every hull
    is short."""
    a = IntSet(Window(1, MAX_WINDOW_LENGTH), random.Random(3).getrandbits(MAX_WINDOW_LENGTH))
    ts = [0, 1, -5, 64, 1000]

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full = peak(lambda: [upper_banach_est(shift_intersection(a, abs(t)), n) for t in ts])
    assert peak(lambda: shift_densities(a, ts, n)) <= full


def test_shift_densities_name_the_first_unsafe_shift_of_largest_magnitude():
    a = residues({0}, 2, 1, 20)
    for upper in (False, True):
        with pytest.raises(InputError, match=r"^shift t=-7 unsafe: n \+ \|t\| = 21 exceeds window length 20"):
            shift_densities(a, [3, -7, 7], 14, upper)


@given(st.data())
def test_sweep_symmetry(data):
    a, n, trange = data.draw(sets_with_trange())
    tmax = min(abs(trange.lo), trange.hi) if trange.lo < 0 < trange.hi else 0
    if tmax == 0:
        return
    sym = Window(-tmax, tmax)
    res = eps_delta_banach(a, Fraction(0), n, sym)
    for t in range(1, tmax + 1):
        assert res.per_t[t] == res.per_t[-t]
        assert (t in res.members) == (-t in res.members)


@given(st.data())
def test_members_monotone_in_eps(data):
    a, n, trange = data.draw(sets_with_trange())
    lo_res = eps_delta_banach(a, Fraction(1, 8), n, trange)
    hi_res = eps_delta_banach(a, Fraction(1, 2), n, trange)
    assert set(hi_res.members.members()) <= set(lo_res.members.members())


@given(st.data())
def test_members_are_differences(data):
    a, n, trange = data.draw(sets_with_trange())
    res = eps_delta_banach(a, Fraction(0), n, trange)
    diffs = set(difference_set(a, a).members())
    assert set(res.members.members()) <= diffs


@given(st.data())
def test_zero_shift_membership(data):
    a, n, trange = data.draw(sets_with_trange())
    if 0 not in trange:
        return
    eps = Fraction(data.draw(st.integers(0, 3)), 4)
    res = eps_delta_banach(a, eps, n, trange)
    assert (0 in res.members) == (upper_banach_est(a, n).value > eps)


def test_banach_frozen_mod5():
    a = residues({0, 1}, 5, 0, 4999)
    trange = Window(-100, 100)
    quarter = eps_delta_banach(a, Fraction(1, 4), 500, trange)
    assert set(quarter.members.members()) == {t for t in range(-100, 101) if t % 5 == 0}
    tenth = eps_delta_banach(a, Fraction(1, 10), 500, trange)
    assert set(tenth.members.members()) == {
        t for t in range(-100, 101) if t % 5 in (0, 1, 4)
    }
    assert quarter.per_t[0] == Fraction(2, 5)
    assert quarter.per_t[1] == Fraction(1, 5)
    assert quarter.per_t[2] == 0


def test_upper_sweep_frozen():
    evens = residues({0}, 2, 1, 10_000)
    res = eps_delta_upper(evens, Fraction(1, 4), 1000, Window(-50, 50))
    assert set(res.members.members()) == {t for t in range(-50, 51) if t % 2 == 0}
    assert res.kind == "upper"

    nothing = eps_delta_upper(evens, Fraction(1), 1000, Window(-50, 50))
    assert not nothing.members

    full = IntSet(Window(1, 200), (1 << 200) - 1)
    everything = eps_delta_upper(full, Fraction(0), 50, Window(-20, 20))
    assert len(everything.members) == 41


def test_upper_sweep_needs_anchor():
    a = residues({0}, 2, 0, 99)
    with pytest.raises(InputError):
        eps_delta_upper(a, Fraction(0), 10, Window(-5, 5))


def test_upper_shift_density_needs_anchor():
    """The anchored proxy refuses a window not starting at 1.

    Read on [1, n] as if anchored, the multiples of 3 on [0, 399] gave 0 at t = 2.
    """
    a = residues({0}, 3, 0, 399)
    message = r"set must live on a window starting at 1 \(got Window\(0, 399\)\)"
    for t in (0, 2):
        with pytest.raises(InputError, match=message):
            shift_densities(a, [t], 100, upper=True)
    assert shift_density(a, 3, 100) == Fraction(34, 100)  # the Banach value needs no anchor


def test_shift_safety_names_offender():
    a = residues({0}, 2, 0, 99)
    with pytest.raises(InputError, match="t=-70"):
        eps_delta_banach(a, Fraction(0), 40, Window(-70, 10))
    with pytest.raises(InputError):
        eps_delta_banach(a, Fraction(0), 100, Window(-1, 1))
    # boundary case is allowed: n + |t| == length exactly
    eps_delta_banach(a, Fraction(0), 90, Window(-10, 10))


def test_negative_eps_rejected():
    a = residues({0}, 2, 0, 99)
    with pytest.raises(InputError):
        eps_delta_banach(a, Fraction(-1, 2), 10, Window(-5, 5))
    evens = residues({0}, 2, 1, 100)
    with pytest.raises(InputError):
        eps_delta_upper(evens, Fraction(-1, 2), 10, Window(-5, 5))
