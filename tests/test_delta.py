"""Shift-intersection density sweeps against brute force."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brute
from diffsets import (
    InputError,
    IntSet,
    Window,
    delta_syndetic_check,
    difference_set,
    eps_delta_banach,
    eps_delta_upper,
    make_set,
    shift_intersection,
    upper_banach_est,
)
import diffsets.delta as delta_module
from diffsets.delta import shift_density


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
    """One Banach scan per distinct |t|; the anchored sweep still evaluates every t."""
    a = IntSet(Window(1, 400), random.Random(3).getrandbits(400))
    calls = []
    for name in ("upper_banach_est", "upper_asymptotic_est"):
        scan = getattr(delta_module, name)
        monkeypatch.setattr(delta_module, name, lambda s, n, scan=scan: calls.append(s) or scan(s, n))
    for lo, hi, mags in [(-3, 50, 51), (-50, 50, 51), (5, 40, 36), (-40, -5, 36), (0, 0, 1)]:
        calls.clear()
        eps_delta_banach(a, Fraction(1, 5), 30, Window(lo, hi))
        assert len(calls) == mags, (lo, hi)
        calls.clear()
        eps_delta_upper(a, Fraction(1, 5), 30, Window(lo, hi))
        assert len(calls) == hi - lo + 1, (lo, hi)


@st.composite
def anchored_with_trange(draw, max_len=300):
    length = draw(st.integers(4, max_len))
    a = IntSet(Window(1, length), draw(st.integers(0, (1 << length) - 1)))
    m = draw(st.integers(1, max(1, length // 2)))
    tmax = length - m
    thi = draw(st.integers(0, tmax))
    tlo = draw(st.integers(-tmax, thi))
    return a, m, Window(tlo, thi)


@settings(max_examples=60)
@given(st.data())
def test_upper_per_t_matches_brute(data):
    a, m, trange = data.draw(anchored_with_trange())
    eps = Fraction(data.draw(st.integers(0, 3)), 4)
    res = eps_delta_upper(a, eps, m, trange)
    mem = set(a.members())
    for t in range(trange.lo, trange.hi + 1):
        # the intersection's members all sit in [1, length], so re-anchoring
        # at 1 keeps every one of them
        value, _ = brute.anchored_max(brute.shift_intersection(mem, t), (m + 1) // 2, m)
        assert res.per_t[t] == value
        assert (t in res.members) == (value > eps)


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


def test_syndetic_check_frozen():
    a = residues({0}, 4, 0, 999)
    rep = delta_syndetic_check(a, 100, 4, Window(-60, 60))
    assert rep["gap"] == 4 and rep["ok"]
    rep = delta_syndetic_check(a, 100, 3, Window(-60, 60))
    assert rep["gap"] == 4 and not rep["ok"]

    full = IntSet(Window(0, 499), (1 << 500) - 1)
    rep = delta_syndetic_check(full, 50, 1, Window(-100, 100))
    assert rep["gap"] == 1 and rep["ok"]


def test_syndetic_check_needs_positive_density():
    empty = IntSet(Window(0, 99), 0)
    with pytest.raises(InputError):
        delta_syndetic_check(empty, 10, 4, Window(-5, 5))
