"""Exact Bohr-set membership, containment reports, and the witness search."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute
from diffsets import (
    BohrSpec,
    InputError,
    IntSet,
    VerificationError,
    Window,
    bohr_contained,
    bohr_generate,
    make_set,
    piecewise_bohr_search,
    suggest_freqs,
)
from diffsets.intset import MAX_WINDOW_LENGTH


def residues(classes, modulus, lo, hi):
    return make_set([x for x in range(lo, hi + 1) if x % modulus in classes], Window(lo, hi))


FREQ_POOL = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
    Fraction(2, 5), Fraction(1, 7), Fraction(3, 7), Fraction(1, 12),
]


def test_spec_validation():
    with pytest.raises(InputError):
        BohrSpec.of([], Fraction(1, 4))
    with pytest.raises(InputError):
        BohrSpec.of([Fraction(3, 2)], Fraction(1, 4))
    with pytest.raises(InputError):
        BohrSpec.of([Fraction(-1, 7)], Fraction(1, 4))
    with pytest.raises(InputError):
        BohrSpec.of([Fraction(1, 7)], Fraction(0))
    spec = BohrSpec.of(["1/7", "2/5"], "1/4", shift=3)
    assert spec.freqs == (Fraction(1, 7), Fraction(2, 5))
    assert spec.eps == Fraction(1, 4)
    # a residue table has one entry per residue: huge denominators are refused up front
    with pytest.raises(InputError, match="1/100000000000000"):
        BohrSpec.of([Fraction(1, 7), Fraction(1, 10**14)], Fraction(1, 3))
    at_cap = Fraction(1, MAX_WINDOW_LENGTH)
    assert BohrSpec.of([at_cap], Fraction(1, 3)).freqs == (at_cap,)


@pytest.mark.parametrize("freq", [Fraction(3, 1000003), Fraction(4999, 9973), Fraction(0)])
@pytest.mark.parametrize(
    "eps",
    [Fraction(1, 10**30), Fraction(1, 3), Fraction(10**30 + 1, 2 * 10**30), Fraction(5, 2)],
)
def test_generate_exact_for_big_denominators_and_fine_eps(freq, eps):
    w = Window(-30, 29)
    got = bohr_generate(BohrSpec.of([freq], eps, shift=7), w)
    assert set(got.members()) == brute.bohr_members([freq], eps, 7, w.lo, w.hi)


@given(st.data())
def test_generate_matches_brute(data):
    freqs = data.draw(st.lists(st.sampled_from(FREQ_POOL), min_size=1, max_size=3, unique=True))
    eps = Fraction(1, data.draw(st.integers(2, 8)))
    # windows and shifts beyond int64 too
    shift = data.draw(st.one_of(st.integers(-10, 10), st.just(-(10**30) + 1)))
    lo = data.draw(st.one_of(st.integers(-30, 30), st.integers(10**24, 10**24 + 30)))
    length = data.draw(st.integers(1, 80))
    w = Window(lo, lo + length - 1)
    got = bohr_generate(BohrSpec.of(freqs, eps, shift), w)
    assert set(got.members()) == brute.bohr_members(freqs, eps, shift, w.lo, w.hi)


def test_generate_frozen_seventh():
    s = bohr_generate(BohrSpec.of([Fraction(1, 7)], Fraction(1, 4)), Window(0, 48))
    assert set(s.members()) == {x for x in range(49) if x % 7 in (0, 1, 6)}


def test_generate_trivial_above_half():
    s = bohr_generate(BohrSpec.of([Fraction(1, 3)], Fraction(2, 3)), Window(0, 29))
    assert len(s) == 30


def test_generate_shift_relabels():
    spec0 = BohrSpec.of([Fraction(1, 7)], Fraction(1, 4))
    spec3 = BohrSpec.of([Fraction(1, 7)], Fraction(1, 4), shift=3)
    w = Window(0, 69)
    base = set(bohr_generate(spec0, w).members())
    moved = set(bohr_generate(spec3, w).members())
    assert moved == {x for x in range(70) if (x - 3) % 7 in (0, 1, 6)}
    assert moved == {x + 3 for x in base if x + 3 <= 69} | {x for x in moved if x < 3}


# ---------------------------------------------------------------------------
# containment


def test_containment_clean():
    w = Window(0, 349)
    d = residues({0, 1, 6}, 7, 0, 349)
    s = bohr_generate(BohrSpec.of([Fraction(1, 7)], Fraction(1, 4)), w)
    rep = bohr_contained(s, d, w)
    assert rep.ok
    assert rep.checked == len(s)
    assert rep.violation_count == 0 and rep.violations == []


def test_containment_reports_violations():
    w = Window(0, 349)
    s = bohr_generate(BohrSpec.of([Fraction(1, 7)], Fraction(1, 4)), w)
    holed = make_set([x for x in range(350) if x % 7 in (0, 1, 6) and x != 70], w)
    rep = bohr_contained(s, holed, w)
    assert not rep.ok
    assert rep.violation_count == 1 and rep.violations == [70]

    # a massively wrong target caps the listing at ten, least first
    empty = IntSet(w, 0)
    rep = bohr_contained(s, empty, w)
    assert not rep.ok
    assert rep.violation_count == len(s)
    assert len(rep.violations) == 10
    assert rep.violations == sorted(rep.violations)
    assert rep.violations[0] == s.min()


def test_containment_interval_policing():
    w = Window(0, 99)
    s = bohr_generate(BohrSpec.of([Fraction(1, 7)], Fraction(1, 4)), w)
    d = residues({0, 1, 6}, 7, 0, 49)
    with pytest.raises(InputError):
        bohr_contained(s, d, Window(0, 99))
    assert bohr_contained(s, d, Window(0, 49)).ok


# ---------------------------------------------------------------------------
# frequency suggestions


def test_suggest_freqs_frozen_mod7():
    d = residues({0}, 7, 0, 499)
    # every p/7 carries the full mass; ties break by (q, p) and conjugates
    # are not enumerated
    assert suggest_freqs(d, 3) == [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)]

    spread = residues({0, 1, 6}, 7, 0, 499)
    assert suggest_freqs(spread, 1) == [Fraction(1, 7)]
    # a shift by a multiple of every q <= 32 keeps every residue, here beyond int64
    far = spread.shift(lcm(*range(2, 33)) * 10**10)
    assert suggest_freqs(far, 3) == suggest_freqs(spread, 3)


@given(st.data())
def test_suggest_freqs_are_reduced_and_bounded(data):
    length = data.draw(st.integers(10, 120))
    bits = data.draw(st.integers(1, (1 << length) - 1))
    d = IntSet(Window(0, length - 1), bits)
    k = data.draw(st.integers(1, 6))
    q_max = data.draw(st.integers(2, 16))
    out = suggest_freqs(d, k, q_max=q_max)
    assert len(out) <= k
    assert len(set(out)) == len(out)
    for r in out:
        assert r.numerator <= r.denominator // 2
        assert r.denominator <= q_max


def _reference_freqs(d, k, q_max):
    """suggest_freqs by its definition: residue counts of the members by Python %, then the
    same float sums per reduced p/q."""
    scored = []
    for q in range(2, q_max + 1):
        counts = np.zeros(q)
        for x in d:
            counts[x % q] += 1
        angles = 2.0 * np.pi * np.arange(q) / q
        for p in range(1, q // 2 + 1):
            if gcd(p, q) == 1:
                re = float(np.dot(counts, np.cos(p * angles)))
                im = float(np.dot(counts, np.sin(p * angles)))
                scored.append((-np.hypot(re, im), q, p))
    return [Fraction(p, q) for _, q, p in sorted(scored)[:k]]


@given(st.sampled_from([0, -37, 10**20 + 3]), st.integers(1, 90), st.data())
def test_suggest_freqs_match_their_definition(lo, length, data):
    """Windows shorter and longer than q, beyond int64 too: the same floats, so the same
    ranking, to the last tie."""
    d = IntSet(Window(lo, lo + length - 1), data.draw(st.integers(0, (1 << length) - 1)))
    q_max = data.draw(st.integers(2, 40))
    assert suggest_freqs(d, 200, q_max=q_max) == _reference_freqs(d, 200, q_max)


def test_suggest_freqs_guards():
    d = residues({0}, 7, 0, 99)
    with pytest.raises(InputError):
        suggest_freqs(d, 0)
    with pytest.raises(InputError):
        suggest_freqs(d, 3, q_max=1)


# ---------------------------------------------------------------------------
# piecewise witness search


def test_piecewise_search_full_window():
    d = residues({0, 1, 6}, 7, 0, 349)
    wit = piecewise_bohr_search(d, 2, [Fraction(1, 4)], 100)
    assert wit is not None
    assert wit.spec.freqs == (Fraction(1, 7),)
    assert wit.spec.eps == Fraction(1, 4)
    assert wit.interval == Window(0, 349)
    assert wit.members == 150
    assert wit.coverage == Fraction(150, 350)


def test_piecewise_search_avoids_corruption():
    d = make_set([x for x in range(350) if x % 7 in (0, 1, 6) and x != 70], Window(0, 349))
    wit = piecewise_bohr_search(d, 1, [Fraction(1, 4)], 50)
    assert wit is not None
    assert 70 not in wit.interval
    assert wit.interval.length >= 50


def test_piecewise_search_no_witness():
    d = residues({0, 1, 6}, 7, 0, 349)
    assert piecewise_bohr_search(d, 2, [Fraction(1, 4)], 1000) is None


def _refuse(*args, **kwargs):
    raise AssertionError("nothing may be generated when Lmin exceeds the window")


def test_piecewise_search_unreachable_lmin_tries_nothing(monkeypatch):
    from diffsets import bohr

    d = residues({0, 1, 6}, 7, 0, 349)
    with pytest.raises(InputError, match="k_max"):
        piecewise_bohr_search(d, 0, [Fraction(1, 3)], 351)
    with pytest.raises(InputError, match="q_max"):
        piecewise_bohr_search(d, 1, [Fraction(1, 3)], 351, q_max=1)
    monkeypatch.setattr(bohr, "suggest_freqs", _refuse)
    monkeypatch.setattr(bohr, "bohr_generate", _refuse)
    assert piecewise_bohr_search(d, 17, [Fraction(1, 3)], 351, q_max=17, shifts=(-3,)) is None


def test_piecewise_search_refuses_oversized_searches(monkeypatch):
    from diffsets import bohr

    d = residues({0, 1, 6}, 7, 0, 349)
    monkeypatch.setattr(bohr, "bohr_generate", _refuse)
    with pytest.raises(InputError, match="--qmax"):
        piecewise_bohr_search(d, 1, [Fraction(1, 3)], 10, q_max=bohr.MAX_QMAX + 1)
    with pytest.raises(InputError, match="--kmax"):
        piecewise_bohr_search(d, 17, [Fraction(1, 3)], 10, q_max=17, shifts=(-3,))


def test_piecewise_search_guards():
    d = residues({0}, 7, 0, 99)
    with pytest.raises(InputError):
        piecewise_bohr_search(d, 2, [Fraction(1, 4)], 0)
    with pytest.raises(InputError):
        piecewise_bohr_search(d, 2, [Fraction(0)], 10)


def _assert_search_matches_brute(d, k_max, eps_grid, l_min, q_max, shifts):
    members = set(d.members())
    wit = piecewise_bohr_search(d, k_max, eps_grid, l_min, q_max=q_max, shifts=shifts)
    freqs = suggest_freqs(d, k_max, q_max=q_max)
    want = brute.bohr_search(members, d.window.lo, d.window.hi, freqs, eps_grid, l_min, shifts)
    got = None if wit is None else (
        wit.spec.freqs, wit.spec.eps, wit.spec.shift, (wit.interval.lo, wit.interval.hi),
        wit.members, wit.coverage,
    )
    assert got == want


EPS_POOL = [Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)]


@settings(max_examples=150)
@given(st.data())
def test_piecewise_search_matches_brute(data):
    lo = data.draw(st.integers(-40, 20))
    length = data.draw(st.integers(1, 70))
    if data.draw(st.booleans()):
        modulus = data.draw(st.integers(2, 9))
        classes = data.draw(st.sets(st.integers(0, modulus - 1), min_size=1))
        flips = data.draw(st.sets(st.integers(0, length - 1), max_size=3))
        keep = [((lo + i) % modulus in classes) != (i in flips) for i in range(length)]
    else:
        keep = data.draw(st.lists(st.booleans(), min_size=length, max_size=length))
    d = make_set([lo + i for i in range(length) if keep[i]], Window(lo, lo + length - 1))
    eps_grid = data.draw(st.lists(st.sampled_from(EPS_POOL), min_size=1, max_size=4))
    # repeated or period-apart shifts give tying specs; the earlier one must win
    shifts = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    l_min = data.draw(st.one_of(st.integers(1, 6), st.integers(max(1, length - 3), length + 1)))
    k_max = data.draw(st.integers(1, 3))
    q_max = data.draw(st.integers(2, 8))
    _assert_search_matches_brute(d, k_max, eps_grid, l_min, q_max, shifts)


@pytest.mark.parametrize(
    "members, window, k_max, eps_grid, l_min, shifts",
    [
        # negative lo, several eps values, shifts a period apart (tie)
        ([x for x in range(-35, 40) if x % 6 in (0, 1, 5)], Window(-35, 39), 3,
         [Fraction(1, 3), Fraction(1, 5), Fraction(1, 4)], 10, (6, 0, 12, 0)),
        # Lmin equal to the window length, met by a full-window witness
        ([x for x in range(-20, 29) if x % 7 in (0, 1, 6)], Window(-20, 28), 3,
         [Fraction(1, 4)], 49, (3, 0)),
        # Lmin one short of the window, a hole in the middle: no witness at all
        ([x for x in range(-20, 29) if x % 7 in (0, 1, 6) and x != 0], Window(-20, 28), 1,
         [Fraction(1, 4), Fraction(1, 6)], 48, (0, 7)),
        # an empty D: an S with a long empty stretch wins, or none when Lmin beats q_max
        ([], Window(-10, 29), 3, [Fraction(1, 6), Fraction(1, 10)], 3, (0, 1)),
        ([], Window(-10, 29), 1, [Fraction(1, 6), Fraction(1, 10)], 9, (0, 1)),
    ],
)
def test_piecewise_search_matches_brute_on_edge_cases(
    members, window, k_max, eps_grid, l_min, shifts
):
    _assert_search_matches_brute(make_set(members, window), k_max, eps_grid, l_min, 8, shifts)


def test_piecewise_search_stops_at_a_full_window_witness(monkeypatch):
    from diffsets import bohr

    calls = []
    real = bohr._residue_table

    def counted(r, eps):
        calls.append((r, eps))
        return real(r, eps)

    monkeypatch.setattr(bohr, "_residue_table", counted)
    d = residues({0, 1, 6}, 7, 0, 349)
    wit = piecewise_bohr_search(d, 2, [Fraction(1, 5), Fraction(1, 4)], 100, shifts=(0, 1, 2))
    assert wit.spec == BohrSpec.of([Fraction(1, 7)], Fraction(1, 4), 0)
    assert wit.interval == d.window
    # one table for the first spec and one for its re-verification; every later
    # spec (shift 1, eps 1/5, frequency 2/7) would need a table of its own
    assert calls == [(Fraction(1, 7), Fraction(1, 4))] * 2


def test_piecewise_search_raises_when_the_recount_fails(monkeypatch):
    from diffsets import bohr

    def violated(s, a, interval):
        return bohr.BohrContainment(False, 1, 1, [interval.lo])

    monkeypatch.setattr(bohr, "bohr_contained", violated)
    d = residues({0, 1, 6}, 7, 0, 349)
    with pytest.raises(VerificationError, match="^piecewise witness failed its own recount$"):
        piecewise_bohr_search(d, 2, [Fraction(1, 4)], 100)
