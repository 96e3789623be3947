"""Exact Bohr-set membership, containment reports, and the witness search."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import brute
from diffsets import (
    BohrSpec,
    InputError,
    IntSet,
    Window,
    bohr_contained,
    bohr_generate,
    make_set,
    piecewise_bohr_search,
    suggest_freqs,
)


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


@given(st.data())
def test_generate_matches_brute(data):
    freqs = data.draw(st.lists(st.sampled_from(FREQ_POOL), min_size=1, max_size=3, unique=True))
    eps = Fraction(1, data.draw(st.integers(2, 8)))
    shift = data.draw(st.integers(-10, 10))
    lo = data.draw(st.integers(-30, 30))
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


def test_piecewise_search_guards():
    d = residues({0}, 7, 0, 99)
    with pytest.raises(InputError):
        piecewise_bohr_search(d, 2, [Fraction(1, 4)], 0)
    with pytest.raises(InputError):
        piecewise_bohr_search(d, 2, [Fraction(0)], 10)
