"""Counting inequality, greedy shift covers, and density consequences."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import brute
from diffsets import (
    InfeasibleError,
    InputError,
    IntSet,
    VerificationError,
    Window,
    candidate_order,
    cover_density_check,
    cs_family_inequality,
    delta_cover,
    dense_shift_member,
    difference_cover,
    greedy_shift_cover,
    guaranteed_overlap,
    intersect_delta_cover,
    make_set,
    quotient_cover,
    upper_banach_est,
    verify_cover_certificate,
)
from diffsets.cover import ShiftCheck, certify_cover
import diffsets.delta as delta_module
from diffsets.delta import shift_density
from diffsets.density import best_window
from diffsets.extract import PrefixCheck


def residues(classes, modulus, lo, hi):
    return make_set([x for x in range(lo, hi + 1) if x % modulus in classes], Window(lo, hi))


@st.composite
def families(draw, max_n=64, max_k=6):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, max_k))
    out = []
    for _ in range(k):
        lo = draw(st.integers(1, n))
        hi = draw(st.integers(lo, n))
        length = hi - lo + 1
        bits = draw(st.integers(0, (1 << length) - 1))
        out.append(IntSet(Window(lo, hi), bits))
    return n, out


def pair_overlaps(n, family):
    mems = [set(s.members()) for s in family]
    out = []
    for i in range(len(mems)):
        for j in range(i + 1, len(mems)):
            out.append(Fraction(len(mems[i] & mems[j]), n))
    return out


# ---------------------------------------------------------------------------
# counting inequality


@given(families())
def test_cs_inequality_always_holds(fam):
    n, family = fam
    res = cs_family_inequality(family, n)
    assert res.holds and res.lhs <= res.rhs
    total = sum(len(s) for s in family)
    cross = sum(
        Fraction(v * n) for v in pair_overlaps(n, family)
    )  # back to raw counts
    assert res.lhs == total * total
    assert res.rhs == n * (total + 2 * cross)


def test_cs_inequality_frozen():
    res = cs_family_inequality(
        [make_set([1, 2], Window(1, 3)), make_set([2, 3], Window(1, 3))], 3
    )
    assert (res.lhs, res.rhs, res.holds) == (16, 18, True)

    both = make_set([1, 2], Window(1, 2))
    res = cs_family_inequality([both, both], 2)
    assert (res.lhs, res.rhs) == (16, 16)  # equality for identical full sets

    res = cs_family_inequality([IntSet(Window(1, 4), 0)], 4)
    assert (res.lhs, res.rhs, res.holds) == (0, 0, True)


def test_cs_inequality_window_policing():
    with pytest.raises(InputError):
        cs_family_inequality([make_set([0, 1], Window(0, 3))], 4)
    with pytest.raises(InputError):
        cs_family_inequality([make_set([1, 5], Window(1, 5))], 4)
    with pytest.raises(InputError):
        cs_family_inequality([], 4)


@given(families())
def test_guaranteed_overlap_is_a_lower_bound(fam):
    n, family = fam
    if len(family) < 2:
        with pytest.raises(InputError):
            guaranteed_overlap(family, n)
        return
    bound = guaranteed_overlap(family, n)
    assert bound <= max(pair_overlaps(n, family))


def test_guaranteed_overlap_frozen():
    n = 6
    full = IntSet(Window(1, n), (1 << n) - 1)
    assert guaranteed_overlap([full, full], n) == 1

    disjoint = [make_set([1, 2], Window(1, 4)), make_set([3, 4], Window(1, 4))]
    # k^2 g^2 - sum c_i = 4*(1/4) - 1 = 0; the pair is exactly tight
    assert guaranteed_overlap(disjoint, 4) == 0
    assert max(pair_overlaps(4, disjoint)) == 0


# ---------------------------------------------------------------------------
# dense-shift membership


@given(st.data())
def test_dense_shift_count_matches_brute(data):
    n = data.draw(st.integers(2, 60))
    c = IntSet(Window(1, n), data.draw(st.integers(1, (1 << n) - 1)))
    t = data.draw(st.integers(-2 * n, 2 * n))  # the greedy asks for shifts up to 2N, no overlap past N
    mem = set(c.members())
    want = len(brute.shift_intersection(mem, abs(t)))
    for s, count in ((t, want), (-t, want), (0, len(c))):  # the count is exactly count
        assert dense_shift_member(c, s, Fraction(count - 1, n))
        assert not dense_shift_member(c, s, Fraction(count, n))


def test_dense_shift_member_strictness():
    c = make_set([1, 2, 5, 6], Window(1, 10))  # count at t=1 is 2
    assert dense_shift_member(c, 1, Fraction(0))
    assert dense_shift_member(c, 1, Fraction(19, 100))
    assert not dense_shift_member(c, 1, Fraction(2, 10))  # equality excluded
    with pytest.raises(InputError):
        dense_shift_member(make_set([0, 1], Window(0, 5)), 1, Fraction(0))


def test_candidate_order_frozen():
    assert candidate_order([3, -3, 0, -1, 1, 2, 1]) == [0, 1, -1, 2, 3, -3]


# ---------------------------------------------------------------------------
# greedy cover


@st.composite
def cover_instances(draw, max_n=48):
    n = draw(st.integers(4, max_n))
    c = IntSet(Window(1, n), draw(st.integers(1, (1 << n) - 1)))
    xs = draw(st.lists(st.integers(-n, n), min_size=1, max_size=12))
    mandated = draw(st.sampled_from(xs))
    gamma = Fraction(len(c), n)
    choices = [e for e in (Fraction(0), Fraction(1, 16), Fraction(1, 8)) if e < gamma * gamma]
    eps = draw(st.sampled_from(choices))
    return c, xs, eps, mandated


@given(cover_instances())
def test_greedy_cover_invariants(inst):
    c, xs, eps, mandated = inst
    cert = greedy_shift_cover(c, xs, eps, mandated)
    n = c.window.hi
    mem = set(c.members())

    def member(t):
        return len(brute.shift_intersection(mem, abs(t))) * eps.denominator > eps.numerator * n

    assert cert.shifts[0] == mandated
    assert len(set(cert.shifts)) == len(cert.shifts)
    assert set(cert.shifts) <= set(xs)
    assert cert.covered and not cert.uncovered
    assert cert.gamma_hat == Fraction(len(c), n)
    assert len(cert.shifts) <= len(set(xs))
    for x in set(xs):
        xi = cert.witnesses[x]
        assert xi in cert.shifts
        assert member(x - xi)
    assert verify_cover_certificate(c, xs, cert)


@given(cover_instances())
def test_greedy_picks_least_uncovered(inst):
    # replay the greedy by hand from the brute membership predicate
    c, xs, eps, mandated = inst
    cert = greedy_shift_cover(c, xs, eps, mandated)
    n = c.window.hi
    mem = set(c.members())

    def member(t):
        return len(brute.shift_intersection(mem, abs(t))) * eps.denominator > eps.numerator * n

    shifts = [mandated]
    pending = [x for x in candidate_order(xs) if not member(x - mandated)]
    while pending:
        shifts.append(pending[0])
        pending = [x for x in pending if not member(x - pending[0])]
    assert cert.shifts == shifts


def test_greedy_frozen_mod5():
    c = residues({0, 1}, 5, 1, 1000)
    cert = greedy_shift_cover(c, range(-50, 51), Fraction(0), 0)
    assert cert.shifts == [0, 2]
    assert cert.gamma_hat == Fraction(2, 5)
    assert cert.k_bound == 2
    assert cert.covered
    assert cert.margin == Fraction(50, 1000)
    assert len(cert.shifts) <= cert.k_bound


def test_greedy_frozen_mod4():
    c = residues({0}, 4, 1, 1000)
    cert = greedy_shift_cover(c, range(-50, 51), Fraction(0), 0)
    assert cert.shifts == [0, 1, -1, 2]
    assert cert.k_bound == 4  # floor((1/4) / (1/16))
    assert len(cert.shifts) <= cert.k_bound


def test_greedy_trivial_cases():
    n = 100
    full = IntSet(Window(1, n), (1 << n) - 1)
    cert = greedy_shift_cover(full, range(-40, 41), Fraction(1, 2), 7)
    assert cert.shifts == [7]

    c = residues({0}, 3, 1, 99)
    cert = greedy_shift_cover(c, [5], Fraction(0), 5)
    assert cert.shifts == [5] and cert.covered


def test_greedy_input_errors():
    c = residues({0}, 3, 1, 99)
    with pytest.raises(InputError):
        greedy_shift_cover(c, [], Fraction(0), 0)
    with pytest.raises(InputError, match="^no candidates$"):  # before the span is taken
        delta_cover(c, [], Fraction(0), 10)
    with pytest.raises(InputError):
        greedy_shift_cover(c, [1, 2], Fraction(0), 0)  # mandated not a candidate
    with pytest.raises(InputError):
        greedy_shift_cover(c, [0, 200], Fraction(0), 0)  # candidate beyond N
    with pytest.raises(InputError):
        greedy_shift_cover(c, [0], Fraction(-1, 2), 0)
    with pytest.raises(InfeasibleError):
        greedy_shift_cover(c, [0], Fraction(1, 9), 0)  # eps = gamma^2 exactly
    # base window must be anchored at 1
    with pytest.raises(InputError):
        greedy_shift_cover(residues({0}, 3, 0, 99), [0], Fraction(0), 0)


def test_cover_flags_are_constants_of_their_types():
    """The greedy always covers and the checks are built only after they pass, so these
    fields take one value and no constructor or replace() can set another."""
    cert = greedy_shift_cover(residues({0, 1}, 5, 1, 1000), range(-50, 51), Fraction(0), 0)
    res = quotient_cover(residues({0}, 4, 0, 2099), 2, range(-20, 21), Fraction(0), 1000)
    rows = [(cert, "covered", True, False), (cert, "uncovered", [], [2]),
            (res, "cover_ok", True, False), (ShiftCheck(3, Fraction(1, 2)), "ok", True, False),
            (PrefixCheck(1, Fraction(1), Fraction(1, 2)), "ok", True, False),
            (res.density, "mode", "full_cover", "thick_cover"), (res.density, "witness", None, 7)]
    for obj, name, constant, forged in rows:
        assert getattr(obj, name) == constant
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(obj, **{name: forged})


def test_verifier_rejects_tampering():
    c = residues({0, 1}, 5, 1, 1000)
    xs = list(range(-50, 51))
    cert = greedy_shift_cover(c, xs, Fraction(0), 0)

    chopped = dataclasses.replace(cert, shifts=[0])
    with pytest.raises(VerificationError):
        verify_cover_certificate(c, xs, chopped)

    # witness whose difference fails the threshold: 0 - 2 = -2 is not a
    # difference of the mod-5 base
    bad_witness = dataclasses.replace(cert, witnesses={**cert.witnesses, 0: 2})
    with pytest.raises(VerificationError):
        verify_cover_certificate(c, xs, bad_witness)

    # witness passing the threshold but absent from the shift list
    stray = dataclasses.replace(cert, witnesses={**cert.witnesses, 5: 5})
    with pytest.raises(VerificationError):
        verify_cover_certificate(c, xs, stray)

    wrong_mandate = dataclasses.replace(cert, shifts=[99] + cert.shifts[1:])
    with pytest.raises(VerificationError):
        verify_cover_certificate(c, xs, wrong_mandate)


# ---------------------------------------------------------------------------
# cover on the best window of a larger set


def test_delta_cover_frozen_mod5():
    a = residues({0, 1}, 5, 0, 2099)
    res = delta_cover(a, range(-50, 51), Fraction(0), 1000)
    assert res.cert.shifts == [0, 2]
    assert res.offset == -1  # every window is equally dense; least offset wins
    assert all(ch.ok for ch in res.checks)
    used = sorted({x - res.cert.witnesses[x] for x in range(-50, 51)})
    assert [ch.t for ch in res.checks] == used


@given(st.data())
def test_delta_cover_checks_out(data):
    length = data.draw(st.integers(30, 80))
    a = IntSet(Window(0, length - 1), data.draw(st.integers(1, (1 << length) - 1)))
    n = data.draw(st.integers(4, length // 2))
    smax = min(n, (length - n) // 2)
    span = data.draw(st.integers(0, smax))
    xs = list(range(-span, span + 1))
    res = delta_cover(a, xs, Fraction(0), n)
    assert res.offset == upper_banach_est(a, n).at
    assert res.cert.covered
    for ch in res.checks:
        assert ch.ok and ch.value > 0


def test_certify_cover_checks_equal_per_shift_evaluation(monkeypatch):
    """Each |t| goes into the word pass once per ambient set and is rescanned at most
    once, yet every used signed t still gets its own check, in ascending order,
    holding the per-shift value."""
    passes, scans = [], []
    bounds, overlap = delta_module.banach_word_bounds, delta_module.shift_intersection
    monkeypatch.setattr(delta_module, "banach_word_bounds",
                        lambda s, mags, n: passes.append((id(s), list(mags))) or bounds(s, mags, n))
    monkeypatch.setattr(delta_module, "shift_intersection",
                        lambda s, t: scans.append((len(passes), t)) or overlap(s, t))  # by pass
    rng = random.Random(6)
    base = IntSet(Window(1, 400), rng.getrandbits(400))
    a = IntSet(Window(0, 2999), rng.getrandbits(3000))
    b = IntSet(Window(-700, 2299), rng.getrandbits(3000))
    _, cert, checks = certify_cover(range(-20, 21), Fraction(1, 20), 0, lambda: (base, None),
                                    ambient=(a, b), n=300)
    used = sorted({x - xi for x, xi in cert.witnesses.items()})
    assert any(t > 0 and -t in used for t in used)  # the mirror is exercised
    mags = sorted({abs(t) for t in used})
    assert passes == [(id(a), mags), (id(b), mags)]
    assert len(scans) == len(set(scans)) and {t for _, t in scans} <= set(mags)
    for s, got in zip((a, b), checks):
        assert got == [ShiftCheck(t, shift_density(s, t, 300)) for t in used]


def test_certify_cover_upper_refuses_an_ambient_set_off_1():
    """The anchored re-check reads the ambient set from 1; a window starting
    elsewhere is refused rather than read on [1, n]."""
    base = residues({0, 1}, 5, 1, 100)

    def cover(ambient):
        return certify_cover(range(-5, 6), Fraction(0), 0, lambda: (base, None),
                             ambient=(ambient,), n=100, upper=True)

    with pytest.raises(InputError, match="starting at 1"):
        cover(residues({0, 1}, 5, 0, 299))
    _, _, (checks,) = cover(residues({0, 1}, 5, 1, 300))
    assert checks and all(ch.ok for ch in checks)


def test_delta_cover_span_precondition():
    a = residues({0}, 2, 0, 99)
    with pytest.raises(InputError, match=r"span \(--x\) 60 \+ shift-check length 50 = 110 exceeds the window length 100"):
        delta_cover(a, range(-30, 31), Fraction(0), 50)
    delta_cover(a, range(-25, 26), Fraction(0), 50)


def test_delta_cover_upper_variant():
    a = residues({0, 1}, 5, 1, 2100)
    res = delta_cover(a, range(-50, 51), Fraction(0), 1000, upper=True)
    assert res.offset == 0
    assert res.cert.shifts == [0, 2]
    with pytest.raises(InputError):
        delta_cover(residues({0}, 2, 0, 2100), range(-10, 11), Fraction(0), 500, upper=True)


# ---------------------------------------------------------------------------
# density consequences of a cover


def test_cover_density_full_cover_frozen():
    s = residues({0}, 3, 0, 299)
    rep = cover_density_check(s, [0, 1, 2], 30, Window(0, 289))
    assert rep.premise_ok
    assert rep.nominal == Fraction(1, 3)
    assert rep.threshold == Fraction(1, 3) - Fraction(3 * 2, 30)
    assert rep.estimate.value == Fraction(1, 3)
    assert rep.ok

    # dropping a shift breaks the premise but must not raise
    rep = cover_density_check(s, [0, 1], 30, Window(0, 289))
    assert not rep.premise_ok and not rep.ok


def test_cover_density_normalization():
    s = residues({0}, 2, 0, 99)
    rep = cover_density_check(s, [4, 5], 20, Window(10, 80))
    assert rep.normalize_shift == 4
    assert rep.premise_ok and rep.ok


@given(st.integers(-20, 20), st.integers(1, 40), st.data())
def test_cover_density_premise_matches_brute_sumset(lo, length, data):
    """The premise is cover_range ⊆ S + F as brute.sumset builds it; the normalization
    of F moves S by the opposite shift, so the sum does not move."""
    s = IntSet(Window(lo, lo + length - 1), data.draw(st.integers(0, (1 << length) - 1)))
    shifts = data.draw(st.lists(st.integers(-15, 15), min_size=1, max_size=5))
    start = data.draw(st.integers(lo - 15, lo + length + 15))
    cover_range = Window(start, start + data.draw(st.integers(0, 20)))
    n = data.draw(st.integers(1, cover_range.length))
    rep = cover_density_check(s, shifts, n, cover_range)
    covered = brute.sumset(set(s.members()), shifts)
    assert rep.premise_ok == all(x in covered for x in range(cover_range.lo, cover_range.hi + 1))
    assert rep.ok == rep.premise_ok


@pytest.mark.parametrize("n", [0, -3])
def test_cover_density_refuses_n_below_one(n):
    s = residues({0}, 2, 0, 99)
    with pytest.raises(InputError, match=f"n = {n} must be >= 1"):
        cover_density_check(s, [0, 1], n, Window(0, 50))


def test_cover_density_input_errors():
    s = residues({0}, 2, 0, 99)
    with pytest.raises(InputError):
        cover_density_check(s, [], 10, Window(0, 50))


# ---------------------------------------------------------------------------
# quotient covers


def test_quotient_cover_h0():
    a = residues({0, 1}, 5, 0, 999)
    res = quotient_cover(a, 0, range(-10, 11), Fraction(0), 200)
    assert res.cert is None and res.quotient_members is None
    with pytest.raises(InfeasibleError):
        quotient_cover(a, 0, range(-10, 11), Fraction(1, 2), 200)


def test_quotient_cover_h1_matches_delta_cover():
    a = residues({0, 1}, 5, 0, 2099)
    q = quotient_cover(a, 1, range(-50, 51), Fraction(0), 1000)
    d = delta_cover(a, range(-50, 51), Fraction(0), 1000)
    assert q.cert.shifts == d.cert.shifts
    assert q.base_shifts == d.cert.shifts
    assert q.cover_ok


def test_every_delta_cover_is_recounted(monkeypatch):
    a = residues({0, 1}, 5, 0, 2099)
    b = residues({0}, 3, 0, 2099)

    def refuse(*args):
        raise VerificationError("recount refused")

    monkeypatch.setattr("diffsets.cover.verify_cover_certificate", refuse)
    covers = [
        lambda: delta_cover(a, range(-50, 51), Fraction(0), 1000),
        lambda: quotient_cover(a, 2, range(-20, 21), Fraction(0), 1000),
        lambda: intersect_delta_cover(a, b, Fraction(0), range(-20, 21), 1000, 100, 4, Fraction(1, 50)),
        lambda: difference_cover(a, b, range(-20, 21), 1000, 100, 4, Fraction(1, 50)),
    ]
    for cover in covers:
        with pytest.raises(VerificationError, match="recount refused"):
            cover()


def test_quotient_cover_frozen_mod4_h2():
    a = residues({0}, 4, 0, 2099)
    res = quotient_cover(a, 2, range(-20, 21), Fraction(0), 1000)
    assert res.base_shifts == [0, 1]
    assert res.cover_ok
    assert set(res.quotient_members.members()) == {t for t in range(-20, 21) if t % 2 == 0}
    assert res.density.premise_ok and res.density.ok


@given(st.data())
def test_quotient_cover_ok_agrees_with_the_certificate(data):
    # candidates away from 0 as well: the cover reads the quotient outside their hull
    h = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(16, 48))
    base = data.draw(st.lists(st.integers(-(n // h), n // h), min_size=1, max_size=10))
    length = n + h * (max(base) - min(base)) + data.draw(st.integers(0, 20))
    a = IntSet(Window(1, length), data.draw(st.integers(1, (1 << length) - 1)))
    gamma = upper_banach_est(a, n).value
    eps = data.draw(st.sampled_from([Fraction(0), Fraction(1, 16)]))
    assume(eps < gamma * gamma)
    res = quotient_cover(a, h, base, eps, n, mandated_x=data.draw(st.sampled_from(base)))
    # cover_ok is a constant of the type: recount the cover it stands for from plain membership
    mem = set(best_window(a, n)[1].members())

    def member(t):
        return len(brute.shift_intersection(mem, h * t)) * eps.denominator > eps.numerator * n

    assert all(any(member(x - f) for f in res.base_shifts) for x in base)
    assert res.quotient_members.window == Window(min(base), max(base))
    assert set(res.quotient_members.members()) == {t for t in range(min(base), max(base) + 1)
                                                   if member(t)}
