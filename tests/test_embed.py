"""Pattern embedding, shift sets, and AP search against exhaustive scans."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import brute
from diffsets import (
    InputError,
    IntSet,
    Pattern,
    Window,
    bernoulli_set,
    dense_embed_est,
    difference_set,
    embed_witness,
    find_ap,
    make_set,
    restrict,
    shift_set_of,
    trace_extract,
    verify_extraction,
    window_embeddable,
)
from diffsets.embed import trace_classes


def residues(classes, modulus, lo, hi):
    return make_set([x for x in range(lo, hi + 1) if x % modulus in classes], Window(lo, hi))


@st.composite
def embed_instances(draw, max_len=60, max_span=8):
    length = draw(st.integers(max_span + 2, max_len))
    y_bits = draw(st.integers(0, (1 << length) - 1))
    y = IntSet(Window(0, length - 1), y_bits)
    k = draw(st.integers(1, 4))
    elems = draw(
        st.lists(st.integers(0, max_span), min_size=k, max_size=k, unique=True)
    )
    f = Pattern(tuple(sorted(elems)))
    s_hi = length - 1 - f.elems[-1]
    s_lo = draw(st.integers(0, s_hi))
    return f, y, Window(s_lo, s_hi)


def test_pattern_validation():
    with pytest.raises(InputError):
        Pattern(())
    with pytest.raises(InputError):
        Pattern((3, 3))
    with pytest.raises(InputError):
        Pattern((5, 2))
    assert Pattern((0, 4, 9)).elems == (0, 4, 9)


def test_pattern_differences_are_distinct_and_ascending():
    # 0, 2, 4, 6 repeats 2 three times and 4 twice
    assert Pattern((0, 2, 4, 6)).differences() == [2, 4, 6]
    assert Pattern((-3, 1, 2)).differences() == [1, 4, 5]
    assert Pattern((7,)).differences() == []


@given(embed_instances())
def test_shift_set_matches_brute(inst):
    f, y, srange = inst
    got = shift_set_of(f, y, srange)
    want = brute.embed_shifts(f.elems, set(y.members()), srange.lo, srange.hi)
    assert set(got.members()) == want
    assert got.window == srange


@given(embed_instances())
def test_embed_witness_is_least(inst):
    f, y, srange = inst
    t = embed_witness(f, y, srange)
    shifts = brute.embed_shifts(f.elems, set(y.members()), srange.lo, srange.hi)
    if t is None:
        assert not shifts
    else:
        assert t == min(shifts)
        assert all(t + e in y for e in f.elems)


@given(embed_instances())
def test_singleton_pattern_is_shifted_target(inst):
    _, y, srange = inst
    e = y.window.hi - srange.hi  # largest element a singleton may carry here
    got = shift_set_of(Pattern((e,)), y, srange)
    assert set(got.members()) == set(restrict(y.shift(-e), srange).members())


def test_srange_overflow_rejected():
    y = residues({0}, 2, 0, 99)
    with pytest.raises(InputError):
        shift_set_of(Pattern((0, 4)), y, Window(0, 96))
    with pytest.raises(InputError):
        shift_set_of(Pattern((-1, 0)), y, Window(0, 10))
    # exact fit is fine
    shift_set_of(Pattern((0, 4)), y, Window(0, 95))


def test_shift_set_frozen_examples():
    y = residues({0, 1}, 5, 0, 4999)
    srange = Window(0, 4000)
    s = shift_set_of(Pattern((0, 5)), y, srange)
    assert set(s.members()) == set(restrict(y, srange).members())
    assert dense_embed_est(Pattern((0, 5)), y, srange, 500).value == Fraction(2, 5)

    evens = residues({0}, 2, 0, 999)
    assert embed_witness(Pattern((0, 2)), evens, Window(0, 900)) == 0
    assert embed_witness(Pattern((0, 1)), evens, Window(0, 900)) is None
    assert dense_embed_est(Pattern((0, 1)), evens, Window(0, 900), 100).value == 0
    assert not shift_set_of(Pattern((0, 1, 2, 3)), evens, Window(0, 900))


@given(embed_instances(), st.integers(1, 20))
def test_dense_embed_matches_direct_estimate(inst, n):
    f, y, srange = inst
    s = shift_set_of(f, y, srange)
    if n > srange.length:
        with pytest.raises(InputError):
            dense_embed_est(f, y, srange, n)
        return
    got = dense_embed_est(f, y, srange, n)
    want = brute.upper_banach(set(s.members()), srange.lo, srange.hi, n)
    assert (got.value, got.at) == want


# ---------------------------------------------------------------------------
# trace classes


@st.composite
def trace_vectors(draw, m):
    """0/1 vectors of m (a single window) to 300 positions: random, sparse, dense,
    periodic, all-zero or all-one."""
    length = draw(st.integers(m, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "dense", "periodic", "zero", "one"]))
    if kind == "periodic":
        period = [rng.randrange(2) for _ in range(rng.randint(1, 9))]
        bits = [period[i % len(period)] for i in range(length)]
    else:
        p = {"random": 0.5, "sparse": 0.05, "dense": 0.95, "zero": 0.0, "one": 1.0}[kind]
        bits = [int(rng.random() < p) for _ in range(length)]
    return bits


# 16 is the widest directly coded window; past it the labels double from 16 bits
@pytest.mark.parametrize("m", [1, 2, 7, 15, 16, 17, 31, 32, 33, 40])
@given(data=st.data())
def test_trace_classes_match_brute(m, data):
    bits = data.draw(trace_vectors(m))
    ids, firsts = trace_classes(np.array(bits, dtype=np.uint8), m)
    assert (ids.tolist(), firsts.tolist()) == brute.trace_classes(bits, m)


def test_trace_classes_refuses_m_outside_the_vector():
    vec = np.ones(5, dtype=np.uint8)
    for m in (0, -1, 6):
        with pytest.raises(InputError, match=f"m = {m}"):
            trace_classes(vec, m)


def test_trace_classes_do_not_sort_up_to_16_bits(monkeypatch):
    c = bernoulli_set(Window(1, 3000), Fraction(1, 2), 3)
    y = bernoulli_set(Window(1, 2000), Fraction(1, 2), 4)

    def no_sort(*args, **kwargs):
        raise AssertionError("numpy.argsort called")

    monkeypatch.setattr(np, "argsort", no_sort)
    assert verify_extraction(c, trace_extract(c, 12, Fraction(1, 4)))
    assert window_embeddable(c, y, 8, Window(1, 1993)).checked > 0


# ---------------------------------------------------------------------------
# window embeddability


@given(st.data())
def test_subset_always_window_embeddable(data):
    length = data.draw(st.integers(5, 50))
    y_bits = data.draw(st.integers(1, (1 << length) - 1))
    y = IntSet(Window(0, length - 1), y_bits)
    x_bits = y_bits & data.draw(st.integers(0, (1 << length) - 1))
    x = IntSet(y.window, x_bits)
    m = data.draw(st.integers(1, length))
    rep = window_embeddable(x, y, m, Window(0, length - m))
    assert rep.ok


@given(st.data())
def test_window_embeddable_matches_per_trace_scan(data):
    # lengths and trace lengths reach past 64, the width of a machine word
    length = data.draw(st.integers(4, 160))
    x = IntSet(Window(0, length - 1), data.draw(st.integers(0, (1 << length) - 1)))
    y = IntSet(Window(0, length - 1), data.draw(st.integers(0, (1 << length) - 1)))
    m = data.draw(st.one_of(st.integers(1, min(6, length)), st.integers(1, length)))
    srange = Window(0, length - m)
    rep = window_embeddable(x, y, m, srange)
    xmem, ymem = sorted(x.members()), set(y.members())
    checked, failure = 0, None
    for a in range(0, length - m + 1):
        pat = tuple(e - a for e in xmem if a <= e < a + m)
        if not pat:
            continue
        checked += 1
        if not brute.embed_shifts(pat, ymem, srange.lo, srange.hi):
            failure = (a, pat)
            break
    assert rep.checked == checked
    assert rep.ok == (failure is None)
    if failure is not None:
        assert (rep.failing_offset, rep.failing_pattern.elems) == failure


def test_window_embeddable_frozen():
    odds = residues({1}, 2, 0, 199)
    evens = residues({0}, 2, 0, 199)
    assert window_embeddable(odds, evens, 1, Window(0, 150)).ok
    assert window_embeddable(odds, evens, 5, Window(0, 150)).ok

    pair = make_set([0, 1], Window(0, 99))
    rep = window_embeddable(pair, evens, 2, Window(0, 99))
    assert not rep.ok
    assert rep.failing_offset == 0
    assert rep.failing_pattern.elems == (0, 1)

    with pytest.raises(InputError):
        window_embeddable(pair, evens, 0, Window(0, 10))


@given(st.data())
def test_delta_monotone_under_pair_embedding(data):
    # every 2-point trace of X embeds into Y  =>  small differences of X are
    # differences of Y
    length = data.draw(st.integers(6, 30))
    x = IntSet(Window(0, length - 1), data.draw(st.integers(0, (1 << length) - 1)))
    y = IntSet(Window(0, 2 * length - 1), data.draw(st.integers(0, (1 << (2 * length)) - 1)))
    m = data.draw(st.integers(2, min(8, length)))
    srange = Window(0, y.window.hi - (m - 1))
    rep = window_embeddable(x, y, m, srange)
    if not rep.ok:
        return
    dx = set(difference_set(x, x).members())
    dy = set(difference_set(y, y).members())
    small = {d for d in dx if 0 < d < m}
    assert small <= dy


# ---------------------------------------------------------------------------
# arithmetic progressions


def brute_ap(members, lo, hi, k):
    found = []
    for start in sorted(members):
        for d in range(1, (hi - start) // max(k - 1, 1) + 1):
            if all(start + j * d in members for j in range(k)):
                found.append((start, d))
    return min(found) if found else None


@given(st.data())
def test_find_ap_matches_brute(data):
    length = data.draw(st.integers(3, 30))
    a = IntSet(Window(0, length - 1), data.draw(st.integers(0, (1 << length) - 1)))
    k = data.draw(st.integers(2, 5))
    got = find_ap(a, k)
    want = brute_ap(set(a.members()), 0, length - 1, k)
    assert got == want


def test_find_ap_frozen():
    evens = residues({0}, 2, 0, 99)
    assert find_ap(evens, 5) == (0, 2)
    block = make_set(list(range(7)), Window(0, 20))
    assert find_ap(block, 7) == (0, 1)
    assert find_ap(make_set([0, 1], Window(0, 10)), 3) is None
    assert find_ap(IntSet(Window(3, 9), 0), 2) is None
    # lexicographic tie rule: least start wins before least difference
    a = make_set([0, 2, 3, 4, 6], Window(0, 6))
    assert find_ap(a, 3) == (0, 2)
    assert find_ap(a, 1) == (0, 1)  # one term: the least member, difference 1
    with pytest.raises(InputError, match="^k must be >= 1$"):
        find_ap(a, 0)



def test_ap_preserved_by_embedding():
    # X has a 3-term AP of span 4 inside every length-5 trace rule; if every
    # trace embeds, Y must contain the progression too
    x = make_set([10, 12, 14], Window(10, 14))
    y = residues({0}, 2, 0, 199)
    rep = window_embeddable(x, y, 5, Window(0, 195))
    assert rep.ok
    assert find_ap(x, 3) is not None
    assert find_ap(y, 3) is not None
