"""Generators and the deterministic PRNG, with frozen golden vectors."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffsets import (
    GenSpec,
    InfeasibleError,
    InputError,
    IntSet,
    Window,
    bernoulli_set,
    complement_in,
    difference_set,
    gen,
    restrict,
    spec_from_json,
    spec_to_json,
    thick_witness,
)
from diffsets import intset
from diffsets.gen import ap_union_set, blocks_set, chain_in_thick, residue_set, thick_triple, thick_triple_bounds
from diffsets.prng import Stream, mix64, stream_block, stream_value


# ---------------------------------------------------------------------------
# PRNG golden vectors (the reference SplitMix64 outputs for seed 0, then our
# counter-mode stream at another seed; any change here breaks every stored
# artifact built from a seed)

SEED0_FIRST4 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_stream_golden_seed0():
    assert [stream_value(0, i) for i in range(4)] == SEED0_FIRST4


def test_stream_golden_other_seed():
    assert [stream_value(12345, i) for i in range(4)] == [
        0x22118258A9D111A0,
        0x346EDCE5F713F8ED,
        0x1E9A57BC80E6721D,
        0x2D160E7E5C3F42CA,
    ]


def test_mix64_golden():
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(0xDEADBEEF) == 0x4E062702EC929EEA


@given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(1, 200))
def test_block_agrees_with_scalar(seed, start, count):
    block = stream_block(seed, start, count)
    assert [int(v) for v in block] == [stream_value(seed, start + i) for i in range(count)]


def test_stream_wrapper_golden():
    s = Stream(7)
    assert [s.below(10) for _ in range(12)] == [7, 4, 6, 3, 4, 5, 8, 2, 5, 5, 3, 6]
    s = Stream(7)
    assert [s.randint(-5, 5) for _ in range(8)] == [-3, -5, -5, -5, 2, 2, -4, 4]


@given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
def test_below_in_range(seed, n):
    s = Stream(seed)
    for _ in range(5):
        assert 0 <= s.below(n) < n


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Stream(0).below(0)


def test_subseed_advances():
    s = Stream(3)
    a = s.subseed()
    b = s.subseed()
    assert a != b
    assert a == stream_value(3, 0)


# ---------------------------------------------------------------------------
# bernoulli


def test_bernoulli_golden_bits():
    b = bernoulli_set(Window(0, 63), Fraction(1, 2), 42)
    assert b.bits == 0x987CE6B803278D5E
    assert b.count == 32


def test_bernoulli_window_start_does_not_matter():
    a = bernoulli_set(Window(0, 63), Fraction(1, 2), 42)
    b = bernoulli_set(Window(5, 68), Fraction(1, 2), 42)
    assert a.bits == b.bits


def test_bernoulli_edges():
    assert bernoulli_set(Window(0, 99), Fraction(0), 1).count == 0
    assert bernoulli_set(Window(0, 99), Fraction(1), 1).count == 100
    with pytest.raises(InputError):
        bernoulli_set(Window(0, 9), Fraction(3, 2), 1)


@given(st.integers(0, 2**32), st.integers(1, 400))
def test_bernoulli_reproducible(seed, length):
    w = Window(0, length - 1)
    assert bernoulli_set(w, Fraction(1, 2), seed).bits == bernoulli_set(w, Fraction(1, 2), seed).bits


# ---------------------------------------------------------------------------
# structured kinds


def test_residues_frozen():
    assert sorted(residue_set(Window(0, 9), 2, [0]).members()) == [0, 2, 4, 6, 8]
    assert sorted(residue_set(Window(-5, 5), 3, [0, 1]).members()) == [-5, -3, -2, 0, 1, 3, 4]
    with pytest.raises(InputError):
        residue_set(Window(0, 9), 0, [0])
    with pytest.raises(InputError):
        residue_set(Window(0, 9), 3, [3])


@given(
    st.one_of(st.integers(-30, 30), st.integers(-(10**24), -(10**24) + 30)),  # and beyond int64
    st.integers(1, 60),
    st.integers(1, 10),
    st.data(),
)
def test_residues_match_comprehension(lo, length, modulus, data):
    classes = data.draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=modulus, unique=True))
    w = Window(lo, lo + length - 1)
    got = residue_set(w, modulus, classes)
    assert set(got.members()) == {x for x in range(w.lo, w.hi + 1) if x % modulus in set(classes)}


def test_ap_union_frozen():
    got = ap_union_set(Window(0, 20), [[0, 3], [1, 7]])
    assert set(got.members()) == {0, 3, 6, 9, 12, 15, 18} | {1, 8, 15}
    # progressions are two-sided: the anchor may sit far outside the window
    got = ap_union_set(Window(-10, 10), [[100, 7]])
    assert set(got.members()) == {x for x in range(-10, 11) if x % 7 == 100 % 7}
    with pytest.raises(InputError):
        ap_union_set(Window(0, 10), [[0, 0]])
    with pytest.raises(InputError):
        ap_union_set(Window(0, 10), [])
    with pytest.raises(InputError):
        ap_union_set(Window(0, 10), [[1]])


def test_blocks_frozen():
    b = blocks_set(Window(0, 70), 1)
    want = {1, 2} | set(range(8, 11)) | set(range(27, 31)) | set(range(64, 69))
    assert set(b.members()) == want
    assert thick_witness(b, 5) == 64


def test_blocks_guards():
    with pytest.raises(InputError):
        blocks_set(Window(2, 3), 1)  # no complete block fits
    with pytest.raises(InputError):
        blocks_set(Window(0, 70), 0)
    with pytest.raises(InfeasibleError):
        blocks_set(Window(1, 2), 1)  # complement would be empty


def test_thick_triple_properties():
    w = thick_triple_bounds(4, 3)
    a, b, c = thick_triple(w, 4, 3)
    for s in (a, b, c):
        assert thick_witness(s, 4) is not None
        assert thick_witness(complement_in(s, w), 4) is not None
    d = restrict(difference_set(a, b), w)
    assert not d.bits & ~c.bits  # A - B inside C
    assert a.count == b.count == 27


def test_thick_triple_guards():
    with pytest.raises(InputError):
        thick_triple(Window(-100, 100), 4, 3)  # window below the bounds
    w = thick_triple_bounds(4, 3)
    with pytest.raises(InputError):
        thick_triple(w, 0, 3)
    with pytest.raises(InputError):
        thick_triple(w, 4, 1)


def test_thick_triple_bounds_refuse_over_the_cap():
    cap = intset.MAX_WINDOW_LENGTH
    assert thick_triple_bounds(1, 7).length <= cap  # the most blocks any scale admits
    for scale, blocks, field in [(1, 8, "blocks"), (4, 7, "scale"), (10**5, 3, "scale"),
                                 (4, 10**4000, "blocks")]:  # 4**blocks is never built
        with pytest.raises(InputError, match=f"^{field} .* over the cap"):
            thick_triple_bounds(scale, blocks)
        with pytest.raises(InputError, match=f"^{field} "):
            thick_triple(Window(-100, 100), scale, blocks)


def test_chain_in_thick_frozen():
    t = blocks_set(Window(1, 499), 1)
    got = chain_in_thick(t, 4, Window(1, 500))
    assert sorted(got.members()) == [1, 2, 3, 11]
    members = set(t.members())
    chosen = sorted(got.members())
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            assert chosen[j] - chosen[i] in members


def test_chain_in_thick_checks_differences_without_listing_t():
    """The pairwise re-check reads T's bits: no Python set of T's half a million members."""
    t = bernoulli_set(Window(1, 10**6), Fraction(1, 2), 5)
    tracemalloc.start()
    try:
        chain_in_thick(t, 3, Window(1, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_chain_in_thick_dead_end():
    t = blocks_set(Window(1, 499), 1)
    with pytest.raises(InfeasibleError):
        chain_in_thick(t, 6, Window(1, 500))
    with pytest.raises(InputError):
        chain_in_thick(t, 0, Window(1, 500))


def test_huge_integer_fields_size_no_allocation():
    """count and the blocks scale size nothing: a count past any chain dead-ends, and a
    scale past the window leaves no complete block, both at the window cap."""
    cap = [1, intset.MAX_WINDOW_LENGTH]
    thick = {"kind": "blocks", "window": cap, "scale": 1}
    with pytest.raises(InfeasibleError, match="chain stuck after 7 of"):
        gen(spec_from_json({"kind": "chain_in_thick", "window": cap, "count": 10**30, "thick": thick}))
    with pytest.raises(InputError, match="no complete block"):
        gen(spec_from_json({"kind": "blocks", "window": cap, "scale": 10**30}))


# ---------------------------------------------------------------------------
# dispatch and the JSON spec format


def test_gen_dispatch_and_roundtrip():
    spec = GenSpec("residues", Window(0, 9), 0, {"modulus": 2, "classes": [0]})
    out = gen(spec)
    assert sorted(out.members()) == [0, 2, 4, 6, 8]
    assert spec_from_json(spec_to_json(spec)) == spec

    spec = GenSpec("bernoulli", Window(0, 63), 42, {"p": "1/2"})
    assert gen(spec).bits == 0x987CE6B803278D5E

    triple = gen(GenSpec("thick_triple", thick_triple_bounds(4, 3)))
    assert isinstance(triple, tuple) and len(triple) == 3


def test_gen_refuses_float_probability():
    with pytest.raises(InputError):
        gen(GenSpec("bernoulli", Window(0, 9), 0, {"p": 0.5}))


def test_residue_modulus_is_capped(monkeypatch):
    """The residue table holds one entry per residue: a modulus past the window cap is
    refused, naming the field, before anything is allocated."""
    huge = {"kind": "residues", "window": [1, 50], "modulus": 10**30, "classes": [0]}
    with monkeypatch.context() as m:
        m.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated a residue table"))
        m.setattr(np, "arange", lambda *a, **k: pytest.fail("allocated the residues"))
        with pytest.raises(InputError, match="modulus .* over the cap"):
            gen(spec_from_json(huge))
    monkeypatch.setattr("diffsets.intset.MAX_WINDOW_LENGTH", 2000)
    with pytest.raises(InputError, match="modulus 2001 is over the cap of 2000"):
        residue_set(Window(1, 50), 2001, [0])
    assert set(residue_set(Window(1, 50), 2000, [7]).members()) == {7}  # exactly at the cap


_NEED = thick_triple_bounds(1, 2)
_NESTED_TRIPLE = {"kind": "thick_triple", "window": [_NEED.lo, _NEED.hi], "scale": 1, "blocks": 2}

SPEC_ERRORS = [  # (JSON spec, the refusal's message)
    ({"kind": "bernoulli", "window": [1, 50], "p": "abc"}, "cannot parse p = 'abc' as a rational"),
    ({"kind": "ap_union", "window": [1, 50]}, "ap_union needs aps"),
    ({"kind": "chain_in_thick", "window": [1, 50]}, "chain_in_thick needs count"),
    ({"kind": "chain_in_thick", "window": [1, 50], "count": 2, "thick": _NESTED_TRIPLE},
     "nested thick spec must yield a single set"),
    # JSON booleans and floats are not integers, wherever an integer is read
    ({"kind": "bernoulli", "window": [1, 50], "seed": True}, "cannot parse seed = True as an integer"),
    ({"kind": "bernoulli", "window": [1.9, 100.5]}, "cannot parse window = 1.9 as an integer"),
    ({"kind": "bernoulli", "window": [1, 100.0]}, "cannot parse window = 100.0 as an integer"),
    ({"kind": "ap_union", "window": [1, 50], "aps": [[1.5, 3]]},
     "cannot parse aps = 1.5 as an integer"),
    ({"kind": "ap_union", "window": [1, 50], "aps": [[1, True]]},
     "cannot parse aps = True as an integer"),
    ({"kind": "residues", "window": [1, 50], "modulus": 5, "classes": [False]},
     "cannot parse classes = False as an integer"),
    ({"kind": "residues", "window": [1, 50], "modulus": 5.0, "classes": [0]},
     "cannot parse modulus = 5.0 as an integer"),
    ({"kind": "blocks", "window": [1, 50], "scale": True}, "cannot parse scale = True as an integer"),
    ({"kind": "chain_in_thick", "window": [1, 50], "count": 2.5},
     "cannot parse count = 2.5 as an integer"),
]


def test_gen_rejects_bad_specs():
    for data, message in SPEC_ERRORS:
        with pytest.raises(InputError) as exc:
            gen(spec_from_json(data))
        assert str(exc.value) == message, data
    with pytest.raises(InputError):
        GenSpec("fibonacci", Window(0, 9))
    with pytest.raises(InputError):
        gen(GenSpec("residues", Window(0, 9), 0, {"modulus": 2}))
    with pytest.raises(InputError):
        gen(GenSpec("bernoulli", Window(0, 9), 0, {"q": "1/2"}))
    with pytest.raises(InputError):
        spec_from_json({"kind": "residues"})
    with pytest.raises(InputError):
        spec_from_json({"kind": "residues", "window": 7})


def test_gen_nested_thick_spec():
    spec = GenSpec(
        "chain_in_thick",
        Window(1, 100),
        0,
        {
            "count": 3,
            "thick": {"kind": "residues", "window": [1, 99], "modulus": 3, "classes": [0]},
        },
    )
    got = gen(spec)
    assert sorted(got.members()) == [1, 4, 7]
