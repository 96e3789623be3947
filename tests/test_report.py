"""Report serialization rules, and the sweep map that runs in order in the calling thread."""

import json
import threading
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffsets import (
    InputError,
    IntSet,
    Pattern,
    Report,
    Window,
    make_set,
    parse_fraction,
    render,
    to_jsonable,
)
from diffsets.par import ordered_map
from diffsets.report import MEMBER_LIST_CUTOFF, set_to_json, write_csv


@given(st.fractions(max_denominator=10**6))
def test_fraction_string_roundtrip(f):
    assert parse_fraction(str(f)) == f


def test_parse_fraction_rejects_garbage():
    with pytest.raises(InputError):
        parse_fraction("one half")
    with pytest.raises(InputError):
        parse_fraction("1/0")
    assert parse_fraction(" 3/10 ") == Fraction(3, 10)
    assert parse_fraction("2") == 2


def test_parse_fraction_caps_exponents_and_digits():
    """A decimal exponent over 4000 in magnitude, or a long text, is refused before Fraction
    builds 10**exponent; a value with over 4000 digits, whose derived values a report could
    not print, is refused after."""
    assert parse_fraction("2.5e-3") == Fraction(1, 400)
    assert parse_fraction("1E+0_3999") == 10**3999
    assert parse_fraction("1e-3999") == Fraction(1, 10**3999)
    assert parse_fraction("1e000000000000000003") == 1000
    for text in ("1e999999999999", "1e-999999999999", "1e4001", "5E-4_001", "1e" + "9" * 5000):
        with pytest.raises(InputError, match="decimal exponent over 4000"):
            parse_fraction(text, "--eps")
    for text in ("1e4000", "1e-4000", "0." + "1" * 4000, "1/" + "9" * 4300):
        with pytest.raises(InputError, match="over 4000 digits"):
            parse_fraction(text)
    with pytest.raises(InputError, match="over the cap of 16000"):
        parse_fraction("0." + "1" * 10**6)


def test_set_to_json_small_lists_members():
    a = make_set([0, 2, 5], Window(0, 9))
    d = set_to_json(a)
    assert d == {"window": [0, 9], "count": 3, "members": [0, 2, 5]}


def test_set_to_json_large_goes_hex():
    w = Window(1, MEMBER_LIST_CUTOFF + 10)
    a = IntSet(w, (1 << w.length) - 1)
    d = set_to_json(a)
    assert "members" not in d
    assert int(d["bits_hex"], 16) == a.bits
    assert d["count"] == w.length


def test_to_jsonable_shapes():
    assert to_jsonable(Fraction(3, 10)) == "3/10"
    assert to_jsonable(Fraction(2)) == "2"
    assert to_jsonable(Window(-5, 5)) == [-5, 5]
    assert to_jsonable(Pattern((1, 4))) == [1, 4]
    assert to_jsonable({1: Fraction(1, 2)}) == {"1": "1/2"}
    assert to_jsonable((1, "x", None, True)) == [1, "x", None, True]

    @dataclass
    class Leaf:
        value: Fraction
        tag: str

    assert to_jsonable(Leaf(Fraction(1, 3), "t")) == {"value": "1/3", "tag": "t"}

    with pytest.raises(InputError):
        to_jsonable(object())


def test_render_is_canonical():
    rep = Report("analyze", "0.1.0", results={"b": Fraction(1, 2), "a": 1})
    text = render(rep)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["results"] == {"a": 1, "b": "1/2"}
    keys = list(parsed.keys())
    assert keys == sorted(keys)
    # canonical form: same report renders to identical bytes
    assert text == render(Report("analyze", "0.1.0", results={"b": Fraction(1, 2), "a": 1}))


def test_write_csv_formats_fractions(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["t", "density"], [(0, Fraction(2, 5)), (1, Fraction(1, 5))])
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,density"
    assert rows[1] == "0,2/5"
    assert rows[2] == "1,1/5"


# ---------------------------------------------------------------------------
# the sweep map


def test_ordered_map_preserves_order():
    items = list(range(37))
    assert ordered_map(lambda x: x * x, items) == [x * x for x in items]


def test_ordered_map_runs_in_order_on_the_calling_thread():
    seen = []

    def fn(x):
        seen.append((x, threading.get_ident()))
        return -x

    items = list(range(50))
    assert ordered_map(fn, items) == [-x for x in items]
    assert seen == [(x, threading.get_ident()) for x in items]
