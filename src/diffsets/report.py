"""Report schema and canonical JSON/CSV rendering for the CLI.

One rule throughout: certificate-bearing numbers are exact rationals and
serialize as strings like "3/10" (or "2" when integral), never floats.
Floats appear only in the timing block and in explicitly heuristic fields.
Sets serialize as member lists up to a size cutoff, then as hex bitmasks;
both forms carry the window and the count.  Rendering is canonical
(sorted keys, two-space indent) so reports are byte-comparable, and golden
tests compare them with the timing block stripped.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

from .embed import Pattern
from .errors import InputError
from .intset import IntSet, Window

MEMBER_LIST_CUTOFF = 4096
# Digits of a parsed rational's numerator or denominator: 300 under Python's cap of 4300
# on the digits of an int written as text, so every value a report derives from one
# prints too (see parse_fraction)
MAX_DIGITS = 4000
_DIGIT_BOUND = 10**MAX_DIGITS
# json.loads, gen and to_jsonable recurse on each level of a spec, and Python stops at 1000 frames
MAX_JSON_DEPTH = 100

__all__ = [
    "Report",
    "load_json",
    "parse_fraction",
    "set_to_json",
    "to_jsonable",
    "render",
    "write_csv",
]


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"(\s*:)?|[][{}]', re.S)


def parse_fraction(text, name: str = "value") -> Fraction:
    """An exact rational from 'p/q', an integer or a decimal string.

    Text over 4 * MAX_DIGITS characters, or with a decimal exponent over
    MAX_DIGITS in magnitude, is refused before Fraction reads it, as Fraction
    would build 10**exponent (or 10**digits after the point); so is a value
    whose numerator or denominator has over MAX_DIGITS digits.

    Every value a report derives from one stays under 4300 digits.  Where a
    command derives a value from eps or slack it has refused them unless below
    1, and a density's denominator is a window length <= 10^7.  So with D the
    digits of the parsed denominator: γ = α - slack has a denominator of at
    most D + 7 digits, and α·β - slack - sub/N one of D + 14; a chain floor
    α_i·floor - slack - n/N over at most TRACE_CAP = 16 stages is under 32 in
    magnitude, its denominator dividing den(slack)·N^16, so at most D + 114
    digits; a cover bound floor((g - eps)/(g² - eps)) is under
    1/(g² - eps) <= den(g²)·den(eps), at most D + 28 digits.  With
    D <= MAX_DIGITS = 4000, all of them have at most 4114.
    """
    try:
        s = str(text).strip()
        if len(s) > 4 * MAX_DIGITS:
            raise InputError(f"{name} is {len(s)} characters long, over the cap of {4 * MAX_DIGITS}")
        exp = _EXPONENT.search(s)
        digits = exp[1].replace("_", "").lstrip("0") if exp else ""
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise InputError(f"{name} = {text!r} has a decimal exponent over {MAX_DIGITS} "
                             "in magnitude")
        f = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {name} = {text!r} as a rational") from None
    if abs(f.numerator) >= _DIGIT_BOUND or f.denominator >= _DIGIT_BOUND:
        raise InputError(f"{name} = {text!r} has a numerator or denominator of over "
                         f"{MAX_DIGITS} digits")
    return f


def load_json(text: str, name: str):
    """json.loads, with nesting past MAX_JSON_DEPTH refused before the decoder recurses.

    The refusal is an InputError naming ``name`` and the outermost field on
    the path to the cap, such as a generator spec's nested "thick" field.
    Text json.loads refuses raises its ValueError, for the caller to word.
    """
    depth, keys = 0, {}  # keys[d]: the last key read in the open object at depth d
    for tok in _JSON_TOKEN.finditer(text):
        if tok[0] in ("[", "{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                where = f" under field {keys[min(keys)]}" if keys else ""
                raise InputError(f"{name} nests deeper than {MAX_JSON_DEPTH} levels{where}")
        elif tok[0] in ("]", "}"):
            keys.pop(depth, None)
            depth -= 1
        elif tok[1]:
            keys[depth] = tok[0][: tok[0].rindex('"') + 1]
    return json.loads(text)


def set_to_json(a: IntSet) -> dict:
    out = {"window": [a.window.lo, a.window.hi], "count": a.count}
    if a.count <= MEMBER_LIST_CUTOFF:
        out["members"] = list(a.members())
    else:
        out["bits_hex"] = format(a.bits, "x")
    return out


def to_jsonable(obj):
    """Recursively convert library objects to JSON-ready structures."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, IntSet):
        return set_to_json(obj)
    if isinstance(obj, Window):
        return [obj.lo, obj.hi]
    if isinstance(obj, Pattern):
        return list(obj.elems)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise InputError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass
class Report:
    command: str
    version: str
    seed: int | None = None
    inputs: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)


def render(report: Report) -> str:
    return json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"


def write_csv(path: str, header: list[str], rows) -> None:
    try:
        fh = open(path, "w", newline="")
    except OSError as e:
        raise InputError(f"cannot write CSV to {path}: {e}") from e
    with fh:
        w = csv.writer(fh)  # csv writes a Fraction through str(), as "p/q"
        w.writerow(header)
        w.writerows(rows)
