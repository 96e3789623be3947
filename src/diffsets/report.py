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
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

from .embed import Pattern
from .errors import InputError
from .intset import IntSet, Window

MEMBER_LIST_CUTOFF = 4096

__all__ = [
    "Report",
    "parse_fraction",
    "set_to_json",
    "to_jsonable",
    "render",
    "write_csv",
]


def parse_fraction(text: str, name: str = "value") -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {name} = {text!r} as a rational") from None


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
