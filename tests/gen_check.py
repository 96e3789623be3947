"""Re-check a ``gen`` report and the set files it wrote, with the stdlib alone.

The set is rebuilt from the report's ``inputs.spec`` by ``brute``, with no code
of the package: a pure-Python SplitMix64 for ``bernoulli``, ``%`` for
``residues`` and ``ap_union``.  The report's window and count, and the exact
members of every set file, bits or list format, must match the rebuild.  A
bits file spans the spec's window; a list file spans its members.

    python tests/gen_check.py REPORT.json SET_FILE...

prints each field the rebuild contradicts and exits 1, or prints "ok".
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import brute
from analyze_check import read_set


def rebuild(spec):
    """The members the spec's generator must write, or None for a kind not rebuilt here."""
    lo, hi = spec["window"]
    kind = spec["kind"]
    if kind == "bernoulli":
        return brute.bernoulli_members(lo, hi, Fraction(spec.get("p", "1/2")), spec["seed"])
    if kind == "residues":
        return brute.residue_members(lo, hi, int(spec["modulus"]), [int(c) for c in spec["classes"]])
    if kind == "ap_union":
        return brute.ap_union_members(lo, hi, [(int(a), int(d)) for a, d in spec["aps"]])
    return None


def check(report, set_paths):
    """The fields of a gen report, and of its set files, that the rebuild contradicts."""
    spec = report["inputs"]["spec"]
    want = rebuild(spec)
    if want is None:
        return [f"inputs.spec.kind: no stdlib rebuild of {spec['kind']!r}"]
    wrong = []

    def expect(name, got, expected):
        if got != expected:
            wrong.append(f"{name}: reported {got!r}, rebuilt {expected!r}")

    made = report["results"]["set"]
    expect("results.set.window", made["window"], spec["window"])
    expect("results.set.count", made["count"], len(want))
    for path in set_paths:
        lo, hi, members = read_set(path)
        bits = Path(path).read_bytes()[:3] == b"lo="
        span = spec["window"] if bits else [min(want, default=None), max(want, default=None)]
        expect(f"{path} window", [lo, hi], span)
        expect(f"{path} count", len(members), len(want))
        if members != want:
            wrong.append(f"{path}: {len(members - want)} members not rebuilt, "
                         f"{len(want - members)} rebuilt members missing")
    return wrong


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    found = check(json.loads(Path(sys.argv[1]).read_text()), sys.argv[2:])
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
