"""Re-check a ``bohr`` report from its JSON and its input set file, with the stdlib alone.

Bohr membership is decided again per x by integer cross-multiplication: x is
in the set of frequencies p/q, width eps = a/b and shift s when, for every
frequency, v = p * (x - s) mod q has min(v, q - v) * b < a * q.  No code of the
package runs.  Direct mode (``--freqs``): the generated set on the window, and
the containment recount on the interval (``checked``, ``violation_count``,
the listed violations, ``ok``).  Search mode (``--search``): the witness
spec's set on the reported interval lies in D, its ``members`` and
``coverage`` recount, the interval is at least ``lmin`` long, and the
generated set and the containment certificate recount as in direct mode.
The search's choice among specs rests on the suggester's float ranking and is
not rechecked.

    python tests/bohr_check.py REPORT.json D_SET

prints each field the recount contradicts and exits 1, or prints "ok".
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from analyze_check import read_set

LISTED = 10  # violations a containment report lists


def in_bohr(x, freqs, eps, shift):
    """Is ||r * (x - shift)|| < eps for every r in freqs?  Integers only."""
    for r in freqs:
        v = r.numerator * (x - shift) % r.denominator
        if min(v, r.denominator - v) * eps.denominator >= eps.numerator * r.denominator:
            return False
    return True


def reported_members(entry):
    """The members of a serialized set: listed, or bit i of ``bits_hex`` for window lo + i."""
    if "members" in entry:
        return entry["members"]
    bits, lo = int(entry["bits_hex"], 16), entry["window"][0]
    return [lo + i for i in range(bits.bit_length()) if bits >> i & 1]


def check(report, set_path):
    """The fields of a bohr report that a recount over set_path contradicts."""
    lo, hi, d = read_set(set_path)
    res, params = report["results"], report["parameters"]
    wrong = []

    def expect(name, got, want):
        if got != want:
            wrong.append(f"{name}: reported {got!r}, recomputed {want!r}")

    def expect_generated(spec):
        s = [x for x in range(lo, hi + 1) if in_bohr(x, *spec)]
        gen = res["generated"]
        expect("generated.window", gen["window"], [lo, hi])
        expect("generated.count", gen["count"], len(s))
        expect("generated.members", reported_members(gen), s)
        return s

    def expect_containment(name, entry, s, a, b):
        inside = [x for x in s if a <= x <= b]
        bad = [x for x in inside if x not in d]
        expect(f"{name}.checked", entry["checked"], len(inside))
        expect(f"{name}.violation_count", entry["violation_count"], len(bad))
        expect(f"{name}.violations", entry["violations"], bad[:LISTED])
        expect(f"{name}.ok", entry["ok"], not bad)
        return inside, bad

    expect("inputs.d.window", report["inputs"]["d"]["window"], [lo, hi])
    expect("inputs.d.count", report["inputs"]["d"]["count"], len(d))
    if "witness" not in res:  # direct mode
        spec = ([Fraction(r) for r in params["freqs"]], Fraction(params["eps"]), params["shift"])
        s = expect_generated(spec)
        expect_containment("containment", res["containment"], s, *params["interval"])
        expect("results fields", sorted(res), ["containment", "generated"])
        return wrong
    wit = res["witness"]
    if wit is None:
        expect("results fields", sorted(res), ["witness"])
        return wrong
    w = wit["spec"]
    spec = ([Fraction(r) for r in w["freqs"]], Fraction(w["eps"]), w["shift"])
    a, b = wit["interval"]
    if not lo <= a <= b <= hi:
        return wrong + [f"witness.interval: {[a, b]} is not inside the window {[lo, hi]}"]
    s = expect_generated(spec)
    inside, bad = expect_containment("certificates.containment", report["certificates"]["containment"],
                                     s, a, b)
    if bad:
        wrong.append(f"witness: {len(bad)} members of the spec's set on {[a, b]} are not in D, "
                     f"first {bad[0]}")
    expect("witness.members", wit["members"], len(inside))
    expect("witness.coverage", wit["coverage"], str(Fraction(len(inside), b - a + 1)))
    if b - a + 1 < params["lmin"]:
        wrong.append(f"witness.interval: length {b - a + 1} is below lmin {params['lmin']}")
    expect("results fields", sorted(res), ["generated", "witness"])
    return wrong


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    found = check(json.loads(Path(sys.argv[1]).read_text()), sys.argv[2])
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
