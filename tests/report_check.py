"""Re-check a CLI report from its JSON and the set files it names, with the stdlib alone.

    python tests/report_check.py REPORT [DIR]

reads the files the report names (``inputs.set``, ``inputs.d``, ``results.set``
or ``results.sets``) under DIR, the current directory by default, prints each
field the recomputation contradicts and exits 1, or prints "ok".  ``CHECKS``
maps each command that has a checker to ``check(report, root) -> list[str]``;
no code of the package runs.

- analyze: ``brute`` recomputes each per-n Banach estimate, the anchored
  estimates when the window starts at 1, the thick witness, the longest run,
  the syndetic gap and the piecewise syndetic witness.
- gen: ``brute`` rebuilds the set from ``inputs.spec`` (a pure-Python
  SplitMix64 for ``bernoulli``, ``%`` for ``residues`` and ``ap_union``, the
  blocks and A - B for ``thick_triple``).  The report's windows and counts and
  the exact members of every set file, bits or list format, must match.  A
  bits file spans the spec's window; a list file spans its members.
- bohr: x is in the Bohr set of frequencies p/q, width eps = a/b and shift s
  when, for every frequency, v = p * (x - s) mod q has min(v, q - v) * b < a * q.
  Direct mode (``--freqs``): the generated set on the window, and the
  containment recount on the interval (``checked``, ``violation_count``, the
  listed violations, ``ok``).  Search mode (``--search``): the witness spec's
  set on the reported interval lies in D, its ``members`` and ``coverage``
  recount, the interval is at least ``lmin`` long, and the generated set and
  the containment certificate recount as in direct mode.  The search's choice
  among specs rests on the suggester's float ranking and is not rechecked.
- delta: ``per_t[t]`` for every t of ``trange``, the density of
  {x in A : x + t in A}: its best length-n window count on the overlap
  window, found by a running count, or with ``--upper`` the most of
  |that set ∩ [1, i]| / i over i in [ceil(n/2), n]; then ``members`` is
  {t : per_t[t] > eps}, and ``count`` its size.
"""

import json
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import brute

LISTED = 10  # violations a containment report lists


class Wrong(list):
    """The fields of one report that its recomputation contradicts, one line each."""

    def expect(self, name, got, want):
        if got != want:
            self.append(f"{name}: reported {got!r}, recomputed {want!r}")


def read_set(path):
    """(lo, hi, members) of a set file: bits ("lo=" line, then a 0/1 row) or list."""
    text = Path(path).read_text()
    if text.startswith("lo="):
        head, row = text.splitlines()[:2]
        lo, row = int(head[3:]), row.strip()
        return lo, lo + len(row) - 1, {lo + i for i, c in enumerate(row) if c == "1"}
    lo, hi, members = brute.read_list_file(text, str(path), float("inf"))
    return lo, hi, set(members)


def reported_members(entry):
    """The members of a serialized set: listed, or bit i of ``bits_hex`` for window lo + i."""
    if "members" in entry:
        return entry["members"]
    bits, lo = int(entry["bits_hex"], 16), entry["window"][0]
    return [lo + i for i in range(bits.bit_length()) if bits >> i & 1]


def read_input(report, key, root, wrong):
    """(lo, hi, members) of the input set file ``inputs.<key>``; its window and count expected."""
    entry = report["inputs"][key]
    lo, hi, members = read_set(root / entry["path"])
    wrong.expect(f"inputs.{key}.window", entry["window"], [lo, hi])
    wrong.expect(f"inputs.{key}.count", entry["count"], len(members))
    return lo, hi, members


def check_analyze(report, root):
    wrong = Wrong()
    lo, hi, members = read_input(report, "set", root, wrong)
    res = report["results"]
    anchored = lo == 1
    wrong.expect("anchored", res["anchored"], anchored)
    for key, entry in res["per_n"].items():
        n = int(key)
        ests = {"upper_banach": brute.upper_banach(members, lo, hi, n),
                "lower_banach": brute.lower_banach(members, lo, hi, n)}
        if anchored:
            ests["upper_asymptotic"] = brute.anchored_max(members, (n + 1) // 2, n)
            ests["lower_asymptotic"] = brute.anchored_min(members, (n + 1) // 2, n)
            ests["schnirelmann"] = brute.schnirelmann(members, n)
        wrong.expect(f"per_n.{n} fields", sorted(entry), sorted([*ests, "thick_witness"]))
        for kind, (value, at) in ests.items():
            want = {"at": at, "kind": kind, "n": n, "value": str(value)}
            wrong.expect(f"per_n.{n}.{kind}", entry.get(kind), want)
        thick = brute.piecewise_syndetic_witness(members, lo, hi, 1, n)
        wrong.expect(f"per_n.{n}.thick_witness", entry.get("thick_witness"), thick and thick[0])
    run = brute.longest_run(members)
    wrong.expect("longest_run", res["longest_run"], run and list(run))
    ordered = sorted(members)
    gap = max((y - x for x, y in zip(ordered, ordered[1:])), default=None)
    wrong.expect("syndetic_gap", res["syndetic_gap"], gap)
    fields = ["anchored", "longest_run", "per_n", "syndetic_gap"]
    if "piecewise_syndetic" in res:
        fields.append("piecewise_syndetic")
        p = res["piecewise_syndetic"]
        w = brute.piecewise_syndetic_witness(members, lo, hi, p["gap"], p["length"])
        wrong.expect("piecewise_syndetic.witness", p["witness"], w and list(w))
    wrong.expect("results fields", sorted(res), sorted(fields))
    return wrong


def rebuild(spec):
    """The member sets the spec's generator must write, or None for a kind not rebuilt here."""
    lo, hi = spec["window"]
    kind = spec["kind"]
    if kind == "bernoulli":
        return [brute.bernoulli_members(lo, hi, Fraction(spec.get("p", "1/2")), spec["seed"])]
    if kind == "residues":
        return [brute.residue_members(lo, hi, int(spec["modulus"]), [int(c) for c in spec["classes"]])]
    if kind == "ap_union":
        return [brute.ap_union_members(lo, hi, [(int(a), int(d)) for a, d in spec["aps"]])]
    if kind == "thick_triple":
        return brute.thick_triple_members(lo, hi, int(spec.get("scale", 4)), int(spec.get("blocks", 3)))
    return None


def check_gen(report, root):
    spec = report["inputs"]["spec"]
    wants = rebuild(spec)
    if wants is None:
        return [f"inputs.spec.kind: no stdlib rebuild of {spec['kind']!r}"]
    wrong = Wrong()
    res = report["results"]
    made = {"results.set": res["set"]} if "set" in res else {
        f"results.sets.{i}": entry for i, entry in enumerate(res["sets"])}
    wrong.expect("results sets", len(made), len(wants))
    for (name, entry), want in zip(made.items(), wants):
        wrong.expect(f"{name}.window", entry["window"], spec["window"])
        wrong.expect(f"{name}.count", entry["count"], len(want))
        path = entry["path"]
        lo, hi, members = read_set(root / path)
        bits = (root / path).read_bytes()[:3] == b"lo="
        span = spec["window"] if bits else [min(want, default=None), max(want, default=None)]
        wrong.expect(f"{path} window", [lo, hi], span)
        wrong.expect(f"{path} count", len(members), len(want))
        if members != want:
            wrong.append(f"{path}: {len(members - want)} members not rebuilt, "
                         f"{len(want - members)} rebuilt members missing")
    return wrong


def in_bohr(x, freqs, eps, shift):
    """Is ||r * (x - shift)|| < eps for every r in freqs?  Integers only."""
    for r in freqs:
        v = r.numerator * (x - shift) % r.denominator
        if min(v, r.denominator - v) * eps.denominator >= eps.numerator * r.denominator:
            return False
    return True


def check_bohr(report, root):
    wrong = Wrong()
    lo, hi, d = read_input(report, "d", root, wrong)
    res, params = report["results"], report["parameters"]

    def expect_generated(spec):
        s = [x for x in range(lo, hi + 1) if in_bohr(x, *spec)]
        gen = res["generated"]
        wrong.expect("generated.window", gen["window"], [lo, hi])
        wrong.expect("generated.count", gen["count"], len(s))
        wrong.expect("generated.members", reported_members(gen), s)
        return s

    def expect_containment(name, entry, s, a, b):
        inside = [x for x in s if a <= x <= b]
        bad = [x for x in inside if x not in d]
        wrong.expect(f"{name}.checked", entry["checked"], len(inside))
        wrong.expect(f"{name}.violation_count", entry["violation_count"], len(bad))
        wrong.expect(f"{name}.violations", entry["violations"], bad[:LISTED])
        wrong.expect(f"{name}.ok", entry["ok"], not bad)
        return inside, bad

    if "witness" not in res:  # direct mode
        spec = ([Fraction(r) for r in params["freqs"]], Fraction(params["eps"]), params["shift"])
        s = expect_generated(spec)
        expect_containment("containment", res["containment"], s, *params["interval"])
        wrong.expect("results fields", sorted(res), ["containment", "generated"])
        return wrong
    wit = res["witness"]
    if wit is None:
        wrong.expect("results fields", sorted(res), ["witness"])
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
    wrong.expect("witness.members", wit["members"], len(inside))
    wrong.expect("witness.coverage", wit["coverage"], str(Fraction(len(inside), b - a + 1)))
    if b - a + 1 < params["lmin"]:
        wrong.append(f"witness.interval: length {b - a + 1} is below lmin {params['lmin']}")
    wrong.expect("results fields", sorted(res), ["generated", "witness"])
    return wrong


def best_window_count(members, lo, hi, n):
    """The most members in one window [x + 1, x + n] inside [lo, hi], by a running count."""
    inside = [x in members for x in range(lo, hi + 1)]
    count = best = sum(inside[:n])
    for i in range(n, len(inside)):
        count += inside[i] - inside[i - n]
        best = max(best, count)
    return best


def check_delta(report, root):
    wrong = Wrong()
    lo, hi, a = read_input(report, "set", root, wrong)
    params = report["parameters"]
    n, eps, (t_lo, t_hi) = params["n"], Fraction(params["eps"]), params["trange"]
    per_t = {}
    for t in range(t_lo, t_hi + 1):
        both = brute.shift_intersection(a, t)
        if params["estimator"] == "upper":
            ordered = sorted(both)
            per_t[t] = max(Fraction(bisect_right(ordered, i), i) for i in range((n + 1) // 2, n + 1))
        else:
            per_t[t] = Fraction(best_window_count(both, max(lo, lo - t), min(hi, hi - t), n), n)
    got = report["certificates"]["per_t"]
    wrong.expect("certificates.per_t shifts", sorted(map(int, got)), list(per_t))
    for t, value in per_t.items():
        wrong.expect(f"certificates.per_t.{t}", got.get(str(t)), str(value))
    members = [t for t, value in per_t.items() if value > eps]
    made = report["results"]["members"]
    wrong.expect("results.members.window", made["window"], [t_lo, t_hi])
    wrong.expect("results.members.members", reported_members(made), members)
    wrong.expect("results.members.count", made["count"], len(members))
    wrong.expect("results.count", report["results"]["count"], len(members))
    return wrong


CHECKS = {"analyze": check_analyze, "gen": check_gen, "bohr": check_bohr, "delta": check_delta}


def check(report, root="."):
    """The contradicted fields of a report whose command is in CHECKS, files read under root."""
    return CHECKS[report["command"]](report, Path(root))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    report = json.loads(Path(sys.argv[1]).read_text())
    if report.get("command") not in CHECKS:
        sys.exit(f"no checker for command {report.get('command')!r}; checked: {', '.join(CHECKS)}")
    found = check(report, *sys.argv[2:])
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
