"""Re-check an ``analyze`` report from its JSON and its input set file alone.

Every number the report states is recomputed by ``brute``, with no code of the
package: each per-n Banach estimate, the anchored estimates when the window
starts at 1, the thick witness, the longest run, the syndetic gap and the
piecewise syndetic witness.

    python tests/analyze_check.py REPORT.json SET_FILE

prints each field the recomputation contradicts and exits 1, or prints "ok".
"""

import json
import sys
from pathlib import Path

import brute


def read_set(path):
    """(lo, hi, members) of a set file: bits ("lo=" line, then a 0/1 row) or list."""
    text = Path(path).read_text()
    if text.startswith("lo="):
        head, row = text.splitlines()[:2]
        lo, row = int(head[3:]), row.strip()
        return lo, lo + len(row) - 1, {lo + i for i, c in enumerate(row) if c == "1"}
    lo, hi, members = brute.read_list_file(text, str(path), float("inf"))
    return lo, hi, set(members)


def check(report, set_path):
    """The fields of an analyze report that a brute recount of set_path contradicts."""
    lo, hi, members = read_set(set_path)
    res = report["results"]
    wrong = []

    def expect(name, got, want):
        if got != want:
            wrong.append(f"{name}: reported {got!r}, recomputed {want!r}")

    expect("inputs.set.window", report["inputs"]["set"]["window"], [lo, hi])
    expect("inputs.set.count", report["inputs"]["set"]["count"], len(members))
    anchored = lo == 1
    expect("anchored", res["anchored"], anchored)
    for key, entry in res["per_n"].items():
        n = int(key)
        ests = {"upper_banach": brute.upper_banach(members, lo, hi, n),
                "lower_banach": brute.lower_banach(members, lo, hi, n)}
        if anchored:
            ests["upper_asymptotic"] = brute.anchored_max(members, (n + 1) // 2, n)
            ests["lower_asymptotic"] = brute.anchored_min(members, (n + 1) // 2, n)
            ests["schnirelmann"] = brute.schnirelmann(members, n)
        expect(f"per_n.{n} fields", sorted(entry), sorted([*ests, "thick_witness"]))
        for kind, (value, at) in ests.items():
            want = {"at": at, "kind": kind, "n": n, "value": str(value)}
            expect(f"per_n.{n}.{kind}", entry.get(kind), want)
        thick = brute.piecewise_syndetic_witness(members, lo, hi, 1, n)
        expect(f"per_n.{n}.thick_witness", entry.get("thick_witness"), thick and thick[0])
    run = brute.longest_run(members)
    expect("longest_run", res["longest_run"], run and list(run))
    ordered = sorted(members)
    gap = max((y - x for x, y in zip(ordered, ordered[1:])), default=None)
    expect("syndetic_gap", res["syndetic_gap"], gap)
    fields = ["anchored", "longest_run", "per_n", "syndetic_gap"]
    if "piecewise_syndetic" in res:
        fields.append("piecewise_syndetic")
        p = res["piecewise_syndetic"]
        w = brute.piecewise_syndetic_witness(members, lo, hi, p["gap"], p["length"])
        expect("piecewise_syndetic.witness", p["witness"], w and list(w))
    expect("results fields", sorted(res), sorted(fields))
    return wrong


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    found = check(json.loads(Path(sys.argv[1]).read_text()), sys.argv[2])
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
