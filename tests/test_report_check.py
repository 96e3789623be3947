"""Reports re-checked from their JSON and the files they name alone (report_check).

``test_argv_corpus.test_corpus_replays`` rechecks every exit-0 corpus report
whose command has a checker.  Here: every golden whose command has one, its
input a.set built as test_cli builds it; ``gen`` specs of 3 * 2^15 + 17
positions, negative windows and a window beyond 2^63, each in bits and list
format; one edit per row that the checker must name, and no other field; and
the entry point, run as a script.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from diffsets.cli import main
from report_check import CHECKS, check
from test_cli import BRANCH_GOLDENS, GOLDEN, RESIDUE_SPEC
from test_cli_fuzz import _cwd

SCRIPT = Path(__file__).resolve().parent / "report_check.py"
GOLDENS = sorted(p.name for p in GOLDEN.glob("*.json")
                 if isinstance(r := json.loads(p.read_text()), dict) and r.get("command") in CHECKS)
LONG = 3 * 2**15 + 17
SPECS = [
    {"kind": "bernoulli", "window": [1, LONG], "seed": 11, "p": "3/10"},
    {"kind": "bernoulli", "window": [-LONG // 2, LONG - LONG // 2 - 1], "seed": 2**64 - 1, "p": "1/2"},
    {"kind": "residues", "window": [-LONG // 2, LONG - LONG // 2 - 1], "seed": 0, "modulus": 7,
     "classes": [0, 2, 3]},
    {"kind": "residues", "window": [2**63 + 5, 2**63 + 4 + LONG], "seed": 0, "modulus": 1000,
     "classes": [1, 999]},
    {"kind": "ap_union", "window": [-50, 50], "seed": 0, "aps": [[10**20, 7], [-3, 11]]},
]
RESIDUES = ["gen", "--spec", RESIDUE_SPEC, "--out", "a.set"]
SEARCH_SET = ["gen", "--spec", '{"kind":"residues","window":[1,20000],"modulus":6,"classes":[0,1,5]}',
              "--out", "d.set"]
SEARCH = ["bohr", "--d", "d.set", "--search", "--kmax", "4",
          "--eps-grid", "1/3,1/4,1/5,1/6,1/8,1/10", "--shifts", "0,1,2,3"]


def _run(d, *argvs):
    """The report of the last of argvs, each run by main in d."""
    with _cwd(d):
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, argv
    return json.loads(out.getvalue())


def _golden(d, name):
    """The golden report ``name``, with the files it names built in d as test_cli builds them."""
    report = json.loads((GOLDEN / name).read_text())
    argvs = [RESIDUES]
    if report["command"] == "gen":  # the files it names are its outputs
        argvs.append(BRANCH_GOLDENS[name])
    _run(d, *argvs)
    return report


@pytest.mark.parametrize("name", GOLDENS)
def test_goldens_recheck(tmp_path, name):
    assert check(_golden(tmp_path, name), tmp_path) == []


@pytest.mark.parametrize("fmt", ["bits", "list"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s['kind']}{s['window'][0]}")
def test_spans_of_several_blocks_recheck(tmp_path, spec, fmt):
    report = _run(tmp_path, ["gen", "--spec", json.dumps(spec), "--out", "g.set", "--fmt", fmt])
    assert check(report, tmp_path) == []


def _flip_last_position(d):
    path = d / "g.set"
    row = bytearray(path.read_bytes())
    row[-2] ^= 1  # "0" <-> "1"
    path.write_bytes(bytes(row))


# (a golden or the argvs run for the report, the report's keys to edit or None to edit the
# files, the edit, the fields the checker names); a bohr search over many members
# serializes its generated set as bits_hex
MUTATIONS = [
    ("analyze_piecewise.json", ("results", "piecewise_syndetic", "witness"),
     lambda w: [w[0] + 1, w[1] + 1], ["piecewise_syndetic.witness"]),
    ([["gen", "--spec", json.dumps(SPECS[0]), "--out", "g.set"]], None, _flip_last_position,
     ["g.set count", "g.set"]),
    ([RESIDUES, ["bohr", "--d=a.set", "--freqs=1/5,2/7"]], ("results", "containment", "violation_count"),
     lambda v: v + 1, ["containment.violation_count"]),
    ([SEARCH_SET, SEARCH], ("results", "witness", "members"), lambda v: v - 1, ["witness.members"]),
    ([SEARCH_SET, SEARCH], ("results", "generated", "bits_hex"), lambda h: f"{int(h, 16) ^ 1:x}",
     ["generated.members"]),
    ("delta.json", ("certificates", "per_t", "0"), lambda v: "1/5", ["certificates.per_t.0"]),
]


def _build(d, source):
    return _golden(d, source) if isinstance(source, str) else _run(d, *source)


def _edit(d, report, keys, edit):
    """Apply edit to the report's entry at keys, or to the files in d when keys is None."""
    if keys is None:
        return edit(d)
    *path, last = keys
    for key in path:
        report = report[key]
    report[last] = edit(report[last])


@pytest.mark.parametrize("source, keys, edit, fields", MUTATIONS,
                         ids=[",".join(row[-1]) for row in MUTATIONS])
def test_check_names_the_edited_field(tmp_path, source, keys, edit, fields):
    report = _build(tmp_path, source)
    assert check(report, tmp_path) == []
    _edit(tmp_path, report, keys, edit)
    assert [w.split(":")[0] for w in check(report, tmp_path)] == fields


def test_entry_point_prints_ok_or_names_the_field(tmp_path):
    source, keys, edit, (field,) = MUTATIONS[-1]
    report, path = _build(tmp_path, source), tmp_path / "r.json"
    for code, out in ((0, "ok\n"), (1, f"{field}: ")):
        path.write_text(json.dumps(report))
        done = subprocess.run([sys.executable, SCRIPT, path, tmp_path], capture_output=True, text=True)
        assert (done.returncode, done.stdout[:len(out)]) == (code, out), done
        _edit(tmp_path, report, keys, edit)
