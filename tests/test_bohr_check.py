"""bohr reports re-checked from their JSON and input set file alone (bohr_check).

Every exit-0 bohr argv of the argv corpus is replayed and its report checked
against the pool file it read; so is the benchmark's shape of search, on a
residue set whose generated set is serialized as ``bits_hex``.
"""

import contextlib
import io
import json

from bohr_check import check
from diffsets.cli import main
from test_argv_corpus import _entries
from test_cli_fuzz import _cwd, write_files

SEARCH = ["bohr", "--d", "d.set", "--search", "--kmax", "4",
          "--eps-grid", "1/3,1/4,1/5,1/6,1/8,1/10", "--shifts", "0,1,2,3"]


def _report(d, argv):
    (d / "r.json").unlink(missing_ok=True)
    out = io.StringIO()
    with _cwd(d), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads((d / "r.json").read_text() if "--out=r.json" in argv else out.getvalue())


def test_corpus_bohr_reports_recheck(tmp_path):
    write_files(tmp_path)
    argvs = [e["argv"] for e in _entries() if e["argv"][:1] == ["bohr"] and e["code"] == 0]
    assert len(argvs) == 22 and sum("--search" in argv for argv in argvs) == 2
    for argv in argvs:
        report = _report(tmp_path, argv)
        assert check(report, tmp_path / report["inputs"]["d"]["path"]) == [], argv


def _search_report(d):
    spec = {"kind": "residues", "window": [1, 20000], "modulus": 6, "classes": [0, 1, 5]}
    with _cwd(d), contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--spec", json.dumps(spec), "--out", "d.set"]) == 0
    return _report(d, SEARCH)


def test_a_search_over_many_members_rechecks(tmp_path):
    report = _search_report(tmp_path)
    assert "bits_hex" in report["results"]["generated"]
    assert check(report, tmp_path / "d.set") == []


def test_check_names_a_moved_count(tmp_path):
    write_files(tmp_path)
    report = _report(tmp_path, ["bohr", "--d=a.set", "--freqs=1/5,2/7"])
    report["results"]["containment"]["violation_count"] += 1
    wrong = check(report, tmp_path / "a.set")
    assert [w.split(":")[0] for w in wrong] == ["containment.violation_count"], wrong


def test_check_names_a_moved_witness(tmp_path):
    report = _search_report(tmp_path)
    report["results"]["witness"]["members"] -= 1
    wrong = check(report, tmp_path / "d.set")
    assert [w.split(":")[0] for w in wrong] == ["witness.members"], wrong
