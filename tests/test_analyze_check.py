"""analyze reports re-checked from their JSON and input set file alone (analyze_check).

The two analyze goldens are checked against a.set rebuilt as test_cli builds
it, and every exit-0 analyze argv of the argv corpus is replayed and its
report checked against the pool file it read.
"""

import contextlib
import io
import json

from analyze_check import check
from diffsets.cli import main
from test_argv_corpus import _entries
from test_cli import GOLDEN, RESIDUE_SPEC
from test_cli_fuzz import _cwd, write_files

GOLDENS = ("analyze.json", "analyze_piecewise.json")


def _golden_reports(d):
    with _cwd(d), contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--spec", RESIDUE_SPEC, "--out", "a.set"]) == 0
    return {name: json.loads((GOLDEN / name).read_text()) for name in GOLDENS}


def test_analyze_goldens_recheck(tmp_path):
    for name, report in _golden_reports(tmp_path).items():
        assert check(report, tmp_path / report["inputs"]["set"]["path"]) == [], name


def test_corpus_analyze_reports_recheck(tmp_path):
    write_files(tmp_path)
    argvs = [e["argv"] for e in _entries() if e["argv"][:1] == ["analyze"] and e["code"] == 0]
    assert len(argvs) == 14
    for argv in argvs:
        (tmp_path / "r.json").unlink(missing_ok=True)
        out = io.StringIO()
        with _cwd(tmp_path), contextlib.redirect_stdout(out):
            assert main(argv) == 0
        text = (tmp_path / "r.json").read_text() if "--out=r.json" in argv else out.getvalue()
        report = json.loads(text)
        assert check(report, tmp_path / report["inputs"]["set"]["path"]) == [], argv


def test_check_names_a_moved_witness(tmp_path):
    report = _golden_reports(tmp_path)["analyze_piecewise.json"]
    lo, hi = report["results"]["piecewise_syndetic"]["witness"]
    report["results"]["piecewise_syndetic"]["witness"] = [lo + 1, hi + 1]
    wrong = check(report, tmp_path / "a.set")
    assert len(wrong) == 1 and wrong[0].startswith("piecewise_syndetic.witness"), wrong
