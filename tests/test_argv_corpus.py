"""Frozen outcomes of a few hundred fuzz argvs: a refactor changes none of them.

``golden/argv_corpus.json`` holds argvs drawn once from ``test_cli_fuzz``'s
pools and stored literally, so the corpus does not move when the pools do.
Each entry records the exit code and the SHA-256 of stderr, of the report
with its ``timing`` block dropped (stdout, or the ``--out=r.json`` file) and
of the set or CSV file the run wrote, with the run directory cut from every
path.  A change that is meant to move an outcome re-freezes the corpus with

    PYTHONPATH=src python tests/test_argv_corpus.py

which prints the argv of each entry whose outcome moved, so the change can
name them.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

from diffsets.cli import main
from report_check import CHECKS, check
from test_cli_fuzz import _cwd, write_files

CORPUS = Path(__file__).resolve().parent / "golden" / "argv_corpus.json"
WRITTEN = ("g.set", "r.csv")  # the files a run may write besides its report
# exit-0 corpus reports rechecked, by command (a bohr search counted apart)
CHECKED = {"analyze": 14, "bohr": 20, "bohr --search": 2, "delta": 14, "gen": 13}


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def outcome(d: Path, argv: list[str]) -> tuple[dict, dict | None]:
    """({code, stderr, report, written} digested, the report parsed without its timing
    block or None) of main(argv) run in d."""
    for name in WRITTEN + ("r.json",):
        (d / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with _cwd(d), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code
    where = f"{d}/"
    report = (d / "r.json").read_text() if (d / "r.json").exists() else out.getvalue()
    try:
        parsed = json.loads(report)
    except ValueError:
        parsed = None
    if isinstance(parsed, dict):
        parsed.pop("timing", None)
        report = json.dumps(parsed, sort_keys=True)
    else:
        parsed = None
    written = b"".join(name.encode() + b"\0" + (d / name).read_bytes()
                       for name in WRITTEN if (d / name).exists())
    return {"code": code, "stderr": _digest(err.getvalue().replace(where, "")),
            "report": _digest(report.replace(where, "")),
            "written": _digest(written) if written else None}, parsed


def _entries():
    return json.loads(CORPUS.read_text())


def replay(d: Path) -> tuple[list, list, Counter]:
    """(the argvs whose outcome moved, (key, argv, line) for each field a checker
    contradicts, the exit-0 reports checked by key) of every corpus entry run in d.

    The key is the command, a bohr search counted apart.  Each exit-0 report whose
    command has a checker is checked right after its run, against the files of that
    run, before the next run deletes them.  The ``corpus_replay`` fixture of
    ``conftest.py`` runs this once a session for the tests that read it."""
    moved, wrong, checked = [], [], Counter()
    for entry in _entries():
        argv = entry["argv"]
        got, report = outcome(d, argv)
        if got != {k: v for k, v in entry.items() if k != "argv"}:
            moved.append(argv)
        if got["code"] == 0 and report["command"] in CHECKS:
            key = report["command"] + " --search" * ("--search" in argv)
            checked[key] += 1
            wrong += [(key, argv, line) for line in check(report, d)]
    return moved, wrong, checked


def test_corpus_replays(corpus_replay):
    """Each entry's outcome is the frozen one, and each exit-0 report whose command has
    a checker rechecks."""
    assert len(_entries()) >= 200
    moved, wrong, checked = corpus_replay
    assert not moved, moved
    assert not wrong, wrong
    assert checked == CHECKED


def _refreeze() -> None:
    """Rewrite the corpus, printing the argv of each entry whose outcome moved."""
    old = _entries()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_files(d)
        entries = [{"argv": entry["argv"], **outcome(d, entry["argv"])[0]} for entry in old]
    moved = [new["argv"] for new, entry in zip(entries, old) if new != entry]
    for argv in moved:
        print("moved:", json.dumps(argv))
    print(f"{len(moved)} of {len(entries)} entries moved")
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    _refreeze()
