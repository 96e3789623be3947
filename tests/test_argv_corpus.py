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
from pathlib import Path

import pytest

from diffsets.cli import main
from test_cli_fuzz import _cwd, write_files

CORPUS = Path(__file__).resolve().parent / "golden" / "argv_corpus.json"
WRITTEN = ("g.set", "r.csv")  # the files a run may write besides its report


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def outcome(d: Path, argv: list[str]) -> dict:
    """{code, stderr, report, written} of main(argv) run in d, digested."""
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
    written = b"".join(name.encode() + b"\0" + (d / name).read_bytes()
                       for name in WRITTEN if (d / name).exists())
    return {"code": code, "stderr": _digest(err.getvalue().replace(where, "")),
            "report": _digest(report.replace(where, "")),
            "written": _digest(written) if written else None}


def _entries():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_files(d)
    return d


def test_corpus_replays(rundir):
    entries = _entries()
    assert len(entries) >= 200
    moved = [entry["argv"] for entry in entries
             if outcome(rundir, entry["argv"]) != {k: v for k, v in entry.items() if k != "argv"}]
    assert not moved, moved


def _refreeze() -> None:
    """Rewrite the corpus, printing the argv of each entry whose outcome moved."""
    old = _entries()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_files(d)
        entries = [{"argv": entry["argv"], **outcome(d, entry["argv"])} for entry in old]
    moved = [new["argv"] for new, entry in zip(entries, old) if new != entry]
    for argv in moved:
        print("moved:", json.dumps(argv))
    print(f"{len(moved)} of {len(entries)} entries moved")
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    _refreeze()
