"""gen reports re-checked with the stdlib alone (gen_check).

Every exit-0 gen argv of the argv corpus is replayed; all of them fit in one
block of draws, so specs of 3 * 2^15 + 17 positions, negative windows and a
window beyond 2^63 replay too, each in bits and list format.
"""

import contextlib
import io
import json

import pytest

from diffsets.cli import main
from gen_check import check
from test_argv_corpus import _entries
from test_cli_fuzz import _cwd, write_files

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


def _gen(d, argv):
    (d / "g.set").unlink(missing_ok=True)
    out = io.StringIO()
    with _cwd(d), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def test_corpus_gen_reports_recheck(tmp_path):
    write_files(tmp_path)
    argvs = [e["argv"] for e in _entries() if e["argv"][:1] == ["gen"] and e["code"] == 0]
    assert len(argvs) == 13
    for argv in argvs:
        assert check(_gen(tmp_path, argv), [tmp_path / "g.set"]) == [], argv


@pytest.mark.parametrize("fmt", ["bits", "list"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s['kind']}{s['window'][0]}")
def test_spans_of_several_blocks_recheck(tmp_path, spec, fmt):
    report = _gen(tmp_path, ["gen", "--spec", json.dumps(spec), "--out", "g.set", "--fmt", fmt])
    assert check(report, [tmp_path / "g.set"]) == []


def test_check_names_a_flipped_member(tmp_path):
    report = _gen(tmp_path, ["gen", "--spec", json.dumps(SPECS[0]), "--out", "g.set"])
    path = tmp_path / "g.set"
    row = bytearray(path.read_bytes())
    row[-2] ^= 1  # the last position: "0" <-> "1"
    path.write_bytes(bytes(row))
    wrong = check(report, [path])
    assert [w.split(":")[0] for w in wrong] == [f"{path} count", str(path)], wrong
