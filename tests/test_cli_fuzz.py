"""Argv fuzz over every subcommand: whatever the flags, the exit code is documented.

Exit codes 0, 2, 3 and 4 are the documented ones; exit 1, a Python traceback,
never is.  Each flag draws from a small pool of good, bad and edge values
(zero, negatives, reversed ranges, malformed fractions, empty values, missing or
malformed set files, a file that is not text, list files with CRLF and blank
lines or members past int64) on set files of at most 60 positions, so an
example runs in milliseconds; the one list file whose span is over the window
cap is refused before allocation.  Values that only make a run long (selftest
trial counts past 2, Bohr search sizes past 4, which stay under the search's
trial cap but can still try thousands of specs) are left out of the pools;
huge values that must be refused up front are in them, ``--kmax``, ``--qmax``
and a residue modulus included.
The examples are derandomized, so the suite runs the same argvs every time.
"""

import argparse
import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from diffsets.cli import build_parser, main

HUGE = str(10**13)
SETS = ["a.set", "l.set", "n.set", "one.set", "e.set", "bad.set", "missing.set", "crlf.set",
        "two.set", "wide.set", "span.set", "bin.set"]
SPECS = [
    '{"kind":"bernoulli","window":[1,60],"seed":3,"p":"1/2"}',
    '{"kind":"residues","window":[-20,40],"modulus":5,"classes":[0,1]}',
    '{"kind":"residues","window":[1,50],"modulus":0,"classes":[0]}',
    f'{{"kind":"residues","window":[1,50],"modulus":{10**30},"classes":[0]}}',
    '{"kind":"blocks","window":[1,50],"scale":-1}',
    '{"kind":"thick_triple","window":[-200,200],"scale":4,"blocks":3}',
    '{"kind":"ap_union","window":[1,50],"aps":[[1,3,5]]}',
    '{"kind":"bernoulli","window":[5,1]}',
    f'{{"kind":"bernoulli","window":[1,{HUGE}]}}',
    '{"kind":"nope"}',
    "not json",
    "[]",
]


def _ints(*extra):
    return st.sampled_from(["0", "-5", "1", "2", "3", "8", "17", "x", ""] + list(extra))


SMALL = st.sampled_from(["0", "-5", "1", "2", "x", ""])  # selftest trial counts
SEARCH = st.sampled_from(["0", "-5", "1", "2", "3", "4", "x", "", HUGE])  # Bohr search sizes
FRACS = st.sampled_from(["0", "1/4", "1/20", "-1/4", "1/0", "3", "x", "2/3", ""])
RANGES = st.sampled_from(["-5..5", "5..1", "0..0", "1..30", "-200..200", "a..b", "5", f"0..{HUGE}", ""])
CANDIDATES = st.one_of(RANGES, st.sampled_from(["[0,1,2]", "[]", "[1.5]", "0,2,4", "1,x", "{}"]))
FRACLISTS = st.sampled_from(["1/5,2/7", "1/3", "", ",", "x", "1/0", "-1/4", "1/100000000000000"])
FILES = st.sampled_from(SETS)
CSV = st.sampled_from(["r.csv", ""])

# every subcommand: its flags, each with a value pool (None for a switch)
FLAGS = {
    "gen": {"--spec": st.sampled_from(SPECS), "--out": st.just("g.set"),
            "--fmt": st.sampled_from(["bits", "list", "xml"])},
    "analyze": {"--set": FILES, "--n": _ints("60", HUGE), "--gap": _ints(HUGE),
                "--runlen": _ints(HUGE), "--csv": CSV},
    "delta": {"--set": FILES, "--eps": FRACS, "--n": _ints("50", HUGE), "--trange": RANGES,
              "--upper": None, "--csv": CSV},
    "embed": {"--x": FILES, "--y": FILES, "--m": _ints(HUGE), "--srange": RANGES,
              "--dense": None, "--n": _ints(HUGE)},
    "cover": {"--set": FILES, "--eps": FRACS, "--x": CANDIDATES, "--n": _ints("50", HUGE),
              "--h": _ints("-2", HUGE), "--mandate": _ints(HUGE), "--upper": None,
              "--density-n": _ints(HUGE)},
    "extract": {"--set": FILES, "--n": _ints(HUGE), "--slack": FRACS, "--window": _ints(HUGE)},
    "pipeline": {"--a": FILES, "--b": FILES, "--N": _ints("40", HUGE), "--nu": _ints("20", HUGE),
                 "--n": _ints(HUGE), "--slack": FRACS, "--chain": FILES, "--jin": None,
                 "--intersect": None, "--eps": FRACS, "--x": CANDIDATES, "--mandate": _ints()},
    "bohr": {"--d": FILES, "--freqs": FRACLISTS, "--eps": FRACS, "--shift": _ints(HUGE),
             "--interval": RANGES, "--search": None, "--kmax": SEARCH, "--Lmin": _ints(HUGE),
             "--eps-grid": FRACLISTS, "--qmax": SEARCH, "--shifts": st.sampled_from(
                 ["0,1", "", "x", "-3"])},
    "selftest": {"--trials": SMALL, "--seed": _ints(HUGE)},
}


def test_flags_lists_every_declared_option():
    """A flag added to the parser cannot miss the fuzz."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(FLAGS) == sorted(sub.choices)
    for cmd, p in sub.choices.items():
        declared = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        fuzzed = set(FLAGS[cmd]) | ({"--out"} if cmd != "gen" else set())  # argvs adds --out
        assert declared == fuzzed, cmd


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    argv = [cmd]
    flags = FLAGS[cmd]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        pool = flags[flag]
        if pool is None:
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(pool)}")  # "=" keeps values like "-5" off the flag list
    if cmd != "gen" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--out=r.json", "--out="])))
    return argv


def write_files(d):
    """The pools' set files, written into directory d."""
    row = "".join("1" if x % 5 < 2 else "0" for x in range(60))
    (d / "a.set").write_text(f"lo=1\n{row}\n")
    (d / "l.set").write_text("".join(f"{x}\n" for x in (-10, -3, 0, 1, 4, 9, 16, 25, 36, 49)))
    (d / "n.set").write_text("lo=-30\n" + "110100111010001101011100101100" + "\n")
    (d / "one.set").write_text("5\n")
    (d / "e.set").write_text("")
    (d / "bad.set").write_text("lo=1\n01x1\n")
    (d / "crlf.set").write_bytes(b"3\r\n\r\n-2\r\n \r\n7\r\n12\r\n")
    (d / "two.set").write_text("1\n4 9\n16\n")
    (d / "wide.set").write_text("".join(f"{10**24 + x}\n" for x in (0, 2, 3, 7, 11, 12)))
    (d / "span.set").write_text("0\n10000000\n")  # one position over the window cap
    (d / "bin.set").write_bytes(b"\xff\xfe1\n")  # not UTF-8


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_files(d)
    return d


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@settings(max_examples=300, derandomize=True)
@given(argv=argvs())
def test_argv_fuzz_exits_documented(files, argv):
    out, err = io.StringIO(), io.StringIO()
    with _cwd(files), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and "--out=r.json" not in argv and argv[0] != "gen":
        json.loads(out.getvalue())  # the report went to stdout
