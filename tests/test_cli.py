"""End-to-end CLI runs.

Eleven golden files under golden/ pin full CLI output.  Five pin
analyze, delta and cover (the last two also with --upper) on a {0,1} mod 5
residue set.  embed_dense.json pins two `embed --dense` reports (a trace
length up to 16 and one above it), so the order of the distinct traces is
pinned, and extract.json pins one `extract` report, on small generated sets.
Four more pin one branch each that nothing else reaches (BRANCH_GOLDENS):
cover --h, pipeline --chain, the three-file thick_triple gen and analyze
--gap/--runlen.  Comparison drops the timing block and nothing else.  The
rest of the module walks every subcommand once and exercises each exit code
path; its last tests pin that main, which declares only the named
subcommand's flags, reads every command line as the full parser does.
"""

import argparse
import ast
import importlib
import json
import re
import time
from pathlib import Path

import pytest

import brute
from diffsets import (InfeasibleError, VerificationError, Window, cli, gen,
                      read_set_file, residue_set, spec_from_json)
from diffsets.cli import build_parser, main
from diffsets.intset import MAX_WINDOW_LENGTH

GOLDEN = Path(__file__).parent / "golden"

RESIDUE_SPEC = '{"kind":"residues","window":[1,2100],"modulus":5,"classes":[0,1]}'


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    """Chdir into a scratch dir holding a.set, the mod-5 reference set."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--spec", RESIDUE_SPEC, "--out", "a.set"]) == 0
    capsys.readouterr()
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canon(text):
    data = json.loads(text)
    data.pop("timing", None)
    return data


def test_gen_writes_readable_set(workdir, capsys):
    a = read_set_file(str(workdir / "a.set"))
    assert a == residue_set(Window(1, 2100), 5, [0, 1])
    code, out, _ = run(
        ["gen", "--spec", RESIDUE_SPEC, "--out", "b.set", "--fmt", "list"], capsys
    )
    assert code == 0
    assert read_set_file(str(workdir / "b.set")) == a
    rep = json.loads(out)
    assert rep["results"]["set"]["count"] == 840


def test_gen_chain_in_thick_defaults_its_thick_set(workdir, capsys):
    """With no thick spec, chain_in_thick chains inside the scale-1 blocks set on
    [1, window length - 1]."""
    spec = '{"kind":"chain_in_thick","window":[1,500],"count":4}'
    code, out, _ = run(["gen", "--spec", spec, "--out", "c.set"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["set"]["count"] == 4
    chain = sorted(read_set_file(str(workdir / "c.set")).members())
    assert chain == [1, 2, 3, 11]
    thick = set(gen(spec_from_json({"kind": "blocks", "window": [1, 499], "scale": 1})).members())
    assert all(y - x in thick for i, x in enumerate(chain) for y in chain[i + 1:])


def test_analyze_matches_golden(workdir, capsys):
    code, out, _ = run(["analyze", "--set", "a.set", "--n", "100"], capsys)
    assert code == 0
    assert canon(out) == canon((GOLDEN / "analyze.json").read_text())


def test_delta_matches_golden(workdir, capsys):
    code, out, _ = run(
        ["delta", "--set", "a.set", "--eps", "1/4", "--n", "500", "--trange=-10..10"],
        capsys,
    )
    assert code == 0
    assert canon(out) == canon((GOLDEN / "delta.json").read_text())


def test_cover_matches_golden(workdir, capsys):
    code, out, _ = run(
        ["cover", "--set", "a.set", "--eps", "0", "--x=-20..20", "--n", "500"], capsys
    )
    assert code == 0
    assert canon(out) == canon((GOLDEN / "cover.json").read_text())


def test_delta_upper_matches_golden(workdir, capsys):
    code, out, _ = run(
        [
            "delta", "--set", "a.set", "--eps", "1/4", "--n", "500", "--trange=-10..10",
            "--upper",
        ],
        capsys,
    )
    assert code == 0
    assert canon(out) == canon((GOLDEN / "delta_upper.json").read_text())


def test_cover_upper_matches_golden(workdir, capsys):
    code, out, _ = run(
        ["cover", "--set", "a.set", "--eps", "0", "--x=-20..20", "--n", "500", "--upper"],
        capsys,
    )
    assert code == 0
    assert canon(out) == canon((GOLDEN / "cover_upper.json").read_text())


def _gen(spec, out, capsys):
    assert main(["gen", "--spec", spec, "--out", out]) == 0
    capsys.readouterr()


# one trace length on the direct-code path (m <= 16), one on the doubling path
EMBED_DENSE_RUNS = (
    ["embed", "--x", "x.set", "--y", "y.set", "--m", "12", "--dense", "--n", "50"],
    ["embed", "--x", "k.set", "--y", "y.set", "--m", "20", "--dense", "--n", "50"],
)


def test_embed_dense_matches_golden(workdir, capsys):
    _gen('{"kind":"bernoulli","window":[1,120],"seed":5,"p":"1/2"}', "x.set", capsys)
    _gen('{"kind":"blocks","window":[1,400]}', "k.set", capsys)
    _gen('{"kind":"bernoulli","window":[1,300],"seed":11,"p":"1/2"}', "y.set", capsys)
    golden = json.loads((GOLDEN / "embed_dense.json").read_text())
    assert len(golden) == len(EMBED_DENSE_RUNS)
    for argv, want in zip(EMBED_DENSE_RUNS, golden):
        code, out, _ = run(argv, capsys)
        assert code == 0
        want.pop("timing", None)
        assert canon(out) == want


def test_extract_matches_golden(workdir, capsys):
    _gen('{"kind":"bernoulli","window":[1,4000],"seed":7,"p":"1/2"}', "c.set", capsys)
    code, out, _ = run(
        ["extract", "--set", "c.set", "--n", "10", "--slack", "1/20", "--window", "4000"],
        capsys,
    )
    assert code == 0
    assert canon(out) == canon((GOLDEN / "extract.json").read_text())


# one run per CLI branch that no other golden reaches: the quotient cover
# (cover --h), the chained extraction (pipeline --chain), the three-file
# thick_triple gen and the piecewise-syndetic witness (analyze --gap/--runlen)
BRANCH_GOLDENS = {
    "cover_quotient.json":
        ["cover", "--set", "a.set", "--eps", "1/10", "--x=-20..20", "--n", "500", "--h", "3"],
    "pipeline_chain.json":
        ["pipeline", "--a", "c5.set", "--b", "c6.set", "--chain", "c7.set",
         "--n", "3", "--slack", "1/20", "--N", "1000"],
    "gen_thick_triple.json":
        ["gen", "--spec", '{"kind":"thick_triple","window":[-914,962],"scale":1,"blocks":2}',
         "--out", "t.set"],
    "analyze_piecewise.json":
        ["analyze", "--set", "a.set", "--n", "100", "--gap", "5", "--runlen", "50"],
}


@pytest.mark.parametrize("name", sorted(BRANCH_GOLDENS))
def test_branch_matches_golden(workdir, capsys, name):
    for seed in (5, 6, 7):
        _gen(f'{{"kind":"bernoulli","window":[1,2000],"seed":{seed},"p":"1/2"}}',
             f"c{seed}.set", capsys)
    code, out, _ = run(BRANCH_GOLDENS[name], capsys)
    assert code == 0
    assert canon(out) == canon((GOLDEN / name).read_text())


def test_gen_thick_triple_writes_each_set(workdir, capsys):
    spec = '{"kind":"thick_triple","window":[-914,962],"scale":1,"blocks":2}'
    _gen(spec, "t.set", capsys)
    made = gen(spec_from_json(json.loads(spec)))
    assert [read_set_file(f"t.set.{x}") for x in "abc"] == list(made)


def test_report_out_flag_writes_file(workdir, capsys):
    code, out, _ = run(
        [
            "delta", "--set", "a.set", "--eps", "1/4", "--n", "500",
            "--trange=-10..10", "--out", "rep.json",
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert canon((workdir / "rep.json").read_text()) == canon(
        (GOLDEN / "delta.json").read_text()
    )


def test_analyze_csv_sidecar(workdir, capsys):
    code, _, _ = run(
        ["analyze", "--set", "a.set", "--n", "100", "--csv", "rows.csv"], capsys
    )
    assert code == 0
    rows = (workdir / "rows.csv").read_text().strip().splitlines()
    assert rows[0].startswith("n,upper_banach")
    assert rows[1].split(",")[:2] == ["100", "2/5"]


def test_embed_subcommand(workdir, capsys):
    code, out, _ = run(
        ["embed", "--x", "a.set", "--y", "a.set", "--m", "5"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["window_embed"]["ok"] is True


def test_embed_dense_lists_traces_by_first_offset(workdir, capsys):
    code, out, _ = run(
        ["embed", "--x", "a.set", "--y", "a.set", "--m", "3", "--dense", "--n", "50"], capsys
    )
    assert code == 0
    dense = json.loads(out)["results"]["dense"]
    assert [e["pattern"] for e in dense["patterns"]] == [[0], [2], [1, 2], [0, 1]]
    assert dense["min_density"] == "1/5"
    # past 4096 distinct traces the dense listing is refused, not truncated
    spec = '{"kind":"bernoulli","window":[1,6000],"seed":3,"p":"1/2"}'
    assert main(["gen", "--spec", spec, "--out", "r.set"]) == 0
    capsys.readouterr()
    code, out, err = run(
        ["embed", "--x", "r.set", "--y", "r.set", "--m", "16", "--dense", "--n", "50"], capsys
    )
    assert code == 2
    assert out == ""
    assert "more than 4096 distinct traces" in err


def test_extract_subcommand(workdir, capsys):
    code, out, _ = run(
        ["extract", "--set", "a.set", "--n", "4", "--slack", "1/50", "--window", "500"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["alpha"] == "2/5"
    assert rep["certificates"]["extraction"]["prefix"]
    assert rep["violations"] == []


def test_pipeline_joint_subcommand(workdir, capsys):
    assert (
        main(
            [
                "gen",
                "--spec",
                '{"kind":"residues","window":[1,2100],"modulus":3,"classes":[0]}',
                "--out",
                "b3.set",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, out, _ = run(
        [
            "pipeline", "--a", "a.set", "--b", "b3.set",
            "--N", "1000", "--nu", "100", "--n", "4", "--slack", "1/50",
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["alpha"] == "2/5"
    assert "prefix_schnirelmann" in rep["results"]


def test_pipeline_covers_exit_3_without_recount(workdir, capsys, monkeypatch):
    """Both pipeline covers go through the cover recount; a failing recount is exit 3."""
    spec = '{"kind":"residues","window":[1,2100],"modulus":3,"classes":[0]}'
    assert main(["gen", "--spec", spec, "--out", "b3.set"]) == 0
    capsys.readouterr()
    pipeline = [
        "pipeline", "--a", "a.set", "--b", "b3.set", "--N", "1000", "--nu", "100",
        "--n", "4", "--slack", "1/50", "--x=-20..20",
    ]
    modes = [["--intersect", "--eps", "0"], ["--jin"]]
    for mode in modes:
        assert run(pipeline + mode, capsys)[0] == 0, mode

    def refuse(*args):
        raise VerificationError("recount refused")

    monkeypatch.setattr("diffsets.cover.verify_cover_certificate", refuse)
    for mode in modes:
        code, out, _ = run(pipeline + mode, capsys)
        assert code == 3, mode
        assert json.loads(out)["violations"] == ["recount refused"]


def test_cover_density_reads_the_quotient_past_the_candidates(workdir, capsys):
    """Candidates 50..400 with the mandated shift 50: the cover reads x - 50 < 50."""
    cover = ["cover", "--set", "a.set", "--eps", "1/20", "--n", "1000", "--x=50..400",
             "--mandate", "50"]
    code, out, _ = run(cover, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["cover"]["covered"]
    assert rep["certificates"]["density"]["premise_ok"]
    code, out, _ = run(cover + ["--h", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["quotient"]["cover_ok"]
    assert rep["certificates"]["density"]["premise_ok"]
    assert rep["results"]["quotient_members"]["window"] == [50, 400]


def test_cover_h0_reports_the_full_range(workdir, capsys):
    """h = 0: 0*t = 0 is an eps-dense shift for every t while eps is under the squared
    density (2/5)^2, so the quotient is every integer and no cover is built."""
    cover = ["cover", "--set", "a.set", "--x=-20..20", "--n", "500", "--h", "0"]
    code, out, _ = run(cover + ["--eps", "1/10"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["quotient"] == {
        "full_range": True, "offset": 0, "base_shifts": None, "cover_ok": True}
    assert "quotient_members" not in rep["results"] and rep["certificates"] == {}
    for eps in ("4/25", "1/5"):
        code, out, err = run(cover + ["--eps", eps], capsys)
        assert (code, out) == (4, "")
        assert err == f"diffsets: infeasible: eps = {eps} not below squared density 4/25\n"


def test_pipeline_chain_checks_each_difference_of_the_final_pattern(workdir, capsys):
    """Sets of density 7/10 leave a final pattern of three elements, so each of its
    differences is checked as a dense shift of every input at the first-stage length."""
    for seed in (5, 6, 7):
        _gen(f'{{"kind":"bernoulli","window":[1,2000],"seed":{seed},"p":"7/10"}}',
             f"c{seed}.set", capsys)
    code, out, _ = run(["pipeline", "--a", "c5.set", "--b", "c6.set", "--chain", "c7.set",
                        "--n", "3", "--slack", "1/20", "--N", "1000"], capsys)
    assert code == 0
    rep = json.loads(out)
    prefix = rep["results"]["final_prefix"]
    assert len(prefix) >= 2
    checks = rep["certificates"]["chain"]["delta_checks"]
    assert [t for t, _ in checks] == sorted({y - x for x in prefix for y in prefix if y > x})
    sets = [set(read_set_file(f"c{seed}.set")) for seed in (5, 6, 7)]
    first_n = 3 + len(sets) - 1
    for t, values in checks:
        want = [brute.upper_banach(brute.shift_intersection(s, t), max(1, 1 - t),
                                   min(2000, 2000 - t), first_n)[0] for s in sets]
        assert values == [str(v) for v in want] and min(want) > 0


def test_pipeline_jin_on_a_far_window(workdir, capsys):
    """A set at 10^20 against one near 1: no set operation shifts by the distance."""
    far = '{"kind":"residues","window":[100000000000000000000,100000000000000002000],' \
          '"modulus":5,"classes":[0,1]}'
    _gen(far, "far.set", capsys)
    _gen('{"kind":"bernoulli","window":[1,2000],"seed":1,"p":"3/10"}', "b.set", capsys)
    code, out, err = run(
        ["pipeline", "--a", "far.set", "--b", "b.set", "--N", "1000", "--nu", "100",
         "--n", "3", "--jin", "--x=-3..3"],
        capsys,
    )
    assert code == 0, err
    assert json.loads(out)["certificates"]["cover"]["covered"]


def test_bohr_direct_subcommand(workdir, capsys):
    assert (
        main(
            [
                "gen",
                "--spec",
                '{"kind":"residues","window":[0,699],"modulus":7,"classes":[0,1,6]}',
                "--out",
                "d7.set",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, out, _ = run(
        ["bohr", "--d", "d7.set", "--freqs", "1/7", "--eps", "1/4"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["containment"]["ok"] is True
    assert rep["results"]["generated"]["count"] == 300


def test_bohr_search_subcommand(workdir, capsys):
    assert (
        main(
            [
                "gen",
                "--spec",
                '{"kind":"residues","window":[0,349],"modulus":7,"classes":[0,1,6]}',
                "--out",
                "d7s.set",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, out, _ = run(
        [
            "bohr", "--d", "d7s.set", "--search",
            "--kmax", "1", "--Lmin", "50", "--qmax", "8",
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    wit = rep["results"]["witness"]
    assert wit is not None
    assert wit["spec"]["freqs"] == ["1/7"]
    assert rep["certificates"]["containment"]["ok"] is True


@pytest.mark.parametrize("module, argv", [
    ("extract", ["extract", "--set", "a.set", "--n", "5", "--slack", "1/20"]),
    ("embed", ["embed", "--x", "a.set", "--y", "a.set", "--m", "5"]),
], ids=["extract", "embed"])
def test_extract_and_embed_label_their_input_once(workdir, capsys, monkeypatch, module, argv):
    """One trace_classes labelling per run: extract decides the region and the modal class
    from it, embed the distinct traces and the count of nonempty windows."""
    mod = importlib.import_module(f"diffsets.{module}")
    real, calls = mod.trace_classes, []

    def counted(vec, m):
        calls.append(m)
        return real(vec, m)

    monkeypatch.setattr(mod, "trace_classes", counted)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert calls == [5]


def test_bohr_search_unreachable_lmin(workdir, capsys, monkeypatch):
    from diffsets import bohr

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be generated when --Lmin exceeds the window")

    monkeypatch.setattr(bohr, "suggest_freqs", refuse)
    monkeypatch.setattr(bohr, "bohr_generate", refuse)
    code, out, _ = run(
        [
            "bohr", "--d", "a.set", "--search", "--kmax", "17", "--qmax", "17",
            "--Lmin", "2101", "--eps-grid", "1/3", "--shifts=-3",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["witness"] is None


def test_bohr_search_refuses_oversized_search(workdir, capsys, monkeypatch):
    from diffsets import bohr

    def refuse(*args, **kwargs):
        raise AssertionError("an oversized search must be refused before it generates a set")

    monkeypatch.setattr(bohr, "bohr_generate", refuse)
    argv = ["bohr", "--d", "a.set", "--search", "--kmax", "17", "--qmax", "17", "--shifts=3"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "--kmax" in err
    code, out, err = run(argv[:-3] + ["--qmax", "100000"], capsys)
    assert code == 2 and out == ""
    assert "--qmax" in err


def test_selftest_subcommand(capsys):
    code, out, _ = run(["selftest", "--trials", "20", "--seed", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["violations"] == []
    assert sum(rep["results"]["passed"].values()) + sum(
        rep["results"]["skipped"].values()
    ) == 20


def test_exit_2_on_bad_input(workdir, capsys):
    # negative threshold is rejected before any work happens; no report
    code, out, err = run(
        ["delta", "--set", "a.set", "--eps=-1/4", "--n", "500", "--trange=-10..10"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "error" in err
    # malformed range string
    code, out, err = run(
        ["delta", "--set", "a.set", "--eps", "1/4", "--n", "500", "--trange", "5"],
        capsys,
    )
    assert code == 2
    assert "lo..hi" in err
    # zero is a value, not "unset": flags that must be positive are named
    cover = ["cover", "--set", "a.set", "--eps", "0", "--x=-20..20", "--n", "500"]
    for argv, flag in [
        (cover + ["--h", "3", "--density-n", "0"], "--density-n"),
        (cover + ["--density-n", "0"], "--density-n"),
        (["extract", "--set", "a.set", "--n", "4", "--slack", "1/50", "--window", "0"], "--window"),
        (["analyze", "--set", "a.set", "--gap", "2", "--runlen", "0"], "--runlen"),
        (["analyze", "--set", "a.set", "--gap", "2", "--runlen=-5"], "--runlen"),
        (["analyze", "--set", "a.set", "--gap", "0", "--runlen", "4"], "--gap"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert flag in err and "empty window" not in err, argv
    # malformed generator specs name the offending field
    for spec, field in [
        ('{"kind":"residues","window":[1,50],"modulus":"x","classes":[0]}', "modulus"),
        ('{"kind":"bernoulli","window":[1,50],"seed":"abc"}', "seed"),
        ('{"kind":"residues","window":[1,50],"modulus":5,"classes":["q"]}', "classes"),
        ('{"kind":"blocks","window":[1,50],"scale":"z"}', "scale"),
        # JSON booleans and floats are not integers
        ('{"kind":"bernoulli","window":[1,50],"seed":true}', "seed"),
        ('{"kind":"bernoulli","window":[1.9,100.5]}', "window"),
        ("[1,2]", "spec"),
        # list fields must be JSON arrays, not numbers or strings
        ('{"kind":"residues","window":[1,50],"modulus":5,"classes":5}', "classes"),
        ('{"kind":"residues","window":[1,50],"modulus":5,"classes":"01"}', "classes"),
        ('{"kind":"ap_union","window":[1,50],"aps":3}', "aps"),
    ]:
        code, out, err = run(["gen", "--spec", spec, "--out", "g.set"], capsys)
        assert (code, out) == (2, ""), spec
        assert field in err
    # a reversed range names its flag
    for argv, flag in [
        (["delta", "--set", "a.set", "--eps", "1/4", "--n", "500", "--trange=5..1"], "--trange"),
        (["embed", "--x", "a.set", "--y", "a.set", "--m", "3", "--srange", "5..1"], "--srange"),
        (["cover", "--set", "a.set", "--eps", "0", "--x=3..1", "--n", "500"], "--x"),
        (["bohr", "--d", "a.set", "--freqs", "1/5", "--interval=9..1"], "--interval"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert flag in err and "lo <= hi" in err and "empty window" not in err, argv
    # a sub-window length below 1 is refused by its flag on both delta estimators
    for n in ("0", "-5"):
        for upper in ([], ["--upper"]):
            argv = ["delta", "--set", "a.set", "--eps", "1/4", "--n", n, "--trange=-10..10"]
            code, out, err = run(argv + upper, capsys)
            assert (code, out) == (2, ""), argv + upper
            assert err == f"diffsets: error: --n must be >= 1, got {n}\n", argv + upper
    # refusals that need the set files read first
    (workdir / "s.set").write_text("1\n5\n")
    for argv, message in [
        (["embed", "--x", "a.set", "--y", "s.set", "--m", "6"],
         "target window shorter than the trace length 6"),
        (BASE_ARGV["pipeline"] + ["--slack=-1/50"], "slack must be >= 0"),
    ]:
        assert run(argv, capsys) == (2, "", f"diffsets: error: {message}\n"), argv
    # a selftest that would run nothing is refused
    for trials in ("0", "-5"):
        code, out, err = run(["selftest", "--trials", trials], capsys)
        assert (code, out) == (2, ""), trials
        assert "--trials" in err


def test_exit_2_on_oversize_window(workdir, capsys, monkeypatch):
    """Windows past the cap are refused before anything that long is allocated."""
    cap = MAX_WINDOW_LENGTH
    (workdir / "far.set").write_text(f"0\n{cap}\n")  # two members, cap + 1 positions
    far_gen = f'{{"kind":"bernoulli","window":[1,{cap + 1}],"p":"1/2"}}'
    for argv, name in [
        (["analyze", "--set", "far.set"], "far.set"),
        (["gen", "--spec", far_gen, "--out", "g.set"], "window"),
        (["gen", "--spec", RESIDUE_SPEC.replace('"modulus":5', f'"modulus":{10**30}'),
          "--out", "g.set"], "modulus"),
        (["delta", "--set", "a.set", "--eps", "0", "--n", "5", f"--trange=0..{cap}"], "trange"),
        (["cover", "--set", "a.set", "--eps", "0", "--n", "5", f"--x=0..{cap}"], "candidate range"),
        (["embed", "--x", "a.set", "--y", "a.set", "--m", "3", f"--srange=0..{cap}"], "srange"),
        (["bohr", "--d", "a.set", "--freqs", "1/5", f"--interval=0..{cap}"], "interval"),
        # a Bohr frequency's residue table has one entry per residue mod its denominator
        (["bohr", "--d", "a.set", "--freqs", "1/100000000000000", "--eps", "1/3"],
         "1/100000000000000"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert name in err and "over the cap" in err, argv
    assert not (workdir / "g.set").exists()
    # a bits row is measured the same way; a small cap keeps the file small
    monkeypatch.setattr("diffsets.intset.MAX_WINDOW_LENGTH", 2000)
    (workdir / "row.set").write_text("lo=1\n" + "01" * 1000 + "1\n")
    code, out, err = run(["analyze", "--set", "row.set"], capsys)
    assert (code, out) == (2, "") and "row.set" in err and "over the cap" in err
    (workdir / "row.set").write_text("lo=1\n" + "01" * 1000 + "\n")  # exactly at the cap
    assert run(["analyze", "--set", "row.set", "--n", "10"], capsys)[0] == 0
    # a list span is measured from its least and greatest members, before make_set runs
    (workdir / "span.set").write_text("1\n\n2001\n")
    with monkeypatch.context() as m:
        m.setattr("diffsets.intset.make_set", lambda *a: pytest.fail("allocated past the cap"))
        code, out, err = run(["analyze", "--set", "span.set"], capsys)
    assert (code, out) == (2, "") and "span.set" in err and "over the cap" in err
    (workdir / "span.set").write_text("1\n\n2000\n")  # exactly at the cap
    assert run(["analyze", "--set", "span.set", "--n", "10"], capsys)[0] == 0


@pytest.mark.parametrize("field, scale, blocks", [("blocks", 4, 100000), ("scale", 10**6, 3)])
def test_gen_thick_triple_over_the_cap_names_field(workdir, capsys, field, scale, blocks):
    """A thick_triple whose smallest window passes the cap exits 2 naming the field."""
    spec = ('{"kind":"thick_triple","window":[-20500,20500],'
            f'"scale":{scale},"blocks":{blocks}}}')
    code, out, err = run(["gen", "--spec", spec, "--out", "t.set"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"diffsets: error: {field} ") and "over the cap" in err
    assert not (workdir / "t.set").exists()


def _thick_chain(levels):
    """A chain_in_thick spec whose thick set is itself a chain, levels deep."""
    spec = {"kind": "blocks", "window": [1, 50]}
    for _ in range(levels):
        spec = {"kind": "chain_in_thick", "window": [1, 50], "count": 2, "thick": spec}
    return json.dumps(spec)


@pytest.mark.parametrize("argv, message", [
    (["gen", "--spec", "@deep.json", "--out", "g.set"], "--spec nests deeper than 100 levels"),
    (["cover", "--set", "a.set", "--eps", "0", "--n", "500", "--x", "[" * 5000 + "1" + "]" * 5000],
     "--x nests deeper than 100 levels"),
    (["gen", "--spec", _thick_chain(900), "--out", "g.set"],
     '--spec nests deeper than 100 levels under field "thick"'),
], ids=["spec", "x", "thick"])
def test_deep_json_exits_2_before_anything_runs(workdir, capsys, monkeypatch, argv, message):
    """json.loads, gen and the report recurse per level; nesting past the cap is refused while
    the flag is read, before any spec is generated or set file read."""
    (workdir / "deep.json").write_text("[" * 100000 + "]" * 100000)
    monkeypatch.setattr("diffsets.cli.gen", lambda spec: pytest.fail("generated a spec"))
    monkeypatch.setattr("diffsets.cli.read_set_file", lambda *a: pytest.fail("read a set file"))
    t0 = time.perf_counter()
    assert run(argv, capsys) == (2, "", f"diffsets: error: {message}\n")
    assert time.perf_counter() - t0 < 1


def test_thick_chain_at_the_depth_cap_runs(workdir, capsys):
    code, out, _ = run(["gen", "--spec", _thick_chain(98), "--out", "g.set"], capsys)
    assert code == 0 and json.loads(out)["results"]["set"]["count"] == 2


@pytest.mark.parametrize("argv, name", [
    (["cover", "--set", "a.set", "--eps", "1e999999999999", "--x=-5..5", "--n", "500"], "--eps"),
    (["extract", "--set", "a.set", "--n", "4", "--slack", "1e-999999999999"], "--slack"),
    (["bohr", "--d", "a.set", "--freqs", "1/5,1e999999999999"], "--freqs"),
    (["bohr", "--d", "a.set", "--search", "--eps-grid", "1/3,1e-999999999999"], "--eps-grid"),
    (["gen", "--spec", '{"kind":"bernoulli","window":[1,50],"p":"1e-999999999999"}',
      "--out", "g.set"], "p"),
])
def test_huge_decimal_exponent_exits_2_at_once(workdir, capsys, argv, name):
    """Fraction would build 10**exponent; the exponent is refused before it is read."""
    t0 = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"diffsets: error: {name} = '1e") and "decimal exponent over 4000" in err


@pytest.mark.parametrize("argv", [
    ["extract", "--set", "c5.set", "--n", "4"],
    ["pipeline", "--a", "c5.set", "--b", "c6.set", "--chain", "c7.set", "--n", "3", "--N", "1000"],
])
def test_slack_at_the_digit_cap_prints_and_past_it_exits_2(workdir, capsys, argv):
    """A slack with a 3999-digit denominator reaches a report whose γ and chain floors
    have more digits; one with 4300 digits is refused naming --slack, not left to fail
    when γ is printed."""
    for seed in (5, 6, 7):
        _gen(f'{{"kind":"bernoulli","window":[1,2000],"seed":{seed},"p":"1/2"}}',
             f"c{seed}.set", capsys)
    code, out, err = run(argv + ["--slack", "1/" + "9" * 3999], capsys)
    assert code == 0, err
    denominators = re.findall(r'"-?[0-9]+/([0-9]+)"', out)
    assert max(map(len, denominators)) > 4000  # γ = α - slack, and the chain's floors
    code, out, err = run(argv + ["--slack", "1/" + "9" * 4300], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("diffsets: error: --slack = '1/999") and "over 4000 digits" in err


def test_gen_list_refuses_empty_set(workdir, capsys):
    """A list file infers its window from its members, so an empty set has none."""
    spec = '{"kind":"bernoulli","window":[1,50],"seed":3,"p":"0"}'
    code, out, err = run(["gen", "--spec", spec, "--out", "e.set", "--fmt", "list"], capsys)
    assert (code, out) == (2, "")
    assert "list format" in err and "bits" in err
    assert not (workdir / "e.set").exists()
    assert run(["gen", "--spec", spec, "--out", "e.set", "--fmt", "bits"], capsys)[0] == 0
    assert run(["analyze", "--set", "e.set", "--n", "10"], capsys)[0] == 0


def test_bohr_empty_flags_exit_2(workdir, capsys):
    """An empty list or value is refused, naming its flag; it is never read as unset."""
    search = ["bohr", "--d", "a.set", "--search"]
    direct = ["bohr", "--d", "a.set", "--freqs", "1/5"]
    for argv, flag in [
        (search + ["--shifts=,"], "--shifts"),
        (search + ["--shifts="], "--shifts"),
        (search + ["--eps-grid="], "--eps-grid"),
        (search + ["--eps-grid=,"], "--eps-grid"),
        (direct + ["--eps="], "--eps"),
        (direct + ["--interval="], "--interval"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert flag in err, argv


def test_empty_path_and_range_flags_exit_2(workdir, capsys):
    """An empty path or range is refused, naming its flag; it is never read as unset."""
    for argv, flag in [
        (["analyze", "--set", "a.set", "--n", "10", "--csv="], "--csv"),
        (["delta", "--set", "a.set", "--eps", "1/10", "--n", "10", "--trange=-3..3", "--csv="],
         "--csv"),
        (["embed", "--x", "a.set", "--y", "a.set", "--m", "3", "--srange="], "--srange"),
        (["analyze", "--set", "a.set", "--n", "10", "--out="], "--out"),
        (["gen", "--spec", RESIDUE_SPEC, "--out="], "--out"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert flag in err, argv


def _subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _value_actions():
    """(subcommand, action) for every flag of every subcommand that takes a value."""
    return [
        (cmd, action)
        for cmd, p in _subcommands().items()
        for action in p._actions
        if action.option_strings and action.nargs != 0
    ]


def run_or_exit(argv, capsys):
    """run(), with argparse's own refusals read as their exit code."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one valid command line per subcommand, for the tests that append one flag to it
BASE_ARGV = {
    "gen": ["gen", "--spec", RESIDUE_SPEC, "--out", "g.set"],
    "analyze": ["analyze", "--set", "a.set", "--n", "100"],
    "delta": ["delta", "--set", "a.set", "--eps", "1/4", "--n", "500", "--trange=-10..10"],
    "embed": ["embed", "--x", "a.set", "--y", "a.set", "--m", "3"],
    "cover": ["cover", "--set", "a.set", "--eps", "0", "--x=-20..20", "--n", "500"],
    "extract": ["extract", "--set", "a.set", "--n", "4", "--slack", "1/50"],
    "pipeline": ["pipeline", "--a", "a.set", "--b", "a.set", "--N", "200", "--nu", "20",
                 "--n", "4"],
    "bohr": ["bohr", "--d", "a.set", "--freqs", "1/5"],
    "selftest": ["selftest", "--trials", "2"],
}


def test_base_argvs_cover_every_subcommand_and_run(workdir, capsys):
    assert sorted(BASE_ARGV) == sorted(_subcommands())
    for argv in BASE_ARGV.values():
        code, _, err = run_or_exit(argv, capsys)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("argv, span", [
    (["cover", "--set", "a.set", "--eps", "1/20", "--x=-1000..1000", "--n", "500"],
     "candidate span (--x) 2000 "),
    (["cover", "--set", "a.set", "--eps", "1/20", "--h", "3", "--x=-400..400", "--n", "500"],
     "candidate span h·span(--x) = 3·800 = 2400 "),
    (BASE_ARGV["pipeline"] + ["--intersect", "--eps", "0", "--x=-1100..1100"],
     "candidate span (--x) 2200 "),
], ids=["cover", "cover_h", "pipeline"])
def test_candidate_span_over_the_window_exits_2_naming_x(workdir, capsys, argv, span):
    """n + the --x span past the set's window: used shifts could not be re-verified.
    The quotient mode names the span of --x as given, not the span of h*x."""
    code, out, err = run_or_exit(argv, capsys)
    assert (code, out) == (2, ""), err
    assert span in err and "Traceback" not in err


@pytest.mark.parametrize(
    "cmd, flag", [(cmd, a.option_strings[0]) for cmd, a in _value_actions()]
)
def test_every_empty_flag_value_exits_2_naming_it(workdir, capsys, cmd, flag):
    """Every value flag, generated from the parser: an empty value is never read as unset."""
    code, out, err = run_or_exit(BASE_ARGV[cmd] + [f"{flag}="], capsys)
    assert (code, out) == (2, ""), err
    assert flag in err


def test_cli_never_tests_a_value_flag_for_truthiness():
    """An empty or zero value must not read as unset: only `is None` may test a value flag."""
    dests = {a.dest for _, a in _value_actions()}
    tested = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.BoolOp):
            tested.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.append(node.operand)
        elif isinstance(node, ast.comprehension):
            tested.extend(node.ifs)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool":
            tested.extend(node.args)
    truthy = [
        ast.unparse(t) for t in tested
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
        and t.value.id == "args" and t.attr in dests
    ]
    assert truthy == []


def test_malformed_value_of_an_ignored_flag_exits_2(workdir, capsys):
    """Values are parsed with the command line, also where the chosen mode ignores them."""
    for argv, flag in [
        (["bohr", "--d", "a.set", "--search", "--eps=x"], "--eps"),
        (BASE_ARGV["pipeline"] + ["--x=5..1"], "--x"),
        (BASE_ARGV["bohr"] + ["--shifts=x"], "--shifts"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert flag in err, argv


def test_flag_values_are_refused_before_any_set_file_is_read(workdir, capsys, monkeypatch):
    monkeypatch.setattr("diffsets.cli.read_set_file", lambda *a: pytest.fail("read a set file"))
    code, out, err = run(BASE_ARGV["delta"] + ["--eps=x"], capsys)
    assert (code, out) == (2, "") and "--eps" in err
    # every count flag names itself below its least value
    dense = BASE_ARGV["embed"] + ["--dense"]
    search = ["bohr", "--d", "a.set", "--search"]
    for argv, flag, least in [
        (BASE_ARGV["analyze"], "--n", 1), (BASE_ARGV["delta"], "--n", 1),
        (BASE_ARGV["embed"], "--m", 1), (dense, "--n", 1), (BASE_ARGV["cover"], "--n", 1),
        (BASE_ARGV["extract"], "--n", 1), (BASE_ARGV["pipeline"], "--N", 1),
        (BASE_ARGV["pipeline"], "--nu", 1), (BASE_ARGV["pipeline"], "--n", 1),
        (search, "--kmax", 1), (search, "--Lmin", 1), (search, "--qmax", 2),
    ]:
        for value in (least - 1, -5):
            assert run(argv + [f"{flag}={value}"], capsys) == (
                2, "", f"diffsets: error: {flag} must be >= {least}, got {value}\n"), (argv, flag)


@pytest.mark.parametrize("value, message", [
    ("[true,false]", "candidate JSON must be a nonempty array of integers"),
    ("[1.5]", "candidate JSON must be a nonempty array of integers"),
    ("[]", "candidate JSON must be a nonempty array of integers"),
    ('["1"]', "candidate JSON must be a nonempty array of integers"),
    ("[1,", "bad candidate JSON: Expecting value: line 1 column 4 (char 3)"),
])
def test_malformed_candidate_json_exits_2_naming_x(capsys, monkeypatch, value, message):
    monkeypatch.setattr("diffsets.cli.read_set_file", lambda *a: pytest.fail("read a set file"))
    assert run(BASE_ARGV["cover"] + [f"--x={value}"], capsys) == (
        2, "", f"diffsets: error: --x: {message}\n")


def test_every_fraction_list_value_goes_through_parse_fraction(workdir, capsys, monkeypatch):
    """Each value is parsed by the parse_fraction cli holds when main runs: two --freqs
    items, one --eps and the four items of the --eps-grid default."""
    real, calls = cli.parse_fraction, []

    def counted(text, flag):
        calls.append(flag)
        return real(text, flag)

    monkeypatch.setattr(cli, "parse_fraction", counted)
    assert run(["bohr", "--d", "a.set", "--freqs", "1/5,2/7", "--eps", "1/3"], capsys)[0] == 0
    assert sorted(calls) == ["--eps"] + ["--eps-grid"] * 4 + ["--freqs"] * 2


def test_selftest_reads_infeasible_as_skipped_and_failures_as_violations(capsys, monkeypatch):
    """Trial 0 runs the pigeonhole check; each outcome is counted under its name."""
    def infeasible(c, d):
        raise InfeasibleError("planted")

    def self_check(c, d):
        raise VerificationError("planted self-check")

    def bare_assert(c, d):
        raise AssertionError

    for fault, code, skipped, violations in [
        (infeasible, 0, 1, []),
        (self_check, 3, 0, ["pigeonhole_bound trial 0: planted self-check"]),
        (bare_assert, 3, 0, ["pigeonhole_bound trial 0: assertion failed"]),
    ]:
        monkeypatch.setattr(cli, "pigeonhole_shift", fault)
        got, out, _ = run(["selftest", "--trials", "1"], capsys)
        rep = json.loads(out)
        assert (got, rep["results"]["skipped"]["pigeonhole_bound"], rep["violations"]) == (
            code, skipped, violations), fault.__name__


PIPELINE_REQUIRED = ["pipeline", "--a", "a.set", "--b", "a.set", "--n", "4"]  # no --N or --nu


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--set", "a.set", "--gap", "2"], "--gap and --runlen must be given together"),
    (["analyze", "--set", "a.set", "--runlen", "4"], "--gap and --runlen must be given together"),
    (["embed", "--x", "a.set", "--y", "a.set", "--m", "3", "--dense"],
     "--dense needs --n for the shift-set estimator"),
    (BASE_ARGV["cover"] + ["--h", "3", "--upper"],
     "--upper applies to the direct cover, not the quotient mode"),
    (PIPELINE_REQUIRED + ["--chain", "a.set", "--jin"],
     "--chain, --jin and --intersect are mutually exclusive"),
    (PIPELINE_REQUIRED + ["--nu", "20"], "pipeline needs --N and --nu"),
    (PIPELINE_REQUIRED + ["--N", "200"], "pipeline needs --N and --nu"),
    (BASE_ARGV["pipeline"] + ["--jin"], "--jin needs --x candidates"),
    (BASE_ARGV["pipeline"] + ["--intersect", "--x=-3..3"], "--intersect needs --eps"),
    (BASE_ARGV["pipeline"] + ["--intersect", "--eps", "1/10"], "--intersect needs --x candidates"),
    (["bohr", "--d", "a.set"], "direct mode needs --freqs (or use --search)"),
    (BASE_ARGV["cover"] + ["--density-n", "42"],
     "--density-n 42 exceeds the --x hull length 41"),
    (BASE_ARGV["cover"] + ["--x", "3,9,5", "--h", "2", "--density-n", "8"],
     "--density-n 8 exceeds the --x hull length 7"),
])
def test_flag_combinations_are_refused_before_any_set_file_is_read(capsys, monkeypatch, argv,
                                                                     message):
    monkeypatch.setattr("diffsets.cli.read_set_file", lambda *a: pytest.fail("read a set file"))
    assert run(argv, capsys) == (2, "", f"diffsets: error: {message}\n")


def test_exit_2_on_set_file_that_is_not_text(workdir, capsys):
    (workdir / "bin.set").write_bytes(b"\xff\xfe1\n")
    code, out, err = run(["analyze", "--set", "bin.set"], capsys)
    assert (code, out) == (2, "")
    assert "bin.set" in err and "not a set file" in err
    code, out, err = run(["gen", "--spec", "@bin.set", "--out", "g.set"], capsys)
    assert (code, out) == (2, "")
    assert "--spec" in err and "cannot read spec file bin.set" in err


def test_exit_2_on_unreadable_files(workdir, capsys):
    # missing set file is invalid input, not a crash
    code, out, err = run(
        ["analyze", "--set", "no-such.set", "--n", "100"], capsys
    )
    assert code == 2
    assert out == ""
    assert "cannot read set file" in err
    # same for a @spec path
    code, out, err = run(
        ["gen", "--spec", "@no-such.json", "--out", "b.set"], capsys
    )
    assert code == 2
    assert "cannot read spec file" in err
    # unwritable report and CSV destinations
    code, out, err = run(
        ["analyze", "--set", "a.set", "--n", "100", "--out", "no-dir/r.json"],
        capsys,
    )
    assert code == 2
    assert "cannot write report" in err
    code, out, err = run(
        ["analyze", "--set", "a.set", "--n", "100", "--csv", "no-dir/r.csv"],
        capsys,
    )
    assert code == 2
    assert "cannot write CSV" in err


def test_exit_4_on_infeasible(workdir, capsys):
    # eps = 1/4 is at least the squared base density (2/5)^2 = 4/25
    code, out, err = run(
        ["cover", "--set", "a.set", "--eps", "1/4", "--x=-20..20", "--n", "500"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert "infeasible" in err


def test_exit_3_reports_violation(workdir, capsys, monkeypatch):
    # a verification failure is an implementation bug; the report still goes
    # out, carrying the violation, so the run can be triaged
    def planted(*args, **kwargs):
        raise VerificationError("planted failure")

    monkeypatch.setattr("diffsets.cli.delta_cover", planted)
    code, out, _ = run(
        ["cover", "--set", "a.set", "--eps", "0", "--x=-20..20", "--n", "500"], capsys
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["violations"] == ["planted failure"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("diffsets ")


# -- one subcommand's flags per call -------------------------------------------


def test_repeated_append_flag_starts_empty_on_every_call(workdir, capsys):
    """--n is the one append flag: its values from one call never reach the next."""
    argv = ["analyze", "--set", "a.set", "--n", "100", "--n", "1000"]
    first, second = run(argv, capsys), run(argv, capsys)
    assert first[0] == second[0] == 0
    assert canon(first[1]) == canon(second[1])
    assert canon(first[1])["parameters"]["n"] == [100, 1000]


@pytest.mark.parametrize("cmd", sorted(BASE_ARGV))
def test_parser_for_one_subcommand_declares_its_flags_alone(cmd):
    """The parser for one subcommand holds that subparser alone, with exactly the
    flags the full parser gives it, and the full parser's usage line."""
    full = _subcommands()
    parser = build_parser(cmd)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [cmd]
    assert ([a.option_strings for a in sub.choices[cmd]._actions]
            == [a.option_strings for a in full[cmd]._actions])
    assert parser.format_usage() == build_parser().format_usage()


# argvs whose subcommand is missing, unknown, or not the first word
EDGE_ARGV = [
    [], ["-h"], ["--version"], ["nosuch"], ["delta"], ["delta", "-h"], ["-h", "delta"],
    ["--no-such-flag", *BASE_ARGV["delta"]], ["-5", *BASE_ARGV["delta"]],
    ["--", *BASE_ARGV["delta"]], [*BASE_ARGV["delta"], "analyze"], ["-", "delta"],
]


@pytest.mark.parametrize("argv", [*BASE_ARGV.values(), *EDGE_ARGV])
def test_main_reads_every_argv_as_the_full_parser_does(workdir, capsys, monkeypatch, argv):
    """main declares only the named subcommand's flags; exit code, report and stderr
    are what the parser of every subcommand gives."""

    def outcome():
        code, out, err = run_or_exit(argv, capsys)
        try:
            out = canon(out)
        except ValueError:  # help text, or nothing
            pass
        return code, out, err

    got = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == outcome()
