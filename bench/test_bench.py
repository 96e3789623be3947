"""Tests of the benchmark itself: run with ``PYTHONPATH=src python -m pytest -q bench``."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Command  # noqa: E402

cli = run.load_cli()

import diffsets  # noqa: E402
from diffsets import cover, delta, density, embed, extract, intset  # noqa: E402
from diffsets.gen import bernoulli_set  # noqa: E402
from diffsets.intset import IntSet, Window  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _small_script() -> tuple[list[Command], list[Command]]:
    spec = {"kind": "bernoulli", "window": [1, 3000], "seed": 5, "p": "1/2"}
    setup = [
        Command("gen_a", ("gen", "--spec", json.dumps(spec), "--out", "a.set"), "gen_a.json"),
        Command("gen_l", ("gen", "--spec", json.dumps(spec), "--out", "l.set", "--fmt", "list"),
                "gen_l.json"),
    ]
    cmds = [
        ("delta", "delta", "--set", "a.set", "--eps", "1/5", "--n", "500", "--trange=-20..20"),
        ("cover", "cover", "--set", "a.set", "--eps", "1/20", "--x=-10..10", "--n", "500"),
        ("extract", "extract", "--set", "l.set", "--n", "6", "--slack", "1/20", "--window", "2000"),
        ("embed", "embed", "--x", "a.set", "--y", "l.set", "--m", "4", "--srange", "5..2990"),
        ("bohr", "bohr", "--d", "a.set", "--search", "--kmax", "2"),
    ]
    commands = [Command(c[0], c[1:] + ("--out", c[0] + ".json"), c[0] + ".json") for c in cmds]
    return setup, commands


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIFFSETS_THREADS", "2")
    b = run.Bench(cli, "sweep", 1, frozen=None)
    b.setup, b.commands = _small_script()
    b.run(b.setup)
    return b


# -- wrappers are transparent --------------------------------------------------


def test_traced_reports_hash_like_untraced(bench):
    plain = bench.run(bench.commands)
    tracer = spans.Tracer()
    with tracer:
        traced = bench.run(bench.commands, tracer)
    assert bench.failed == 0, bench.errors
    assert traced.digests == plain.digests
    assert len(plain.digests) == len(bench.commands)
    m = tracer.metrics()
    assert m["cli.calls"] >= len(bench.commands)
    assert m["extract.trace_extract.self_s"] > 0
    assert m["intset.members.yielded"] > 0
    assert all(own >= 0 for _, _, own in tracer.self_times())


def test_install_rebinds_every_namespace_and_uninstall_restores():
    mods = (cli, delta, cover, embed, extract, density, intset, diffsets)
    originals = {mod: vars(mod).copy() for mod in mods}
    banach, members = density.upper_banach_est, IntSet.members
    with spans.Tracer():
        for mod in (cli, delta, cover, embed, extract, density, diffsets):
            assert mod.upper_banach_est is not banach
            assert mod.upper_banach_est.__wrapped__ is banach
        assert IntSet.members.__wrapped__ is members
    for mod, names in originals.items():
        for name, obj in names.items():
            assert vars(mod)[name] is obj, (mod.__name__, name)
    assert IntSet.members is members


def test_library_results_unchanged_under_tracing():
    a = bernoulli_set(Window(1, 2000), Fraction(1, 2), 9)
    want = (
        list(a.members()),
        delta.eps_delta_banach(a, Fraction(1, 5), 300, Window(-8, 8)),
        extract.trace_extract(a, 5, Fraction(2, 5)),
    )
    tracer = spans.Tracer()
    with tracer:
        got = (
            list(a.members()),
            delta.eps_delta_banach(a, Fraction(1, 5), 300, Window(-8, 8)),
            extract.trace_extract(a, 5, Fraction(2, 5)),
        )
    assert got == want
    assert tracer.counts["intset.members.yielded"] >= 2 * a.count


def test_worker_spans_parent_to_ordered_map(monkeypatch):
    monkeypatch.setenv("DIFFSETS_THREADS", "2")
    a = bernoulli_set(Window(1, 3000), Fraction(1, 2), 3)
    tracer = spans.Tracer()
    with tracer:
        delta.eps_delta_banach(a, Fraction(1, 5), 500, Window(-30, 30))
    by_id = {s[0]: s for s in tracer.spans}
    (pool,) = [s for s in tracer.spans if s[2] == spans.ORDERED_MAP]
    workers = [s for s in tracer.spans if s[1] == pool[0]]
    assert {s[2] for s in workers} >= {"delta.shift_intersection", "density.upper_banach_est"}
    assert all(pool[3] <= s[3] and s[4] <= pool[4] for s in workers)
    assert all(s[1] == 0 or s[1] in by_id for s in tracer.spans)
    assert tracer.metrics()["par.threads"] in (1, 2)  # pool threads that ran work


def test_self_time_subtracts_union_of_children():
    tracer = spans.Tracer()
    # parent 1 spans [0, 100]; children overlap on [10, 50] and [30, 70]
    tracer.spans = [
        (1, 0, "cli.main", 0, 100, 100, None),
        (2, 1, "density.bit_vector", 10, 50, 40, None),
        (3, 1, "density.bit_vector", 30, 70, 40, None),
        (4, 1, spans.MEMBERS, 80, 95, 5, None),
    ]
    own = {i: t for i, (_, _, t) in enumerate(tracer.self_times(), 1)}
    assert own == {1: 100 - 60 - 5, 2: 40, 3: 40, 4: 5}


# -- the digest gate -------------------------------------------------------------


def _report() -> dict:
    return {
        "command": "delta",
        "inputs": {"set": {"path": "/one/place/a.set", "count": 3}},
        "results": {"count": 2, "members": {"members": [0, 1], "window": [0, 1]}},
        "violations": [],
        "timing": {"seconds": 0.5},
    }


def test_digest_ignores_timing_and_directories():
    base = check.digest(_report())
    moved = _report()
    moved["timing"]["seconds"] = 9.0
    moved["inputs"]["set"]["path"] = "elsewhere/a.set"
    assert check.digest(moved) == base


@pytest.mark.parametrize("perturb", [
    lambda r: r["results"].__setitem__("count", 3),
    lambda r: r["results"]["members"]["members"].append(2),
    lambda r: r["inputs"]["set"].__setitem__("path", "b.set"),
    lambda r: r["violations"].append("x"),
])
def test_digest_catches_a_perturbed_report(perturb):
    r = _report()
    perturb(r)
    assert check.digest(r) != check.digest(_report())


def test_gate_fails_a_command_whose_report_changed(bench):
    bench.run(bench.commands)
    assert bench.failed == 0, bench.errors
    label = bench.commands[0].label
    bench.expected[label] = check.digest(_report())  # a frozen digest the run cannot match
    res = bench.run(bench.commands)
    assert bench.failed == 1
    assert list(res.problems) == [label]


def test_gate_fails_when_frozen_digests_name_other_commands():
    assert run.Bench(cli, "sweep", 1, frozen=check.load_frozen("sweep", 1)).failed == 0
    assert run.Bench(cli, "sweep", 1, frozen={"other": "0" * 64}).failed == 1


def test_gate_fails_nonzero_exit_and_violations():
    assert check.problems(0, {"violations": []}) == []
    assert check.problems(2, None)
    assert check.problems(3, {"violations": ["certificate failed"]})


# -- metric names ----------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    specs = [(n, u, b) for n, (u, b) in run.END_TO_END.items()] + run.per_layer_specs()
    names = [n for n, _, _ in specs]
    assert len(names) == len(set(names))
    for name, unit, better in specs:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit) and better in ("higher", "lower"), name


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {n: (u, b) for n, u, b in run.per_layer_specs()}
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_traced_metrics_cover_every_per_layer_name(bench):
    tracer = spans.Tracer()
    with tracer:
        bench.run(bench.commands, tracer)
    assert set(tracer.metrics()) == {n for n, _, _ in spans.metric_specs()}


# -- the load loop -----------------------------------------------------------------


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_large_marks_exactly_the_4e5_commands(workload):
    setup, commands = run.workloads.script(workload, 1)
    for c in setup + commands:
        assert c.large == ("4e5" in c.label), c.label


def test_warm_up_runs_first_command_of_each_subcommand_below_4e5(monkeypatch):
    b = run.Bench(cli, "extract", 1, frozen=None)
    ran = []
    monkeypatch.setattr(b, "run", lambda cmds, tracer=None: ran.extend(c.label for c in cmds))
    b.warm_up()
    assert ran == ["extract1e5", "embed_random1e5", "pipeline1e5"]
