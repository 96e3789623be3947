"""Fault injection: every self-check the library keeps fires on the fault it guards.

A self-check asserts a condition the mathematics guarantees, so no input
reaches it; the checks that a kept check or refusal already implied were
deleted instead.  Each row here breaks the one fast path a kept check
guards, by monkeypatching that name in the module namespace the check reads,
runs the CLI, and asserts exit 3 with exactly that check's message as the
report's only violation.  The verifiers' refusals are reached by
``tests/test_extract.py::TAMPER_TABLE`` instead.
"""

import dataclasses
import importlib
import json
from fractions import Fraction

import numpy as np
import pytest

from diffsets import BohrContainment, Window, empty_set, thick_triple_bounds
from diffsets.cli import main

SPECS = {
    "a.set": '{"kind":"bernoulli","window":[1,2000],"seed":1,"p":"1/2"}',
    "b.set": '{"kind":"bernoulli","window":[1,2000],"seed":2,"p":"1/2"}',
    "c.set": '{"kind":"bernoulli","window":[1,2000],"seed":3,"p":"1/2"}',
    "r.set": '{"kind":"residues","window":[0,349],"modulus":7,"classes":[0,1,6]}',
}

PIPELINE = ["pipeline", "--a", "a.set", "--b", "b.set", "--N", "200", "--nu", "20", "--n", "4"]
CHAIN = ["pipeline", "--a", "a.set", "--b", "b.set", "--chain", "c.set", "--N", "200",
         "--n", "4"]
EXTRACT = ["extract", "--set", "a.set", "--n", "4", "--slack", "1/50"]
COVER = ["cover", "--set", "a.set", "--eps", "1/20", "--x=-10..10", "--n", "500"]
BOHR = ["bohr", "--d", "r.set", "--search", "--eps-grid", "1/4", "--Lmin", "100"]
_TRIPLE = thick_triple_bounds(1, 2)


def _gen(spec):
    return ["gen", "--spec", spec, "--out", "g.set"]


GEN_BLOCKS = _gen('{"kind":"blocks","window":[1,2000]}')
GEN_TRIPLE = _gen(f'{{"kind":"thick_triple","window":[{_TRIPLE.lo},{_TRIPLE.hi}],'
                  '"scale":1,"blocks":2}')
GEN_CHAIN = _gen('{"kind":"chain_in_thick","window":[1,200],"count":4}')


# -- faults: each maps the real function to a broken one ------------------------


def _estimate_changed(change, where=lambda a, n: True):
    """best_window whose estimate is changed by change(est) where where(a, n) holds; the
    window it returns stays the true one."""
    def fault(real):
        def best_window(a, n):
            est, c = real(a, n)
            return (dataclasses.replace(est, **change(est)) if where(a, n) else est), c
        return best_window
    return fault


def _fails_on_call(k):
    """thick_witness answering None on its k-th call and truly on the others."""
    def fault(real):
        calls = []

        def thick_witness(a, length):
            calls.append(a)
            return None if len(calls) == k else real(a, length)
        return thick_witness
    return fault


def _first_dense_class_only(real):
    """The per-class prefix-density step keeping only its least dense label."""
    def _dense_classes(c, n, gamma):
        vec, ids, firsts, freq = real(c, n, gamma)
        first = np.zeros_like(freq)
        k = np.flatnonzero(freq)[:1]
        first[k] = freq[k]
        return vec, ids, firsts, first
    return _dense_classes


FAULTS = [
    # (guarded fast path, fault, argv, the check's message)
    ("diffsets.extract.convolve", lambda real: lambda u, v: np.zeros_like(real(u, v)), PIPELINE,
     "alignment ratio 0 under the averaging bound 221/500"),
    ("diffsets.extract.convolve", lambda real: lambda u, v: real(u, v) + 1, PIPELINE,
     "overlap count disagrees with the convolution readout"),
    ("diffsets.extract.best_window", _estimate_changed(lambda est: {"value": Fraction(1)}),
     PIPELINE, "overlap density under the pigeonhole floor"),
    ("diffsets.extract.best_window",
     _estimate_changed(lambda est: {"at": est.at + 1}, where=lambda a, n: n == 20), PIPELINE,
     "a match offset fails the joint alignment recount"),
    ("diffsets.extract.best_window",
     _estimate_changed(lambda est: {"value": Fraction(1, 8)},
                       where=lambda a, n: a.window == Window(1, n)),
     CHAIN, "final stage density target under the product floor"),
    ("diffsets.extract.shift_density", lambda real: lambda *args: Fraction(0), CHAIN,
     "difference 1 of the final pattern is not a dense shift of every input"),
    ("diffsets.extract._dense_classes", _first_dense_class_only, EXTRACT,
     "block walk failed to witness its own bound"),
    ("diffsets.extract.shift_set_of", lambda real: lambda f, y, srange: empty_set(srange),
     EXTRACT, "a match offset fails to embed the length-1 prefix"),
    ("diffsets.extract.upper_banach_est",
     lambda real: lambda s, n: dataclasses.replace(real(s, n), value=Fraction(0)), EXTRACT,
     "shift-set density 0 under the match share 51/512"),
    ("diffsets.cover.shift_densities",
     lambda real: lambda s, ts, n, upper=False: dict.fromkeys(ts, Fraction(0)), COVER,
     "used shift -10 passed on the base but not on the full set"),
    # the cover of -10..10 uses one shift, so the proven floor 1/k - k*span/n is 1
    ("diffsets.cover.lower_banach_est",
     lambda real: lambda s, n: dataclasses.replace(real(s, n), value=Fraction(0)), COVER,
     "covering set density 0 under the proven floor 1"),
    ("diffsets.bohr.bohr_contained",
     lambda real: lambda s, a, interval: BohrContainment(False, 1, 1, [interval.lo]), BOHR,
     "piecewise witness failed its own recount"),
    ("diffsets.gen.thick_witness", lambda real: lambda a, length: None, GEN_BLOCKS,
     "blocks lost their own longest interval"),
    ("diffsets.gen.thick_witness", lambda real: lambda a, length: None, GEN_TRIPLE,
     "A is not thick at the requested scale"),
    ("diffsets.gen.thick_witness", _fails_on_call(2), GEN_TRIPLE, "complement of A is not thick"),
    ("diffsets.gen.difference_set", lambda real: lambda a, b: real(a, b).shift(1), GEN_TRIPLE,
     "A - B escapes C"),
    ("diffsets.gen.intersect", lambda real: lambda avail, shifted: avail, GEN_CHAIN,
     "difference 3 fell outside the thick set"),
]


@pytest.fixture(scope="module")
def set_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sets")
    for name, spec in SPECS.items():
        assert main(["gen", "--spec", spec, "--out", str(d / name)]) == 0
    return d


@pytest.mark.parametrize("target, fault, argv, message", FAULTS,
                         ids=[message for *_, message in FAULTS])
def test_each_self_check_fires_on_the_fault_it_guards(set_dir, monkeypatch, capsys, target,
                                                      fault, argv, message):
    monkeypatch.chdir(set_dir)
    assert main(argv) == 0, "the run must pass before the fault is injected"
    capsys.readouterr()
    module, name = target.rsplit(".", 1)
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, name, fault(getattr(mod, name)))
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 3
    assert json.loads(out)["violations"] == [message]
