"""The benchmark's three workloads: input specs built from a seed, and command scripts.

Every workload is a closed loop of ``diffsets`` CLI invocations run one after
another in one process.  A command reads set files made by the set-up (or by
an earlier command of the same pass) and writes its report to a fixed relative
file name, so no report carries a random path.

``pair`` tags a command with (key, size) when the same command also runs at
the other input size; the traced run divides the self time of the 4*10^5
member of each pair by the 10^5 member to get the ``scale_x`` rows.
``large`` marks the commands at 4*10^5, which the warm-up pass leaves out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SMALL = 10**5
LARGE = 4 * 10**5

WORKLOADS = ("sweep", "extract", "setio")

WHY = {
    "sweep": "shift sweeps (delta, cover) do nearly all the work; set-file I/O, "
    "member listing and extraction do almost none",
    "extract": "trace extraction and embedding at 10^5 and 4*10^5: the member recount and "
    "the per-offset trace loop dominate, shift sweeps barely run",
    "setio": "set files written in bits and list format and read back through make_set, "
    "plus a Bohr search; construction and serialization, not member listing",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` goes to diffsets.cli.main, its report to ``report``."""

    label: str
    argv: tuple[str, ...]
    report: str
    pair: tuple[str, int] | None = None
    large: bool = False

    @property
    def sub(self) -> str:
        return self.argv[0]


def _gen(label: str, spec: dict, out: str, fmt: str = "bits", pair=None) -> Command:
    argv = ("gen", "--spec", json.dumps(spec, sort_keys=True), "--out", out, "--fmt", fmt)
    return Command(label, argv, label + ".json", pair, spec["window"][1] >= LARGE)


def _cmd(label: str, *argv: str, pair=None, large=False) -> Command:
    large = large or (pair is not None and pair[1] == LARGE)
    return Command(label, tuple(argv) + ("--out", label + ".json"), label + ".json", pair, large)


def _bernoulli(n: int, p: str, seed: int) -> dict:
    return {"kind": "bernoulli", "window": [1, n], "seed": seed, "p": p}


def _residues(n: int, modulus: int, classes: list[int]) -> dict:
    return {"kind": "residues", "window": [1, n], "modulus": modulus, "classes": classes}


def _size(n: int) -> str:
    return "1e5" if n == SMALL else "4e5"


def seeds_for(workload: str, seed: int, count: int) -> list[int]:
    """Generator seeds for a workload's random sets, a pure function of the bench seed."""
    rng = random.Random(f"diffsets-bench:{workload}:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def script(workload: str, seed: int) -> tuple[list[Command], list[Command]]:
    """(set-up commands, pass commands) for one workload and bench seed."""
    if workload == "sweep":
        (s,) = seeds_for(workload, seed, 1)
        setup = [
            _gen("gen_b", _bernoulli(SMALL, "3/10", s), "b.set"),
            _gen("gen_r", _residues(SMALL, 5, [0, 1]), "r.set"),
        ]
        delta = ("--eps", "1/10", "--n", "10000", "--trange=-1000..1000")
        cover = ("--eps", "1/20", "--x=-200..200", "--n", "10000")
        passes = [
            _cmd("delta_banach", "delta", "--set", "b.set", *delta),
            _cmd("delta_upper", "delta", "--set", "b.set", *delta, "--upper"),
            _cmd("cover_b", "cover", "--set", "b.set", *cover),
            _cmd("cover_r", "cover", "--set", "r.set", *cover),
            _cmd("cover_h3", "cover", "--set", "r.set", *cover, "--h", "3"),
        ]
        return setup, passes

    if workload == "extract":
        # X comes at both sizes and the target Y at 10^5 only, so each command
        # pair differs in the size of X alone
        sx, sx4, sy = seeds_for(workload, seed, 3)
        setup = [
            _gen("gen_x1e5", _bernoulli(SMALL, "1/2", sx), "x1e5.set", pair=("gen_x", SMALL)),
            _gen("gen_x4e5", _bernoulli(LARGE, "1/2", sx4), "x4e5.set", pair=("gen_x", LARGE)),
            _gen("gen_y", _bernoulli(SMALL, "1/2", sy), "y.set"),
            _gen("gen_p", _residues(SMALL, 7, [0, 2, 3]), "p.set"),
        ]
        passes = []
        for n in (SMALL, LARGE):
            z = _size(n)
            passes += [
                _cmd(f"extract{z}", "extract", "--set", f"x{z}.set", "--n", "12",
                     "--slack", "1/20", "--window", str(n), pair=("extract", n)),
                _cmd(f"embed_random{z}", "embed", "--x", f"x{z}.set", "--y", "y.set",
                     "--m", "8", pair=("embed_random", n)),
                _cmd(f"pipeline{z}", "pipeline", "--a", f"x{z}.set", "--b", "y.set",
                     "--N", str(n), "--nu", str(n // 10), "--n", "8", pair=("pipeline", n)),
            ]
        passes += [
            _cmd("embed_periodic", "embed", "--x", "p.set", "--y", "y.set", "--m", "10"),
            _cmd("pipeline_intersect", "pipeline", "--a", "x1e5.set", "--b", "y.set",
                 "--N", str(SMALL), "--nu", str(SMALL // 10), "--n", "8", "--intersect",
                 "--eps", "1/100", "--x=-50..50"),
        ]
        return setup, passes

    if workload == "setio":
        s_bits, s_list_l, s_list_s = seeds_for(workload, seed, 3)
        setup = [_gen("gen_d", _residues(SMALL, 6, [0, 1, 5]), "d.set")]
        passes = [
            _gen("gen_bits4e5", _bernoulli(LARGE, "1/2", s_bits), "bits4e5.set", "bits"),
            _gen("gen_list4e5", _bernoulli(LARGE, "1/2", s_list_l), "list4e5.set", "list",
                 pair=("gen_list", LARGE)),
            _gen("gen_list1e5", _bernoulli(SMALL, "1/2", s_list_s), "list1e5.set", "list",
                 pair=("gen_list", SMALL)),
            # the thick triple certifies A - B ⊆ C, the only command that builds
            # a difference set
            _gen("gen_triple", {"kind": "thick_triple", "window": [-20500, 20500],
                                "scale": 4, "blocks": 3}, "triple.set", "list"),
        ]
        analyze = ("--n", "100", "--n", "1000", "--n", "10000", "--gap", "8", "--runlen", "64")
        passes += [
            _cmd("analyze_bits4e5", "analyze", "--set", "bits4e5.set", *analyze, large=True),
            _cmd("analyze_list4e5", "analyze", "--set", "list4e5.set", *analyze,
                 pair=("analyze_list", LARGE)),
            _cmd("analyze_list1e5", "analyze", "--set", "list1e5.set", *analyze,
                 pair=("analyze_list", SMALL)),
            _cmd("bohr_search", "bohr", "--d", "d.set", "--search", "--kmax", "4",
                 "--eps-grid", "1/3,1/4,1/5,1/6,1/8,1/10", "--shifts", "0,1,2,3"),
            _cmd("bohr_freqs", "bohr", "--d", "d.set", "--freqs", "1/5,2/7", "--eps", "1/3"),
        ]
        return setup, passes

    raise ValueError(f"unknown workload {workload!r}")
