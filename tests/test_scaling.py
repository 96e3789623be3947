"""Work scales as documented, by gates that do not swing with the host's load.

Memory scales linearly: a window four times longer costs at most 4.5 times
the peak.  Each command runs through ``cli.main`` on Bernoulli 1/2 sets of
10^5 and 4·10^5 points, once to warm up and once under ``tracemalloc``; the
gate bounds the ratio of the two traced peaks.  ``embed`` and ``pipeline``
keep their second set Y at 10^5, so each pair differs in the size of X alone;
``delta`` and ``cover`` estimate on n = N/10 over 201 shifts or 101 candidates.

Reading a list file holds its members and a chunk, not its text: on a
Bernoulli 1/2 list file of 4·10^5 positions ``read_set_file`` peaks under 2.5
traced bytes a file byte, also with a last line only int() takes, and at most
4.5 times its peak at 10^5.

Making a set holds no full-length temporary wider than a few bytes a position:
``bernoulli_set``, ``residue_set`` and ``gen`` in bits and list format peak under
3 traced bytes a position on 10^6 positions.

The piecewise syndetic witness takes O(log g) big-int steps: its count of
shifted big ints grows by at most 2 per doubling of the gap bound g.
"""

import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction

from diffsets import IntSet, Window, bernoulli_set, density, intset, piecewise_syndetic_witness
from diffsets.cli import main
from diffsets.gen import residue_set

SMALL, LARGE = 10**5, 4 * 10**5
RATIO_BOUND = 4.5
SETS = {"x1e5.set": (SMALL, 11), "x4e5.set": (LARGE, 12), "y.set": (SMALL, 13)}  # (n, seed)

COMMANDS = {
    "extract": lambda x, n: ["extract", "--set", x, "--n", "12", "--slack", "1/20",
                             "--window", str(n)],
    "embed": lambda x, n: ["embed", "--x", x, "--y", "y.set", "--m", "8"],
    "pipeline": lambda x, n: ["pipeline", "--a", x, "--b", "y.set", "--N", str(n),
                              "--nu", str(n // 10), "--n", "8"],
    "analyze": lambda x, n: ["analyze", "--set", x, "--n", "100", "--n", "1000"],
    "delta": lambda x, n: ["delta", "--set", x, "--eps", "1/10", "--n", str(n // 10),
                           "--trange=-100..100"],
    "delta --upper": lambda x, n: ["delta", "--set", x, "--eps", "1/10", "--n", str(n // 10),
                                   "--trange=-100..100", "--upper"],
    "cover": lambda x, n: ["cover", "--set", x, "--eps", "1/20", "--x=-50..50",
                           "--n", str(n // 10)],
    "bohr --freqs": lambda x, n: ["bohr", "--d", x, "--freqs", "1/5,2/7"],
    "bohr --search": lambda x, n: ["bohr", "--d", x, "--search"],
}


def _traced_peak(run):
    """Peak traced bytes of run(), called once before to warm up."""
    with contextlib.redirect_stdout(io.StringIO()):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _main(argv):
    def run():
        assert main(argv) == 0
    return run


def test_peak_memory_scales_linearly(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, (n, seed) in SETS.items():
        spec = {"kind": "bernoulli", "window": [1, n], "seed": seed, "p": "1/2"}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--spec", json.dumps(spec), "--out", name]) == 0
    over = {}
    for cmd, argv in COMMANDS.items():
        small = _traced_peak(_main(argv("x1e5.set", SMALL) + ["--out", "r.json"]))
        large = _traced_peak(_main(argv("x4e5.set", LARGE) + ["--out", "r.json"]))
        if large > RATIO_BOUND * small:
            over[cmd] = f"{small / 2**20:.2f} -> {large / 2**20:.2f} MiB ({large / small:.2f}x)"
    assert not over, over


def test_reading_a_list_file_peaks_in_its_members(tmp_path, monkeypatch):
    """Measured 1.1-1.2 bytes a file byte at 4·10^5; a reader that holds the file's text,
    an ASCII copy of it and the int64 members with their concatenation took 4.8.  A last
    line of 1_000, which the scanner refuses, leaves the peak there; a reader that reads
    such a file again as text took 15.7."""
    monkeypatch.chdir(tmp_path)
    peaks = {}
    for n, seed in ((SMALL, 21), (LARGE, 22)):
        spec = {"kind": "bernoulli", "window": [1, n], "seed": seed, "p": "1/2"}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--spec", json.dumps(spec), "--out", f"{n}.set",
                         "--fmt", "list"]) == 0
        peaks[n] = _traced_peak(lambda: intset.read_set_file(f"{n}.set"))
    large = tmp_path / f"{LARGE}.set"
    per_byte = {"fast": peaks[LARGE] / large.stat().st_size}
    large.write_bytes(large.read_bytes() + b"1_000\n")
    per_byte["1_000"] = _traced_peak(lambda: intset.read_set_file(large)) / large.stat().st_size
    assert max(per_byte.values()) < 2.5, per_byte
    assert peaks[LARGE] <= RATIO_BOUND * peaks[SMALL], peaks


def test_making_a_set_peaks_under_three_bytes_a_position(tmp_path, monkeypatch):
    """Measured 2.1-2.5 bytes a position; a whole-window uint64 draw or int64 residue
    array alone takes 8."""
    monkeypatch.chdir(tmp_path)
    n = 10**6
    w = Window(1, n)
    spec = json.dumps({"kind": "bernoulli", "window": [1, n], "seed": 5, "p": "1/2"})
    runs = {
        "bernoulli_set": lambda: bernoulli_set(w, Fraction(1, 2), 5),
        "residue_set": lambda: residue_set(w, 7, [0, 2, 3]),
        "gen bits": _main(["gen", "--spec", spec, "--out", "g.set", "--fmt", "bits"]),
        "gen list": _main(["gen", "--spec", spec, "--out", "g.set", "--fmt", "list"]),
    }
    per_position = {name: _traced_peak(run) / n for name, run in runs.items()}
    assert max(per_position.values()) < 3, per_position


def test_piecewise_witness_steps_grow_with_log_g(monkeypatch):
    """From g = 2^4 to 2^16 on a Bernoulli 1/2 window of 10^5, the calls to
    intset._aligned and density.self_overlap (one big-int shift each) grow by at
    most 2 per doubling of g: 12 -> 24 measured, where a union of g shifted
    copies of the window takes 22 -> 65542."""
    a = IntSet(Window(1, 10**5), random.Random(2024).getrandbits(10**5))
    steps = 0

    def counting(f):
        def counted(*args):
            nonlocal steps
            steps += 1
            return f(*args)
        return counted

    monkeypatch.setattr(intset, "_aligned", counting(intset._aligned))
    monkeypatch.setattr(density, "self_overlap", counting(density.self_overlap))
    counts = []
    for g in (2**4, 2**16):
        steps = 0
        piecewise_syndetic_witness(a, g, 64)
        counts.append(steps)
    assert counts[1] - counts[0] <= 2 * 12, counts
