"""Run every windowed subcommand once at the window cap; check its exit code and peak RSS.

    python tests/cap_check.py

Each run is a fresh child process ``python -c 'diffsets.cli.main()' ARGV...``,
started one at a time in a temporary directory, with ``RLIMIT_AS`` set on the
child alone.  First ``gen`` writes a Bernoulli 1/2 set of 10^7 positions (the
window cap) in bits and in list format, and Y of 10^6; then every other
subcommand runs on X, and ``analyze`` twice more on the list file with a line
of ``1_000``, which the reader's fast scanner refuses: appended, and prepended,
which sends the whole file through the reader's per-line text path.  One line per run
gives the wall time and the child's peak RSS (``ru_maxrss`` from ``os.wait4``).
Exits 1 when a child exits nonzero or peaks above 256 MiB.  ``selftest`` takes
no window and is not run.  This is an opt-in tool, not a test (pytest collects
only ``test_*.py``); it takes about 11 s on a 2-vCPU x86 box, most of it ``pipeline``.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CAP = 10**7
RSS_BOUND_MIB = 256
ADDRESS_LIMIT = 4 * 10**6 * 1024  # bytes of address space a child may map
SRC = Path(__file__).resolve().parent.parent / "src"


def _bernoulli(n, seed):
    return json.dumps({"kind": "bernoulli", "window": [1, n], "seed": seed, "p": "1/2"})


RUNS = [
    ("gen bits", ["gen", "--spec", _bernoulli(CAP, 1), "--out", "x.set"]),
    ("gen list", ["gen", "--spec", _bernoulli(CAP, 1), "--out", "x.list", "--fmt", "list"]),
    ("gen y", ["gen", "--spec", _bernoulli(10**6, 2), "--out", "y.set"]),
    ("analyze bits", ["analyze", "--set", "x.set"]),
    ("analyze list", ["analyze", "--set", "x.list"]),
    ("analyze list 1_000", ["analyze", "--set", "late.list"]),
    ("analyze list 1_000 first", ["analyze", "--set", "early.list"]),
    ("delta", ["delta", "--set", "x.set", "--eps", "1/10", "--n", "100000", "--trange=-100..100"]),
    ("delta --upper", ["delta", "--set", "x.set", "--eps", "1/10", "--n", "100000",
                       "--trange=-100..100", "--upper"]),
    ("cover", ["cover", "--set", "x.set", "--eps", "1/20", "--x=-50..50", "--n", "100000"]),
    ("embed", ["embed", "--x", "x.set", "--y", "y.set", "--m", "8"]),
    ("extract", ["extract", "--set", "x.set", "--n", "12", "--slack", "1/20", "--window", str(CAP)]),
    ("pipeline", ["pipeline", "--a", "x.set", "--b", "y.set", "--N", str(CAP), "--nu", "1000000",
                  "--n", "8"]),
    ("bohr", ["bohr", "--d", "x.set", "--freqs", "1/5,2/7"]),
]

# x.list with a line of 1_000 (before, after), made just before the run that reads it
ONE_THOUSAND = {"late.list": (b"", b"1_000\n"), "early.list": (b"1_000\n", b"")}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def run(argv, cwd):
    """(exit code, wall seconds, peak RSS in MiB) of one child running the CLI on argv."""
    code = "import sys; from diffsets.cli import main; sys.exit(main())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                             stdout=subprocess.DEVNULL, preexec_fn=_limit_address_space)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, time.perf_counter() - t0, usage.ru_maxrss / 1024


def main():
    failed = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, argv in RUNS:
            if argv[-1] in ONE_THOUSAND:
                head, tail = ONE_THOUSAND[argv[-1]]
                with open(Path(cwd, argv[-1]), "wb") as out, open(Path(cwd, "x.list"), "rb") as src:
                    out.write(head)
                    shutil.copyfileobj(src, out)
                    out.write(tail)
            code, wall, rss = run(argv, cwd)
            ok = code == 0 and rss <= RSS_BOUND_MIB
            print(f"{name:<24} exit {code}  {wall:6.2f} s  {rss:6.1f} MiB  {'ok' if ok else 'FAIL'}",
                  flush=True)
            if not ok:
                failed.append(name)
    if failed:
        print(f"failed: {', '.join(failed)} (nonzero exit, or peak RSS over {RSS_BOUND_MIB} MiB)")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
