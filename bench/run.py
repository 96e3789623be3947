#!/usr/bin/env python3
"""diffsets benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload sweep|extract|setio --seed N --seconds S --trace 0|1

The run is a closed loop with one client in one process: the workload's
commands go through ``diffsets.cli.main(argv)`` one after another, each
starting when the previous one returns, with ``DIFFSETS_THREADS=2``.  Inputs
are generated from ``--seed`` and written under ``.bench_work/<workload>/``;
the program sees only the set files.

``--trace 0`` sets up the inputs once and runs one warm-up pass (the first
command of each subcommand, leaving out those at 4*10^5), both checked but not
timed.  Then, for about ``--seconds``, it repeats a cycle of a few
set-ups followed by one pass, so that set-ups and passes sample the same
stretch of time, and prints the end-to-end metrics (medians over set-ups and
passes).

``--trace 1`` sets the inputs up once under the tracer, runs the warm-up pass,
an untraced pass, a traced pass and another untraced pass (plus a traced pass
at one thread when the pass ran ``par.ordered_map``, which only ``sweep``
does), writes the spans to ``.bench_work/<workload>/spans.json`` and prints
the per-layer metrics.

Every command's report is checked (see ``check.py``); any failure makes the
run exit 1.  ``--freeze`` records the report digests of the given seed in
``digests.json`` instead of measuring.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

THREADS = 2
SETUP_CYCLE_SECONDS = 2.0  # set-ups per cycle take about this long, and at least one
MIN_CYCLES = 2
DEFAULT_SEED = 1  # digests.json also freezes the held-out seed 97

SUBCOMMANDS = ("gen", "analyze", "delta", "cover", "embed", "extract", "pipeline", "bohr")

# name -> (unit, better); the untraced run's metrics
END_TO_END = {
    "job_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run prints."""
    out = [(f"{sub}_s", "s", "lower") for sub in SUBCOMMANDS]
    out += spans.metric_specs()
    out += [("par.speedup", "x", "higher"), ("trace_overhead", "ratio", "lower")]
    return out


def load_cli():
    """diffsets.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "diffsets" / "__init__.py").is_file():
        sys.exit(f"bench: no diffsets sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    from diffsets import cli

    if Path(cli.__file__).resolve().parent != (src / "diffsets").resolve():
        sys.exit(f"bench: imported diffsets from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Pass:
    """One run of a command list: wall times, and per-command check results."""

    seconds: float
    cmd_seconds: dict[str, float]
    digests: dict[str, str]
    problems: dict[str, list[str]] = field(default_factory=dict)


class Bench:
    def __init__(self, cli, workload: str, seed: int, frozen: dict[str, str] | None):
        self.cli = cli
        self.setup, self.commands = workloads.script(workload, seed)
        self.frozen = frozen
        self.expected: dict[str, str] = dict(frozen or {})
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        labels = {c.label for c in self.setup + self.commands}
        if self.frozen is not None and set(self.frozen) != labels:
            self.failed += 1
            self.errors.append(f"frozen digests are for {sorted(self.frozen)}, "
                               f"the script runs {sorted(labels)}")

    def _call(self, cmd, tracer):
        if tracer is not None:
            tracer.cmd = cmd
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(cmd.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a failed command, not a failed benchmark
            self.errors.append(f"{cmd.label}: {traceback.format_exc(limit=3)}")
            code = 1
        return code, out.getvalue()

    def run(self, cmds, tracer=None) -> Pass:
        """Run the commands in order, then check every report against the gate."""
        for cmd in cmds:
            Path(cmd.report).unlink(missing_ok=True)
        results = []
        start = time.perf_counter()
        for cmd in cmds:
            t0 = time.perf_counter()
            code, stdout = self._call(cmd, tracer)
            results.append((cmd, time.perf_counter() - t0, code, stdout))
        seconds = time.perf_counter() - start
        res = Pass(seconds, {}, {})
        for cmd, dt, code, stdout in results:
            res.cmd_seconds[cmd.label] = dt
            self.attempted += 1
            report = None
            text = stdout if cmd.sub == "gen" else (
                Path(cmd.report).read_text() if Path(cmd.report).exists() else ""
            )
            with contextlib.suppress(json.JSONDecodeError):
                report = json.loads(text)
            bad = check.problems(code, report)
            if report is not None:
                d = res.digests[cmd.label] = check.digest(report)
                want = self.expected.setdefault(cmd.label, d)
                if d != want:
                    bad.append("digest " + d[:12] + " != expected " + want[:12])
            if bad:
                self.failed += 1
                res.problems[cmd.label] = bad
                self.errors.append(f"{cmd.label}: {'; '.join(bad)}")
        return res

    def warm_up(self) -> Pass:
        """The first command of each subcommand, leaving out those at 4*10^5."""
        first = {}
        for c in self.commands:
            if not c.large:
                first.setdefault(c.sub, c)
        return self.run(list(first.values()))

    def subcommand_seconds(self, p: Pass) -> dict[str, float]:
        out = dict.fromkeys(SUBCOMMANDS, 0.0)
        for cmd in self.commands:
            out[cmd.sub] += p.cmd_seconds[cmd.label]
        return out


def set_threads(n: int) -> None:
    os.environ["DIFFSETS_THREADS"] = str(n)


def measure(b: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run: end-to-end metrics, plus the lines of the printed table."""
    warm_setup = b.run(b.setup).seconds  # warm-up, checked but not timed
    b.warm_up()
    per_cycle = max(1, round(SETUP_CYCLE_SECONDS / warm_setup))
    setups: list[float] = []
    passes: list[Pass] = []
    start = last = time.perf_counter()
    cycle = 0.0
    # stop at the cycle boundary nearest to the deadline
    while len(passes) < MIN_CYCLES or last - start + cycle / 2 < seconds:
        setups += [b.run(b.setup).seconds for _ in range(per_cycle)]
        passes.append(b.run(b.commands))
        now = time.perf_counter()
        cycle, last = now - last, now
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "job_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    k = len(passes)
    lines = [f"job_s        {metrics['job_s']:10.4f} s    median of {k} passes"]
    per_sub = [b.subcommand_seconds(p) for p in passes]
    for sub in SUBCOMMANDS:
        if any(c.sub == sub for c in b.commands):
            v = statistics.median(s[sub] for s in per_sub)
            lines.append(f"{sub + '_s':12s} {v:10.4f} s    median of {k} passes")
        else:
            lines.append(f"{sub + '_s':12s} {'-':>10s} s    not in this workload")
    lines.append(f"setup_s      {metrics['setup_s']:10.4f} s    median of {len(setups)} set-ups")
    lines.append(f"peak_rss_mb  {rss_mb:10.1f} MiB")
    lines.append(f"fail_rate    {b.failed / b.attempted:10.4f}      "
                 f"{b.failed} of {b.attempted} commands")
    return metrics, lines


def measure_traced(b: Bench) -> tuple[dict, list[str]]:
    """Traced run: per-layer metrics from one traced set-up and pass."""
    tracer = spans.Tracer()
    with tracer:
        b.run(b.setup, tracer)
    b.warm_up()
    plain = b.run(b.commands)
    with tracer:
        traced = b.run(b.commands, tracer)
    after = b.run(b.commands)  # untraced passes on both sides cancel a linear drift
    tracer.write("spans.json")
    metrics = {f"{sub}_s": v for sub, v in b.subcommand_seconds(plain).items()}
    metrics.update(tracer.metrics())
    speedup = 0.0
    if tracer.map_seconds():  # the single-thread reference for par.ordered_map
        set_threads(1)
        single = spans.Tracer()
        with single:
            b.run(b.commands, single)
        set_threads(THREADS)
        speedup = single.map_seconds() / tracer.map_seconds()
    metrics["par.speedup"] = speedup
    metrics["trace_overhead"] = 2 * traced.seconds / (plain.seconds + after.seconds) - 1
    lines = [f"{name:40s} {metrics[name]:14.6g} {unit}" for name, unit, _ in per_layer_specs()]
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true",
                    help="record this seed's report digests in digests.json and exit")
    args = ap.parse_args(argv)

    cli = load_cli()
    set_threads(THREADS)
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)

    import numpy

    frozen = None if args.freeze else check.load_frozen(args.workload, args.seed)
    b = Bench(cli, args.workload, args.seed, frozen)
    if args.freeze:
        b.run(b.setup)
        b.run(b.commands)
        if b.failed:
            print("\n".join(b.errors), file=sys.stderr)
            return 1
        check.freeze(args.workload, args.seed, b.expected)
        print(f"froze {len(b.expected)} digests for {args.workload} seed {args.seed}")
        return 0

    print(f"workload {args.workload}  seed {args.seed}  threads {THREADS}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  sizes {workloads.SMALL} {workloads.LARGE}  "
          f"digests {'frozen' if b.frozen is not None else 'self-consistent only'}")
    if args.trace:
        metrics, lines = measure_traced(b)
        units = {name: unit for name, unit, _ in per_layer_specs()}
    else:
        metrics, lines = measure(b, args.seconds)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    print("\n".join(lines))
    for e in b.errors:
        print(f"bench: FAILED {e}", file=sys.stderr)
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if b.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
