"""Command line front end: set files in, canonical JSON reports out.

Subcommands map onto the library modules one to one; this file only parses
flags, reads set files, composes calls, and serializes what comes back.
Exit codes: 0 when every asserted check passed (the report's violations
list is empty exactly then), 2 for malformed input or parameters, 3 when a
certificate failed re-verification (an implementation bug, never a property
of the data), 4 when the requested parameters are infeasible, for instance
a threshold at or above the squared window density.  Negative findings on
user data, like a containment that simply does not hold, are ordinary
results and exit 0.

Conventions: rationals are written "p/q" on the command line and in
reports, ranges "lo..hi" inclusive on both ends, and shift candidate lists
accept a range, a JSON array, or a comma list.  Each flag's value is parsed
by the type given in its add_argument, when the command line is read: an
empty or malformed value exits 2 naming the flag, before any set file is
read, also where the chosen mode ignores the flag.  Every subcommand except
``gen`` takes --out for the report destination (default stdout); ``gen``
uses --out for the generated set file and always reports on stdout.
``main(argv)`` returns the exit code and may be called any number of times
in one process; each call builds a parser of its own.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bohr import BohrSpec, bohr_contained, bohr_generate, piecewise_bohr_search
from .cover import (
    certify_cover,
    cs_family_inequality,
    delta_cover,
    full_cover_density,
    guaranteed_overlap,
    quotient_cover,
)
from .delta import eps_delta_banach, eps_delta_upper, shift_density
from .density import (
    longest_run,
    lower_asymptotic_est,
    lower_banach_est,
    piecewise_syndetic_witness,
    schnirelmann_est,
    syndetic_gap,
    thick_witness,
    upper_asymptotic_est,
    upper_banach_est,
)
from .embed import dense_embed_est, distinct_traces, window_embeddable
from .errors import InfeasibleError, InputError, VerificationError
from .extract import (
    chain_extract,
    dense_pattern_extract,
    difference_cover,
    intersect_delta_cover,
    joint_extract,
    pigeonhole_shift,
    trace_extract,
)
from .gen import GenSpec, bernoulli_set, gen, residue_set, spec_from_json, spec_to_json
from .intset import (
    IntSet,
    Window,
    check_window_length,
    difference_set,
    intersect,
    make_set,
    read_set_file,
    union,
    write_set_file,
)
from .prng import Stream, stream_block, stream_value
from .report import Report, load_json, parse_fraction, render, write_csv

__all__ = ["main", "build_parser"]


# -- flag parsing helpers -----------------------------------------------------
#
# Each parses (text, flag) or raises InputError naming the flag; the
# _<subcommand>_flags functions bind each to its flag's add_argument through _flag.


def _flag(parse, flag: str, *extra):
    return lambda text: parse(text, flag, *extra)


def _parse_path(text: str, flag: str) -> str:
    if text == "":  # an empty path is refused, never read as unset
        raise InputError(f"{flag} needs a path, got an empty value")
    return text


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"cannot parse {flag} = {text!r} as an integer") from None


def _parse_positive(text: str, flag: str, least: int = 1) -> int:
    value = _parse_int(text, flag)
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")
    return value


def _parse_list(text: str, flag: str, item) -> list:
    vals = [item(p, flag) for p in text.split(",") if p.strip()]
    if not vals:
        raise InputError(f"{flag} list is empty")
    return vals


def _parse_range(text: str, flag: str) -> Window:
    parts = text.split("..")
    if len(parts) != 2:
        raise InputError(f"{flag} must look like lo..hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"{flag} ends must be integers, got {text!r}") from None
    if lo > hi:
        raise InputError(f"{flag} must have lo <= hi, got {text!r}")
    return check_window_length(Window(lo, hi), flag)


def _parse_candidates(text: str, flag: str) -> list[int]:
    t = text.strip()
    if t.startswith("["):
        try:
            vals = load_json(t, flag)
        except ValueError as e:  # also an integer literal past Python's 4300-digit cap
            raise InputError(f"{flag}: bad candidate JSON: {e}") from None
        if not isinstance(vals, list) or not vals or not all(type(v) is int for v in vals):
            raise InputError(f"{flag}: candidate JSON must be a nonempty array of integers")
        return vals
    if ".." in t:
        w = _parse_range(t, f"{flag} candidate range")
        return list(range(w.lo, w.hi + 1))
    return _parse_list(t, flag, _parse_int)


def _parse_spec(text: str, flag: str) -> GenSpec:
    """A generator spec given as JSON, or as @path to a JSON file."""
    if text.startswith("@"):
        p = Path(text[1:])
        try:
            text = p.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"{flag}: cannot read spec file {p}: {e}") from e
    try:
        data = load_json(text, flag)
    except ValueError as e:  # also an integer literal past Python's 4300-digit cap
        raise InputError(f"{flag} is not valid JSON: {e}") from None
    return spec_from_json(data)


def _set_summary(path: str, a: IntSet) -> dict:
    return {"path": path, "window": a.window, "count": a.count}


def _read_input(report: Report, key: str, path: str) -> IntSet:
    """Read a set file and record its summary under inputs[key]."""
    a = read_set_file(path)
    report.inputs[key] = _set_summary(path, a)
    return a


def _emit(report: Report, out: str | None) -> None:
    text = render(report)
    if out is not None:
        try:
            Path(out).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write report to {out}: {e}") from e
    else:
        sys.stdout.write(text)


# -- subcommand handlers ------------------------------------------------------


def _cmd_gen(args, report: Report) -> int:
    report.seed = args.spec.seed
    report.inputs["spec"] = spec_to_json(args.spec)
    made = gen(args.spec)
    if isinstance(made, tuple):
        entries = []
        for s, suffix in zip(made, (".a", ".b", ".c")):
            path = args.out + suffix
            write_set_file(s, path, args.fmt)
            entries.append(_set_summary(path, s))
        report.results["sets"] = entries
    else:
        write_set_file(made, args.out, args.fmt)
        report.results["set"] = _set_summary(args.out, made)
    return 0


def _cmd_analyze(args, report: Report) -> int:
    if (args.gap is None) != (args.runlen is None):
        raise InputError("--gap and --runlen must be given together")
    a = _read_input(report, "set", args.set)
    ns = args.n if args.n is not None else [a.window.length]
    at_one = a.window.lo == 1
    per_n = {}
    rows = []
    for n in ns:
        ub = upper_banach_est(a, n)
        lb = lower_banach_est(a, n)
        entry = {"upper_banach": ub, "lower_banach": lb}
        if at_one:
            entry["upper_asymptotic"] = upper_asymptotic_est(a, n)
            entry["lower_asymptotic"] = lower_asymptotic_est(a, n)
            entry["schnirelmann"] = schnirelmann_est(a, n)
        tw = thick_witness(a, n)
        entry["thick_witness"] = tw
        per_n[str(n)] = entry
        rows.append([n, ub.value, ub.at, lb.value, lb.at, "" if tw is None else tw])
    report.parameters["n"] = ns
    report.results["anchored"] = at_one
    report.results["per_n"] = per_n
    report.results["longest_run"] = longest_run(a)
    report.results["syndetic_gap"] = syndetic_gap(a) if a.count >= 2 else None
    if args.gap is not None:
        w = piecewise_syndetic_witness(a, args.gap, args.runlen)
        report.results["piecewise_syndetic"] = {
            "gap": args.gap,
            "length": args.runlen,
            "witness": w,
        }
    if args.csv is not None:
        write_csv(
            args.csv,
            ["n", "upper_banach", "upper_at", "lower_banach", "lower_at", "thick_witness"],
            rows,
        )
    return 0


def _cmd_delta(args, report: Report) -> int:
    a = _read_input(report, "set", args.set)
    res = (eps_delta_upper if args.upper else eps_delta_banach)(a, args.eps, args.n, args.trange)
    estimator = "upper" if args.upper else "banach"
    report.parameters.update({"eps": args.eps, "n": args.n, "trange": args.trange, "estimator": estimator})
    report.results["members"] = res.members
    report.results["count"] = res.members.count
    report.certificates["per_t"] = res.per_t
    if args.csv is not None:
        rows = [[t, v, int(t in res.members)] for t, v in sorted(res.per_t.items())]
        write_csv(args.csv, ["t", "density", "member"], rows)
    return 0


def _cmd_embed(args, report: Report) -> int:
    if args.dense and args.n is None:
        raise InputError("--dense needs --n for the shift-set estimator")
    x = _read_input(report, "x", args.x)
    y = _read_input(report, "y", args.y)
    m, srange = args.m, args.srange
    if srange is None:
        if y.window.length < m:
            raise InputError(f"target window shorter than the trace length {m}")
        srange = Window(y.window.lo, y.window.hi - m + 1)
    report.parameters.update({"m": m, "srange": srange})
    report.results["window_embed"] = window_embeddable(x, y, m, srange)
    if args.dense:
        entries = []
        worst = None
        for pat in distinct_traces(x, m):
            est = dense_embed_est(pat, y, srange, args.n)
            entries.append({"pattern": pat, "estimate": est})
            if worst is None or est.value < worst:
                worst = est.value
        report.results["dense"] = {
            "n": args.n,
            "patterns": entries,
            "min_density": worst,
        }
    return 0


def _cmd_cover(args, report: Report) -> int:
    if args.h is not None and args.upper:
        raise InputError("--upper applies to the direct cover, not the quotient mode")
    eps, candidates = args.eps, args.x
    hull = Window(min(candidates), max(candidates))
    if args.density_n is not None and args.density_n > hull.length:
        raise InputError(f"--density-n {args.density_n} exceeds the --x hull length {hull.length}")
    a = _read_input(report, "set", args.set)
    report.parameters.update(
        {"eps": eps, "n": args.n, "candidates": len(candidates), "mandated": args.mandate}
    )
    if args.h is not None:
        res = quotient_cover(
            a, args.h, candidates, eps, args.n,
            mandated_x=args.mandate, density_n=args.density_n,
        )
        report.parameters["h"] = args.h
        report.results["quotient"] = {
            "full_range": args.h == 0,
            "offset": res.offset,
            "base_shifts": res.base_shifts,
            "cover_ok": res.cover_ok,
        }
        if res.quotient_members is not None:
            report.results["quotient_members"] = res.quotient_members
        if res.cert is not None:
            report.certificates["cover"] = res.cert
        if res.density is not None:
            report.certificates["density"] = res.density
        return 0
    res = delta_cover(a, candidates, eps, args.n, mandated_x=args.mandate, upper=args.upper)
    report.results["cover"] = {
        "offset": res.offset,
        "base_size": args.n,
        "heuristic": args.upper,
        "shifts": list(res.cert.shifts),
        "k_bound": res.cert.k_bound,
        "covered": res.cert.covered,
        "uncovered_count": len(res.cert.uncovered),
    }
    report.certificates["cover"] = res.cert
    report.certificates["shift_checks"] = res.checks
    if len(set(candidates)) == hull.length:
        # every cover is full, so a contiguous range is covered: attach the density consequence
        _, report.certificates["density"] = full_cover_density(
            res.base, 1, hull, eps, list(res.cert.shifts), args.density_n
        )
    return 0


def _cmd_extract(args, report: Report) -> int:
    a = _read_input(report, "set", args.set)
    window_len = args.window if args.window is not None else min(1024, a.window.length)
    res = dense_pattern_extract(a, args.n, args.slack, window_len)
    report.parameters.update({"n": args.n, "slack": args.slack, "window_len": window_len})
    report.results["offset"] = res.offset
    report.results["alpha"] = res.alpha
    report.results["prefix"] = res.cert.prefix
    report.certificates["extraction"] = res.cert
    report.certificates["prefix_checks"] = res.checks
    report.certificates["walk"] = res.walk
    return 0


def _cmd_pipeline(args, report: Report) -> int:
    if sum((args.chain is not None, args.jin, args.intersect)) > 1:
        raise InputError("--chain, --jin and --intersect are mutually exclusive")
    if args.chain is None:
        if args.N is None or args.nu is None:
            raise InputError("pipeline needs --N and --nu")
        if args.jin and args.x is None:
            raise InputError("--jin needs --x candidates")
        if args.intersect and args.eps is None:
            raise InputError("--intersect needs --eps")
        if args.intersect and args.x is None:
            raise InputError("--intersect needs --x candidates")
    a = _read_input(report, "a", args.a)
    b = _read_input(report, "b", args.b)
    if args.chain is not None:
        sets = [a, b] + [_read_input(report, f"chain_{i}", p) for i, p in enumerate(args.chain)]
        res = chain_extract(sets, args.n, args.slack, window_len=args.N)
        report.parameters.update(
            {"n": args.n, "slack": args.slack, "window_len": args.N, "sets": len(sets)}
        )
        report.results["final_prefix"] = res.final_prefix
        report.results["final_gamma"] = res.final_gamma
        report.results["floor"] = res.floor
        report.certificates["chain"] = res
        return 0
    report.parameters.update({"N": args.N, "nu": args.nu, "n": args.n, "slack": args.slack})
    if args.jin:
        res = difference_cover(a, b, args.x, args.N, args.nu, args.n, args.slack)
        report.results["shifts"] = list(res.cert.shifts)
        report.results["expected_k"] = res.expected_k
        report.results["covered_interval"] = res.covered_interval
        report.results["baseline"] = res.baseline
        report.certificates["cover"] = res.cert
        report.certificates["pipeline"] = res.pipeline
        return 0
    if args.intersect:
        res = intersect_delta_cover(
            a, b, args.eps, args.x, args.N, args.nu, args.n, args.slack,
            mandated_x=args.mandate,
        )
        report.parameters["eps"] = args.eps
        report.results["shifts"] = list(res.cert.shifts)
        report.results["expected_k"] = res.expected_k
        report.certificates["cover"] = res.cert
        report.certificates["checks_a"] = res.checks_a
        report.certificates["checks_b"] = res.checks_b
        report.certificates["pipeline"] = res.pipeline
        return 0
    res = joint_extract(a, b, args.N, args.nu, args.n, args.slack)
    report.results["alpha"] = res.alpha
    report.results["beta"] = res.beta
    report.results["gamma"] = res.gamma
    report.results["align_shift"] = res.align_shift
    report.results["prefix"] = res.cert.prefix
    report.certificates["pipeline"] = res
    # the prefix as a set on [1, n]; its counting function dominates gamma
    prefix_set = make_set(res.cert.prefix, Window(1, res.cert.n))
    report.results["prefix_schnirelmann"] = schnirelmann_est(prefix_set, res.cert.n)
    return 0


def _cmd_bohr(args, report: Report) -> int:
    if not args.search and args.freqs is None:
        raise InputError("direct mode needs --freqs (or use --search)")
    d = _read_input(report, "d", args.d)
    if args.search:
        report.parameters.update(
            {"kmax": args.kmax, "lmin": args.lmin, "qmax": args.qmax,
             "eps_grid": args.eps_grid, "shifts": args.shifts}
        )
        wit = piecewise_bohr_search(
            d, args.kmax, args.eps_grid, args.lmin, q_max=args.qmax, shifts=args.shifts
        )
        if wit is None:
            report.results["witness"] = None
            return 0
        report.results["witness"] = wit
        s = bohr_generate(wit.spec, d.window)
        report.results["generated"] = s
        report.certificates["containment"] = bohr_contained(s, d, wit.interval)
        return 0
    spec = BohrSpec.of(args.freqs, args.eps, args.shift)
    interval = d.window if args.interval is None else args.interval
    report.parameters.update(
        {"freqs": list(spec.freqs), "eps": args.eps, "shift": args.shift, "interval": interval}
    )
    s = bohr_generate(spec, d.window)
    report.results["generated"] = s
    report.results["containment"] = bohr_contained(s, d, interval)
    return 0


# -- selftest invariants ------------------------------------------------------
#
# Each check draws its own small instance from a per-trial stream and asserts
# one library invariant.  InfeasibleError counts as a skip (the instance was
# outside the operation's feasibility region), anything else as a violation.


def _st_window(rng: Stream, max_hi: int = 512) -> Window:
    return Window(1, rng.randint(16, max_hi))


def _st_set(rng: Stream, window: Window, denom: int = 4) -> IntSet:
    num = rng.randint(1, denom - 1) if denom > 2 else 1
    s = bernoulli_set(window, Fraction(num, denom), rng.subseed())
    return union(s, make_set([window.lo], window))  # pin the first point so the set is nonempty


def _st_pigeonhole(rng: Stream) -> None:
    w = _st_window(rng)
    c = _st_set(rng, w)
    nu = rng.randint(1, min(64, w.hi))
    d = _st_set(rng, Window(1, nu))
    pigeonhole_shift(c, d)  # raises when the ratio is under the averaging bound


def _st_cs(rng: Stream) -> None:
    w = _st_window(rng, 256)
    k = rng.randint(2, 6)
    fam = [_st_set(rng, w) for _ in range(k)]
    ineq = cs_family_inequality(fam)
    assert ineq.holds
    bound = guaranteed_overlap(fam)
    best = max(
        Fraction(intersect(fam[i], fam[j]).count, ineq.n)
        for i in range(k)
        for j in range(i + 1, k)
    )
    assert bound <= best


def _st_difference(rng: Stream) -> None:
    a = _st_set(rng, Window(rng.randint(-20, 0), rng.randint(1, 20)))
    b = _st_set(rng, Window(rng.randint(-20, 0), rng.randint(1, 20)))
    d = difference_set(a, b)
    assert set(d.members()) == {x - y for x in a for y in b}


def _st_estimators(rng: Stream) -> None:
    w = _st_window(rng)
    a = _st_set(rng, w)
    n = rng.randint(1, w.hi)
    inside = [x in a for x in range(w.lo, w.hi + 1)]  # plain member recount of every window
    counts = [sum(inside[i : i + n]) for i in range(w.length - n + 1)]
    for est, pick in ((upper_banach_est(a, n), max), (lower_banach_est(a, n), min)):
        best = pick(counts)
        assert (est.value, est.at) == (Fraction(best, n), w.lo - 1 + counts.index(best))
    assert schnirelmann_est(a, n).value <= lower_asymptotic_est(a, n).value
    run = longest_run(a)
    assert run is not None
    assert thick_witness(a, run[1]) is not None
    if run[1] < a.window.length:
        assert thick_witness(a, run[1] + 1) is None


def _st_delta_symmetry(rng: Stream) -> None:
    w = _st_window(rng, 256)
    a = _st_set(rng, w)
    r = rng.randint(1, w.hi // 4)
    n = rng.randint(1, w.hi - r)
    res = eps_delta_banach(a, Fraction(0), n, Window(-r, r))
    for t in range(r + 1):  # the sweep scans each |t| once: -t is checked on its own overlap
        assert res.per_t[t] == res.per_t[-t] == shift_density(a, -t, n)
        assert (t in res.members) == (-t in res.members)


def _st_cover(rng: Stream) -> None:
    hi = rng.randint(48, 256)
    m = rng.randint(2, 8)
    cls = sorted({rng.below(m) for _ in range(rng.randint(1, m))})
    c = residue_set(Window(1, hi), m, cls)
    r = rng.randint(1, 20)
    cand = list(range(-r, r + 1))
    certify_cover(cand, Fraction(0), 0, lambda: (c, None))


def _st_trace(rng: Stream) -> None:
    w = _st_window(rng)
    c = _st_set(rng, w, denom=2)
    n = rng.randint(2, 6)
    trace_extract(c, n, Fraction(1, 4))  # its verify_extraction refuses a class under the share


def _st_embed(rng: Stream) -> None:
    w = _st_window(rng, 256)
    x = _st_set(rng, w)
    m = rng.randint(1, min(12, w.hi))
    rep = window_embeddable(x, x, m, Window(w.lo, w.hi - m + 1))
    assert rep.ok  # the identity shift embeds every trace into its own set


def _st_bohr(rng: Stream) -> None:
    q = rng.randint(2, 12)
    spec = BohrSpec.of(
        [Fraction(rng.randint(1, q - 1), q)],
        Fraction(1, 4),
        rng.randint(-25, 25),
    )
    w = Window(-50, rng.randint(26, 100))
    s = bohr_generate(spec, w)
    assert spec.shift in s
    for x in s:
        v = (spec.freqs[0] * (x - spec.shift)) % 1
        assert min(v, 1 - v) < spec.eps


def _st_prng(rng: Stream) -> None:
    seed = rng.subseed()
    w = Window(1, rng.randint(16, 256))
    assert bernoulli_set(w, Fraction(1, 3), seed) == bernoulli_set(w, Fraction(1, 3), seed)
    start = rng.below(1000)
    blk = stream_block(seed, start, 8)
    assert [int(v) for v in blk] == [stream_value(seed, start + i) for i in range(8)]


_CHECKS = [
    ("pigeonhole_bound", _st_pigeonhole),
    ("family_inequality", _st_cs),
    ("difference_brute", _st_difference),
    ("estimator_order", _st_estimators),
    ("delta_symmetry", _st_delta_symmetry),
    ("cover_roundtrip", _st_cover),
    ("trace_roundtrip", _st_trace),
    ("embed_identity", _st_embed),
    ("bohr_membership", _st_bohr),
    ("prng_agreement", _st_prng),
]


def _cmd_selftest(args, report: Report) -> int:
    report.seed = args.seed
    report.parameters["trials"] = args.trials
    passed = {name: 0 for name, _ in _CHECKS}
    skipped = {name: 0 for name, _ in _CHECKS}
    for i in range(args.trials):
        name, fn = _CHECKS[i % len(_CHECKS)]
        rng = Stream(stream_value(args.seed, i))
        try:
            fn(rng)
        except InfeasibleError:
            skipped[name] += 1
        except (AssertionError, VerificationError, InputError) as e:
            report.violations.append(f"{name} trial {i}: {str(e) or 'assertion failed'}")
        else:
            passed[name] += 1
    report.results["passed"] = passed
    report.results["skipped"] = skipped
    return 3 if report.violations else 0


# -- parser and entry point ---------------------------------------------------


def _report_flags(p: argparse.ArgumentParser, csv: bool = False) -> None:
    p.add_argument("--out", dest="report_out", metavar="PATH", type=_flag(_parse_path, "--out"),
                   help="write the report here instead of stdout")
    if csv:
        p.add_argument("--csv", metavar="PATH", type=_flag(_parse_path, "--csv"),
                       help="also write per-row data as CSV")


def _gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, type=_flag(_parse_spec, "--spec"),
                   help="GenSpec JSON, or @path to a JSON file")
    p.add_argument("--out", required=True, type=_flag(_parse_path, "--out"),
                   help="set file to write; triple generators append .a/.b/.c")
    p.add_argument("--fmt", choices=("bits", "list"), default="bits")
    p.set_defaults(fn=_cmd_gen)


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, type=_flag(_parse_path, "--set"))
    p.add_argument("--n", type=_flag(_parse_positive, "--n"), action="append",
                   help="window length, repeatable")
    p.add_argument("--gap", type=_flag(_parse_positive, "--gap"),
                   help="gap bound for the piecewise syndetic check")
    p.add_argument("--runlen", type=_flag(_parse_positive, "--runlen"),
                   help="interval length for the piecewise syndetic check")
    _report_flags(p, csv=True)
    p.set_defaults(fn=_cmd_analyze)


def _delta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, type=_flag(_parse_path, "--set"))
    p.add_argument("--eps", required=True, type=_flag(parse_fraction, "--eps"))
    p.add_argument("--n", type=_flag(_parse_positive, "--n"), required=True)
    p.add_argument("--trange", required=True, type=_flag(_parse_range, "--trange"),
                   help="shift range lo..hi")
    p.add_argument("--upper", action="store_true",
                   help="use the anchored asymptotic estimator instead of the window scan")
    _report_flags(p, csv=True)
    p.set_defaults(fn=_cmd_delta)


def _embed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", required=True, type=_flag(_parse_path, "--x"))
    p.add_argument("--y", required=True, type=_flag(_parse_path, "--y"))
    p.add_argument("--m", type=_flag(_parse_positive, "--m"), required=True, help="trace length")
    p.add_argument("--srange", type=_flag(_parse_range, "--srange"),
                   help="shift search range lo..hi (default: all of Y)")
    p.add_argument("--dense", action="store_true", help="also estimate shift-set densities")
    p.add_argument("--n", type=_flag(_parse_positive, "--n"), help="estimator window for --dense")
    _report_flags(p)
    p.set_defaults(fn=_cmd_embed)


def _cover_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, type=_flag(_parse_path, "--set"))
    p.add_argument("--eps", required=True, type=_flag(parse_fraction, "--eps"))
    p.add_argument("--x", required=True, type=_flag(_parse_candidates, "--x"),
                   help="candidate shifts: lo..hi, JSON array, or comma list")
    p.add_argument("--n", type=_flag(_parse_positive, "--n"), required=True,
                   help="base window length")
    p.add_argument("--h", type=int, help="quotient mode: cover x by {t : h*t dense} + F/h")
    p.add_argument("--mandate", type=int, default=0, help="shift the cover must use first")
    p.add_argument("--upper", action="store_true",
                   help="anchored window and asymptotic re-verification (heuristic)")
    p.add_argument("--density-n", type=_flag(_parse_positive, "--density-n"),
                   help="window length for the covering-density consequence")
    _report_flags(p)
    p.set_defaults(fn=_cmd_cover)


def _extract_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, type=_flag(_parse_path, "--set"))
    p.add_argument("--n", type=_flag(_parse_positive, "--n"), required=True, help="trace length")
    p.add_argument("--slack", required=True, type=_flag(parse_fraction, "--slack"),
                   help="density slack below the best window")
    p.add_argument("--window", type=_flag(_parse_positive, "--window"),
                   help="base window length (default min(1024, all))")
    _report_flags(p)
    p.set_defaults(fn=_cmd_extract)


def _pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", required=True, type=_flag(_parse_path, "--a"))
    p.add_argument("--b", required=True, type=_flag(_parse_path, "--b"))
    p.add_argument("--N", type=_flag(_parse_positive, "--N"),
                   help="window length for the first set")
    p.add_argument("--nu", type=_flag(_parse_positive, "--nu"),
                   help="window length for the second set")
    p.add_argument("--n", type=_flag(_parse_positive, "--n"), required=True, help="trace length")
    p.add_argument("--slack", default="1/50", type=_flag(parse_fraction, "--slack"))
    p.add_argument("--chain", nargs="+", metavar="PATH", type=_flag(_parse_path, "--chain"),
                   help="fold further sets through the pipeline")
    p.add_argument("--jin", action="store_true",
                   help="cover candidates by dense shifts of the aligned overlap")
    p.add_argument("--intersect", action="store_true",
                   help="cover candidates by shifts eps-dense for both sets")
    p.add_argument("--eps", type=_flag(parse_fraction, "--eps"), help="threshold for --intersect")
    p.add_argument("--x", type=_flag(_parse_candidates, "--x"),
                   help="candidate shifts for --jin / --intersect")
    p.add_argument("--mandate", type=int, default=0)
    _report_flags(p)
    p.set_defaults(fn=_cmd_pipeline)


def _bohr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", required=True, type=_flag(_parse_path, "--d"),
                   help="ambient set (usually a difference set)")
    p.add_argument("--freqs", type=_flag(_parse_list, "--freqs", parse_fraction),
                   help="comma list of rational frequencies")
    p.add_argument("--eps", default="1/4", type=_flag(parse_fraction, "--eps"),
                   help="width threshold (default 1/4)")
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--interval", type=_flag(_parse_range, "--interval"),
                   help="containment check range lo..hi (default: full window)")
    p.add_argument("--search", action="store_true", help="piecewise witness search")
    p.add_argument("--kmax", type=_flag(_parse_positive, "--kmax"), default=2,
                   help="max frequencies per spec")
    p.add_argument("--Lmin", dest="lmin", type=_flag(_parse_positive, "--Lmin"), default=16,
                   help="minimum violation-free interval length")
    p.add_argument("--eps-grid", default="1/3,1/4,1/6,1/8",
                   type=_flag(_parse_list, "--eps-grid", parse_fraction),
                   help="comma list of eps values for the search")
    p.add_argument("--qmax", type=_flag(_parse_positive, "--qmax", 2), default=32,
                   help="max denominator for suggested freqs")
    p.add_argument("--shifts", default="0", type=_flag(_parse_list, "--shifts", _parse_int),
                   help="comma list of shifts for the search")
    _report_flags(p)
    p.set_defaults(fn=_cmd_bohr)


def _selftest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_flag(_parse_positive, "--trials"), default=100)
    p.add_argument("--seed", type=int, default=1)
    _report_flags(p)
    p.set_defaults(fn=_cmd_selftest)


_SUBCOMMANDS = (  # name, help, flags
    ("gen", "materialize a generator spec into a set file", _gen_flags),
    ("analyze", "density estimates and structure classifiers", _analyze_flags),
    ("delta", "shifts whose self-intersection clears a density threshold", _delta_flags),
    ("embed", "window embeddability of X into Y", _embed_flags),
    ("cover", "greedy shift cover with certificates", _cover_flags),
    ("extract", "modal trace extraction with walk bound", _extract_flags),
    ("pipeline", "two-set alignment and extraction pipelines", _pipeline_flags),
    ("bohr", "rational Bohr sets: generate, contain, search", _bohr_flags),
    ("selftest", "randomized invariant suite", _selftest_flags),
)
_NAMES = [name for name, _, _ in _SUBCOMMANDS]
_CHOICES = "{" + ",".join(_NAMES) + "}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser: every subcommand, or command's alone.

    main reads one subcommand per call, so when the first word names one it
    builds that subparser alone.  The usage line still lists every choice.
    """
    parser = argparse.ArgumentParser(
        prog="diffsets",
        description="finite-window difference set and density workbench",
    )
    parser.add_argument("--version", action="version", version=f"diffsets {__version__}")
    # the metavar spells the full choice list; left unset it also names the argument in
    # the refusals of the full parser ("... are required: cmd"), which only it can give
    named = {"metavar": _CHOICES} if command else {}
    sub = parser.add_subparsers(dest="cmd", required=True, **named)
    for name, summary, flags in _SUBCOMMANDS:
        if command in (None, name):
            flags(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _NAMES else None
    try:
        args = build_parser(command).parse_args(argv)  # the flag parsers raise InputError
        report = Report(command=args.cmd, version=__version__)
        t0 = time.perf_counter()
        try:
            code = args.fn(args, report)
        except VerificationError as e:
            report.violations.append(str(e))
            code = 3
        report.timing["seconds"] = round(time.perf_counter() - t0, 6)
        _emit(report, getattr(args, "report_out", None))
        return code
    except InputError as e:
        print(f"diffsets: error: {e}", file=sys.stderr)
        return 2
    except InfeasibleError as e:
        print(f"diffsets: infeasible: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
