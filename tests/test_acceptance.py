"""Acceptance gate: twelve criteria, one verdict line each.

Every criterion recomputes its claim from raw set membership in exact
arithmetic; nothing is taken from a certificate without a recount.  Run with
``pytest -s tests/test_acceptance.py`` to see the verdict lines as they
print.  Criterion 12 runs the other eleven once more, from a fresh store of
intermediates, and compares the canonical reports field by field with the
first run (timing never enters a report here, so the comparison is total).
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from diffsets import (
    IntSet,
    Pattern,
    Window,
    bernoulli_set,
    block_walk_bound,
    bohr_contained,
    bohr_generate,
    cover_density_check,
    cs_family_inequality,
    delta_cover,
    dense_embed_est,
    dense_shift_member,
    difference_cover,
    difference_set,
    embed_witness,
    eps_delta_banach,
    find_ap,
    fraction_floor,
    guaranteed_overlap,
    intersect,
    intersect_delta_cover,
    joint_extract,
    piecewise_bohr_search,
    pigeonhole_shift,
    residue_set,
    restrict,
    schnirelmann_est,
    shift_set_of,
    to_jsonable,
    trace_extract,
    verify_cover_certificate,
    verify_extraction,
    window_embeddable,
)
from diffsets.prng import Stream, stream_value

SEED = 20260819

# reports and reusable intermediates from the first run; criterion 12
# rebuilds both from scratch and compares
_REPORTS: dict[int, dict] = {}
_STORE: dict[str, object] = {}


def _verdict(num, ok, detail, elapsed=None, budget=None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s" + (f" < {budget}s]" if budget else "]")
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}: {detail}{timing}")
    assert ok, f"criterion {num} failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"


# -- criterion 1: alignment shift pigeonhole, 10^4 random pairs ----------------


def _crit1(store):
    violations = 0
    min_margin = None
    for i in range(10_000):
        rng = Stream(stream_value(SEED, i))
        big = rng.randint(16, 4096)
        nu = rng.randint(4, min(256, big))
        c = bernoulli_set(Window(1, big), Fraction(rng.randint(1, 9), 10), rng.subseed())
        d = bernoulli_set(Window(1, nu), Fraction(rng.randint(1, 9), 10), rng.subseed())
        c = IntSet(c.window, c.bits | 1)
        d = IntSet(d.window, d.bits | 1)
        wit = pigeonhole_shift(c, d)
        if wit.ratio < wit.bound:
            violations += 1
        margin = wit.ratio - wit.bound
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return {"trials": 10_000, "violations": violations, "min_margin": min_margin}


def test_criterion_01():
    t0 = time.perf_counter()
    rep = _crit1(_STORE)
    _REPORTS[1] = to_jsonable(rep)
    _verdict(
        1,
        rep["violations"] == 0,
        f"pigeonhole ratio >= bound on {rep['trials']} random pairs, "
        f"min margin {rep['min_margin']}",
        time.perf_counter() - t0,
        60,
    )


# -- criterion 2: family inequality and guaranteed overlap, 10^4 families ------


def _pair_overlap(a, b, n):
    if a.window.hi < b.window.lo or b.window.hi < a.window.lo:
        return Fraction(0)
    return Fraction(intersect(a, b).count, n)


def _crit2(store):
    violations = 0
    positive = 0
    min_gap = None
    for i in range(10_000):
        rng = Stream(stream_value(SEED + 1, i))
        big = rng.randint(16, 4096)
        if i % 2 == 0:
            # dense full-window families, where the overlap bound is binding
            k = rng.randint(2, 4)
            fam = []
            for _ in range(k):
                p = Fraction(rng.randint(6, 9), 10)
                s = bernoulli_set(Window(1, big), p, rng.subseed())
                fam.append(IntSet(s.window, s.bits | 1))
        else:
            k = rng.randint(2, 12)
            fam = []
            for _ in range(k):
                lo = rng.randint(1, max(1, big // 2))
                hi = rng.randint(lo, big)
                p = Fraction(rng.randint(1, 9), 10)
                s = bernoulli_set(Window(lo, hi), p, rng.subseed())
                fam.append(IntSet(s.window, s.bits | 1))
        ineq = cs_family_inequality(fam, big)
        bound = guaranteed_overlap(fam, big)
        best = max(
            _pair_overlap(fam[x], fam[y], big)
            for x in range(k)
            for y in range(x + 1, k)
        )
        if not ineq.holds or bound > best:
            violations += 1
        if bound > 0:
            positive += 1
        gap = best - bound
        if min_gap is None or gap < min_gap:
            min_gap = gap
    return {
        "trials": 10_000,
        "violations": violations,
        "positive_bound_trials": positive,
        "min_gap": min_gap,
    }


def test_criterion_02():
    t0 = time.perf_counter()
    rep = _crit2(_STORE)
    _REPORTS[2] = to_jsonable(rep)
    _verdict(
        2,
        rep["violations"] == 0,
        f"inequality and overlap bound on {rep['trials']} families "
        f"({rep['positive_bound_trials']} with a binding bound)",
        time.perf_counter() - t0,
        60,
    )


# -- criterion 3: greedy cover size against the density bound ------------------


def _cover_report(res):
    return {
        "shifts": list(res.cert.shifts),
        "k_bound": res.cert.k_bound,
        "gamma_hat": res.cert.gamma_hat,
        "covered": res.cert.covered,
        "offset": res.offset,
    }


def _crit3(store):
    cand = list(range(-500, 501))
    a5 = residue_set(Window(0, 100_000), 5, [0, 1])
    t0 = time.perf_counter()
    r5 = delta_cover(a5, cand, Fraction(0), 10_000)
    t5 = time.perf_counter() - t0
    base5 = restrict(a5, Window(r5.offset + 1, r5.offset + 10_000)).shift(-r5.offset)
    a4 = residue_set(Window(0, 100_000), 4, [0])
    t0 = time.perf_counter()
    r4 = delta_cover(a4, cand, Fraction(0), 10_000)
    t4 = time.perf_counter() - t0
    base4 = restrict(a4, Window(r4.offset + 1, r4.offset + 10_000)).shift(-r4.offset)
    store["crit3"] = {"r5": r5, "base5": base5, "r4": r4, "base4": base4, "cand": cand}
    ok = (
        len(r5.cert.shifts) <= 2
        and r5.cert.covered
        and not r5.cert.uncovered
        and verify_cover_certificate(base5, cand, r5.cert)
        and len(r4.cert.shifts) <= 4
        and r4.cert.covered
        and not r4.cert.uncovered
        and verify_cover_certificate(base4, cand, r4.cert)
        and t5 < 10
        and t4 < 10
    )
    return {"mod5": _cover_report(r5), "mod4": _cover_report(r4), "ok": ok}


def test_criterion_03():
    t0 = time.perf_counter()
    rep = _crit3(_STORE)
    _REPORTS[3] = to_jsonable({k: v for k, v in rep.items() if k != "ok"})
    _verdict(
        3,
        rep["ok"],
        f"mod-5 cover {rep['mod5']['shifts']} (<= 2), "
        f"mod-4 cover {rep['mod4']['shifts']} (<= 4), both full",
        time.perf_counter() - t0,
    )


# -- criterion 4: shift-intersection density floor on a periodic set ----------


def _crit4(store):
    a = residue_set(Window(0, 100_000), 5, [0, 1, 2])
    res = eps_delta_banach(a, Fraction(0), 10_000, Window(-1000, 1000))
    worst = min(res.per_t.values())
    return {
        "shifts_checked": len(res.per_t),
        "min_per_t": worst,
        "floor": Fraction(12, 100),
        "holds": worst >= Fraction(12, 100),
    }


def test_criterion_04():
    t0 = time.perf_counter()
    rep = _crit4(_STORE)
    _REPORTS[4] = to_jsonable(rep)
    _verdict(
        4,
        rep["holds"] and rep["shifts_checked"] == 2001,
        f"per_t >= 12/100 for all |t| <= 1000 (observed min {rep['min_per_t']})",
        time.perf_counter() - t0,
        10,
    )


# -- criterion 5: modal trace certificate on a Bernoulli(1/2) set --------------


def _crit5(store):
    big = 100_000
    n = 12
    gamma = Fraction(9, 20)
    c = bernoulli_set(Window(1, big), Fraction(1, 2), 42)
    cert = trace_extract(c, n, gamma)
    walk = block_walk_bound(c, n, gamma)
    problems = []
    # prefix counting function clears gamma at every length
    have = 0
    for i in range(1, n + 1):
        if i in cert.prefix.elems:
            have += 1
        if have < gamma * i:
            problems.append(f"prefix counting below gamma at i={i}")
    # every reported offset reproduces the prefix, recounted from members
    members = set(c.members())
    pset = set(cert.prefix.elems)
    for theta in cert.matches.members():
        if {e for e in range(1, n + 1) if theta + e in members} != pset:
            problems.append(f"offset {theta} fails the trace recount")
            break
    # pigeonhole share of the region
    if cert.matches.count * (1 << n) < cert.region_size:
        problems.append("match class below the 2^-n share")
    # region size against the block-walk bound, recomputed from scratch
    gn = fraction_floor(gamma, n)
    bound = (Fraction(c.count, big) - gn - Fraction(n, big)) / (1 - gn)
    if not Fraction(cert.region_size, big) > bound:
        problems.append("region below the walk bound")
    if walk.bound != bound or walk.gamma_floor != gn:
        problems.append("walk report disagrees with the direct formula")
    if not verify_extraction(c, cert):
        problems.append("certificate verification failed")
    return {
        "prefix": cert.prefix,
        "region_size": cert.region_size,
        "matches": cert.matches.count,
        "match_bound": cert.match_bound,
        "walk_bound": bound,
        "problems": problems,
    }


def test_criterion_05():
    t0 = time.perf_counter()
    rep = _crit5(_STORE)
    _REPORTS[5] = to_jsonable({k: v for k, v in rep.items() if k != "problems"})
    _verdict(
        5,
        not rep["problems"],
        f"trace cert: region {rep['region_size']}, matches {rep['matches']}, "
        f"region share beats {float(rep['walk_bound']):.4f}"
        + ("" if not rep["problems"] else f"; {rep['problems']}"),
        time.perf_counter() - t0,
        30,
    )


# -- criterion 6: two-set pipeline, prefix density and containment -------------


def _crit6(store):
    a = residue_set(Window(1, 12_000), 2, [0])
    b = residue_set(Window(1, 12_000), 3, [0])
    window_len, sub_len, n = 3000, 300, 6
    res = joint_extract(a, b, window_len, sub_len, n, Fraction(1, 50))
    floor = (
        Fraction(1, 6) - Fraction(1, 50) - Fraction(sub_len, window_len)
    )
    prefix_set = IntSet(Window(1, n), sum(1 << (e - 1) for e in res.cert.prefix))
    sigma = schnirelmann_est(prefix_set, n).value
    problems = []
    if sigma < floor:
        problems.append(f"prefix Schnirelmann {sigma} under {floor}")
    if res.gamma != floor:
        problems.append("pipeline gamma disagrees with the direct formula")
    # containment recount: every match offset plus every prefix element lands
    # in B and, after the alignment shift, in A
    amem, bmem = set(a.members()), set(b.members())
    for theta in res.cert.matches.members():
        for e in res.cert.prefix:
            pos = res.offset_b + theta + e
            if pos not in bmem or pos + res.align_shift not in amem:
                problems.append(f"containment recount fails at theta={theta}, e={e}")
                break
    if res.cert.matches.count == 0:
        problems.append("no matches")
    return {
        "alpha": res.alpha,
        "beta": res.beta,
        "gamma": res.gamma,
        "sigma": sigma,
        "floor": floor,
        "prefix": res.cert.prefix,
        "matches": res.cert.matches.count,
        "align_shift": res.align_shift,
        "problems": problems,
    }


def test_criterion_06():
    t0 = time.perf_counter()
    rep = _crit6(_STORE)
    _REPORTS[6] = to_jsonable({k: v for k, v in rep.items() if k != "problems"})
    _verdict(
        6,
        not rep["problems"],
        f"prefix Schnirelmann {rep['sigma']} >= {rep['floor']}, containment "
        f"recounted over {rep['matches']} offsets"
        + ("" if not rep["problems"] else f"; {rep['problems']}"),
        time.perf_counter() - t0,
        30,
    )


# -- criterion 7: difference-set covers, periodic and Bernoulli ----------------


def _covers_target(diff, shifts, target):
    want = (1 << target.length) - 1
    acc = 0
    for f in shifts:
        acc |= restrict(diff.shift(f), target).bits
    return acc == want


def _crit7(store):
    a3 = residue_set(Window(1, 12_000), 3, [0])
    target = Window(-300, 300)
    res = difference_cover(
        a3, a3, list(range(-300, 301)), 6000, 300, 4, Fraction(1, 50)
    )
    diff = difference_set(a3, a3)
    problems = []
    if len(res.cert.shifts) > 9:
        problems.append(f"periodic cover uses {len(res.cert.shifts)} shifts")
    if not res.cert.covered:
        problems.append("periodic cover incomplete")
    if not _covers_target(diff, res.cert.shifts, target):
        problems.append("difference set plus cover misses the safe range")
    if not res.baseline.complete:
        problems.append("baseline cover incomplete")
    runs = []
    for seed in (101, 202, 303, 404, 505):
        a = bernoulli_set(Window(1, 10_000), Fraction(3, 10), seed)
        b = bernoulli_set(Window(1, 10_000), Fraction(3, 10), seed + 7)
        r = difference_cover(
            a, b, list(range(-200, 201)), 4000, 200, 4, Fraction(1, 50)
        )
        iv_len = 0 if r.covered_interval is None else r.covered_interval[1]
        if len(r.cert.shifts) > 11:
            problems.append(f"seed {seed}: {len(r.cert.shifts)} shifts")
        if iv_len < 1000:
            problems.append(f"seed {seed}: covered interval only {iv_len}")
        runs.append(
            {
                "seed": seed,
                "shifts": list(r.cert.shifts),
                "interval_len": iv_len,
                "expected_k": r.expected_k,
            }
        )
        store.setdefault("crit7_bern", []).append(r)
    store["crit7"] = {"res": res, "diff": diff, "target": target}
    return {
        "periodic_shifts": list(res.cert.shifts),
        "baseline_shifts": list(res.baseline.shifts),
        "expected_k": res.expected_k,
        "bernoulli": runs,
        "problems": problems,
    }


def test_criterion_07():
    t0 = time.perf_counter()
    rep = _crit7(_STORE)
    _REPORTS[7] = to_jsonable({k: v for k, v in rep.items() if k != "problems"})
    worst = max(len(r["shifts"]) for r in rep["bernoulli"])
    _verdict(
        7,
        not rep["problems"],
        f"periodic |F|={len(rep['periodic_shifts'])} (<= 9) full range; "
        f"5 Bernoulli runs, worst |F|={worst} (<= 11), intervals >= 10^3"
        + ("" if not rep["problems"] else f"; {rep['problems']}"),
        time.perf_counter() - t0,
        60,
    )


# -- criterion 8: cover by shifts dense for both sets at once ------------------


def _crit8(store):
    a = residue_set(Window(1, 2400), 2, [0])
    b = residue_set(Window(1, 2400), 3, [0])
    res = intersect_delta_cover(
        a, b, Fraction(0), list(range(-100, 101)), 1200, 120, 4, Fraction(1, 50)
    )
    problems = []
    if len(res.cert.shifts) > 6:
        problems.append(f"{len(res.cert.shifts)} shifts")
    if not res.cert.covered:
        problems.append("cover incomplete")
    for chk in res.checks_a + res.checks_b:
        if not chk.ok:
            problems.append(f"shift {chk.t} failed re-verification")
    store["crit8"] = {"res": res}
    return {
        "shifts": list(res.cert.shifts),
        "expected_k": res.expected_k,
        "used": sorted({c.t for c in res.checks_a}),
        "problems": problems,
    }


def test_criterion_08():
    t0 = time.perf_counter()
    rep = _crit8(_STORE)
    _REPORTS[8] = to_jsonable({k: v for k, v in rep.items() if k != "problems"})
    _verdict(
        8,
        not rep["problems"],
        f"|F|={len(rep['shifts'])} (<= 6), every used shift dense in both sets"
        + ("" if not rep["problems"] else f"; {rep['problems']}"),
        time.perf_counter() - t0,
        10,
    )


# -- criterion 9: density consequence of every full cover ----------------------


def _member_set_wide(base, shifts, hull, eps):
    wide = Window(hull.lo - max(shifts), hull.hi - min(shifts))
    bits = 0
    for i, t in enumerate(range(wide.lo, wide.hi + 1)):
        if dense_shift_member(base, t, eps):
            bits |= 1 << i
    return IntSet(wide, bits)


def _density_entry(s, shifts, hull, exact):
    """Run the covering-density consequence and recheck its own threshold."""
    d = cover_density_check(s, list(shifts), hull.length, hull)
    k = len(shifts)
    span = max(shifts) - min(shifts)
    want = Fraction(1, k) - Fraction(k * span, hull.length)
    problems = []
    if not d.premise_ok:
        problems.append("premise recount failed")
    if not d.ok:
        problems.append("estimate under the threshold")
    if d.threshold != want:
        problems.append("threshold drifted from 1/k - k*span/n")
    if exact and d.estimate.value < want:
        problems.append("periodic estimate under the documented slack")
    return {
        "k": k,
        "threshold": d.threshold,
        "estimate": d.estimate.value if d.estimate else None,
        "ok": d.ok,
    }, problems


def _crit9(store):
    if "crit3" not in store:
        _crit3(store)
    if "crit7" not in store:
        _crit7(store)
    if "crit8" not in store:
        _crit8(store)
    problems = []
    entries = {}
    hull = Window(-500, 500)
    c3 = store["crit3"]
    for name, res, base in (
        ("mod5", c3["r5"], c3["base5"]),
        ("mod4", c3["r4"], c3["base4"]),
    ):
        s = _member_set_wide(base, res.cert.shifts, hull, Fraction(0))
        entries[name], probs = _density_entry(s, res.cert.shifts, hull, exact=True)
        problems += [f"{name}: {p}" for p in probs]
    c7 = store["crit7"]
    hull7 = c7["target"]
    s7 = _member_set_wide(
        c7["res"].pipeline.overlap, c7["res"].cert.shifts, hull7, Fraction(0)
    )
    entries["overlap_greedy"], probs = _density_entry(
        s7, c7["res"].cert.shifts, hull7, exact=False
    )
    problems += [f"overlap_greedy: {p}" for p in probs]
    # the baseline covers the same range straight from the raw difference set
    entries["difference_baseline"], probs = _density_entry(
        c7["diff"], c7["res"].baseline.shifts, hull7, exact=True
    )
    problems += [f"difference_baseline: {p}" for p in probs]
    hull_b = Window(-200, 200)
    for i, r in enumerate(store["crit7_bern"][:5]):
        s = _member_set_wide(r.pipeline.overlap, r.cert.shifts, hull_b, Fraction(0))
        entries[f"bernoulli_{i}"], probs = _density_entry(
            s, r.cert.shifts, hull_b, exact=False
        )
        problems += [f"bernoulli_{i}: {p}" for p in probs]
    hull8 = Window(-100, 100)
    r8 = store["crit8"]["res"]
    s8 = _member_set_wide(r8.pipeline.overlap, r8.cert.shifts, hull8, Fraction(0))
    entries["intersect"], probs = _density_entry(
        s8, r8.cert.shifts, hull8, exact=True
    )
    problems += [f"intersect: {p}" for p in probs]
    return {"covers": entries, "problems": problems}


def test_criterion_09():
    t0 = time.perf_counter()
    rep = _crit9(_STORE)
    _REPORTS[9] = to_jsonable({k: v for k, v in rep.items() if k != "problems"})
    binding = {
        n: f"{e['estimate']} >= {e['threshold']}"
        for n, e in rep["covers"].items()
        if e["threshold"] > 0
    }
    _verdict(
        9,
        not rep["problems"],
        f"density consequence on {len(rep['covers'])} covers; binding: {binding}"
        + ("" if not rep["problems"] else f"; {rep['problems']}"),
        time.perf_counter() - t0,
    )


# -- criterion 10: embeddability property families ------------------------------


def _rand_set(rng, window, denom=2):
    s = bernoulli_set(window, Fraction(1, denom), rng.subseed())
    return IntSet(window, s.bits | 1)


def _brute_witness(pat, y, srange):
    members = set(y.members())
    for t in range(srange.lo, srange.hi + 1):
        if all(e + t in members for e in pat.elems):
            return t
    return None


def _f_containment(rng):
    length = rng.randint(24, 160)
    w = Window(0, length - 1)
    y = _rand_set(rng, w)
    mask = bernoulli_set(w, Fraction(2, 3), rng.subseed()).bits
    x = IntSet(w, (y.bits & mask) | (y.bits & -y.bits))
    m = rng.randint(1, min(16, length))
    rep = window_embeddable(x, y, m, Window(0, length - m))
    return rep.ok


def _f_report_faithful(rng):
    length = rng.randint(24, 120)
    w = Window(0, length - 1)
    x = _rand_set(rng, w)
    y = _rand_set(rng, w, denom=rng.randint(2, 3))
    if rng.below(2) == 0:
        y = IntSet(w, y.bits | x.bits)  # force the embeddable branch sometimes
    m = rng.randint(1, 5)
    srange = Window(0, length - m)
    rep = window_embeddable(x, y, m, srange)
    if rep.ok:
        for a in range(x.window.lo, x.window.hi - m + 2):
            chunk = (x.bits >> (a - x.window.lo)) & ((1 << m) - 1)
            if chunk == 0:
                continue
            pat = Pattern(tuple(i for i in range(m) if (chunk >> i) & 1))
            if _brute_witness(pat, y, srange) is None:
                return False
        return True
    # the reported failure must be a real trace of X with no witness at all
    a = rep.failing_offset
    chunk = (x.bits >> (a - x.window.lo)) & ((1 << m) - 1)
    pat = Pattern(tuple(i for i in range(m) if (chunk >> i) & 1))
    if pat != rep.failing_pattern:
        return False
    return _brute_witness(pat, y, srange) is None


def _f_witness_least(rng):
    length = rng.randint(24, 120)
    w = Window(0, length - 1)
    y = _rand_set(rng, w)
    span = rng.randint(1, 12)
    elems = sorted({0, span} | {rng.below(span) for _ in range(3)})
    pat = Pattern(tuple(elems))
    srange = Window(0, length - 1 - span)
    return embed_witness(pat, y, srange) == _brute_witness(pat, y, srange)


def _f_periodic_shifts(rng):
    length = rng.randint(16, 96)
    x = _rand_set(rng, Window(0, length - 1))
    period = length + rng.below(32)
    yw = Window(period, 2 * period + length - 1)
    y = IntSet(yw, x.shift(period).bits | (x.shift(2 * period).bits << period))
    m = rng.randint(1, min(12, length))
    rep = window_embeddable(x, y, m, Window(yw.lo, yw.hi - m + 1))
    if not rep.ok:
        return False
    # bounded differences survive the transport
    dx, dy = difference_set(x, x), difference_set(y, y)
    return all(d in dy for d in dx.members() if 0 <= d < m)


def _f_ap_transport(rng):
    length = rng.randint(32, 96)
    x = _rand_set(rng, Window(0, length - 1))
    k = rng.randint(3, 5)
    d = rng.randint(1, max(1, (length - 1) // (k - 1)))
    start = rng.below(length - (k - 1) * d)
    x = IntSet(x.window, x.bits | sum(1 << (start + j * d) for j in range(k)))
    found = find_ap(x, k)
    if found is None:
        return False
    s0, d0 = found
    period = length + rng.below(16)
    yw = Window(period, 2 * period + length - 1)
    y = IntSet(yw, x.shift(period).bits | (x.shift(2 * period).bits << period))
    pat = Pattern(tuple(j * d0 for j in range(k)))
    srange = Window(yw.lo, yw.hi - (k - 1) * d0)
    if embed_witness(pat, y, srange) is None:
        return False
    return find_ap(y, k) is not None


def _f_shiftset_monotone(rng):
    span = rng.randint(2, 20)
    elems = sorted({0} | {rng.randint(1, span) for _ in range(4)})
    ext = elems[-1] + rng.randint(1, 8)
    base = Pattern(tuple(elems))
    extended = Pattern(tuple(elems) + (ext,))
    length = ext + rng.randint(8, 128)
    yw = Window(0, length - 1)
    y = _rand_set(rng, yw)
    srange = Window(0, length - 1 - ext)
    ss_base = shift_set_of(base, y, srange)
    ss_ext = shift_set_of(extended, y, srange)
    if ss_ext.bits & ~ss_base.bits:
        return False
    n = rng.randint(1, srange.length)
    return (
        dense_embed_est(extended, y, srange, n).value
        <= dense_embed_est(base, y, srange, n).value
    )


_FAMILIES = [
    ("containment_embeds", _f_containment),
    ("report_faithful", _f_report_faithful),
    ("witness_least", _f_witness_least),
    ("periodic_shifts", _f_periodic_shifts),
    ("ap_transport", _f_ap_transport),
    ("shiftset_monotone", _f_shiftset_monotone),
]


def _crit10(store):
    results = {}
    violations = 0
    for fi, (name, fn) in enumerate(_FAMILIES):
        bad = 0
        for i in range(200):
            rng = Stream(stream_value(SEED + 10 + fi, i))
            if not fn(rng):
                bad += 1
        results[name] = {"instances": 200, "violations": bad}
        violations += bad
    return {"families": results, "violations": violations}


def test_criterion_10():
    t0 = time.perf_counter()
    rep = _crit10(_STORE)
    _REPORTS[10] = to_jsonable(rep)
    _verdict(
        10,
        rep["violations"] == 0,
        f"{len(rep['families'])} embeddability families x 200 instances, "
        f"{rep['violations']} violations",
        time.perf_counter() - t0,
        60,
    )


# -- criterion 11: piecewise Bohr witness inside a difference set --------------


def _crit11(store):
    a = residue_set(Window(0, 49_999), 7, [0, 1])
    d = difference_set(a, a)
    wit = piecewise_bohr_search(d, 1, [Fraction(1, 4)], d.window.length, q_max=8)
    problems = []
    if wit is None:
        return {"witness": None, "problems": ["no witness found"]}
    if list(wit.spec.freqs) != [Fraction(1, 7)]:
        problems.append(f"freqs {wit.spec.freqs}")
    if wit.interval != d.window:
        problems.append(f"interval {wit.interval} is not the full range")
    s = bohr_generate(wit.spec, d.window)
    if s != residue_set(d.window, 7, [0, 1, 6]):
        problems.append("generated set is not {0, +-1 mod 7}")
    chk = bohr_contained(s, d, d.window)
    if not chk.ok or chk.checked != s.count:
        problems.append("containment recheck failed")
    return {
        "freqs": list(wit.spec.freqs),
        "eps": wit.spec.eps,
        "interval": wit.interval,
        "generated_count": s.count,
        "checked": chk.checked,
        "problems": problems,
    }


def test_criterion_11():
    t0 = time.perf_counter()
    rep = _crit11(_STORE)
    _REPORTS[11] = to_jsonable({k: v for k, v in rep.items() if k != "problems"})
    _verdict(
        11,
        not rep["problems"],
        f"Bohr witness freqs {rep.get('freqs')} over the full difference range, "
        f"{rep.get('checked')} members rechecked"
        + ("" if not rep["problems"] else f"; {rep['problems']}"),
        time.perf_counter() - t0,
        10,
    )


# -- criterion 12: determinism on a second run ----------------------------------


_CRITERIA = {
    1: _crit1, 2: _crit2, 3: _crit3, 4: _crit4, 5: _crit5, 6: _crit6,
    7: _crit7, 8: _crit8, 9: _crit9, 10: _crit10, 11: _crit11,
}

_REPORT_KEYS_DROPPED = ("ok", "problems")


def _canonical(rep):
    return to_jsonable({k: v for k, v in rep.items() if k not in _REPORT_KEYS_DROPPED})


def _first_run_reports():
    """The criterion 1-11 reports of the first run; a test run alone builds them here."""
    for k, fn in _CRITERIA.items():
        if k not in _REPORTS:
            _REPORTS[k] = _canonical(fn(_STORE))
    return _REPORTS


def test_criterion_12():
    t0 = time.perf_counter()
    first = _first_run_reports()
    store = {}
    mismatches = []
    for k, fn in _CRITERIA.items():
        got = _canonical(fn(store))
        want = first[k]
        if got != want:
            fields = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))
            mismatches.append(f"criterion {k} differs in fields {fields}")
    _verdict(
        12,
        not mismatches,
        "criteria 1-11 reports identical on a second run"
        + ("" if not mismatches else f"; {mismatches}"),
        time.perf_counter() - t0,
    )


# -- cross-change behaviour gate -------------------------------------------------

_DIGESTS = Path(__file__).parent / "golden" / "acceptance_digests.json"


def _digest(rep) -> str:
    text = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_acceptance_digests_frozen():
    """The canonical criterion 1-11 reports hash to the digests frozen in tests/golden."""
    got = {str(k): _digest(rep) for k, rep in _first_run_reports().items()}
    want = json.loads(_DIGESTS.read_text())
    assert got == want
