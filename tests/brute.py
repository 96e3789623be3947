"""Slow reference implementations the library must agree with.

Everything here is written the dumbest way on purpose: plain Python sets,
plain loops, Fractions.  No bit tricks, no numpy, no shared code with the
package.  Expected values frozen into the test files were produced by these
functions and checked by hand where a hand check was feasible.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations


def window_counts(members, lo: int, hi: int, n: int):
    """Count of members in [x+1, x+n] for every offset x in [lo-1, hi-n]."""
    out = {}
    for x in range(lo - 1, hi - n + 1):
        out[x] = sum(1 for v in range(x + 1, x + n + 1) if v in members)
    return out


def upper_banach(members, lo: int, hi: int, n: int):
    counts = window_counts(members, lo, hi, n)
    best = max(counts.values())
    at = min(x for x, c in counts.items() if c == best)
    return Fraction(best, n), at


def lower_banach(members, lo: int, hi: int, n: int):
    counts = window_counts(members, lo, hi, n)
    worst = min(counts.values())
    at = min(x for x, c in counts.items() if c == worst)
    return Fraction(worst, n), at


def anchored_min(members, lo_i: int, hi_i: int):
    """(min of |A ∩ [1,i]| / i, least attaining i) over i in [lo_i, hi_i]."""
    best = None
    at = None
    for i in range(lo_i, hi_i + 1):
        v = Fraction(sum(1 for x in members if 1 <= x <= i), i)
        if best is None or v < best:
            best, at = v, i
    return best, at


def anchored_max(members, lo_i: int, hi_i: int):
    best = None
    at = None
    for i in range(lo_i, hi_i + 1):
        v = Fraction(sum(1 for x in members if 1 <= x <= i), i)
        if best is None or v > best:
            best, at = v, i
    return best, at


def schnirelmann(members, n: int):
    return anchored_min(members, 1, n)


def longest_run(members):
    """(start, length) of the longest interval of consecutive members."""
    if not members:
        return None
    best_start, best_len = None, 0
    for x in sorted(members):
        if x - 1 in members:
            continue
        length = 0
        while x + length in members:
            length += 1
        if length > best_len:
            best_start, best_len = x, length
    return best_start, best_len


def piecewise_syndetic_witness(members, lo: int, hi: int, g: int, length: int):
    """(x, x + length - 1) for the least x in [lo, hi - length + 1] such that every v
    in that interval has a member in [v - g + 1, v], or None.  With g = 1 that is
    the least interval of members."""
    ordered = sorted(members)

    def covered(v):
        below = bisect_right(ordered, v)  # members <= v
        return below > 0 and v - ordered[below - 1] < g

    for x in range(lo, hi - length + 2):
        if all(covered(v) for v in range(x, x + length)):
            return x, x + length - 1
    return None


def difference(a, b):
    return {x - y for x in a for y in b}


def sumset(a, b):
    return {x + y for x in a for y in b}


def convolve(u, v):
    """c[k] = sum of u[i] * v[k - i] over every i, as a list of ints."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def shift_intersection(a, t: int):
    """A ∩ (A - t) as a plain set: members x with x and x + t both in A."""
    return {x for x in a if x + t in a}


def eps_delta(members, lo: int, hi: int, eps: Fraction, n: int, ts):
    """Shifts t whose intersection beats eps via the best length-n window."""
    out = set()
    for t in ts:
        inter = shift_intersection(members, t)
        wlo, whi = max(lo, lo - t), min(hi, hi - t)
        value, _ = upper_banach(inter, wlo, whi, n)
        if value > eps:
            out.add(t)
    return out


def embed_shifts(pattern, y, s_lo: int, s_hi: int):
    return {t for t in range(s_lo, s_hi + 1) if all(t + e in y for e in pattern)}


def trace_classes(bits, m: int):
    """(ids, firsts): ids[i] is the rank of the 0/1 string bits[i : i + m] among the distinct
    length-m windows, firsts[k] the least offset of the window ranked k."""
    windows = [tuple(bits[i : i + m]) for i in range(len(bits) - m + 1)]
    ranked = sorted(set(windows))
    rank = {w: k for k, w in enumerate(ranked)}
    return [rank[w] for w in windows], [windows.index(w) for w in ranked]


def trace(members, theta: int, n: int):
    """(C - theta) ∩ [1, n] as a sorted tuple."""
    return tuple(i for i in range(1, n + 1) if theta + i in members)


def prefix_dense(members, big: int, n: int, gamma: Fraction):
    """Offsets theta in [0, big - n] where every prefix count meets gamma*i."""
    out = set()
    for theta in range(0, big - n + 1):
        if all(
            len([v for v in members if theta < v <= theta + i]) >= gamma * i
            for i in range(1, n + 1)
        ):
            out.add(theta)
    return out


def best_alignment(c, d, big: int, nu: int):
    """(least maximizing x in [1, big], count) of |(C - x) ∩ D| over [1, nu]."""
    best_x, best_c = None, -1
    for x in range(1, big + 1):
        cnt = sum(1 for v in range(1, nu + 1) if v in d and v + x in c)
        if cnt > best_c:
            best_x, best_c = x, cnt
    return best_x, best_c


def bohr_members(freqs, eps: Fraction, shift: int, lo: int, hi: int):
    out = set()
    for x in range(lo, hi + 1):
        ok = True
        for r in freqs:
            v = (r * (x - shift)) % 1
            if min(v, 1 - v) >= eps:
                ok = False
                break
        if ok:
            out.add(x)
    return out


def bohr_search(members, lo: int, hi: int, freqs, eps_grid, l_min: int, shifts):
    """First spec, in trial order, whose longest interval free of S minus D is longest.

    Trial order: subsets of freqs by ascending size, each size in
    lexicographic order, then eps descending, then shifts as given; runs
    shorter than l_min do not count.  Returns (freqs, eps, shift, (start,
    end), members of S in the interval, coverage) or None; no early stop.
    """
    eps_values = sorted(set(eps_grid), reverse=True)
    best = None
    for size in range(1, len(freqs) + 1):
        for combo in combinations(freqs, size):
            for eps in eps_values:
                for shift in shifts:
                    s = bohr_members(combo, eps, shift, lo, hi)
                    clean = {x for x in range(lo, hi + 1) if x not in s or x in members}
                    run = longest_run(clean)
                    if run is None or run[1] < l_min:
                        continue
                    start, length = run
                    if best is None or length > best[3][1] - best[3][0] + 1:
                        end = start + length - 1
                        inside = len([x for x in s if start <= x <= end])
                        best = (tuple(combo), eps, shift, (start, end), inside,
                                Fraction(inside, length))
    return best


def fraction_floor(gamma: Fraction, n: int):
    """Largest j/i < gamma with 1 <= i <= n, 0 <= j <= i, by full enumeration."""
    best = None
    for i in range(1, n + 1):
        for j in range(0, i + 1):
            v = Fraction(j, i)
            if v < gamma and (best is None or v > best):
                best = v
    return best


def block_walk(members, big: int, n: int, gamma: Fraction):
    """(visits, region size, gamma floor) of the block walk over [0, big - n].

    On a prefix-dense offset the walk steps by 1 and counts a visit; elsewhere
    it jumps by the least prefix length whose count misses gamma * i.
    """
    region = prefix_dense(members, big, n, gamma)
    theta, visits = 0, 0
    while theta <= big - n:
        if theta in region:
            visits += 1
            theta += 1
            continue
        theta += next(
            i
            for i in range(1, n + 1)
            if len([v for v in members if theta < v <= theta + i]) < gamma * i
        )
    return visits, len(region), fraction_floor(gamma, n)


def splitmix64(seed: int, i: int) -> int:
    """Value i of the counter-mode SplitMix64 stream of seed: the 64-bit finalizer
    (Steele, Lea, Flood, OOPSLA 2014) of seed + (i + 1) * 0x9E3779B97F4A7C15."""
    mask = (1 << 64) - 1
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def bernoulli_members(lo: int, hi: int, p: Fraction, seed: int):
    """Window positions lo + i whose draw splitmix64(seed, i) is at most
    (p.numerator * 2^64 - 1) // p.denominator: none at p = 0, all at p = 1."""
    threshold = (p.numerator * 2**64 - 1) // p.denominator
    return {lo + i for i in range(hi - lo + 1) if splitmix64(seed, i) <= threshold}


def residue_members(lo: int, hi: int, modulus: int, classes):
    classes = set(classes)
    return {x for x in range(lo, hi + 1) if x % modulus in classes}


def ap_union_members(lo: int, hi: int, aps):
    """Window points on some two-sided progression a + dZ, for [a, d] in aps."""
    return {x for x in range(lo, hi + 1) if any((x - a) % d == 0 for a, d in aps)}


def thick_triple_members(lo: int, hi: int, scale: int, blocks: int):
    """(A, B, C) on [lo, hi]: A the blocks [g * 4^k, g * 4^k + scale * k] for k = 1..blocks,
    g = 4 * scale * (blocks + 1), B = A + g * 4^(blocks + 1) and C = A - B."""
    g = 4 * scale * (blocks + 1)
    a = {g * 4**k + i for k in range(1, blocks + 1) for i in range(scale * k + 1)}
    b = {x + g * 4 ** (blocks + 1) for x in a}
    return tuple({x for x in s if lo <= x <= hi} for s in (a, b, difference(a, b)))


def list_file(members) -> str:
    """The list format of a set: its members in increasing order, one per line."""
    return "".join(f"{x}\n" for x in sorted(members))


def read_list_file(text: str, path: str, cap: int):
    """(lo, hi, sorted members) of a list file's text, one int() per stripped line.

    ``cap`` is the longest window admitted.  A refused file raises ValueError
    carrying the message the reader gives for it.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: a list file with no number is refused; write the empty set "
                         "in bits format")
    members = []
    for ln in lines:
        try:
            members.append(int(ln))
        except ValueError:
            raise ValueError(f"{path}: not a set file") from None
    lo, hi = min(members), max(members)
    if hi - lo + 1 > cap:
        raise ValueError(
            f"{path}: window Window({lo}, {hi}) has length {hi - lo + 1}, over the cap of {cap}"
        )
    return lo, hi, sorted(set(members))
