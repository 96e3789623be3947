"""Bohr sets from rational frequency data, and piecewise witnesses.

Membership is decided exactly: for a rational frequency p/q the distance
from (p/q)(x - shift) to the nearest integer only depends on (x - shift)
mod q, so each frequency contributes a residue table computed by integer
cross-multiplication.  Frequencies are rationals by design; an irrational
frequency would need interval arithmetic for an exact nearest-integer
distance, and rational ones cover everything this workbench generates.

The frequency suggester is a heuristic and says so: it ranks reduced
fractions by float exponential-sum magnitude.  Nothing downstream trusts the
ranking; any witness built from it is re-verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import numpy as np

from .density import longest_run
from .errors import InputError, VerificationError
from .intset import (MAX_WINDOW_LENGTH, IntSet, Window, bit_vector, complement_in, from_bit_vector,
                     minus, periodic_vector, restrict)

__all__ = [
    "BohrSpec",
    "bohr_generate",
    "BohrContainment",
    "bohr_contained",
    "suggest_freqs",
    "PiecewiseBohrWitness",
    "piecewise_bohr_search",
]

MAX_QMAX = 256  # the suggester's cost grows with q_max^2: 0.28 s at 256 on a 10^5 window
MAX_SPECS = 1 << 12  # search trials; each regenerates a window-length Bohr set


@dataclass(frozen=True)
class BohrSpec:
    """Shifted rational Bohr set data: {x : all ||freq*(x-shift)|| < eps}."""

    freqs: tuple[Fraction, ...]
    eps: Fraction
    shift: int = 0

    def __post_init__(self) -> None:
        if not self.freqs:
            raise InputError("need at least one frequency")
        for r in self.freqs:
            if not 0 <= r < 1:
                raise InputError(f"frequency {r} outside [0, 1)")
            if r.denominator > MAX_WINDOW_LENGTH:  # its residue table has one entry per residue
                raise InputError(
                    f"frequency {r}: denominator {r.denominator} is over the cap of "
                    f"{MAX_WINDOW_LENGTH}"
                )
        if self.eps <= 0:
            raise InputError("eps must be positive")
        # anything above 1/2 makes every x a member; accepted, but trivial

    @classmethod
    def of(cls, freqs, eps, shift: int = 0) -> "BohrSpec":
        return cls(tuple(Fraction(r) for r in freqs), Fraction(eps), shift)


def _residue_table(r: Fraction, eps: Fraction) -> np.ndarray:
    """allowed[m] iff ||r * m|| < eps, for m in [0, q).

    With r = p/q and v = p*m mod q the distance to the nearest integer is
    min(v, q - v)/q, and it is below eps = a/b iff min(v, q - v) < ceil(a*q/b).
    The bound is a Python integer, clipped to q (every distance is below q);
    p*m < q^2 <= MAX_WINDOW_LENGTH^2 = 10^14 < 2^63, so the int64 pass is exact.
    """
    q, p = r.denominator, r.numerator
    v = p * np.arange(q, dtype=np.int64) % q
    bound = min(-(-eps.numerator * q // eps.denominator), q)
    return np.minimum(v, q - v) < bound


def bohr_generate(spec: BohrSpec, window: Window) -> IntSet:
    """Materialize the Bohr set on a window, membership exact per element."""
    start = window.lo - spec.shift  # a Python int: windows and shifts may sit beyond int64
    keep = np.ones(window.length, dtype=bool)
    for r in spec.freqs:
        keep &= periodic_vector(_residue_table(r, spec.eps), start, window.length)
    return from_bit_vector(keep, window)


@dataclass(frozen=True)
class BohrContainment:
    ok: bool
    checked: int
    violation_count: int
    violations: list[int]


def bohr_contained(s: IntSet, a: IntSet, interval: Window) -> BohrContainment:
    """Is S ∩ interval ⊆ A?  Lists the first few counterexamples if not."""
    for w, name in ((s.window, "candidate"), (a.window, "target")):
        if interval.lo < w.lo or interval.hi > w.hi:
            raise InputError(f"interval {interval} outside the {name} window {w}")
    s_in = restrict(s, interval)
    bad = minus(s_in, a)
    listed = list(islice(bad.members(), 10))
    return BohrContainment(bad.count == 0, s_in.count, bad.count, listed)


def suggest_freqs(d: IntSet, k_max: int, q_max: int = 32) -> list[Fraction]:
    """Reduced fractions p/q (q <= q_max) ranked by exponential-sum magnitude.

    Only p <= q/2 is enumerated: p/q and (q-p)/q define the same Bohr set
    (the distance to the nearest integer ignores sign), and keeping both
    would leave their relative order to floating-point noise in conjugate
    sums.  Magnitudes are floats computed from residue counts mod q; ties
    break by (q, p).  Use the output as candidates only; anything built from
    them must be verified exactly downstream.
    """
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    if q_max < 2:
        raise InputError("q_max must be >= 2")
    vec = bit_vector(d)  # from d.window.lo, which may sit beyond int64
    scored: list[tuple[float, int, int]] = []
    residues: dict[int, np.ndarray] = {}  # q -> residue counts mod q
    for q in range(q_max, 1, -1):
        if 2 * q > q_max:  # rows of q offsets summed by column, the tail added, rolled to lo
            rows = len(vec) // q  # float64 counts: exact, and a BLAS product sums fastest
            by_offset = np.ones(rows) @ vec[: rows * q].reshape(rows, q)
            by_offset[: len(vec) - rows * q] += vec[rows * q :]
            residues[q] = np.roll(by_offset, d.window.lo % q)
        else:  # fold the counts mod 2q: residues r and r + q agree mod q
            residues[q] = residues[2 * q].reshape(2, q).sum(axis=0)
        counts = residues[q]
        angles = 2.0 * np.pi * np.arange(q) / q
        for p in range(1, q // 2 + 1):
            if gcd(p, q) != 1:
                continue
            re = float(np.dot(counts, np.cos(p * angles)))
            im = float(np.dot(counts, np.sin(p * angles)))
            scored.append((-np.hypot(re, im), q, p))
    scored.sort()
    return [Fraction(p, q) for _, q, p in scored[:k_max]]


@dataclass(frozen=True)
class PiecewiseBohrWitness:
    spec: BohrSpec
    interval: Window
    members: int
    coverage: Fraction


def piecewise_bohr_search(
    d: IntSet,
    k_max: int,
    eps_grid,
    l_min: int,
    q_max: int = 32,
    shifts=(0,),
) -> PiecewiseBohrWitness | None:
    """Search for a Bohr set whose restriction to a long interval sits in D.

    Candidate frequencies come from the heuristic suggester.  Specs are tried
    in this order: subsets by ascending size, each size in lexicographic order
    of combinations, then eps values in descending order, then the shifts in
    the order given.  For each spec the longest violation-free interval is
    found exactly; the first spec attaining the maximum length, if that is at
    least l_min, wins (least start within a spec).  The search stops once a
    run spans the whole window: no later spec can beat that length, and a tie
    goes to the earlier spec, so the winner is the one the full order would
    pick.  The winner is re-verified via bohr_contained.  A q_max over
    MAX_QMAX, or more than MAX_SPECS trials, is refused before the search runs.
    """
    if l_min < 1:
        raise InputError("l_min must be >= 1")
    eps_values = sorted({Fraction(e) for e in eps_grid}, reverse=True)
    if not eps_values or eps_values[-1] <= 0:
        raise InputError("eps grid must be positive")
    if l_min > d.window.length and k_max >= 1 and q_max >= 2:
        return None  # no interval is that long; bad k_max or q_max still fail below
    if q_max > MAX_QMAX:
        raise InputError(f"q_max (--qmax) = {q_max} is over the cap of {MAX_QMAX}")
    freqs = suggest_freqs(d, k_max, q_max=q_max)
    trials = ((1 << len(freqs)) - 1) * len(eps_values) * len(shifts)
    if trials > MAX_SPECS:
        raise InputError(
            f"k_max (--kmax) = {k_max} gives {len(freqs)} frequencies and {trials} trials "
            f"with the eps grid and shifts, over the cap of {MAX_SPECS}"
        )
    window = d.window
    best: PiecewiseBohrWitness | None = None
    for combo, eps, shift in _trials(freqs, eps_values, shifts):
        spec = BohrSpec(combo, eps, shift)
        s = bohr_generate(spec, window)
        clean = complement_in(minus(s, d), window)
        run = longest_run(clean)
        if run is None:
            continue
        start, length = run
        if length < l_min:
            continue
        if best is None or length > best.interval.length:
            interval = Window(start, start + length - 1)
            inside = restrict(s, interval).count
            best = PiecewiseBohrWitness(spec, interval, inside, Fraction(inside, length))
            if length == window.length:
                break
    if best is not None:
        check = bohr_contained(
            bohr_generate(best.spec, window), d, best.interval
        )
        if not check.ok:
            raise VerificationError("piecewise witness failed its own recount")
    return best


def _trials(freqs, eps_values, shifts):
    """(combination, eps, shift) in the search's trial order."""
    for size in range(1, len(freqs) + 1):
        for combo in combinations(freqs, size):
            for eps in eps_values:
                for shift in shifts:
                    yield combo, eps, shift
