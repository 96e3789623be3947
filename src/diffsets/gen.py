"""Deterministic set generators, certified at generation time.

Every kind is a pure function of its GenSpec: same spec, same bits, on any
platform.  Randomness comes from the counter-mode SplitMix64 stream in prng
(element i of the window draws stream value i), so parallel or chunked
generation cannot reorder draws.  The structured kinds (blocks, thick_triple,
chain_in_thick) re-verify their advertised postconditions on every call
rather than trusting the construction.

GenSpec JSON: {"kind": ..., "window": [lo, hi], "seed": s, ...params}.
Rational parameters travel as strings ("3/10"), never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import intset
from .density import thick_witness
from .errors import InfeasibleError, InputError, VerificationError
from .intset import (
    IntSet,
    Window,
    check_window_length,
    complement_in,
    difference_set,
    empty_set,
    from_bit_vector,
    full_set,
    intersect,
    make_set,
    minus,
    periodic_vector,
    restrict,
)
from .prng import stream_block
from .report import parse_fraction

__all__ = [
    "GenSpec",
    "gen",
    "spec_to_json",
    "spec_from_json",
    "bernoulli_set",
    "residue_set",
    "ap_union_set",
    "blocks_set",
    "thick_triple",
    "thick_triple_bounds",
    "chain_in_thick",
]

KINDS = ("bernoulli", "residues", "ap_union", "blocks", "thick_triple", "chain_in_thick")


@dataclass(frozen=True, eq=True)
class GenSpec:
    kind: str
    window: Window
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown generator kind {self.kind!r}")


def spec_to_json(spec: GenSpec) -> dict:
    d = {"kind": spec.kind, "window": [spec.window.lo, spec.window.hi], "seed": spec.seed}
    d.update(spec.params)
    return d


def spec_from_json(data: dict) -> GenSpec:
    if not isinstance(data, dict):
        raise InputError("generator spec must be a JSON object")
    data = dict(data)
    try:
        kind = data.pop("kind")
        lo, hi = data.pop("window")
    except KeyError as e:
        raise InputError(f"generator spec missing field {e.args[0]!r}") from None
    except (TypeError, ValueError):
        raise InputError("generator window must be a [lo, hi] pair") from None
    window = Window(_integer(lo, "window"), _integer(hi, "window"))
    check_window_length(window, "gen spec field 'window'")
    return GenSpec(kind, window, _integer(data.pop("seed", 0), "seed"), data)


def _integer(value, name: str) -> int:
    """An integer spec field, as int() reads it; anything int() refuses is an input error, and
    so is a boolean or a float, which int() would read as 0 or 1 or truncate."""
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (ValueError, TypeError):
            pass
    raise InputError(f"cannot parse {name} = {value!r} as an integer")


def _array(value, name: str) -> list:
    """A list spec field; a number or a string in its place is an input error."""
    if not isinstance(value, list):
        raise InputError(f"{name} must be a JSON array, got {value!r}")
    return value


def _rational(value, name: str) -> Fraction:
    """Exact rational from an int or a 'p/q' / decimal string; floats refused."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{name} must be an exact rational string like '3/10', not a float")
    return parse_fraction(value, name)


def _take(params: dict, allowed: dict, kind: str) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise InputError(f"{kind} does not accept parameter(s) {sorted(unknown)}")
    out = dict(allowed)
    out.update(params)
    return out


# -- kinds ----------------------------------------------------------------------

# Window positions drawn per block of bernoulli_set: a block's uint64 draws and
# their scratch (16 bytes a position) stay in cache.  At 4*10^5 positions (2 vCPU,
# min of 25 calls, two runs) 2^12 took 3.1-3.2 ms, 2^14 2.0-2.1 ms, 2^15 2.1 ms,
# 2^16 3.6 ms and the whole window in one block 4.7-5.1 ms.
_DRAW_CHUNK = 1 << 15


def bernoulli_set(window: Window, p: Fraction, seed: int) -> IntSet:
    """Each window element kept independently with probability p.

    Element at offset i is kept iff stream_value(seed, i) <= T with
    T = (p.num * 2^64 - 1) // p.den, so the inclusion probability is the
    closest achievable to p from a single 64-bit draw (exact when p has a
    power-of-two denominator).
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError("bernoulli probability must be in [0, 1]")
    if p == 0:
        return empty_set(window)
    if p == 1:
        return full_set(window)
    threshold = np.uint64((p.numerator * (1 << 64) - 1) // p.denominator)
    keep = np.empty(window.length, dtype=bool)
    for start in range(0, window.length, _DRAW_CHUNK):  # counter mode: blocks draw as the whole
        part = keep[start : start + _DRAW_CHUNK]
        np.less_equal(stream_block(seed, start, len(part)), threshold, out=part)
    return from_bit_vector(keep, window)


def residue_set(window: Window, modulus: int, classes) -> IntSet:
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if modulus > intset.MAX_WINDOW_LENGTH:  # the residue table holds one entry per residue
        raise InputError(f"modulus {modulus} is over the cap of {intset.MAX_WINDOW_LENGTH}")
    cls = sorted({_integer(c, "classes") for c in classes})
    if any(not 0 <= c < modulus for c in cls):
        raise InputError(f"residue classes must lie in [0, {modulus})")
    table = np.zeros(modulus, dtype=bool)
    table[cls] = True
    return from_bit_vector(periodic_vector(table, window.lo, window.length), window)


def ap_union_set(window: Window, aps) -> IntSet:
    """Union of two-sided arithmetic progressions; each entry is [a, d]."""
    keep = np.zeros(window.length, dtype=bool)
    seen_any = False
    for entry in aps:
        try:
            a, d = (_integer(v, "aps") for v in entry)
        except (TypeError, ValueError):
            raise InputError("each progression must be an [a, d] pair") from None
        if d < 1:
            raise InputError("progression step must be >= 1")
        seen_any = True
        keep[(a - window.lo) % d :: d] = True
    if not seen_any:
        raise InputError("ap_union needs at least one progression")
    return from_bit_vector(keep, window)


def _block_intervals(window: Window, scale: int):
    """Blocks [scale*k^3, scale*k^3 + k] clipped to the window, k = 1, 2, ..."""
    k = 1
    while True:
        lo = scale * k * k * k
        hi = lo + k
        if lo > window.hi:
            return
        if hi >= window.lo:
            yield k, max(lo, window.lo), min(hi, window.hi)
        k += 1


def blocks_set(window: Window, scale: int) -> IntSet:
    """Super-increasing interval union: thick, with thick complement.

    Verified on generation: the largest block fully inside the window is
    matched by an equally long run in the complement.
    """
    if scale < 1:
        raise InputError("scale must be >= 1")
    keep = np.zeros(window.length, dtype=bool)  # a block may span the whole window
    best_full = 0
    for k, lo, hi in _block_intervals(window, scale):
        keep[lo - window.lo : hi - window.lo + 1] = True
        if lo == scale * k * k * k and hi == scale * k * k * k + k:
            best_full = max(best_full, k + 1)
    if best_full == 0:
        raise InputError("window holds no complete block; widen it or lower the scale")
    out = from_bit_vector(keep, window)
    if thick_witness(out, best_full) is None:
        raise VerificationError("blocks lost their own longest interval")
    if thick_witness(complement_in(out, window), best_full) is None:
        raise InfeasibleError(
            "window too tight for a thick complement at the block scale; widen it"
        )
    return out


def thick_triple_bounds(scale: int, blocks: int) -> Window:
    """Smallest window on which thick_triple(scale, blocks) can materialize.

    A window longer than the cap is an input error naming the field that
    makes it so, decided before 4**blocks is built: the window is longer than
    2 * shift > 4**(blocks + 1), over the cap once blocks + 1 passes half its
    bit length.
    """
    cap = intset.MAX_WINDOW_LENGTH
    over = f"is over the cap: thick_triple's window would be longer than {cap}"
    if blocks + 1 > cap.bit_length() // 2 or _triple_window(1, blocks).length > cap:
        raise InputError(f"blocks {blocks} {over}")
    need = _triple_window(scale, blocks)
    if need.length > cap:
        raise InputError(f"scale {scale} {over}")
    return need


def _triple_window(scale: int, blocks: int) -> Window:
    g = 4 * scale * (blocks + 1)
    shift = g * 4 ** (blocks + 1)
    top_a = g * 4**blocks + scale * blocks
    lo = g * 4 - top_a - shift
    hi = shift + top_a
    return Window(lo, hi)


def thick_triple(window: Window, scale: int, blocks: int):
    """Three thick sets with thick complements and A - B ⊆ C, certified.

    A is a union of blocks [g*4^k, g*4^k + scale*k]; B = A + shift for a
    shift dwarfing A's span, so A - B = (A - A) - shift lands in K^2 short
    bands; C is exactly that band union.  All six thickness facts and the
    difference containment are re-verified before returning.
    """
    if scale < 1 or blocks < 2:
        raise InputError("need scale >= 1 and blocks >= 2")
    need = thick_triple_bounds(scale, blocks)
    if window.lo > need.lo or window.hi < need.hi:
        raise InputError(
            f"window {window} cannot hold the construction; need at least {need}"
        )
    g = 4 * scale * (blocks + 1)
    shift = g * 4 ** (blocks + 1)
    starts = [g * 4**k for k in range(1, blocks + 1)]
    lens = [scale * k for k in range(1, blocks + 1)]
    a = make_set([x for s, ln in zip(starts, lens) for x in range(s, s + ln + 1)], window)
    b = restrict(a.shift(shift), window)
    bands = [(starts[j] - starts[k] - lens[k] - shift, starts[j] - starts[k] + lens[j] - shift)
             for j in range(blocks) for k in range(blocks)]  # a sliver of the window
    c = make_set([x for lo, hi in bands for x in range(lo, hi + 1)], window)

    want = scale  # every set and complement must hold an interval this long
    for s, name in ((a, "A"), (b, "B"), (c, "C")):
        if thick_witness(s, want) is None:
            raise VerificationError(f"{name} is not thick at the requested scale")
        if thick_witness(complement_in(s, window), want) is None:
            raise VerificationError(f"complement of {name} is not thick")
    diff = difference_set(a, b)
    if minus(diff, c):
        raise VerificationError("A - B escapes C")
    return a, b, c


def chain_in_thick(t: IntSet, count: int, window: Window) -> IntSet:
    """Greedy b_1 < b_2 < ... in the window with every b_j - b_i in T.

    Picks the least viable element each round; the viability mask is the AND
    of T shifted to each chosen point.  Greedy, so it can dead-end where a
    cleverer choice survives; that raises the infeasibility error rather
    than backtracking.  Pairwise differences are re-verified by membership
    in T, off the intersect/restrict/minus path that chose them.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    avail = full_set(window)
    chosen: list[int] = []
    while len(chosen) < count:
        if not avail:
            raise InfeasibleError(
                f"chain stuck after {len(chosen)} of {count} points; "
                "the thick set has no common continuation in this window"
            )
        v = avail.min()
        chosen.append(v)
        avail = intersect(avail, restrict(t.shift(v), window))
        avail = minus(avail, full_set(Window(window.lo, v)))  # only points above v stay
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            if chosen[j] - chosen[i] not in t:
                raise VerificationError(
                    f"difference {chosen[j] - chosen[i]} fell outside the thick set"
                )
    return make_set(chosen, window)


# -- dispatch --------------------------------------------------------------------


def gen(spec: GenSpec):
    """Materialize a GenSpec; thick_triple yields an (A, B, C) tuple."""
    kind, window, params = spec.kind, spec.window, spec.params
    if kind == "bernoulli":
        p = _take(params, {"p": "1/2"}, kind)
        return bernoulli_set(window, _rational(p["p"], "p"), spec.seed)
    if kind == "residues":
        p = _take(params, {"modulus": None, "classes": None}, kind)
        if p["modulus"] is None or p["classes"] is None:
            raise InputError("residues needs modulus and classes")
        return residue_set(window, _integer(p["modulus"], "modulus"), _array(p["classes"], "classes"))
    if kind == "ap_union":
        p = _take(params, {"aps": None}, kind)
        if p["aps"] is None:
            raise InputError("ap_union needs aps")
        return ap_union_set(window, _array(p["aps"], "aps"))
    if kind == "blocks":
        p = _take(params, {"scale": 1}, kind)
        return blocks_set(window, _integer(p["scale"], "scale"))
    if kind == "thick_triple":
        p = _take(params, {"scale": 4, "blocks": 3}, kind)
        return thick_triple(window, _integer(p["scale"], "scale"), _integer(p["blocks"], "blocks"))
    if kind == "chain_in_thick":
        p = _take(params, {"count": None, "thick": None}, kind)
        if p["count"] is None:
            raise InputError("chain_in_thick needs count")
        if p["thick"] is None:
            span = max(1, window.length - 1)
            t = blocks_set(Window(1, span), 1)
        else:
            nested = spec_from_json(p["thick"])
            t = gen(nested)
            if not isinstance(t, IntSet):
                raise InputError("nested thick spec must yield a single set")
        return chain_in_thick(t, _integer(p["count"], "count"), window)
