"""Finite embeddability: where do shifted copies of a pattern live inside a set.

A Pattern is a finite nonempty set of integers (kept sorted).  The shift set
of a pattern F inside Y is {t : t + F ⊆ Y}, computed word-parallel as the
intersection of the shifted copies Y - e over e in F.  The search range must
satisfy srange + F ⊆ Y's window so that absence is meaningful, never an
artifact of clipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .density import DensityEstimate, upper_banach_est
from .errors import InputError
from .intset import IntSet, Window, bit_vector, combine_shifts

__all__ = [
    "Pattern",
    "EmbedWitness",
    "WindowEmbedReport",
    "shift_set_of",
    "embed_witness",
    "dense_embed_est",
    "trace_classes",
    "trace_pattern",
    "distinct_traces",
    "window_embeddable",
    "find_ap",
]


@dataclass(frozen=True)
class Pattern:
    """Finite nonempty integer configuration, elements strictly increasing."""

    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elems:
            raise InputError("empty pattern")
        if any(a >= b for a, b in zip(self.elems, self.elems[1:])):
            raise InputError("pattern elements must be strictly increasing")

    def shift(self, t: int) -> "Pattern":
        return Pattern(tuple(e + t for e in self.elems))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def differences(self) -> list[int]:
        """The positive differences x - y of the pattern, ascending and distinct."""
        return sorted({x - y for x in self.elems for y in self.elems if x > y})


@dataclass(frozen=True)
class EmbedWitness:
    """A shift t with t + pattern ⊆ the target set."""

    t: int
    pattern: Pattern


def _check_srange(f: Pattern, y: IntSet, srange: Window) -> None:
    if srange.lo + f.elems[0] < y.window.lo or srange.hi + f.elems[-1] > y.window.hi:
        raise InputError(
            f"search range {srange} + pattern span exceeds target window {y.window}"
        )


def shift_set_of(f: Pattern, y: IntSet, srange: Window) -> IntSet:
    """{t in srange : t + F ⊆ Y} as an IntSet on srange."""
    _check_srange(f, y, srange)
    return combine_shifts(y, [-e for e in f.elems], srange)  # t + e in Y for every e


def embed_witness(f: Pattern, y: IntSet, srange: Window) -> EmbedWitness | None:
    """Least shift in srange embedding F into Y, or None."""
    s = shift_set_of(f, y, srange)
    if not s:
        return None
    return EmbedWitness(s.min(), f)


def dense_embed_est(f: Pattern, y: IntSet, srange: Window, n: int) -> DensityEstimate:
    """Best length-n window density of the shift set of F inside Y."""
    return upper_banach_est(shift_set_of(f, y, srange), n)


@dataclass(frozen=True)
class WindowEmbedReport:
    ok: bool
    m: int
    checked: int
    failing_offset: int | None = None
    failing_pattern: Pattern | None = None


DIRECT_BITS = 16  # widest window labelled by its own code: a 2^16-entry presence table
TRACE_LIST_CAP = 4096  # most distinct traces distinct_traces lists


def trace_classes(vec: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, firsts): ids[i] labels vec[i : i + m], equal exactly for equal windows; firsts[k]
    is the least i labelled k.  The labels rank the windows as 0/1 strings, so an all-zero
    window is labelled 0.

    A window of q = min(m, 16) bits is read as its code, first bit most significant, so code
    order is string order: the ranks are a 2^q presence table's cumulative sum read at each
    code, and np.minimum.at takes each class's least offset, with no sort.  For m > 16 the
    length-p labels at i and i + s (s <= p) pair into length-(p + s) labels, re-ranked by a
    stable sort, from p = 16 until p = m; the labels stay exact and small for any m.
    """
    if not 1 <= m <= len(vec):
        raise InputError(f"trace length m = {m} not in [1, {len(vec)}]")
    p = min(m, DIRECT_BITS)
    n = len(vec) - p + 1
    codes = np.zeros(n, dtype=np.int32)
    for j in range(p):
        codes <<= 1
        codes |= vec[j : j + n]
    present = np.zeros(1 << p, dtype=bool)
    present[codes] = True
    rank = np.cumsum(present, dtype=np.int32) - 1
    ids = rank[codes]
    del codes  # freed before the offsets are allocated
    firsts = np.full(int(rank[-1]) + 1, n, dtype=np.int32)
    np.minimum.at(firsts, ids, np.arange(n, dtype=np.int32))
    while p < m:
        s = min(p, m - p)
        keys = ids[: len(ids) - s].astype(np.int64) * len(firsts) + ids[s:]
        order = np.argsort(keys, kind="stable").astype(np.int32)
        keys = keys[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        firsts = order[first]  # the sort is stable: each class's least offset
        ids = np.empty(len(order), dtype=np.int32)
        ids[order] = np.cumsum(first, dtype=np.int32) - 1
        p += s
    return ids, firsts


def trace_pattern(vec: np.ndarray, offset: int, m: int) -> Pattern:
    """The nonempty window vec[offset : offset + m] as a pattern on [0, m)."""
    return Pattern(tuple(np.flatnonzero(vec[offset : offset + m]).tolist()))


def _labelled_traces(x: IntSet, m: int):
    """(ids, skip, traces): X's length-m window labels, skip = 1 when label 0 is the all-zero
    window (else 0), and (i, the trace at i rebased to 0) for each other class by first i."""
    vec = bit_vector(x)
    ids, firsts = trace_classes(vec, m)
    skip = 0 if vec[firsts[0] : firsts[0] + m].any() else 1
    return ids, skip, ((i, trace_pattern(vec, i, m)) for i in np.sort(firsts[skip:]).tolist())


def distinct_traces(x: IntSet, m: int) -> list[Pattern]:
    """X ∩ [lo + i, lo + i + m) rebased to 0 for each distinct nonempty trace, by first i;
    more than TRACE_LIST_CAP of them is an input error."""
    pats = [pat for _, pat in islice(_labelled_traces(x, m)[2], TRACE_LIST_CAP + 1)]
    if len(pats) > TRACE_LIST_CAP:
        raise InputError(f"more than {TRACE_LIST_CAP} distinct traces at m = {m}")
    return pats


def window_embeddable(x: IntSet, y: IntSet, m: int, srange: Window) -> WindowEmbedReport:
    """Does every nonempty length-m trace of X embed into Y over srange?

    Traces are X ∩ [a, a+m) for every a with the trace window inside X's
    window, rebased to start at 0 (the shift absorbs the position).  Distinct
    traces are searched once each, by first offset; reports the first failure.
    """
    if not 1 <= m <= x.window.length:
        raise InputError(f"trace length {m} not in [1, {x.window.length}]")
    ids, skip, traces = _labelled_traces(x, m)
    for i, pat in traces:
        if embed_witness(pat, y, srange) is None:
            checked = int(np.count_nonzero(ids[: i + 1] >= skip))
            return WindowEmbedReport(False, m, checked, x.window.lo + i, pat)
    return WindowEmbedReport(True, m, int(np.count_nonzero(ids >= skip)))


def find_ap(a: IntSet, k: int) -> tuple[int, int] | None:
    """Least (start, then difference) k-term arithmetic progression in A."""
    if k < 1:
        raise InputError("k must be >= 1")
    if not a:
        return None
    if k == 1:
        return (a.min(), 1)
    max_d = (a.window.length - 1) // (k - 1)
    starts = ((combine_shifts(a, [-j * d for j in range(k)], a.window), d)
              for d in range(1, max_d + 1))  # the starts of the progressions of difference d
    return min(((s.min(), d) for s, d in starts if s), default=None)

