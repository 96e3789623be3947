"""Windowed integer sets on a dense bit-per-element representation.

An IntSet is an immutable set of integers inside a closed window [lo, hi].
Bit i of ``bits`` is element ``lo + i``, so shifts, intersections and unions
are single big-int operations; the difference set is the support of one
exact convolution (``convolve``).  Only this module knows that layout;
the others use its set algebra (the report's ``bits_hex`` only serializes
``bits``).  Operations never silently clip members: every result window is
the exact window implied by the operation, and explicit restriction is
spelled ``restrict``.  Per-element work goes through
a numpy 0/1 vector, crossing only by ``bit_vector`` and ``from_bit_vector``
(the byte-parallel Banach scan reads the packed bytes through ``bit_bytes``).
"""

from __future__ import annotations

import locale
import os
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Overflow
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

__all__ = [
    "MAX_WINDOW_LENGTH",
    "check_window_length",
    "check_anchored",
    "Window",
    "IntSet",
    "bit_bytes",
    "bit_vector",
    "from_bit_vector",
    "periodic_vector",
    "convolve",
    "make_set",
    "full_set",
    "empty_set",
    "difference_set",
    "intersect",
    "union",
    "complement_in",
    "restrict",
    "combine_shifts",
    "self_overlap",
    "minus",
    "read_set_file",
    "write_set_file",
]


@dataclass(frozen=True, order=True)
class Window:
    """Closed integer interval [lo, hi], never empty."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise InputError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def shift(self, t: int) -> "Window":
        return Window(self.lo + t, self.hi + t)

    def intersect(self, other: "Window") -> "Window":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise InputError(f"windows {self} and {other} do not overlap")
        return Window(lo, hi)

    def overlaps(self, other: "Window") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def hull(self, other: "Window") -> "Window":
        return Window(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"Window({self.lo}, {self.hi})"


# Longest window a parser admits (set files, gen specs, range flags); checked
# before anything of that length is allocated.  A window at the cap costs
# 1.25 MB as a big int, 10 MB as a byte vector and 40 MB per int32 trace-label
# array (80 MB per int64 sort-key array past 16 bits), keeps every product of
# two lengths below 2^63, and, being under 2^26, keeps the float64 ratios
# j/i that the anchored estimators compare in exact order (see density).
MAX_WINDOW_LENGTH = 10**7


def check_window_length(w: Window, what: str) -> Window:
    """w itself, or an input error naming ``what`` when w is longer than the cap."""
    if w.length > MAX_WINDOW_LENGTH:
        raise InputError(
            f"{what}: window {w} has length {w.length}, over the cap of {MAX_WINDOW_LENGTH}"
        )
    return w


def check_anchored(a: IntSet, what: str) -> int:
    """hi of a's window, or an input error naming ``what`` unless the window starts at 1."""
    if a.window.lo != 1:
        raise InputError(f"{what} must live on a window starting at 1 (got {a.window}); rebase it")
    return a.window.hi


def _mask(n: int) -> int:
    return (1 << n) - 1


_MEMBER_CHUNK = 1 << 12  # members() holds one list this long at a time, however long the window


@dataclass(frozen=True)
class IntSet:
    """Integers inside ``window``; bit i of ``bits`` is element window.lo + i.

    ``count`` is the cached population count; construction counts it from the
    bits, and no caller can pass one, so the cache can never drift from them.
    """

    window: Window
    bits: int
    count: int = field(init=False)

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.window.length:
            raise InputError("bits outside window")
        object.__setattr__(self, "count", self.bits.bit_count())

    # -- queries ------------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return x in self.window and (self.bits >> (x - self.window.lo)) & 1 == 1

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def members(self) -> Iterator[int]:
        """Members in increasing order.

        The bits come from _unpack, not the public bit_vector, so no public
        function runs inside the generator's steps: a profiler that wraps the
        public functions bills each step's time to this generator alone.
        """
        vec, lo = _unpack(self.bits, self.window.length), self.window.lo
        for start in range(0, len(vec), _MEMBER_CHUNK):
            for i in np.flatnonzero(vec[start : start + _MEMBER_CHUNK].view(bool)).tolist():
                yield lo + start + i  # Python ints: windows may sit beyond int64

    def __iter__(self) -> Iterator[int]:
        return self.members()

    def min(self) -> int:
        if not self.count:
            raise InputError("empty set has no min")
        return self.window.lo + (self.bits & -self.bits).bit_length() - 1

    def max(self) -> int:
        if not self.count:
            raise InputError("empty set has no max")
        return self.window.lo + self.bits.bit_length() - 1

    # -- basic transforms ---------------------------------------------------

    def shift(self, t: int) -> "IntSet":
        return IntSet(self.window.shift(t), self.bits)

    def __repr__(self) -> str:
        return f"IntSet({self.window!r}, count={self.count})"


def bit_bytes(a: IntSet, size: int) -> np.ndarray:
    """a's membership bits as ``size`` little-endian uint8 bytes (8 * size >= its window length)."""
    return np.frombuffer(a.bits.to_bytes(size, "little"), dtype=np.uint8)


def _unpack(bits: int, n: int) -> np.ndarray:
    """The low n bits of ``bits`` as a uint8 0/1 array, least significant first."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def bit_vector(a: IntSet) -> np.ndarray:
    """Membership bits of the window as a uint8 0/1 array."""
    return _unpack(a.bits, a.window.length)


def from_bit_vector(arr, window: Window) -> IntSet:
    """The set whose members are the window positions where arr is nonzero."""
    arr = np.asarray(arr)
    if arr.shape != (window.length,):
        raise InputError(f"bit vector of shape {arr.shape} does not fit window {window}")
    return IntSet(window, int.from_bytes(np.packbits(arr != 0, bitorder="little").tobytes(), "little"))


def periodic_vector(table: np.ndarray, start: int, length: int) -> np.ndarray:
    """Entry i is table[(start + i) % len(table)], for i < length.

    One period, rolled to start (a Python int: it may sit beyond int64), is
    doubled in place until it fills the length, with no per-position index
    arithmetic.  np.tile and a copy of np.broadcast_to copy the period once
    per repeat: at 10^5 positions mod 6 they took 45-62 and 100-137 us
    against 11-12 us here.
    """
    period = np.roll(table, -(start % len(table)))[:length]
    out = np.empty(length, dtype=table.dtype)
    out[: len(period)] = period
    filled = len(period)
    while filled < length:
        part = out[filled : 2 * filled]
        part[:] = out[: len(part)]
        filled += len(part)
    return out


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Overflow])
_LANE_BUDGET = 1 << 18  # input lanes per decimal product: bounds every product's memory ...
_LANE_CAP = 1 << 21  # ... unless both vectors are long, when it grows with the output up to this
_LANE_CHUNK = 1 << 14  # product lanes read off at once


def _lanes(vec: np.ndarray, w: int) -> Decimal:
    """The sum of vec[i] * 10^(w*i) as one decimal: a w-digit lane per position."""
    digits = np.full(len(vec) * w, ord("0"), dtype=np.uint8)
    digits[w - 1 :: w] += vec[::-1]  # most significant lane first
    text = str(digits, "ascii")
    del digits  # Decimal() copies the text once more
    return Decimal(text)


def _add_lane_product(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Add the convolution of u and v, read off one decimal product, into out (see ``convolve``)."""
    w = len(str(min(np.count_nonzero(u), np.count_nonzero(v))))
    raw = np.frombuffer(str(_EXACT.multiply(_lanes(u, w), _lanes(v, w))).encode("ascii"), np.uint8)
    lead, full = len(raw) % w, len(raw) // w  # leading zero lanes are not printed
    if lead:  # the partial lane above the full ones
        out[full] += int(raw[:lead].tobytes())
    lanes = out[:full][::-1]  # the full lanes, most significant first
    for start in range(0, full, _LANE_CHUNK):
        chunk = raw[lead + start * w : lead + (start + _LANE_CHUNK) * w]
        acc = np.zeros(len(chunk) // w, dtype=np.int64)
        for j in range(w):  # digit column j of every lane
            acc *= 10
            acc += chunk[j::w]
        acc -= ord("0") * (10**w - 1) // 9  # the ASCII offset of w digits, once per lane
        lanes[start : start + len(acc)] += acc


def _tile(n: int, most: int) -> int:
    """Length of the fewest equal tiles of at most ``most`` positions that cover n."""
    return -(-n // -(-n // most))


def convolve(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c[k] = sum_i u[i] * v[k - i] of two nonempty uint8 0/1 arrays, exact, as int64.

    Each decimal product multiplies a tile of u by a tile of v, at most a
    budget of positions between them: tiles of the shorter vector of at most
    half the budget and equal tiles of the longer one that fill the rest (so
    both whole vectors when they fit).  The budget is _LANE_BUDGET = 2^18, and
    when the shorter vector is longer than half of that, the output length up
    to _LANE_CAP = 2^21: each doubling of the budget cuts the product count
    about 4x.  Two Bernoulli 1/2 vectors of 10^6 take one product, 0.9 s and a
    36 MiB traced peak (15 MiB of it the output), not some 60 products and
    6 s; two of 2*10^6 take four, 2.7 s; two at the window cap about a
    hundred (2-vCPU x86 box).  So every product holds a bounded amount of
    digit text and libmpdec buffers, whatever the lengths.  A tile becomes one
    decimal with a w-digit lane per position, w the digits of the tile pair's
    smaller count of ones, which bounds every coefficient of their product:
    lanes never carry.  The int64 sums over tiles stay below the window cap.
    libmpdec multiplies exactly (number-theoretic transform), 2^21 lanes of at
    most 7 digits stay far below MAX_PREC, and Inexact and Overflow are
    trapped: a count is never rounded.
    """
    u, v = sorted((u, v), key=len, reverse=True)  # v is the shorter
    out = np.zeros(len(u) + len(v) - 1, dtype=np.int64)
    budget = _LANE_BUDGET
    if 2 * len(v) > budget:  # two long vectors: fewer, larger products
        budget = min(len(out), _LANE_CAP)  # len(out) >= 2 * len(v) - 1 >= the base
    v_step = _tile(len(v), budget // 2)
    u_step = _tile(len(u), budget - v_step)
    for i in range(0, len(u), u_step):
        for j in range(0, len(v), v_step):
            a, b = u[i : i + u_step], v[j : j + v_step]
            if a.any() and b.any():  # a tile of zeros adds nothing
                _add_lane_product(a, b, out[i + j : i + j + len(a) + len(b) - 1])
    return out


def make_set(members: Iterable[int], window: Window) -> IntSet:
    """Build a set from members; a member outside the window is an error."""
    xs = list(members)
    if xs and (min(xs) < window.lo or max(xs) > window.hi):
        bad = next(int(x) for x in xs if int(x) not in window)
        raise InputError(f"member {bad} outside window {window}")
    arr = np.zeros(window.length, dtype=bool)
    # Python ints may sit beyond int64; their offsets do not
    arr[np.fromiter((x - window.lo for x in xs), dtype=np.int64, count=len(xs))] = True
    return from_bit_vector(arr, window)


def full_set(window: Window) -> IntSet:
    return IntSet(window, _mask(window.length))


def empty_set(window: Window) -> IntSet:
    return IntSet(window, 0)


def _aligned(a: IntSet, lo: int, hi: int) -> int:
    """a's bits with bit 0 at integer lo, members below lo dropped; 0 when a's window
    misses [lo, hi], so no shift ever spans the distance between two windows."""
    if a.window.hi < lo or a.window.lo > hi:
        return 0
    d = lo - a.window.lo
    return a.bits >> d if d >= 0 else a.bits << -d


def _slice_onto(a: IntSet, w: Window) -> int:
    """Bits of a's members that fall inside w, in w's coordinates."""
    return _aligned(a, w.lo, w.hi) & _mask(w.length)


def restrict(a: IntSet, w: Window) -> IntSet:
    """A ∩ w materialized on window w (explicit, documented clipping)."""
    return IntSet(w, _slice_onto(a, w))


def combine_shifts(a: IntSet, shifts: Iterable[int], w: Window, union: bool = False) -> IntSet:
    """(A + t) ∩ w intersected over every t in shifts (joined with union=True), on w.

    The shifted copies are combined unmasked, so the window mask is built and
    applied once; no shifts give the full set (the empty set for a union).  A
    copy that misses w adds nothing to a union and empties an intersection.
    """
    acc = 0 if union else -1  # -1: every bit set, the identity of AND
    for t in shifts:
        bits = _aligned(a, w.lo - t, w.hi - t)
        acc = acc | bits if union else acc & bits
    return IntSet(w, acc & _mask(w.length))


def self_overlap(a: IntSet, t: int) -> IntSet:
    """A ∩ (A - t) on the overlap of A's window and its shift by -t (needs |t| < its length).

    For either sign of t, bit i of the overlap is bit i AND bit i + |t| of A,
    so one shift and one AND build it.
    """
    w = a.window.intersect(a.window.shift(-t))
    return IntSet(w, a.bits & (a.bits >> abs(t)))


def minus(a: IntSet, b: IntSet) -> IntSet:
    """A \\ B on A's window; members of B outside it are ignored."""
    return IntSet(a.window, a.bits & ~_slice_onto(b, a.window))


def intersect(a: IntSet, b: IntSet) -> IntSet:
    """A ∩ B on the window intersection (windows must overlap)."""
    w = a.window.intersect(b.window)
    return IntSet(w, _slice_onto(a, w) & _slice_onto(b, w))


def union(a: IntSet, b: IntSet) -> IntSet:
    """A ∪ B on the window hull."""
    w = a.window.hull(b.window)
    return IntSet(w, (a.bits << (a.window.lo - w.lo)) | (b.bits << (b.window.lo - w.lo)))


def complement_in(a: IntSet, w: Window) -> IntSet:
    """w \\ A on window w; members of A outside w are ignored."""
    return IntSet(w, _slice_onto(a, w) ^ _mask(w.length))


def difference_set(a: IntSet, b: IntSet) -> IntSet:
    """{x - y : x in A, y in B} on window [A.lo - B.hi, A.hi - B.lo].

    The support of A convolved with B reversed, exact: ``convolve`` multiplies
    tiles of at most 2^18 positions between them (up to 2^21 when both are
    long), with lanes as wide as the digits of the tile pair's smaller count
    of ones, so they never carry; each product stays far below MAX_PREC and
    holds some tens of MiB at most, at any window length up to the cap; and
    Inexact and Overflow are trapped.  Empty inputs give the empty set.
    """
    w = Window(a.window.lo - b.window.hi, a.window.hi - b.window.lo)
    return from_bit_vector(convolve(bit_vector(a), bit_vector(b)[::-1]), w)


# -- file formats -----------------------------------------------------------
#
# "list": one integer per line, as int() reads the line stripped of
#         whitespace; blank lines are skipped.  The window is inferred as
#         [min, max], so an empty set has no list file.
# "bits": first line "lo=<integer>", second line a string of '0'/'1' where
#         character i is membership of lo + i.  Lossless (keeps the window).
#
# The reader opens a file once, in binary, and reads it front to back once.  A
# file whose first bytes past whitespace are "lo=" is read whole, as a bits
# file.  Any other file streams through a numpy scanner as a list file, a
# bounded chunk at a time, each chunk cut after its last line end (\n or \r,
# as universal newlines end lines).  The scanner's fast grammar takes lines
# [ \t]*[+-]?[0-9]{1,18}[ \t]* (18 digits always fit int64); it keeps each
# chunk's members and their running [min, max], so a list file costs memory in
# its chunk and its members, not in its text.  From the first chunk it refuses
# to the end, the file is read as one bytes object, decoded as read_text
# decodes, and parsed one int() per line, which decides what is accepted and
# what each error says.  The writer formats a bounded block at a time too.

_DIGITS = 18
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.int64)
# Bytes of a list file scanned at once, cut after a line end.  Reading a
# Bernoulli 1/2 list file of 4*10^5 positions (1.3 MB) at 2^14, 2^15, 2^16, 2^17
# and 2^18 bytes took 11.3, 8.9, 7.9, 8.6 and 9.7 ms (median of 60), with a
# tracemalloc peak of 1.18, 1.19, 1.51, 2.23 and 3.68 MiB; one of 10^7 positions
# (39 MB, 29 MiB peak at every size) took 0.33, 0.26, 0.22, 0.21 and 0.20 s
# (2-vCPU x86 box).  Smaller chunks pay numpy's per-call cost more often; larger
# ones raise the peak of a typical file for little gain at the cap.
_TEXT_CHUNK = 1 << 16
_LIST_BLOCK = 1 << 16  # window positions formatted at once by the list writer
_NARROW = 9  # digits of a number that int32 always holds
_LF, _CR, _TAB, _SPACE, _PLUS, _MINUS, _ZERO = b"\n\r\t +-0"


def _scan_lines(raw: np.ndarray) -> np.ndarray | None:
    """The integers of whole list-file lines ``raw`` (uint8), or None off the fast grammar.

    They come in no particular order, as int32 when no number has more than
    9 digits and as int64 otherwise.  Digits and line ends are found by byte
    comparisons; signs and blanks are looked at only where they occur.
    """
    d = raw - _ZERO  # a digit's value; every other byte wraps to 10 or more
    num = d < 10  # the bytes of the numbers, once the signs join below
    end = raw == _LF
    end |= raw == _CR
    signs = blanks = 0
    others = len(raw) - np.count_nonzero(num) - np.count_nonzero(end)
    if others:  # signs or blanks, or worse
        rest = np.flatnonzero(~(num | end))
        b = raw[rest]
        sign = (b == _PLUS) | (b == _MINUS)
        if not (sign | (b == _SPACE) | (b == _TAB)).all():
            return None
        num[rest[sign]] = True
        signs = np.count_nonzero(sign)
        blanks = others - signs
    # a number is a run of bytes between two line ends or blanks (or the ends of raw)
    cuts = np.concatenate(([-1], np.flatnonzero(~num if others else end), [len(raw)]))
    width = np.diff(cuts) - 1
    runs = width > 0
    ends, ndig = cuts[1:][runs], width[runs]
    if not len(ends):
        return np.zeros(0, dtype=np.int32)
    if signs:
        starts = ends - ndig
        signed = d[starts] >= 10  # the number starts with its sign
        if np.count_nonzero(signed) != signs:  # a sign inside or after a number
            return None
        ndig -= signed
    shortest, top = int(ndig.min()), int(ndig.max())
    if shortest < 1 or top > _DIGITS:
        return None
    if blanks:  # a line end between each two numbers: most often the byte right after the first
        between = ends[:-1]  # from each number's end to the next number's end
        if not (end[between].all() or np.logical_or.reduceat(end[: ends[-1]], between).all()):
            return None
    wide = np.int64 if top > _NARROW else np.int32
    vals = np.zeros(len(ends), dtype=wide)
    digit, term = np.empty(len(ends), dtype=np.uint8), np.empty(len(ends), dtype=wide)
    at = ends - 1  # each number's digit j from the right, j = 0, 1, ...
    for j in range(top):
        np.take(d, at, out=digit, mode="clip")  # an index below 0 clips; zeroed below
        np.multiply(digit, wide(10**j), out=term)
        if j >= shortest:  # some numbers have no digit j
            term *= ndig > j
        vals += term
        at -= 1
    if signs:
        np.negative(vals, out=vals, where=raw[starts] == _MINUS)
    return vals


def _stream_list(f) -> tuple[list[np.ndarray] | None, int | None, int | None, bytes, int]:
    """(members in parts, min, max, rest, at) of the list file open in f: ``rest`` holds
    the bytes from the first chunk the fast grammar refuses to the end (b"" if none), at
    offset ``at``; min and max are None while no number is taken.

    Once [min, max] spans more than the window cap the parts are dropped (None)
    and the scan goes on for min and max alone, which the refusal names.
    """
    parts, lo, hi, at = [], None, None, 0  # at: the file offset of the next chunk
    tail = []  # the bytes read after the last line end
    while True:
        block = f.read(_TEXT_CHUNK)
        if block:
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
            if not cut:  # a line longer than a chunk goes on
                tail.append(block)
                continue
            view = memoryview(block)
            lines = b"".join([*tail, view[:cut]]) if tail else view[:cut]
            tail = [view[cut:]]
        else:
            lines, tail = b"".join(tail), []
        vals = _scan_lines(np.frombuffer(lines, dtype=np.uint8))
        if vals is None:
            return parts, lo, hi, b"".join([lines, *tail, f.read()]), at
        at += len(lines)
        if len(vals):
            least, most = int(vals.min()), int(vals.max())
            lo, hi = (least, most) if lo is None else (min(lo, least), max(hi, most))
            if parts is not None:
                parts.append(vals)
                if hi - lo >= MAX_WINDOW_LENGTH:  # refused at the end: keep no members
                    parts = None
        if not block:
            return parts, lo, hi, b"", at


def read_set_file(path: str | Path) -> IntSet:
    """Parse a set file, autodetecting the format by its first line; read once, front to back.

    The lines the fast grammar took before ``rest`` are ASCII and end at a \\n or \\r, so in
    the locale's ASCII-compatible encoding the rest decodes as a whole-file decode does from
    there, a decode error sitting ``at`` bytes further into the file; a \\r\\n split at the
    cut leaves one blank line, which is skipped; and while no number is taken those lines
    were blank, so the rest's first line is the file's, which decides a bits file.
    """
    try:
        with open(path, "rb") as f:
            if f.peek().lstrip().startswith(b"lo="):  # a bits file is read whole at once
                parts, lo, hi, at = [], None, None, 0
                # read(size) fills one buffer, where a bare read() after peek() copies once
                # more; the second read() finds what the size missed (a pipe's bytes)
                rest = f.read(os.fstat(f.fileno()).st_size) + f.read()
            else:
                parts, lo, hi, rest, at = _stream_list(f)
    except OSError as e:
        raise InputError(f"cannot read set file {path}: {e}") from e
    try:
        text = rest.decode(locale.getpreferredencoding(False))  # as read_text decodes
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not a set file (not text: {e.reason} at byte {at + e.start})") from None
    del rest
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]  # those the scanner left
    if lo is None and not lines:
        raise InputError(f"{path}: a list file with no number is refused; write the empty set "
                         "in bits format")
    if lo is None and lines[0].startswith("lo="):
        try:
            lo = int(lines[0][3:])
        except ValueError as e:
            raise InputError(f"{path}: bad bits header {lines[0]!r}") from e
        bad_row = f"{path}: bits format needs one '0'/'1' line"
        if len(lines) != 2 or not lines[1].isascii():
            raise InputError(bad_row)
        row = lines[1]
        w = check_window_length(Window(lo, lo + len(row) - 1), str(path))
        del text  # free the file's text before the row is converted
        vec = np.frombuffer(bytearray(row, "ascii"), np.uint8)
        vec -= ord("0")  # a byte below "0" wraps past 1
        if vec.max() > 1:
            raise InputError(bad_row)
        return from_bit_vector(vec, w)
    try:
        members = [int(ln) for ln in lines]
    except ValueError as e:
        raise InputError(f"{path}: not a set file") from e
    del text, lines  # free the file's lines before the window is allocated
    if members:
        least, most = min(members), max(members)
        lo, hi = (least, most) if lo is None else (min(lo, least), max(hi, most))
    w = check_window_length(Window(lo, hi), str(path))
    keep = np.zeros(w.length, dtype=bool)
    while parts:  # each part freed once scattered
        keep[parts.pop() - lo] = True  # offsets in the window fit the part's dtype
    keep[np.fromiter((x - lo for x in members), np.int64, len(members))] = True  # offsets fit int64
    return from_bit_vector(keep, w)


# Where the digit count or the sign changes along ascending int64s: the least
# negative of each digit count k < 18, zero, and the least positive of k + 1 digits.
_RUN_CUTS = np.concatenate((1 - _POW10[:0:-1], [0], _POW10[1:]))


def _digit_lines(xs: np.ndarray) -> bytes:
    """``"".join(f"{x}\\n" for x in xs)`` in ASCII, for ascending int64 xs of at most 18 digits.

    Ascending, the xs fall into at most 36 runs of one sign and one digit
    count, cut by one searchsorted.  Each run is written as fixed-width rows
    (sign, d digits, newline), digit by digit from the right, so the bytes of
    the rows are the lines themselves.
    """
    cuts = np.searchsorted(xs, _RUN_CUTS).tolist()
    out = []
    for k, (start, end) in enumerate(zip([0] + cuts, cuts + [len(xs)])):
        if start == end:
            continue
        neg = k < _DIGITS  # runs 0 .. 17: 18 down to 1 digits, negative
        d = _DIGITS - k if neg else k - _DIGITS + 1
        rows = np.empty((end - start, neg + d + 1), dtype=np.uint8)
        m = -xs[start:end] if neg else xs[start:end]
        if d < 10:  # below 10^9: int32 divides about twice as fast
            m = m.astype(np.int32)
        for col in range(neg + d - 1, neg - 1, -1):
            q = m // 10
            rows[:, col] = m - 10 * q + ord("0")
            m = q
        if neg:
            rows[:, 0] = ord("-")
        rows[:, -1] = ord("\n")
        out.append(rows.tobytes())
    return b"".join(out)


def _list_blocks(a: IntSet) -> Iterator[bytes]:
    """The list file of a, one block of window positions at a time."""
    vec, lo = bit_vector(a), a.window.lo
    narrow = max(abs(lo), abs(a.window.hi)) < 10**_DIGITS
    for start in range(0, len(vec), _LIST_BLOCK):
        offsets = np.flatnonzero(vec[start : start + _LIST_BLOCK].view(bool))  # fastest on bool
        if narrow:
            yield _digit_lines(offsets + (lo + start))
        else:  # members of 19 digits or more: Python ints
            yield "".join(f"{lo + start + i}\n" for i in offsets.tolist()).encode("ascii")


def write_set_file(a: IntSet, path: str | Path, fmt: str = "bits") -> None:
    if fmt == "bits":
        row = bit_vector(a)
        row += ord("0")  # in place: the 0/1 row becomes its ASCII digits
        blocks = [f"lo={a.window.lo}\n".encode("ascii"), row, b"\n"]
    elif fmt == "list":
        if not a.count:
            raise InputError(
                f"cannot write the empty set to {path} in list format, whose window is its "
                "members' span; write it in bits format"
            )
        blocks = _list_blocks(a)
    else:
        raise InputError(f"unknown set file format {fmt!r}")
    try:
        with open(path, "wb") as f:
            f.writelines(blocks)
    except OSError as e:
        raise InputError(f"cannot write set file {path}: {e}") from e
