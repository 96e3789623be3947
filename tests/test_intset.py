import contextlib
import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from diffsets import (
    InputError,
    IntSet,
    Window,
    complement_in,
    difference_set,
    empty_set,
    full_set,
    intersect,
    make_set,
    read_set_file,
    restrict,
    union,
    write_set_file,
)
from diffsets import intset
from diffsets.cli import main
from diffsets.intset import (
    MAX_WINDOW_LENGTH,
    bit_vector,
    combine_shifts,
    convolve,
    from_bit_vector,
    minus,
    periodic_vector,
    self_overlap,
)

windows = st.builds(
    lambda lo, length: Window(lo, lo + length),
    st.integers(-50, 50),
    st.integers(0, 60),
)


@st.composite
def intsets(draw, window=None):
    w = draw(windows) if window is None else window
    bits = draw(st.integers(0, (1 << w.length) - 1))
    return IntSet(w, bits)


def test_window_basics():
    w = Window(-3, 4)
    assert w.length == 8
    assert -3 in w and 4 in w and 5 not in w
    assert w.shift(10) == Window(7, 14)
    assert w.intersect(Window(0, 99)) == Window(0, 4)
    assert w.hull(Window(10, 11)) == Window(-3, 11)
    assert w.overlaps(Window(4, 9))
    assert not w.overlaps(Window(5, 9))


def test_window_rejects_empty():
    with pytest.raises(InputError):
        Window(3, 2)


def test_window_intersect_disjoint_raises():
    with pytest.raises(InputError):
        Window(0, 3).intersect(Window(5, 9))


def test_make_set_membership():
    s = make_set([1, 4, 7], Window(0, 10))
    assert sorted(s) == [1, 4, 7]
    assert 4 in s and 5 not in s and 100 not in s
    assert len(s) == 3 and s.min() == 1 and s.max() == 7
    assert bool(s)
    assert not empty_set(Window(0, 3))


def test_make_set_outside_window_raises():
    with pytest.raises(InputError):
        make_set([11], Window(0, 10))
    # the first offending member in input order, from any iterable
    with pytest.raises(InputError, match="member 12 outside"):
        make_set(iter([3, 12, -1, 99]), Window(0, 10))


@given(st.sampled_from([0, -37, 5, 2**70]), st.integers(1, 200), st.data())
def test_bit_vector_round_trip(lo, length, data):
    w = Window(lo, lo + length - 1)
    bits = data.draw(st.one_of(st.just(0), st.integers(0, (1 << length) - 1)))
    a = IntSet(w, bits)
    vec = bit_vector(a)
    assert vec.tolist() == [(bits >> i) & 1 for i in range(length)]
    assert from_bit_vector(vec, w) == a
    assert list(a.members()) == [lo + i for i in range(length) if (bits >> i) & 1]


def test_from_bit_vector_rejects_wrong_length():
    with pytest.raises(InputError):
        from_bit_vector(np.zeros(3, dtype=np.uint8), Window(0, 3))


def test_members_iterate_across_chunks_beyond_int64():
    lo = 2**70
    offsets = [0, 4095, 4096, 4097, 65535, 65536, 131072, 200000]
    a = make_set([lo + i for i in offsets], Window(lo, lo + 200000))
    it = a.members()
    assert next(it) == lo
    assert list(it) == [lo + i for i in offsets[1:]]


def test_full_and_complement():
    w = Window(2, 6)
    assert sorted(full_set(w)) == [2, 3, 4, 5, 6]
    s = make_set([3, 5], w)
    assert sorted(complement_in(s, w)) == [2, 4, 6]
    # members of A outside the target window are ignored
    assert sorted(complement_in(s, Window(4, 6))) == [4, 6]


@given(intsets(), st.integers(-30, 30))
def test_shift_relabels_members(a, t):
    assert sorted(a.shift(t)) == [x + t for x in sorted(a)]


@given(intsets())
def test_restrict_clips(a):
    w = Window(a.window.lo + a.window.length // 3, a.window.hi)
    r = restrict(a, w)
    assert set(r) == {x for x in a if x in w}
    assert r.window == w


def test_restrict_disjoint_is_empty():
    a = make_set([1, 2], Window(0, 5))
    r = restrict(a, Window(10, 12))
    assert r.window == Window(10, 12) and not r


@given(intsets(), intsets())
def test_union_matches_sets(a, b):
    u = union(a, b)
    assert set(u) == set(a) | set(b)
    assert u.window == a.window.hull(b.window)


@given(intsets(), intsets())
def test_intersect_matches_sets(a, b):
    if not a.window.overlaps(b.window):
        with pytest.raises(InputError):
            intersect(a, b)
        return
    assert set(intersect(a, b)) == set(a) & set(b)


@given(intsets(), windows, st.lists(st.integers(-120, 120), max_size=5), st.booleans())
def test_combine_shifts_matches_sets(a, w, shifts, join):
    # copies that straddle either edge of w or leave it, and no copies at all
    copies = [{x + t for x in a if x + t in w} for t in shifts]
    if join:
        want = set().union(*copies)
    else:
        want = set(range(w.lo, w.hi + 1)).intersection(*copies)
    got = combine_shifts(a, shifts, w, union=join)
    assert got.window == w and set(got) == want


@given(intsets(), intsets())
def test_minus_matches_sets(a, b):
    # independent windows: disjoint, offset, nested and equal ones
    got = minus(a, b)
    assert got.window == a.window and set(got) == set(a) - set(b)


def test_minus_disjoint_and_offset_windows():
    a = make_set([0, 2, 4], Window(0, 4))
    assert minus(a, make_set([7, 9], Window(6, 9))) == a  # disjoint: nothing to take away
    assert minus(a, make_set([4, 5], Window(3, 9))) == make_set([0, 2], Window(0, 4))
    assert minus(a, make_set([-1, 2], Window(-3, 2))) == make_set([0, 4], Window(0, 4))
    assert not minus(a, full_set(Window(-5, 5)))


def test_set_algebra_against_a_far_window_makes_no_shift():
    """A window 10^30 away slices to nothing; shifting its bits that far would overflow."""
    w = Window(1, 10)
    near = make_set([1, 5, 9], w)
    far = make_set([10**30 + 2], Window(10**30, 10**30 + 10))
    assert restrict(far, w) == empty_set(w)
    assert restrict(near, far.window) == empty_set(far.window)
    assert minus(near, far) == near
    assert complement_in(far, w) == full_set(w)
    assert combine_shifts(far, [0, -5], w, union=True) == empty_set(w)
    assert combine_shifts(near, [10**30, 0], w) == empty_set(w)
    assert combine_shifts(near, [0, -(10**30)], w, union=True) == near


@given(intsets(), st.data())
def test_self_overlap_matches_sets(a, data):
    length = a.window.length
    t = data.draw(st.integers(-(length - 1), length - 1))  # both signs
    got = self_overlap(a, t)
    assert got.window == a.window.intersect(a.window.shift(-t))
    assert set(got) == {x for x in a if x + t in a}
    assert self_overlap(a, -t) == got.shift(t)  # A ∩ (A + t) = (A ∩ (A - t)) + t
    with pytest.raises(InputError):
        self_overlap(a, data.draw(st.sampled_from([length, -length, 2 * length])))


def zero_one(length, ones):
    """0/1 lists of the given length with exactly ``ones`` ones."""
    return st.sets(st.integers(0, length - 1), min_size=ones, max_size=ones).map(
        lambda idx: [int(i in idx) for i in range(length)]
    )


@given(st.sampled_from([0, 1, 9, 10, 99, 100]), st.booleans(), st.data())
def test_convolve_matches_brute(k, swap, data):
    # k is the smaller count of ones: lanes 1, 2 and 3 digits wide, on both sides of 9 and 99
    lu = data.draw(st.integers(max(k, 1), 260))
    lv = data.draw(st.integers(max(k, 1), 260))
    u = data.draw(zero_one(lu, k))
    v = data.draw(zero_one(lv, data.draw(st.integers(k, lv))))
    if swap:
        u, v = v, u
    got = convolve(np.array(u, dtype=np.uint8), np.array(v, dtype=np.uint8))
    assert got.dtype == np.int64
    assert got.tolist() == brute.convolve(u, v)


@pytest.mark.parametrize("lu, lv", [(1, 1), (1, 7), (9, 9), (10, 3), (99, 100), (100, 250)])
def test_convolve_all_ones_and_all_zeros(lu, lv):
    ones_u, ones_v = np.ones(lu, dtype=np.uint8), np.ones(lv, dtype=np.uint8)
    assert convolve(ones_u, ones_v).tolist() == brute.convolve([1] * lu, [1] * lv)
    assert convolve(np.zeros(lu, dtype=np.uint8), ones_v).tolist() == [0] * (lu + lv - 1)


def _pair_sums(u, v):
    """The convolution of two 0/1 arrays as a count over every pair of ones."""
    pairs = np.flatnonzero(u)[:, None] + np.flatnonzero(v)[None, :]
    return np.bincount(pairs.ravel(), minlength=len(u) + len(v) - 1).tolist()


BUDGET = intset._LANE_BUDGET


@pytest.mark.parametrize("lu, lv", [(3 * BUDGET + 5, 300), (BUDGET + 3, BUDGET // 2 + 1)])
def test_convolve_across_blocks(lu, lv):
    # longer than one product, once with the shorter vector whole and once cut in two
    rng = np.random.default_rng(lu)
    u = (rng.random(lu) < 0.01).astype(np.uint8)
    v = (rng.random(lv) < (0.5 if lv < 1000 else 0.005)).astype(np.uint8)
    want = _pair_sums(u, v)
    assert convolve(u, v).tolist() == want
    assert convolve(v, u).tolist() == want


@contextlib.contextmanager
def _spy_products(budget, cap):
    """Patch the lane budget and cap; record (u tile, v tile, lane width) of every product."""
    products, real = [], intset._add_lane_product

    def spy(a, b, out):
        width = len(str(min(np.count_nonzero(a), np.count_nonzero(b))))
        products.append((a.ctypes.data, len(a), b.ctypes.data, len(b), width))
        real(a, b, out)

    with mock.patch.object(intset, "_LANE_BUDGET", budget), \
            mock.patch.object(intset, "_LANE_CAP", cap), \
            mock.patch.object(intset, "_add_lane_product", spy):
        yield products


def _budget_used(u, v):
    """The lanes convolve allows per product for these vectors: the base budget, grown
    with the output up to the cap when the shorter vector passes half the base."""
    short, out = min(len(u), len(v)), len(u) + len(v) - 1
    base = intset._LANE_BUDGET
    return min(out, intset._LANE_CAP) if 2 * short > base else base


# (lane width, budget, cap, lengths of the shorter and of the longer vector,
# zeros per vector): both vectors cut into several tiles, and every tile pair
# holds at least 1, 10 or 100 ones, and fewer than 10, 100 or 1000.  In w2-grown
# the shorter vector passes half the budget and the budget grows to the cap.
TILED = [
    (1, 16, 16, (9, 12), (12, 60), 2),
    (2, 64, 64, (33, 40), (48, 150), 4),
    (3, 512, 512, (257, 300), (384, 700), 9),
    (2, 64, 128, (80, 100), (120, 300), 4),
]


@pytest.mark.parametrize("width, budget, cap, short, long, holes", TILED,
                         ids=["w1", "w2", "w3", "w2-grown"])
@settings(max_examples=25)
@given(data=st.data())
def test_convolve_tiles_both_vectors_like_brute(width, budget, cap, short, long, holes, data):
    u = np.ones(data.draw(st.integers(*long)), dtype=np.uint8)
    v = np.ones(data.draw(st.integers(*short)), dtype=np.uint8)
    for vec in (u, v):
        vec[data.draw(st.lists(st.integers(0, len(vec) - 1), max_size=holes))] = 0
    with _spy_products(budget, cap) as products:
        got = convolve(v, u) if data.draw(st.booleans()) else convolve(u, v)
        used = _budget_used(u, v)
    assert got.tolist() == brute.convolve(u.tolist(), v.tolist())
    assert used == cap  # every row's shorter vector passes half the budget
    assert all(la + lb <= used for _, la, _, lb, _ in products)
    assert len({p[0] for p in products}) >= 2 and len({p[2] for p in products}) >= 2
    assert {p[4] for p in products} == {width}
    if cap > budget:
        assert max(la + lb for _, la, _, lb, _ in products) > budget


@pytest.mark.parametrize("short, grows", [(32, False), (33, True)])
def test_convolve_grows_the_budget_only_past_half_of_it(short, grows):
    u, v = np.ones(200, dtype=np.uint8), np.ones(short, dtype=np.uint8)
    with _spy_products(64, 128) as products:
        got = convolve(u, v)
    assert got.tolist() == brute.convolve(u.tolist(), v.tolist())
    assert (max(la + lb for _, la, _, lb, _ in products) > 64) == grows


def test_convolve_memory_is_bounded_by_the_budget():
    # two long vectors: one product would hold about 7 bytes per lane on top of the output
    rng = np.random.default_rng(7)
    u, v = ((rng.random(1 << 16) < 0.5).astype(np.uint8) for _ in range(2))
    budget = 1 << 14
    with mock.patch.object(intset, "_LANE_BUDGET", budget), \
            mock.patch.object(intset, "_LANE_CAP", 2 * budget):
        used = _budget_used(u, v)
        tracemalloc.start()
        try:
            out = convolve(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert used == 2 * budget < len(out)  # grown to the cap, still many products
    assert np.array_equal(out, convolve(u, v))  # the same sums as one product at the default budget
    assert peak < out.nbytes + 32 * used


# The benchmark's commands that convolve: gen_triple builds a difference set,
# and pipeline1e5 / pipeline4e5 align a Bernoulli set of N with one of N/10 + 1
# positions (argv as in bench/workloads.py).
BENCH_CONVOLVING = [
    ["gen", "--spec", json.dumps({"kind": "thick_triple", "window": [-20500, 20500],
                                  "scale": 4, "blocks": 3}), "--out", "t.set", "--fmt", "list"],
    ["pipeline", "--a", "x1e5.set", "--b", "y.set", "--N", "100000", "--nu", "10000", "--n", "8",
     "--out", "p1.json"],
    ["pipeline", "--a", "x4e5.set", "--b", "y.set", "--N", "400000", "--nu", "40000", "--n", "8",
     "--out", "p4.json"],
]


def test_bench_commands_keep_the_base_tiling(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, n, seed in (("x1e5", 10**5, 1), ("x4e5", 4 * 10**5, 2), ("y", 10**5, 3)):
        spec = {"kind": "bernoulli", "window": [1, n], "seed": seed, "p": "1/2"}
        assert main(["gen", "--spec", json.dumps(spec), "--out", f"{name}.set"]) == 0
    tiles, real = [], intset._add_lane_product
    monkeypatch.setattr(intset, "_add_lane_product",
                        lambda a, b, out: tiles.append((len(a), len(b))) or real(a, b, out))
    for argv in BENCH_CONVOLVING:
        assert main(argv) == 0
        grown = list(tiles)
        tiles.clear()
        with mock.patch.object(intset, "_LANE_CAP", intset._LANE_BUDGET):  # no growth
            assert main(argv) == 0
        assert grown and tiles == grown
        tiles.clear()
    capsys.readouterr()


@st.composite
def populous(draw):
    """Sets of at least ten members."""
    lo = draw(st.integers(-50, 50))
    length = draw(st.integers(10, 120))
    idx = draw(st.sets(st.integers(0, length - 1), min_size=10))
    return make_set([lo + i for i in idx], Window(lo, lo + length - 1))


@given(intsets() | populous(), intsets() | populous())
def test_difference_set_matches_brute(a, b):
    d = difference_set(a, b)
    assert set(d) == brute.difference(set(a), set(b))
    assert d.window == Window(a.window.lo - b.window.hi, a.window.hi - b.window.lo)


@given(intsets())
def test_delta_set_symmetric_with_zero(a):
    d = difference_set(a, a)
    assert set(d) == {x - y for x in a for y in a}
    if a:
        assert 0 in d
        assert all(-x in d for x in d)


@given(st.lists(st.booleans(), min_size=1, max_size=40),
       st.sampled_from([0, 5, -7, 10**20 + 1, -(10**20)]), st.integers(1, 200))
def test_periodic_vector_indexes_the_table_mod_its_length(table, start, length):
    table = np.array(table)
    want = [table[(start + i) % len(table)] for i in range(length)]
    assert periodic_vector(table, start, length).tolist() == want


def test_difference_set_small_example():
    a = make_set([0, 1, 5], Window(0, 5))
    b = make_set([2, 3], Window(2, 3))
    assert sorted(difference_set(a, b)) == [-3, -2, -1, 2, 3]


@given(intsets())
def test_file_roundtrip_bits(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("sets") / "a.set"
    write_set_file(a, path, "bits")
    back = read_set_file(path)
    assert back.window == a.window and back.bits == a.bits


def test_file_roundtrip_list(tmp_path):
    a = make_set([-3, 0, 7], Window(-5, 10))
    path = tmp_path / "a.set"
    write_set_file(a, path, "list")
    back = read_set_file(path)
    # list format loses the window; it is inferred from the members
    assert sorted(back) == [-3, 0, 7]
    assert back.window == Window(-3, 7)


# Window starts of the list round trip: negative, straddling 0, ending at
# 10^18 - 1 (the widest the digit runs format) or at 10^18 (one past), starting
# at -(10^18 - 1), far beyond int64 (the per-member writer and int() reader),
# and just below 10^k and -10^k, so windows cross a change of digit count.
LIST_STARTS = [-(10**6), -30, 10**18 - 64, 10**18 - 63, -(10**18 - 1), 10**30, -(10**30)] + [
    s * 10**k - 20 for k in range(1, 18) for s in (1, -1)
]


@st.composite
def listable(draw):
    lo = draw(st.sampled_from(LIST_STARTS))
    w = Window(lo, lo + draw(st.integers(1, 64)) - 1)
    return IntSet(w, draw(st.integers(1, (1 << w.length) - 1)))


@given(listable(), st.sampled_from([3, 1 << 16]), st.sampled_from([5, 1 << 18]))
def test_list_round_trip_matches_reference(tmp_path_factory, a, block, chunk):
    """The writer's bytes are the reference's; reading them back gives the set again.

    Small blocks and chunks put block and chunk cuts inside the file."""
    path = tmp_path_factory.mktemp("lists") / "a.set"
    with mock.patch.object(intset, "_LIST_BLOCK", block), mock.patch.object(
        intset, "_TEXT_CHUNK", chunk
    ):
        write_set_file(a, path, "list")
        assert path.read_bytes() == brute.list_file(a.members()).encode("ascii")
        back = read_set_file(path)
    assert back.window == Window(a.min(), a.max()) and list(back) == list(a)


# int64s near every change of digit count (10^k - 1, 10^k, 10^k + 1 of both
# signs), and anywhere below 10^18 in magnitude
near_cuts = st.builds(lambda k, e, sign: sign * (10**k + e), st.integers(0, 18), st.integers(-1, 1),
                      st.sampled_from([1, -1])).filter(lambda x: abs(x) < 10**18)
list_ints = st.one_of(near_cuts, st.integers(-(10**18) + 1, 10**18 - 1), st.integers(-200, 200))


@given(st.lists(list_ints, unique=True, max_size=80), st.data())
def test_digit_lines_match_reference(xs, data):
    """The list writer's lines of ascending int64s, written in blocks cut anywhere
    (inside a run of one digit count too), are the f-string lines."""
    xs.sort()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(xs)), max_size=4)))
    arr = np.array(xs, dtype=np.int64)
    blocks = [intset._digit_lines(arr[i:j]) for i, j in zip([0] + cuts, cuts + [len(xs)])]
    assert b"".join(blocks) == "".join(f"{x}\n" for x in xs).encode("ascii")


def _read_both(path):
    """(library result, reference result) of reading path: (lo, hi, members) or the message."""
    try:
        s = read_set_file(path)
        got = (s.window.lo, s.window.hi, list(s))
    except InputError as e:
        got = str(e)
    try:
        want = brute.read_list_file(path.read_text(), str(path), MAX_WINDOW_LENGTH)
    except ValueError as e:
        want = str(e)
    return got, want


# (file bytes, the reader's _TEXT_CHUNK or None for its default)
LIST_CASES = [
    (b"\n\n3\n\n 5\n\n", None),  # blank lines
    (b"3\r\n\r\n-2\r\n \r\n7\r\n", None),  # CRLF
    (b"1\r2\r", None),  # lone CR ends a line too
    (b" \t7 \t\n  -1\t\n", None),  # surrounding spaces and tabs
    (b"+5\n", None),
    (b"-0\n0007\n", None),
    (b"4\n9", None),  # no final newline
    (b"1 2\n", None),  # two numbers on one line
    (b"--1\n", None),
    (b"5-\n", None),
    (b"+\n", None),
    (b"1_000\n", None),  # int() takes underscores
    (b"1234567890123456789\n1234567890123456790\n", None),  # 19 digits
    (b"9999999999999999999\n9999999999999999998\n", None),  # 19 digits past int64
    (b"999999999999999999\n999999999999999990\n", None),  # 18 digits
    (b"1000000000000000000000000\n", None),  # 25 digits
    ("\u0661\u0662\n\uff15\n".encode(), None),  # non-ASCII digits
    (b"1\x0b2\n", None),  # a vertical tab splits lines
    (b"5\nx\n", None),
    (b"", None),
    (b" \n\t\n", None),
    (b"3\n50\n-7\n", 3),  # chunks cut between lines
    (b"12345\n6\n", 3),  # a line longer than a chunk
    (b"0\n10000000\n", None),  # a span one over the cap
    # streamed in small chunks, so the cuts fall inside what follows
    (b"12\n345\n6\n", 4),  # a number across a cut
    (b"1\r\n2\r\n-3\r\n", 2),  # CRLF pairs across cuts
    (b"3\r50\r-7\r", 2),  # CR line ends
    ("1\n\u0661\n".encode(), 3),  # a refused two-byte digit across a cut
    (b"1\n2\n3\n4\n1_0\n", 4),  # refused in a later chunk, int() takes it
    (b"1\n2\n3\n4\n5x\n", 4),  # refused in a later chunk for good
    (b" \t   7   \n-12345678\n", 3),  # lines longer than a chunk
    (b"1\n" + b"9" * 30 + b"\n", 4),  # a refused line longer than a chunk
    (b"0\n10000000\n" + b"5\n" * 40, 8),  # past the cap in the first of many chunks
    (b"0\n10000000\n" + b"5\n" * 40 + b"1_2\n", 8),  # ... then refused, int() takes it
    (b"0\n10000000\n" + b"5\n" * 40 + b"x\n", 8),  # ... then refused for good
    # the first refused chunk follows accepted ones
    (b"1\n2\n3\n4\n1234567890123456789\n", 4),  # 19 digits, far past the cap
    (b"999999999999999999\n" * 3 + b"1000000000000000001\n", 20),  # 19 digits, in the cap
    ("1\n2\n3\n4\n\u0661\n".encode(), 4),  # a non-ASCII digit
    ("123\r\n\u0661\n".encode(), 4),  # ... after a CRLF pair split at the cut
]


@pytest.mark.parametrize("raw, chunk", LIST_CASES)
def test_list_reader_matches_reference(tmp_path, raw, chunk):
    path = tmp_path / "a.set"
    path.write_bytes(raw)
    with mock.patch.object(intset, "_TEXT_CHUNK", chunk or intset._TEXT_CHUNK):
        got, want = _read_both(path)
    assert got == want


@given(
    st.text(alphabet="0123456789+- \t\r\n_x\u0661", max_size=40),
    st.sampled_from([1, 2, 3, 4, 1 << 16]),
)
def test_list_reader_matches_reference_on_any_text(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("texts") / "a.set"
    path.write_bytes(text.encode())
    with mock.patch.object(intset, "_TEXT_CHUNK", chunk):
        got, want = _read_both(path)
    assert got == want


@pytest.mark.parametrize("raw", [b"3\r\n\r\n-2\r\n \r\n7\r\n", b"1\r2\r", b"5\r\n\r1"])
@pytest.mark.parametrize("chunk", [1, 2, 3, None])
def test_cr_and_crlf_list_files_stay_on_the_fast_path(tmp_path, monkeypatch, raw, chunk):
    path = tmp_path / "a.set"
    path.write_bytes(raw)
    rests = []

    def spy(f):
        listed = stream_list(f)
        rests.append(listed[3])
        return listed

    stream_list = intset._stream_list
    monkeypatch.setattr(intset, "_stream_list", spy)
    monkeypatch.setattr(intset, "_TEXT_CHUNK", chunk or intset._TEXT_CHUNK)
    got, want = _read_both(path)
    assert got == want and isinstance(got, tuple)
    assert rests == [b""]  # the fast grammar took every line


def test_read_bits_with_crlf_line_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(intset, "_TEXT_CHUNK", 2)
    p = tmp_path / "b.set"
    p.write_bytes(b"\r\nlo=-2\r\n01101\r\n")
    back = read_set_file(p)
    assert back.window == Window(-2, 2) and list(back) == [-1, 0, 2]


@pytest.mark.parametrize("fmt", ["bits", "list", "bits after blanks", "list then 1_5"])
def test_reader_opens_once_and_reads_each_byte_once(tmp_path, monkeypatch, fmt):
    """Over many chunks, each set file is opened once and read front to back, never
    sought: a bits file, also behind more blank lines than peek() sees, and a list file
    the fast grammar takes, also one whose last line only int() takes."""
    a = make_set(range(-300, 900, 3), Window(-300, 900))
    path = tmp_path / "a.set"
    write_set_file(a, path, fmt.split()[0])
    if fmt == "bits after blanks":
        path.write_bytes(b"\n" * 9000 + path.read_bytes())
    elif fmt == "list then 1_5":
        path.write_bytes(path.read_bytes() + b"1_5\n")  # 15 is a member already
    opened, sizes = [], []

    class Counting:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def read(self, *n):
            data = self.f.read(*n)
            sizes.append(len(data))
            return data

        def peek(self, *n):
            return self.f.peek(*n)

        def fileno(self):
            return self.f.fileno()

    def spy_open(file, mode):
        opened.append(mode)
        return Counting(open(file, mode))

    monkeypatch.setattr(intset, "open", spy_open, raising=False)
    monkeypatch.setattr(intset, "_TEXT_CHUNK", 64)
    back = read_set_file(path)
    assert opened == ["rb"] and sum(sizes) == path.stat().st_size
    assert list(back) == list(a)


PIPED = [
    b"1_000\n2\n",  # refused at its first line, int() takes it
    "".join(f"{i}\n" for i in range(0, 90000, 3)).encode() + b"1_5\n",  # after many chunks
    b"\n" * 9000 + b"lo=-2\n01101\n",  # a bits file behind more blank lines than peek() sees
]


@pytest.mark.parametrize("raw", PIPED, ids=["text", "late", "bits"])
def test_set_files_read_through_a_pipe_as_from_a_file(tmp_path, raw):
    """Every set file is read once, front to back, so a named pipe that another thread
    writes into needs no seek."""
    path, pipe = tmp_path / "a.set", tmp_path / "pipe.set"
    path.write_bytes(raw)
    os.mkfifo(pipe)

    def write():
        with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as f:
            f.write(raw)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = read_set_file(pipe)
    finally:
        writer.join(timeout=10)
    want = read_set_file(path)
    assert got.window == want.window and got.bits == want.bits and got.count > 0


@pytest.mark.parametrize("lines, chunk", [(4, 4), (40000, None)])
def test_a_decode_error_after_accepted_chunks_names_its_file_offset(tmp_path, monkeypatch,
                                                                   lines, chunk):
    path = tmp_path / "a.set"
    path.write_bytes(b"1\n" * lines + b"5\xff\n")
    monkeypatch.setattr(intset, "_TEXT_CHUNK", chunk or intset._TEXT_CHUNK)
    with pytest.raises(InputError) as refused:
        read_set_file(path)
    at = 2 * lines + 1
    assert str(refused.value) == f"{path}: not a set file (not text: invalid start byte at byte {at})"


def test_cap_refusal_holds_no_members(tmp_path):
    """Once the members span more than the cap, a list file is scanned for its min
    and max alone: the refusal names the whole file's window, as the per-line reader
    does, and the traced peak stays under 16 chunks (13.4 measured), about half of
    what the int32 members alone would take."""
    path = tmp_path / "span.set"
    path.write_bytes(b"0\n10000000\n" + b"1234567\n" * 500_000 + b"-3\n")
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as refused:
            read_set_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError) as want:
        brute.read_list_file(path.read_text(), str(path), MAX_WINDOW_LENGTH)
    assert str(refused.value) == str(want.value)
    assert peak < 16 * intset._TEXT_CHUNK, peak


def test_read_set_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.set"
    p.write_text("not a number\n")
    with pytest.raises(InputError):
        read_set_file(p)
    p.write_text("")
    with pytest.raises(InputError):
        read_set_file(p)


BAD_ROWS = ["01x1", "0_1", "+01", "1 0", "0\uff10", "1\u0660", "01\n10"]  # ０ and Arabic-Indic ٠


@pytest.mark.parametrize("row", BAD_ROWS)
def test_read_bits_refuses_rows_off_zero_one(tmp_path, row):
    p = tmp_path / "bad.set"
    p.write_text(f"lo=1\n{row}\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"bits format needs one '0'/'1' line$"):
        read_set_file(p)


def test_empty_set_has_no_min_or_max():
    e = empty_set(Window(3, 9))
    with pytest.raises(InputError, match="^empty set has no min$"):
        e.min()
    with pytest.raises(InputError, match="^empty set has no max$"):
        e.max()
    assert repr(make_set([4, 6], Window(3, 9))) == "IntSet(Window(3, 9), count=2)"


def test_set_file_refusals_name_the_file(tmp_path):
    bad = tmp_path / "h.set"
    bad.write_text("lo=x\n0101\n")
    with pytest.raises(InputError, match=f"^{bad}: bad bits header 'lo=x'$"):
        read_set_file(bad)
    a = make_set([2], Window(1, 3))
    with pytest.raises(InputError, match="^unknown set file format 'xml'$"):
        write_set_file(a, tmp_path / "a.set", "xml")
    missing = tmp_path / "no-dir" / "a.set"
    with pytest.raises(InputError, match=f"^cannot write set file {missing}: "):
        write_set_file(a, missing)
    assert not (tmp_path / "a.set").exists()


def test_read_bits_cap_refuses_before_the_row_is_read(tmp_path, monkeypatch):
    p = tmp_path / "long.set"
    p.write_text("lo=1\n" + "01" * 10 + "1\n")
    monkeypatch.setattr(intset, "MAX_WINDOW_LENGTH", 20)
    monkeypatch.setattr(intset, "from_bit_vector", lambda *a: pytest.fail("allocated past the cap"))
    with pytest.raises(InputError, match="over the cap"):
        read_set_file(p)


def test_read_bits_round_trips_a_negative_start(tmp_path):
    a = make_set([-30, -29, -27, -1, 0], Window(-30, 1))
    p = tmp_path / "n.set"
    write_set_file(a, p, "bits")
    assert p.read_text() == "lo=-30\n11010000000000000000000000000110\n"
    back = read_set_file(p)
    assert back.window == a.window and back.bits == a.bits


def test_intset_rejects_bits_outside_window():
    with pytest.raises(InputError):
        IntSet(Window(0, 2), 0b1000)
    with pytest.raises(InputError):
        IntSet(Window(0, 2), -1)


def test_intset_count_is_not_a_parameter():
    assert IntSet(Window(0, 2), 0b101).count == 2
    with pytest.raises(TypeError):
        IntSet(Window(0, 2), 0b101, 99)
    with pytest.raises(TypeError):
        IntSet(Window(0, 2), 0b101, count=99)
