"""Each checker stays off the fast kernels it checks.

A checker that shares code with the path it re-checks would pass the same
wrong answer.  Each row below runs one checker on an honest input under
``sys.setprofile`` and fails if it enters a function on its deny list.  The
deny list is matched on code objects, nested functions included, not on
names: the greedy and the cover verifier each define a closure named
``member``.  A new fast kernel joins the table in the change that adds it.
"""

import random
import sys
import threading
from fractions import Fraction
from types import CodeType

import pytest

import diffsets.bohr as bohr
import diffsets.cover as cover
import diffsets.density as density
import diffsets.embed as embed
import diffsets.extract as extract
import diffsets.intset as intset
from diffsets import IntSet, Window

KERNELS = (intset.convolve, density._banach, density._anchored_rows, density.banach_word_bounds,
           embed.trace_classes, extract._dense_classes)


def _bernoulli(length, seed):
    return IntSet(Window(1, length), random.Random(seed).getrandbits(length))


def _extraction():
    c = _bernoulli(4000, 1)
    return (c, extract.trace_extract(c, 8, Fraction(2, 5)))


def _cover():
    c = _bernoulli(2000, 2)
    candidates = range(-40, 41)
    return (c, candidates, cover.greedy_shift_cover(c, candidates, Fraction(1, 10), 0))


def _bohr():
    window = Window(1, 2000)
    s = bohr.bohr_generate(bohr.BohrSpec.of([Fraction(1, 7), Fraction(2, 9)], Fraction(1, 4)), window)
    return (s, intset.union(s, _bernoulli(2000, 3)), Window(100, 1900))


# checker -> (its honest arguments, the kernels it must not enter)
TABLE = {
    extract.verify_extraction: (_extraction, KERNELS),
    cover.verify_cover_certificate: (_cover, KERNELS + (cover.greedy_shift_cover,
                                                        cover.dense_shift_member)),
    bohr.bohr_contained: (_bohr, KERNELS + (density.longest_run,)),
}


def _codes(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _codes(const)


def _entered(checker, args):
    """(result, code objects of every Python function entered) of checker(*args)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = checker(*args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return result, seen


@pytest.mark.parametrize("checker", TABLE, ids=[checker.__name__ for checker in TABLE])
def test_checker_enters_no_kernel_it_checks(checker):
    make_args, denied = TABLE[checker]
    result, seen = _entered(checker, make_args())
    assert result is True or result.ok, "the honest input must pass"
    assert checker.__code__ in seen, "the profile saw the checker run"
    entered = [f"{fn.__module__}.{fn.__qualname__}" for fn in denied
               if seen.intersection(_codes(fn.__code__))]
    assert not entered, entered
