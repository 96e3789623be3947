"""The order-preserving map the Banach shift values go through.

``delta.shift_densities`` maps its rows here, for the delta sweep and the
cover re-check: one item per |t|, holding that row of the word pass
(``density.banach_word_bounds``), and an item whose bound leaves a hull of
candidate offsets rescans that hull with the byte table.  Items run one after
another in the calling thread.  A thread pool was measured to lose on both
shift sweeps: each item is a few short numpy calls that hold the GIL, so two
workers ran the sweep slower than one.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items], in order, in the calling thread."""
    return [fn(x) for x in items]
