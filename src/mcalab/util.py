"""Word/index bookkeeping shared across modules.

Words over an alphabet of size ``base`` are identified with integers in
big-endian mixed radix: the leftmost cell is the most significant digit and
the all-zero word has index 0.
"""
from __future__ import annotations

import itertools
import numbers
from typing import Iterator

import numpy as np

# Default cap on exhaustive state spaces (|B|**cells style enumerations).
STATE_CAP = 10**7
# Cap on Monte-Carlo cell-steps (samples × cells × steps) a run may ask for.
WORK_CAP = 10**11
# Default cap on group order for exhaustive endomorphism enumeration.
ENUMERATION_CAP = 64


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool is refused although it is one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def index_word(idx: int, base: int, length: int) -> tuple[int, ...]:
    """The ``length``-cell word of big-endian index ``idx`` over ``range(base)``."""
    out = [0] * length
    for t in range(length - 1, -1, -1):
        idx, out[t] = divmod(idx, base)
    return tuple(out)


def iter_words(base: int, length: int) -> Iterator[tuple[int, ...]]:
    """All words of ``length`` cells in index order (lexicographic)."""
    return itertools.product(range(base), repeat=length)


def cell_dtype(order: int) -> np.dtype:
    """Smallest unsigned dtype holding every element index of a group.

    uint8 for every group of order at most 256.
    """
    return np.min_scalar_type(order - 1)


def digit_planes(indices: np.ndarray, base: int, length: int) -> np.ndarray:
    """Digits of word indices, shape ``indices.shape + (length,)``.

    The last axis holds the cells, leftmost cell first.
    """
    shifts = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    digits = np.asarray(indices, dtype=np.int64)[..., None] // shifts
    digits %= base
    return digits


def check_cap(base: int, length: int, cap: int, what: str) -> None:
    """Refuse ``base ** length`` states above ``cap``.

    Past ``cap.bit_length()`` cells any base of at least 2 is over the cap,
    so the power is refused without being computed.
    """
    from .errors import CapExceededError

    if base > 1 and length > cap.bit_length():
        raise CapExceededError(f"{what}: {base}**{length} states exceed cap {cap}")
    size = base ** length
    if size > cap:
        raise CapExceededError(f"{what}: {size} states exceed cap {cap}")


def fitting_cells(base: int, cap: int, limit: int) -> int:
    """The most cells, at most ``limit``, whose ``base ** cells`` words fit
    in a ``cap`` of at least 1: ``limit`` itself for a one-letter alphabet."""
    if base == 1:
        return limit
    cells = 0
    while cells < limit and base ** (cells + 1) <= cap:
        cells += 1
    return cells
