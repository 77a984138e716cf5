"""Multiplicative cellular-automaton rules and finite configurations.

A rule over a finite group B reads a window of cells ``v_lo..v_hi`` and
outputs ``bias * prod_i coeff_i(cell at pos_i)`` — an ordered product, so
repeated positions encode exponents.  ``one_sided=True`` marks rules viewed
on the one-sided lattice (time flows right; bipermutative then means
right-permutative).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import TableInvalidError, WindowError
from .groups import FiniteGroup, GroupMap
from .util import STATE_CAP, check_cap, digit_planes

__all__ = [
    "McaRule",
    "Config",
    "NhcaSequence",
    "PermutativityFlags",
    "eval_local",
    "local_table",
    "apply_window",
    "permutativity",
    "is_bipermutative",
]


class _Neighborhood:
    """Window geometry of a rule family reading cells ``v_lo..v_hi``.

    One-sided overlap conventions: L and R are never negative.
    """

    @property
    def width(self) -> int:
        return self.v_hi - self.v_lo + 1

    @property
    def left_overlap(self) -> int:
        return -min(self.v_lo, 0)

    @property
    def right_overlap(self) -> int:
        return max(0, self.v_hi)

    @property
    def overlap(self) -> int:
        """V = L + R, the per-step information width."""
        return self.left_overlap + self.right_overlap

    @property
    def spread(self) -> int:
        return self.v_hi - self.v_lo


@dataclass(eq=False)
class McaRule(_Neighborhood):
    """Local rule: bias times an ordered product of endomorphism factors.

    ``factors`` is an ordered list of (position, coefficient) pairs with
    positions inside [v_lo, v_hi]; coefficients are endomorphisms of the
    group.  The same position may repeat (powers).
    """

    group: FiniteGroup
    v_lo: int
    v_hi: int
    factors: tuple[tuple[int, GroupMap], ...]
    bias: int = 0
    one_sided: bool = False
    _table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.v_lo > self.v_hi:
            raise WindowError(f"empty window [{self.v_lo}..{self.v_hi}]")
        self.factors = tuple((int(p), c) for p, c in self.factors)
        for p, coeff in self.factors:
            if not (self.v_lo <= p <= self.v_hi):
                raise WindowError(f"factor position {p} outside window")
            if not coeff.is_homomorphism:
                raise TableInvalidError("rule coefficients must be endomorphisms")
            if coeff.source is not self.group or coeff.target is not self.group:
                raise TableInvalidError("rule coefficient acts on the wrong group")
        if not (0 <= self.bias < self.group.order):
            raise TableInvalidError(f"bias {self.bias} outside group")


@dataclass(frozen=True)
class Config:
    """A finite block of cells: ``word[t]`` is the element at cell offset+t."""

    group: FiniteGroup
    offset: int
    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(int(w) for w in self.word))
        for w in self.word:
            if not (0 <= w < self.group.order):
                raise TableInvalidError(f"cell value {w} outside group")

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + len(self.word)

    def at(self, cell: int) -> int:
        if not (self.lo <= cell < self.hi):
            raise WindowError(f"cell {cell} outside [{self.lo}..{self.hi})")
        return self.word[cell - self.offset]


@dataclass(eq=False)
class NhcaSequence(_Neighborhood):
    """A nonhomogeneous CA: one local rule per cell, shared window shape."""

    group: FiniteGroup
    v_lo: int
    v_hi: int
    rules: Mapping[int, McaRule]
    one_sided: bool = False

    def __post_init__(self):
        for m, r in self.rules.items():
            if (r.v_lo, r.v_hi) != (self.v_lo, self.v_hi):
                raise WindowError(f"rule at cell {m} has mismatched window")
            if r.group is not self.group:
                raise TableInvalidError(f"rule at cell {m} acts on the wrong group")

    def rule_at(self, m: int) -> McaRule:
        try:
            return self.rules[m]
        except KeyError:
            raise WindowError(f"no local rule defined at cell {m}")


LocalFamily = McaRule | NhcaSequence


def eval_local(rule: McaRule, word: Sequence[int]) -> int:
    """Apply the local map to a window word (index 0 = cell v_lo)."""
    if len(word) != rule.width:
        raise WindowError(f"local word needs {rule.width} cells, got {len(word)}")
    G = rule.group
    out = rule.bias
    for pos, coeff in rule.factors:
        out = G.mul(out, coeff(word[pos - rule.v_lo]))
    return out


def local_table(rule: McaRule, cap: int = STATE_CAP) -> np.ndarray:
    """Dense lookup of the local map over all |B|**width window words.

    Indexed big-endian (leftmost window cell most significant).  Values are
    in the code dtype of :func:`step_cells`, the smallest signed integer
    type that holds every window code 0 .. |B|**width - 1, so the kernel
    looks codes up in this one table.  Cached on the rule, read-only.
    """
    if rule._table is not None:
        return rule._table
    B = rule.group.order
    check_cap(B, rule.width, cap, "local rule table")
    size = B ** rule.width
    dtype = np.min_scalar_type(-size)
    planes = digit_planes(np.arange(size, dtype=np.int64), B, rule.width)
    out = np.full(size, rule.bias, dtype=dtype)
    table = rule.group.table.astype(dtype)
    for pos, coeff in rule.factors:
        img = np.asarray(coeff.image_of, dtype=dtype)
        out = table[out, img[planes[:, pos - rule.v_lo]]]
    out.setflags(write=False)
    rule._table = out
    return out


def step_cells(op: LocalFamily, cells: np.ndarray, lo: int,
               cap: int = STATE_CAP) -> np.ndarray:
    """One synchronous step on integer words, by local-table lookups.

    Axis 0 of ``cells`` is the cell axis: ``cells[t]`` holds cell lo+t of
    every word, so each cell is one contiguous plane.  The result holds
    the image cells [lo - v_lo .. lo + k - v_hi) on axis 0, other axes
    unchanged.  Window codes and the result are in the code dtype, the
    smallest signed integer type that holds |B|**width (int16 for Q8 at
    width 4): input of any integer dtype is converted once, and a chain of
    steps fed its own output never casts or copies.  Codes are looked up
    in the rule's :func:`local_table`, which is in the same dtype; a
    nonhomogeneous family looks each output cell up in its own rule's.
    """
    s, width = op.group.order, op.width
    k = len(cells) - op.spread
    if k < 0:
        raise WindowError(f"block of {len(cells)} cells is narrower than the rule")
    rules = [op] if isinstance(op, McaRule) else [
        op.rule_at(lo - op.v_lo + j) for j in range(k)]
    # a signed type reaching -(s**width) holds every code 0 .. s**width - 1
    code = np.min_scalar_type(-(s ** width))
    tables = [local_table(r, cap) for r in rules]
    cells = np.ascontiguousarray(cells, dtype=code)
    # codes of width 2w from two of width w, then Horner for the rest
    codes, w = cells, 1
    while 2 * w <= width:
        codes = codes[:len(codes) - w] * s ** w + codes[w:]
        w *= 2
    for t in range(w, width):
        codes = codes[:-1] * s + cells[t:t + len(codes) - 1]
    if isinstance(op, McaRule):
        return tables[0].take(codes)
    out = np.empty(codes.shape, dtype=code)
    for j, table in enumerate(tables):
        out[j] = table.take(codes[j])
    return out


def apply_window(op: LocalFamily, config: Config) -> Config:
    """One synchronous step on a finite block; the window shrinks.

    Input on [J..K) yields output on [J - v_lo .. K - v_hi).
    """
    v_lo, v_hi = op.v_lo, op.v_hi
    out_lo, out_hi = config.lo - v_lo, config.hi - v_hi
    if out_lo > out_hi:
        raise WindowError(f"block of {len(config.word)} cells is narrower than the rule")
    word = []
    for m in range(out_lo, out_hi):
        rule = op if isinstance(op, McaRule) else op.rule_at(m)
        window = config.word[m + v_lo - config.offset: m + v_hi + 1 - config.offset]
        word.append(eval_local(rule, window))
    return Config(config.group, out_lo, word)


def _merge_positions(group: FiniteGroup, factors: Iterable[tuple[int, GroupMap]]
                     ) -> dict[int, GroupMap]:
    """One map per position: its factors multiplied pointwise, in order.

    An endomorphism when the factors' images commute (over an abelian group).
    """
    merged: dict[int, GroupMap] = {}
    for pos, coeff in factors:
        prev = merged.get(pos)
        if prev is None:
            merged[pos] = coeff
        else:
            images = [group.mul(prev(x), coeff(x)) for x in group.elements()]
            merged[pos] = GroupMap(group, group, images, True, _trusted=True)
    return merged


# -- permutativity -----------------------------------------------------------


@dataclass(frozen=True)
class PermutativityFlags:
    left: bool
    right: bool


def _extreme_bijective(rule: McaRule, side: str, cap: int) -> bool:
    """Exhaustive bijectivity of the local map in its extreme window cell."""
    B = rule.group.order
    tbl = local_table(rule, cap)
    if side == "left":
        view = tbl.reshape(B, -1)       # leftmost cell is the most significant digit
        cols = view.T                   # each row of cols: outputs as left cell varies
    else:
        cols = tbl.reshape(-1, B)       # rightmost cell is least significant
    sorted_vals = np.sort(cols, axis=1)
    return bool(np.array_equal(sorted_vals, np.broadcast_to(np.arange(B), cols.shape)))


def permutativity(op: LocalFamily, cap: int = STATE_CAP) -> PermutativityFlags:
    """Left/right permutativity flags following the overlap convention.

    Left-permutativity requires L > 0 (the window genuinely reaches left of
    the output cell) plus exhaustive bijectivity in the leftmost cell, and
    symmetrically for right.  For a nonhomogeneous sequence every per-cell
    rule must pass.
    """
    if isinstance(op, McaRule):
        rules: list[McaRule] = [op]
    else:
        rules = list(op.rules.values())
        if not rules:
            raise WindowError("no cells to test")
    left = all(r.left_overlap > 0 and _extreme_bijective(r, "left", cap) for r in rules)
    right = all(r.right_overlap > 0 and _extreme_bijective(r, "right", cap) for r in rules)
    return PermutativityFlags(left=left, right=right)


def is_bipermutative(op: LocalFamily, cap: int = STATE_CAP) -> bool:
    """Permutative on both overlap sides (right side only for one-sided rules)."""
    flags = permutativity(op, cap)
    return flags.right if op.one_sided else (flags.left and flags.right)
