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

from .errors import (
    NotPermutativeError,
    TableInvalidError,
    WindowError,
)
from .groups import FiniteGroup, GroupMap
from .util import STATE_CAP, cell_dtype, check_cap, digit_planes, word_index

__all__ = [
    "McaRule",
    "Config",
    "NhcaSequence",
    "PermutativityFlags",
    "eval_local",
    "local_table",
    "apply_window",
    "apply_periodic",
    "is_homomorphic_local",
    "extract_eca_coefficients",
    "permutativity",
    "is_bipermutative",
    "filling_solve",
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


def _rule_at(op: LocalFamily, m: int) -> McaRule:
    return op if isinstance(op, McaRule) else op.rule_at(m)


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
    in the group's cell dtype (:func:`util.cell_dtype`, uint8 for every
    group of order at most 256).  Cached on the rule, read-only.
    """
    if rule._table is not None:
        return rule._table
    B = rule.group.order
    check_cap(B, rule.width, cap, "local rule table")
    size = B ** rule.width
    dtype = cell_dtype(B)
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

    The last axis of ``cells`` holds cells [lo..lo+k); the result holds
    their image on [lo - v_lo .. lo + k - v_hi), other axes unchanged, in
    the group's cell dtype whatever the integer dtype of ``cells``.  Window
    codes are built in the smallest signed integer type that holds
    |B|**width (int16 for Q8 at width 4).  A nonhomogeneous family looks
    each output cell up in its own rule's table.
    """
    s = op.group.order
    k = cells.shape[-1] - op.spread
    if k < 0:
        raise WindowError(f"block of {cells.shape[-1]} cells is narrower than the rule")
    rules = [op] if isinstance(op, McaRule) else [
        op.rule_at(lo - op.v_lo + j) for j in range(k)]
    tables = [local_table(r, cap) for r in rules]
    # a signed type reaching -(s**width) holds every code 0 .. s**width - 1
    codes = cells[..., 0:k].astype(np.min_scalar_type(-(s ** op.width)))
    for t in range(1, op.width):
        codes *= s
        codes += cells[..., t:t + k]
    if isinstance(op, McaRule):
        return tables[0].take(codes)
    out = np.empty(codes.shape, dtype=cell_dtype(s))
    for j, table in enumerate(tables):
        out[..., j] = table.take(codes[..., j])
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
        rule = _rule_at(op, m)
        window = config.word[m + v_lo - config.offset: m + v_hi + 1 - config.offset]
        word.append(eval_local(rule, window))
    return Config(config.group, out_lo, word)


def apply_periodic(op: LocalFamily, config: Config) -> Config:
    """One step with cell indices taken modulo the block length."""
    n = len(config.word)
    if n == 0:
        raise WindowError("periodic block must be nonempty")
    # wrapped onto cells offset + v_lo .. offset + n + v_hi, the block maps onto itself
    wrapped = [config.word[t % n] for t in range(op.v_lo, n + op.v_hi)]
    return apply_window(op, Config(config.group, config.offset + op.v_lo, wrapped))


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


# -- endomorphic local maps --------------------------------------------------


def _per_position_maps(rule: McaRule, cap: int) -> list[GroupMap] | None:
    """Candidate per-position coefficients g_v = g(identity,...,b,...,identity).

    Returns None unless each is an endomorphism.
    """
    G = rule.group
    table = local_table(rule, cap)
    maps = []
    for t in range(rule.width):
        # the word with b at window cell t and the identity elsewhere
        images = table[np.arange(G.order) * G.order ** (rule.width - 1 - t)]
        try:
            maps.append(GroupMap(G, G, images, True))
        except TableInvalidError:
            return None
    return maps


def is_homomorphic_local(rule: McaRule, cap: int = STATE_CAP) -> bool:
    """Whether the local map B^width -> B is a group homomorphism.

    Uses the factorization criterion: the map is a homomorphism iff its
    per-position slices are endomorphisms with pairwise commuting images
    and their ordered product reconstructs the map on every window word.
    """
    G = rule.group
    check_cap(G.order, rule.width, cap, "homomorphism check")
    if local_table(rule, cap)[0] != 0:
        return False
    maps = _per_position_maps(rule, cap)
    if maps is None:
        return False
    images = [np.asarray(m.image_of) for m in maps]
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            # maps[i](x) * maps[j](y) == maps[j](y) * maps[i](x) for all x, y
            if not np.array_equal(G.table[np.ix_(images[i], images[j])],
                                  G.table[np.ix_(images[j], images[i])].T):
                return False
    recon = _product_table(rule, maps, range(rule.width), cap)
    return bool(np.array_equal(recon, local_table(rule, cap)))


def _product_table(rule: McaRule, maps: list[GroupMap], ordering: Iterable[int],
                   cap: int) -> np.ndarray:
    """Local table of the product of per-position maps, taken in ``ordering``."""
    factors = [(rule.v_lo + t, maps[t]) for t in ordering]
    return local_table(McaRule(rule.group, rule.v_lo, rule.v_hi, factors), cap)


def extract_eca_coefficients(rule: McaRule, cap: int = STATE_CAP) -> list[GroupMap]:
    """Per-position coefficients of an endomorphic local map.

    Raises unless the map is a homomorphism; re-verifies the product
    reconstruction in every factor ordering (images commute, so all
    orderings must agree) when the window is small enough to enumerate.
    """
    if not is_homomorphic_local(rule, cap):
        raise TableInvalidError("local map is not a homomorphism")
    maps = _per_position_maps(rule, cap)
    assert maps is not None
    if rule.width <= 5:
        import itertools
        tbl = local_table(rule, cap)
        for ordering in itertools.permutations(range(rule.width)):
            if not np.array_equal(_product_table(rule, maps, ordering, cap), tbl):
                raise TableInvalidError(
                    f"coefficient product disagrees under ordering {ordering}")
    return maps


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


def _solve_cell(rule: McaRule, window: list[int | None], free_slot: int,
                target: int, cell_name: int) -> int:
    """Unique value of window[free_slot] whose window word maps to target."""
    B = rule.group.order
    window[free_slot] = 0
    words = word_index(window, B) + np.arange(B) * B ** (rule.width - 1 - free_slot)
    hits = np.flatnonzero(local_table(rule)[words] == target)
    if len(hits) != 1:
        raise NotPermutativeError(
            f"cell {cell_name}: {len(hits)} completions instead of 1")
    return int(hits[0])


def filling_solve(op: LocalFamily, target: Config, seed: Config) -> Config:
    """Extend a seed block to the unique preimage of a target block.

    For a (bi)permutative family with overlaps L, R: given the target d on
    [J..K) and a seed on [j-L .. j+R) for some j in [J..K), there is exactly
    one configuration on [J-L .. K+R) extending the seed whose image is d.
    Solving rightward pins cell m+R from d_m (right-permutativity); solving
    leftward pins cell m-L (left-permutativity, needed only when j > J).
    """
    some_rule = _rule_at(op, target.lo)
    L, R = some_rule.left_overlap, some_rule.right_overlap
    J, K = target.lo, target.hi
    if K <= J:
        raise WindowError("target block must be nonempty")
    j = seed.lo + L
    if seed.hi - seed.lo != L + R or not (J <= j < K):
        raise WindowError(
            f"seed must cover [j-{L} .. j+{R}) for some j in [{J}..{K})")
    lo, hi = J - L, K + R
    cells: list[int | None] = [None] * (hi - lo)
    for t, val in enumerate(seed.word):
        cells[seed.lo + t - lo] = val
    # rightward: output cell m determines input cell m+R
    for m in range(j, K):
        rule = _rule_at(op, m)
        if rule.right_overlap <= 0 or not _extreme_bijective(rule, "right", STATE_CAP):
            raise NotPermutativeError(f"rule at cell {m} is not right-permutative")
        window = cells[m + rule.v_lo - lo: m + rule.v_hi + 1 - lo]
        free = rule.width - 1          # cell m + v_hi = m + R
        val = _solve_cell(rule, list(window), free, target.at(m), m + R)
        cells[m + R - lo] = val
    # leftward: output cell m determines input cell m-L
    for m in range(j - 1, J - 1, -1):
        rule = _rule_at(op, m)
        if rule.left_overlap <= 0 or not _extreme_bijective(rule, "left", STATE_CAP):
            raise NotPermutativeError(f"rule at cell {m} is not left-permutative")
        window = cells[m + rule.v_lo - lo: m + rule.v_hi + 1 - lo]
        val = _solve_cell(rule, list(window), 0, target.at(m), m - L)
        cells[m - L - lo] = val
    assert all(v is not None for v in cells)
    result = Config(target.group, lo, cells)  # type: ignore[arg-type]
    # sanity: the filled block maps onto the target
    block = np.array(result.word[J + op.v_lo - lo: K + op.v_hi - lo], dtype=np.int64)
    if tuple(step_cells(op, block, J + op.v_lo).tolist()) != target.word:
        raise NotPermutativeError("internal: filled block does not map to target")
    return result
