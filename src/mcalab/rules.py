"""Multiplicative cellular-automaton rules and finite configurations.

A rule over a finite group B reads a window of cells ``v_lo..v_hi`` and
outputs ``bias * prod_i coeff_i(cell at pos_i)`` — an ordered product, so
repeated positions encode exponents.  ``one_sided=True`` marks rules viewed
on the one-sided lattice (time flows right; bipermutative then means
right-permutative).
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import TableInvalidError, WindowError
from .groups import FiniteGroup, GroupMap
from .util import STATE_CAP, check_cap

__all__ = [
    "McaRule",
    "Config",
    "PermutativityFlags",
    "eval_local",
    "local_table",
    "apply_window",
    "permutativity",
    "is_bipermutative",
]


@dataclass(eq=False)
class McaRule:
    """Local rule: bias times an ordered product of endomorphism factors.

    ``factors`` is an ordered list of (position, coefficient) pairs with
    positions inside [v_lo, v_hi]; coefficients are endomorphisms of the
    group.  The same position may repeat (powers).  The overlaps
    L = -min(v_lo, 0) and R = max(0, v_hi) are never negative.
    """

    group: FiniteGroup
    v_lo: int
    v_hi: int
    factors: tuple[tuple[int, GroupMap], ...]
    bias: int = 0
    one_sided: bool = False
    _table: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)
    _anf: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _program: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


class Config:
    """A finite block of cells: ``word[t]`` is the element at cell offset+t.

    Configs compare and hash by (group, offset, word).
    """

    def __init__(self, group: FiniteGroup, offset: int, word: Iterable[int]):
        self.group = group
        self.offset = offset
        self.word = tuple(int(w) for w in word)
        for w in self.word:
            if not (0 <= w < group.order):
                raise TableInvalidError(f"cell value {w} outside group")

    def _key(self) -> tuple:
        return (self.group, self.offset, self.word)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


def eval_local(rule: McaRule, word: Sequence[int]) -> int:
    """Apply the local map to a window word (index 0 = cell v_lo)."""
    if len(word) != rule.width:
        raise WindowError(f"local word needs {rule.width} cells, got {len(word)}")
    G = rule.group
    out = rule.bias
    for pos, coeff in rule.factors:
        out = G.mul(out, coeff(word[pos - rule.v_lo]))
    return out


def code_dtype(order: int, width: int) -> np.dtype:
    """Smallest signed integer dtype holding every window code 0 ..
    order**width - 1: one that reaches -(order**width) does."""
    return np.min_scalar_type(-(order ** width))


def local_table(rule: McaRule, cap: int = STATE_CAP) -> np.ndarray:
    """Dense lookup of the local map over all |B|**width window words.

    Indexed big-endian (leftmost window cell most significant).  Values are
    in the :func:`code_dtype` of the rule, so :func:`step_cells` looks its
    window codes up in this one table.  Cached on the rule, read-only; a
    copy made by ``dataclasses.replace`` starts with no table.
    """
    if rule._table is None:
        check_cap(rule.group.order, rule.width, cap, "local rule table")
        _seed_table(rule, _local_tables(rule.group, rule.width, [rule.bias], [
            (pos - rule.v_lo, [coeff.image_of]) for pos, coeff in rule.factors])[0])
    return rule._table


def _seed_table(rule: McaRule, table: np.ndarray) -> None:
    """Cache ``table``, a read-only row of :func:`_local_tables` for this
    very rule, as its :func:`local_table`."""
    rule._table = table


def _local_tables(group: FiniteGroup, width: int, bias,
                  factors: Sequence[tuple[int, Sequence]]) -> np.ndarray:
    """Row r: the local table, as in :func:`local_table` and read-only, of
    the rule with bias ``bias[r]`` and factors ``(cell, images[r])``, cell 0
    leftmost.

    Each factor is one gather in the flattened group table, its images
    broadcast along its cell's axis of a (rules,) + (|G|,)*width array.
    """
    s, n = group.order, len(bias)
    code = code_dtype(s, width)
    # an index x*s + y into the flattened table must fit as well
    idx = np.promote_types(code, np.min_scalar_type(-(s * s)))
    table = group.table.astype(idx).ravel()
    out = np.asarray(bias, dtype=idx).reshape((n,) + (1,) * width)
    for cell, images in factors:
        shape = [n] + [1] * width
        shape[1 + cell] = s
        out = table.take(out * s + np.asarray(images, dtype=idx).reshape(shape))
    out = np.broadcast_to(out, (n,) + (s,) * width).reshape(n, s ** width)
    out = out.astype(code, copy=False)
    out.setflags(write=False)
    return out


def step_buffers(op: McaRule, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Workspace of :func:`step_cells` for blocks of at most ``shape[0]`` cells.

    Two ping-pong buffers for the window codes, in the :func:`code_dtype`;
    the codes as table indices (intp, so no lookup converts them); and the
    output, in the code dtype, sized to the image of a ``shape`` block.
    One workspace carries a whole chain: every step and every block with
    ``shape``'s trailing axes and at most ``shape[0]`` cells, each step fed
    the previous step's result in place.
    """
    k = shape[0] - op.spread
    if k < 0:
        raise WindowError(f"block of {shape[0]} cells is narrower than the rule")
    rest, code = tuple(shape[1:]), code_dtype(op.group.order, op.width)
    codes = max(shape[0] - 1, 0)
    return (np.empty((codes,) + rest, dtype=code), np.empty((codes,) + rest, dtype=code),
            np.empty((k,) + rest, dtype=np.intp), np.empty((k,) + rest, dtype=code))


def step_cells(op: McaRule, cells: np.ndarray, cap: int = STATE_CAP,
               work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """One synchronous step on integer words, by local-table lookups.

    Axis 0 of ``cells`` is the cell axis: for a block starting at cell J,
    ``cells[t]`` holds cell J+t of every word, so each cell is one
    contiguous plane; every value is an element index of the group.  The
    result holds the image cells [J - v_lo .. J + k - v_hi) on axis 0,
    other axes unchanged.  Window
    codes and the result are in the :func:`code_dtype` (int16 for Q8 at
    width 4): input of any integer dtype is converted once, and a chain of
    steps fed its own output never casts or copies.  The codes are built by
    in-place multiplies and adds in the buffers of ``work``
    (a :func:`step_buffers` workspace the block fits; fresh ones for its
    shape when None) and looked up in the rule's :func:`local_table`, which
    is in the same dtype.  The result is the leading cells of the output
    buffer of ``work``, the buffer itself on an exact fit.  The input is
    read in full before the lookup writes, so it may be that very result:
    a chain steps in place.
    """
    s, width, shape = op.group.order, op.width, np.shape(cells)
    if work is None:
        work = step_buffers(op, shape)
    *buffers, index, out = work
    k = shape[0] - op.spread
    if shape[1:] != out.shape[1:] or not 0 <= k <= len(out):
        raise WindowError(f"block of shape {shape} does not fit the "
                          f"workspace of output shape {out.shape}")
    if k < len(out):
        index, out = index[:k], out[:k]
    table = local_table(op, cap)
    cells = np.ascontiguousarray(cells, dtype=out.dtype)
    # codes of width 2w from two of width w, then Horner for the rest, each
    # into the buffer the codes it reads are not in
    codes, w, turn = cells, 1, 0
    while 2 * w <= width:
        n = len(codes) - w
        dst = buffers[turn][:n]
        np.multiply(codes[:n], s ** w, out=dst)
        dst += codes[w:]
        codes, w, turn = dst, 2 * w, 1 - turn
    for t in range(w, width):
        n = len(codes) - 1
        dst = buffers[turn][:n]
        np.multiply(codes[:n], s, out=dst)
        dst += cells[t:t + n]
        codes, turn = dst, 1 - turn
    np.copyto(index, codes)
    # every code is a valid index: "wrap" looks up unbuffered, straight into out
    return table.take(index, out=out, mode="wrap")


def algebraic_normal_form(rule: McaRule, cap: int = STATE_CAP) -> tuple:
    """The local map over a group of order 2**b as b factored Boolean functions.

    Element codes are b-bit numbers, so output bit k of :func:`local_table`
    is a Boolean function of the width·b input bits: the XOR of the
    monomials (ANDs) of its algebraic normal form, read off one Möbius
    transform of that bit's truth table.  A monomial is a tuple of
    (bit, cell) factors, cell 0 leftmost; the empty tuple is the constant 1.
    Entry k groups them as ``(head, cofactors)`` pairs, each worth head ·
    XOR(cofactors): the factor shared by the most monomials of degree ≥ 2
    heads them while it is shared at all, and the rest sit under head None
    (worth 1).  Cached on the rule, built under the table's cap.
    """
    if rule._anf is None:
        s, width = rule.group.order, rule.width
        bits = s.bit_length() - 1
        if s != 1 << bits:
            raise TableInvalidError(f"group order {s} is not a power of two")
        table = local_table(rule, cap)
        # bit p of a table index is bit p % b of cell width-1 - p // b
        n = bits * width
        rule._anf = tuple(_factor_out_heads([
            tuple((p % bits, width - 1 - p // bits) for p in range(n) if m >> p & 1)
            for m in _monomials(table, k)]) for k in range(bits))
    return rule._anf


def _monomials(table: np.ndarray, k: int) -> list[int]:
    """The algebraic normal form of bit k of a 1-D ``table`` of 2**n
    entries, as a function of the n index bits: the index-bit masks of its
    monomials, read off one Möbius transform of the bit's truth table."""
    f = ((table >> k) & 1).astype(np.uint8)
    for p in range(f.size.bit_length() - 1):
        pairs = f.reshape(-1, 2, 1 << p)
        pairs[:, 1] ^= pairs[:, 0]
    return np.flatnonzero(f).tolist()


def _factor_out_heads(monomials: list[tuple]) -> tuple:
    """``(head, cofactors)`` groups of ``monomials``, as in
    :func:`algebraic_normal_form`: a head shared by g monomials turns their
    g ANDs and g XORs into g - 1 XORs, one AND and one XOR."""
    rest = [m for m in monomials if len(m) >= 2]
    groups = []
    while rest:
        head, shared = Counter(f for m in rest for f in m).most_common(1)[0]
        if shared < 2:
            break
        groups.append((head, tuple(tuple(f for f in m if f != head)
                                   for m in rest if head in m)))
        rest = [m for m in rest if head not in m]
    return ((None, tuple(m for m in monomials if len(m) < 2) + tuple(rest)),
            *groups)


def _plane_program(rule: McaRule, cap: int = STATE_CAP) -> tuple:
    """The straight-line program of :func:`step_planes`: ``(shared, planes)``.

    An atom (symbol, cell) is that symbol's slice from the cell on; symbols
    0..b-1 are the input bit planes.  The linear forms are each plane's and
    each head's degree-1 (co)factors in :func:`algebraic_normal_form`.
    While a pair shape, (A, c) and (B, c + d) in one form, occurs twice or
    more over all forms without overlap, a shared symbol v[c] = A[c] ^
    B[c + d], listed as (A, B, d, reach of v), takes each such pair's place
    as (v, c): greedy XOR sharing (Paar 1997).  A plane is (atoms,
    products, heads, constant), a head (atom, atoms, products) over two or
    more terms.  Cached on the rule, under the table's cap.
    """
    if rule._program is None:
        anf = algebraic_normal_form(rule, cap)
        forms = [[m[0] for m in cofactors if len(m) == 1]
                 for groups in anf for _, cofactors in groups]
        shared, reach = [], [0] * len(anf)
        while True:
            roots = [_shape_roots(form) for form in forms]
            count = Counter(shape for found in roots
                            for shape, cells in found.items() for _ in cells)
            shape = max(count, key=count.get, default=None)
            if count[shape] < 2:
                break
            a, b, d = shape
            reach.append(max(reach[a], reach[b] + d))
            shared.append((*shape, reach[-1]))
            for form, found in zip(forms, roots):
                for c in found.get(shape, ()):
                    form.remove((a, c))
                    form.remove((b, c + d))
                    form.append((len(reach) - 1, c))
        forms, planes = iter(forms), []
        for (_, rest), *groups in anf:
            atoms, products, heads = next(forms), [m for m in rest if len(m) > 1], []
            for head, cofactors in groups:
                terms = next(forms), [m for m in cofactors if len(m) > 1]
                if sum(map(len, terms)) == 1:
                    products.append((head, *terms[0], *itertools.chain(*terms[1])))
                else:
                    heads.append((head, *terms))
            planes.append((atoms, products, heads, () in rest))
        rule._program = (shared, planes)
    return rule._program


def _shape_roots(form: list[tuple[int, int]]) -> dict[tuple, list[int]]:
    """Each pair shape (A, B, d) in ``form``, d >= 0 and A < B at d = 0,
    with the cells c of its occurrences, leftmost first and disjoint."""
    roots: dict[tuple, list[int]] = {}
    for (c, a), (e, b) in itertools.combinations(sorted((c, s) for s, c in form), 2):
        taken = roots.setdefault((a, b, e - c), [])
        if a != b or 2 * c - e not in taken:
            taken.append(c)
    return roots


def plane_step_ops(rule: McaRule, cap: int = STATE_CAP) -> int:
    """Word operations :func:`step_planes` spends per output cell and lane:
    a shared XOR, each :func:`_xor_sum`, a head's AND and XOR, a NOT."""
    def xor_sum(atoms, products):
        return max(len(atoms) + sum(map(len, products)) - 1, 1)

    shared, planes = _plane_program(rule, cap)
    return len(shared) + sum(
        xor_sum(atoms, products) + constant
        + sum(xor_sum(form, prods) + 2 for _, form, prods in heads)
        for atoms, products, heads, constant in planes)


def to_planes(words: np.ndarray, bits: int) -> np.ndarray:
    """Bit-slice sample-major byte codes: (count, cells) -> (bits, cells, lanes).

    ``planes[k, t]`` holds bit k of cell t of every word, sample i in bit
    i % 64 of uint64 lane i // 64; the last lane is padded with zeros.
    Slabs of at most 32 cells are transposed into one reused byte buffer,
    eight samples' codes to each uint64, and one multiply gathers bit k of
    those eight bytes into the top byte.
    """
    if bits > 8:
        raise TableInvalidError(f"planes pack byte codes, not {bits}-bit ones")
    count, cells = words.shape
    lanes = -(-count // 64)
    planes = np.empty((bits, cells, lanes), dtype="<u8")
    codes = np.zeros((min(cells, 32), 64 * lanes), dtype=np.uint8)
    eights = codes.view("<u8")
    tmp = np.empty_like(eights)
    for t in range(0, cells, 32):
        n = min(32, cells - t)
        codes[:n, :count] = words[:, t:t + n].T
        for k in range(bits):
            np.right_shift(eights[:n], k, out=tmp[:n])
            tmp &= 0x0101010101010101
            tmp *= 0x0102040810204080   # bit k of byte j lands on bit 56 + j
            tmp >>= 56
            np.copyto(planes[k, t:t + n].view(np.uint8), tmp[:n], casting="unsafe")
    return planes


def from_planes(planes: np.ndarray, count: int) -> np.ndarray:
    """Byte codes (count, cells) of the first ``count`` samples of ``planes``,
    the inverse of :func:`to_planes`."""
    bits, cells, lanes = planes.shape
    codes = np.zeros((cells, 64 * lanes), dtype=np.uint8)
    for k in range(bits):
        plane = np.ascontiguousarray(planes[k], dtype="<u8").view(np.uint8)
        codes |= np.unpackbits(plane, axis=-1, bitorder="little") << k
    return codes[:, :count].T


def plane_map(table: np.ndarray) -> tuple:
    """A byte map ``table`` of 2**b entries below 2**b as b Boolean
    functions of the b code bits, one per output bit: the monomials of its
    algebraic normal form (:func:`_monomials`), each a tuple of input bits,
    the empty tuple being the constant 1."""
    n = len(table).bit_length() - 1
    return tuple(tuple(tuple(p for p in range(n) if m >> p & 1)
                       for m in _monomials(table, k)) for k in range(n))


def map_planes(form: tuple, planes: np.ndarray) -> np.ndarray:
    """The planes of ``table[code]`` for the codes packed in ``planes`` as
    :func:`to_planes` packs them, ``form`` being :func:`plane_map`'s: each
    output plane is one :func:`_xor_sum` of whole input planes."""
    out = np.empty((len(form),) + planes.shape[1:], dtype=planes.dtype)
    tmp = np.empty_like(out[0])
    for plane, terms in zip(out, form):
        _xor_sum([planes[t[0]] for t in terms if len(t) == 1],
                 [[planes[p] for p in t] for t in terms if len(t) > 1], plane, tmp)
        if () in terms:
            np.invert(plane, out=plane)
    return out


def _xor_sum(atoms: list, products: list, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out`` = XOR of the ``atoms`` slices and each product's AND chain,
    the first chain (or else the first atoms) written with ``out=``."""
    if not products:
        if len(atoms) > 1:
            np.bitwise_xor(atoms[0], atoms[1], out=out)
        else:
            np.copyto(out, atoms[0] if atoms else 0)
        atoms = atoms[2:]
    for i, (first, second, *rest) in enumerate(products):
        dst = tmp if i else out
        np.bitwise_and(first, second, out=dst)
        for factor in rest:
            dst &= factor
        if i:
            out ^= tmp
    for atom in atoms:
        out ^= atom


def step_planes(rule: McaRule, planes: np.ndarray,
                cap: int = STATE_CAP) -> np.ndarray:
    """One synchronous step on bit-sliced words, :func:`step_cells`'s twin.

    ``planes`` is (b, cells, lanes) uint64 as :func:`to_planes` packs it,
    over a group of order 2**b; the result holds the image cells, b planes
    of ``cells - spread`` cells.  It runs the rule's plane program: each
    shared XOR once, then each output plane as the XOR of its atoms'
    shifted slices and its products' AND chains, each head ANDed with its
    own such sum, then NOT for a constant, so it costs
    :func:`plane_step_ops` word operations on 64 samples at a time.
    """
    shared, program = _plane_program(rule, cap)
    cells = planes.shape[1]
    k = cells - rule.spread
    if k < 0:
        raise WindowError(f"block of {cells} cells is narrower than the rule")
    arrays = list(planes)
    for a, b, d, reach in shared:
        arrays.append(np.bitwise_xor(arrays[a][:cells - reach],
                                     arrays[b][d:d + cells - reach]))

    def slices(atoms):
        return [arrays[s][c:c + k] for s, c in atoms]

    out = np.empty((len(program), k) + planes.shape[2:], dtype=planes.dtype)
    value, tmp = np.empty((2,) + out.shape[1:], dtype=planes.dtype)
    for plane, (atoms, products, heads, constant) in zip(out, program):
        _xor_sum(slices(atoms), [slices(m) for m in products], plane, tmp)
        for (bit, cell), form, prods in heads:
            _xor_sum(slices(form), [slices(m) for m in prods], value, tmp)
            value &= arrays[bit][cell:cell + k]
            plane ^= value
        if constant:
            np.invert(plane, out=plane)
    return out


def apply_window(op: McaRule, config: Config) -> Config:
    """One synchronous step on a finite block; the window shrinks.

    Input on [J..K) yields output on [J - v_lo .. K - v_hi).
    """
    v_lo, v_hi = op.v_lo, op.v_hi
    out_lo, out_hi = config.lo - v_lo, config.hi - v_hi
    if out_lo > out_hi:
        raise WindowError(f"block of {len(config.word)} cells is narrower than the rule")
    word = [eval_local(op, config.word[m + v_lo - config.offset:
                                        m + v_hi + 1 - config.offset])
            for m in range(out_lo, out_hi)]
    return Config(config.group, out_lo, word)


def _merge_positions(group: FiniteGroup, factors: Iterable[tuple[int, GroupMap]]
                     ) -> dict[int, GroupMap]:
    """One map per position: its factors multiplied pointwise, in order.

    An endomorphism when the factors' images commute (over an abelian group).
    """
    merged: dict[int, GroupMap] = {}
    for pos, coeff in factors:
        prev = merged.get(pos)
        merged[pos] = coeff if prev is None else GroupMap(
            group, group, group.table[prev.image_of, coeff.image_of], True,
            _trusted=True)
    return merged


# -- permutativity -----------------------------------------------------------


class PermutativityFlags(NamedTuple):
    left: bool
    right: bool


def _extreme_bijective(rule: McaRule, side: str, cap: int) -> bool:
    """Exhaustive bijectivity of the local map in its extreme window cell."""
    B = rule.group.order
    tbl = local_table(rule, cap)
    # each row: the outputs as the leftmost (most significant) or the
    # rightmost (least significant) cell varies
    cols = tbl.reshape(B, -1).T if side == "left" else tbl.reshape(-1, B)
    return bool((np.sort(cols, axis=1) == np.arange(B)).all())


def permutativity(op: McaRule, cap: int = STATE_CAP) -> PermutativityFlags:
    """Left/right permutativity flags following the overlap convention.

    Left-permutativity requires L > 0 (the window genuinely reaches left of
    the output cell) plus exhaustive bijectivity in the leftmost cell, and
    symmetrically for right.
    """
    left = op.left_overlap > 0 and _extreme_bijective(op, "left", cap)
    right = op.right_overlap > 0 and _extreme_bijective(op, "right", cap)
    return PermutativityFlags(left=left, right=right)


def is_bipermutative(op: McaRule, cap: int = STATE_CAP) -> bool:
    """Permutative on both overlap sides (right side only for one-sided rules)."""
    flags = permutativity(op, cap)
    return flags.right if op.one_sided else (flags.left and flags.right)
