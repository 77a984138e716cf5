"""Characters, dual actions, diffusion ranks, and randomization experiments.

Harmonic analysis here is strictly abelian: characters live on abelian
groups (or abelian factors of a tower) in the coordinates provided by
``abelian_invariants``.  The dual action of a linear rule on characters is
exact integer arithmetic; its correctness is pinned by the adjointness
identity <chi, push_forward(rule, m)> == <dual_action(rule, chi), m>.
Cesàro randomization experiments combine an exact push-forward chain on a
shrinking window with an optional seeded Monte-Carlo extension.
"""
from __future__ import annotations

import cmath
import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (CapExceededError, McaLabError, NotAbelianError,
                     NotCentralError, WindowError)
from .groups import AbelianCoords, FiniteGroup, GroupMap, abelian_invariants
from .measures import (_CHUNK, MeasureSpec, WindowMeasure, push_forward,
                       star_product_measure)
from .rules import (McaRule, _merge_positions, from_planes, plane_step_ops,
                    step_cells, step_planes, to_planes)
from .util import STATE_CAP, cell_dtype, check_cap, digit_planes, is_integer

__all__ = [
    "Character",
    "bernoulli_fourier",
    "LinearRuleDual",
    "dual_action",
    "DiffusionReport",
    "diffusion_report",
    "relative_diffusion_rank",
    "fibre_rank_independence",
    "FibreRankCheck",
    "Probe",
    "ProbeRow",
    "TvRow",
    "RandomizationReport",
    "cesaro_randomization",
]


# -- characters ---------------------------------------------------------------


class Character:
    """A character of A^(window) with finite support, times a fixed phase.

    ``support`` maps cell index to a nonzero coefficient tuple against the
    cyclic orders in ``invariants``; evaluation multiplies
    exp(2πi Σ cᵢaᵢ/nᵢ) over the support.  ``phase`` carries the constant of
    an affine character (1 for a plain character).

    Every character holds coefficient rows: ascending int64 cells and a
    rank × d int64 matrix reduced mod the orders, however it was built, so
    it equals its ``Character.make`` twin.  ``support`` is a tuple view of
    the rows built on first read, so a chain that reads only ``rank`` never
    builds one.  Equality and hashing compare (invariants, support, phase),
    never ``coords``.
    """

    __slots__ = ("invariants", "phase", "coords", "_support", "_cells", "_coeffs")

    def __init__(self, invariants: tuple[int, ...],
                 support: tuple[tuple[int, tuple[int, ...]], ...],
                 phase: complex = 1.0 + 0j, coords: AbelianCoords | None = None):
        seen = set()
        items = []
        for cell, coeff in support:
            if not is_integer(cell):
                raise McaLabError(f"support cell {cell!r} is not an integer")
            if cell in seen:
                raise McaLabError(f"duplicate support cell {cell}")
            seen.add(cell)
            if len(coeff) != len(invariants):
                raise McaLabError("coefficient tuple has wrong arity")
            if not all(map(is_integer, coeff)):
                raise McaLabError(f"coefficients {tuple(coeff)!r} at cell {cell} "
                                  "are not all integers")
            # reduced as Python integers, so entries past int64 fit
            coeff = tuple(c % n for c, n in zip(coeff, invariants))
            if not any(coeff):
                raise McaLabError("support tuples must be nonzero")
            if not -2 ** 63 <= cell < 2 ** 63:
                raise McaLabError(f"support cell {cell} is outside int64")
            items.append((cell, coeff))
        items.sort()
        coeffs = np.array([coeff for _, coeff in items], dtype=np.int64)
        self._adopt(invariants, np.array([cell for cell, _ in items], dtype=np.int64),
                    coeffs.reshape(len(items), len(invariants)), phase, coords)

    @classmethod
    def _from_rows(cls, invariants: tuple[int, ...], cells: np.ndarray,
                   coeffs: np.ndarray, phase: complex,
                   coords: AbelianCoords | None) -> "Character":
        """The character on ascending distinct ``cells`` with nonzero reduced
        ``coeffs`` rows; both arrays are owned from here on."""
        return cls.__new__(cls)._adopt(invariants, cells, coeffs, phase, coords)

    def _adopt(self, invariants: tuple[int, ...], cells: np.ndarray,
               coeffs: np.ndarray, phase: complex,
               coords: AbelianCoords | None) -> "Character":
        """Freeze the rows and fill every slot; ``support`` waits for a read."""
        cells.setflags(write=False)
        coeffs.setflags(write=False)
        for name, value in zip(self.__slots__,
                               (invariants, phase, coords, None, cells, coeffs)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Character is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Character, (self.invariants, self.support, self.phase, self.coords))

    def _key(self) -> tuple:
        return (self.invariants, self.support, self.phase)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Character(invariants={self.invariants!r}, "
                f"support={self.support!r}, phase={self.phase!r})")

    @property
    def support(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        if self._support is None:
            object.__setattr__(self, "_support",
                               _support_tuple(self._cells, self._coeffs))
        return self._support

    @classmethod
    def make(cls, coords: AbelianCoords, support: dict[int, Sequence[int]],
             phase: complex = 1.0 + 0j) -> "Character":
        """The character of ``support`` with its all-zero cells dropped."""
        orders = coords.orders
        items = tuple((cell, coeff) for cell, coeff in support.items()
                      if any(c % n for c, n in zip(coeff, orders)))
        return cls(orders, items, phase, coords)

    @property
    def rank(self) -> int:
        return len(self._cells)

    def cells(self) -> tuple[int, ...]:
        return tuple(self._cells.tolist())

    def is_trivial(self) -> bool:
        return self.rank == 0

    def cell_values(self, coords: AbelianCoords | None = None
                    ) -> dict[int, np.ndarray]:
        """Per-cell complex value table over group-element indices."""
        coords = self._checked_coords(coords)
        return {cell: _value_table(coords, coeff) for cell, coeff in self.support}

    def _checked_coords(self, coords: AbelianCoords | None) -> AbelianCoords:
        coords = coords or self.coords
        if coords is None:
            raise McaLabError("character needs coordinates to evaluate")
        if coords.orders != self.invariants:
            raise McaLabError("coordinate system does not match the character")
        return coords


def _support_tuple(cells: np.ndarray, coeffs: np.ndarray
                   ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``support`` view of coefficient rows: ((cell, coefficients), …)."""
    return tuple(zip(cells.tolist(), map(tuple, coeffs.tolist())))


def _value_table(coords: AbelianCoords, coeff: tuple[int, ...]) -> np.ndarray:
    """exp(2πi Σ cᵢaᵢ/nᵢ) over group-element indices."""
    vals = np.empty(coords.group.order, dtype=np.complex128)
    for g in range(coords.group.order):
        t = coords.to_tuple[g]
        angle = 2.0 * math.pi * math.fsum(
            c * a / n for c, a, n in zip(coeff, t, coords.orders))
        vals[g] = cmath.exp(1j * angle)
    return vals


def _pairing(tabs: dict[int, np.ndarray], phase: complex, m: WindowMeasure,
             cap: int) -> complex:
    """Σ_w m[w]·phase·Π_cell tabs[cell][w_cell], summed in word-index order.

    ``tabs`` maps a cell to its complex values over the alphabet; each
    weight is the correctly rounded float of num/den.  The cells of every
    word are held in the cell dtype, and the weights multiply the probe
    values in place before the one sum.
    """
    for cell in tabs:
        if not (m.lo <= cell < m.hi):
            raise WindowError(f"support cell {cell} outside [{m.lo}..{m.hi})")
    check_cap(m.size, m.length, cap, "fourier sum")
    s, length = m.size, m.length
    # digits[w_0, …, w_{ℓ-1}, t] = w_t: cell t's digit runs along axis t
    digits = np.empty((s,) * length + (length,), dtype=cell_dtype(s))
    for t in range(length):
        digits[..., t] = np.arange(s, dtype=digits.dtype).reshape(
            [-1 if u == t else 1 for u in range(length)])
    vals = _probe_values(tabs, phase, digits.reshape(s ** length, length), m.lo)
    # one float division rounds correctly only while num and den are exact
    # in binary64; past 2**53 divide the Python ints instead
    weights = (m.num / m.den if m.den <= 2 ** 53
               else np.array([n / m.den for n in m.num.tolist()], dtype=np.float64))
    vals *= weights
    return complex(vals.sum())


def _probe_values(tabs: dict[int, np.ndarray], phase: complex, words: np.ndarray,
                  lo: int) -> np.ndarray:
    """phase·Π_cell tabs[cell][word's cell] for each row of ``words``, whose
    column t holds cell lo + t."""
    vals = np.full(len(words), phase, dtype=np.complex128)
    for cell, tab in tabs.items():
        vals *= tab[words[:, cell - lo]]
    return vals


def bernoulli_fourier(chi: Character, cell_dist: Sequence,
                      coords: AbelianCoords | None = None) -> complex:
    """<chi, μ> for an i.i.d. product measure, via per-cell factorization.

    ``cell_dist`` is the single-cell distribution over group-element
    indices.  Equals the window sum Σ_w μ[w]·chi(w) on any window that
    contains the support.  Each distinct coefficient tuple is paired with
    ``cell_dist`` once; the factors are folded in support order.
    """
    coords = chi._checked_coords(coords)
    probs = [float(p) for p in cell_dist]
    factors: dict[tuple[int, ...], complex] = {}
    val = chi.phase
    for _, coeff in chi.support:
        if coeff not in factors:
            tab = _value_table(coords, coeff)
            factors[coeff] = complex(sum(p * t for p, t in zip(probs, tab)))
        val *= factors[coeff]
    return val


# -- dual action of linear rules ----------------------------------------------


def _endo_matrix(coords: AbelianCoords, endo: GroupMap) -> tuple[tuple[int, ...], ...]:
    """Column j = coordinates of endo(generator j)."""
    cols = [coords.to_tuple[endo(g)] for g in coords.generators]
    d = len(coords.orders)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


@dataclass(frozen=True)
class LinearRuleDual:
    """A linear rule over an abelian group, in dual (coefficient) form.

    ``matrices[v]`` is the combined endomorphism at position v as an
    integer matrix in the invariant coordinates; ``bias_coords`` is the
    rule bias.  Acting on a character transposes these matrices onto the
    coefficient tuples.
    """

    coords: AbelianCoords
    matrices: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    bias_coords: tuple[int, ...]

    @classmethod
    def from_rule(cls, rule: McaRule) -> "LinearRuleDual":
        A = rule.group
        if not A.is_abelian:
            raise NotAbelianError("dual form needs an abelian group")
        coords = abelian_invariants(A)
        combined = _merge_positions(A, rule.factors)
        mats = tuple((pos, _endo_matrix(coords, endo))
                     for pos, endo in sorted(combined.items()))
        return cls(coords, mats, coords.to_tuple[rule.bias])

    def positions(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.matrices)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions, weights, orders) as arrays, for ``dual_action``.

        ``weights[p]`` is the d × d matrix W[i, j] = matrix_p[i][j] ·
        orders[j] / orders[i], so a coefficient row times it is the row's
        image at position p.  That division is exact for every row exactly
        when it is exact for every entry, which a bad matrix fails.
        """
        orders = self.coords.orders
        d = len(orders)
        # scale[i] = big // orders[i] for big the largest order, and
        # W = M · scale[i] / scale[j]
        scale = np.array([orders[-1] // n for n in orders], dtype=np.int64)
        weights = np.array([matrix for _, matrix in self.matrices],
                           dtype=np.int64).reshape(-1, d, d) * scale[:, None]
        if (weights % scale).any():
            raise McaLabError("dual coefficient is not integral; bad matrix")
        return (np.array(self.positions(), dtype=np.int64), weights // scale,
                np.array(orders, dtype=np.int64))

    @cached_property
    def _bias_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(radix, factors): ``factors[row @ radix]`` is chi_row(bias), the
        value of character ``bias`` at the element with coordinates ``row``,
        for every reduced coefficient row in mixed-radix order."""
        coords = self.coords
        orders = coords.orders
        radix = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))],
                         dtype=np.int64)
        factors = np.empty(coords.group.order, dtype=np.complex128)
        factors[np.array(coords.to_tuple, dtype=np.int64) @ radix] = _value_table(
            coords, self.bias_coords)
        return radix, factors


def dual_action(dual: LinearRuleDual, chi: Character) -> Character:
    """Coefficients of chi ∘ rule: mass at cell k spreads to cells k+v.

    The convention matches <chi, push_forward(rule, m)> ==
    <dual_action(dual, chi), m>; the bias contributes one phase factor
    chi_k(bias) per support cell, folded in support order from a table
    over all reduced rows.  The step itself is :func:`_merge_taps` on the
    coefficient rows keyed by their cells, with the rule's positions as
    the taps: one integer product with the weights of every position, one
    sort of the target cells, a summed add into each distinct target, one
    reduction mod the orders.  A step that would move a nonzero image row
    to a cell outside int64 is refused.
    """
    coords = dual.coords
    orders = coords.orders
    if chi.invariants != orders:
        raise McaLabError("character and dual rule have different invariants")
    d = len(orders)
    cells, coeffs = chi._cells, chi._coeffs
    radix, table = dual._bias_table
    # one product at a time, left to right, in support order
    phase = math.prod(table[coeffs @ radix].tolist(), start=chi.phase)
    if not len(cells) or not dual.matrices:
        return Character._from_rows(orders, np.empty(0, dtype=np.int64),
                                    np.empty((0, d), dtype=np.int64), phase, coords)
    positions, weights, order_arr = dual._arrays
    # cells ascend, so these two ends bound every target cell
    lo, hi = int(cells[0]) + int(positions.min()), int(cells[-1]) + int(positions.max())
    if lo < -2 ** 63 or hi >= 2 ** 63:
        # only nonzero image rows must land inside int64: a zero row adds
        # nothing wherever its target wraps to, and _merge_taps drops it
        live = ((coeffs @ weights) % order_arr).any(axis=2)
        ends = [(int(cells[row][0]) + v, int(cells[row][-1]) + v)
                for v, row in zip(positions.tolist(), live) if row.any()]
        lo, hi = min((a for a, _ in ends), default=0), max((b for _, b in ends), default=0)
        if lo < -2 ** 63 or hi >= 2 ** 63:
            raise McaLabError(f"dual step moves support to cells {lo}..{hi}, outside int64")
    targets, acc = _merge_taps(cells, coeffs, positions, weights, order_arr)
    return Character._from_rows(orders, targets, acc, phase, coords)


def _merge_taps(keys: np.ndarray, coeffs: np.ndarray, shifts: np.ndarray,
                weights: np.ndarray, orders: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """One dual step on a batch of at least one entry, through at least one tap.

    Entry i, the coefficient row ``coeffs[i]`` at int64 key ``keys[i]``,
    sends ``coeffs[i] @ weights[t]`` to key ``keys[i] + shifts[t]`` for each
    tap t.  Returns (keys, rows): one row per distinct target key in
    ascending key order, summed and reduced mod ``orders``, zero rows
    dropped.  The caller keeps every target key inside int64.
    """
    d = coeffs.shape[1]
    # tap-major: entry t·n + i is entry i moved by tap t
    targets = (keys + shifts[:, None]).ravel()
    adds = (coeffs @ weights).reshape(-1, d)
    by_key = targets.argsort(kind="stable")
    targets = targets[by_key]
    first = np.empty(len(targets), dtype=bool)
    first[0] = True
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    starts = first.nonzero()[0]
    acc = np.add.reduceat(adds[by_key], starts)
    acc %= orders
    keep = np.bitwise_or.reduce(acc, axis=1).nonzero()[0]
    return targets[starts[keep]], acc[keep]


def _orbit(dual: LinearRuleDual, chi: Character, steps: int) -> Iterator[Character]:
    """chi and its first ``steps`` images, one ``dual_action`` call per image."""
    yield chi
    for _ in range(steps):
        chi = dual_action(dual, chi)
        yield chi


def _rank_series(dual: LinearRuleDual, chi: Character, j_max: int) -> list[int]:
    """The ranks of chi and of its first ``j_max`` images: in Frobenius
    level blocks where :func:`_frobenius_route` allows, else one
    ``dual_action`` call per image."""
    route = _frobenius_route(dual, chi, j_max)
    if route is None:
        return [c.rank for c in _orbit(dual, chi, j_max)]
    return _frobenius_ranks(dual, chi, j_max, *route)


def _frobenius_route(dual: LinearRuleDual, chi: Character, j_max: int
                     ) -> tuple[int, int, int] | None:
    """(p, lo, span) when chi's rank series may be built in level blocks.

    That needs A = (Z/p)^d for a prime p and weight matrices that commute
    mod p, so that (Σ_v W_v x^v)^p = Σ_v W_v^p x^(pv); and every cell of
    every image to ``j_max`` inside [lo, lo + span) with (j_max + 1)·span
    within int64, so the per-step chain refuses no step and each (row,
    cell) has the int64 key row·span + cell − lo.
    """
    orders = dual.coords.orders
    p = orders[0] if orders else 0
    prime = p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))
    if not prime or set(orders) != {p}:
        return None
    _, weights, _ = dual._arrays
    prods = weights[:, None] @ weights[None]
    if ((prods - prods.transpose(1, 0, 2, 3)) % p).any():
        return None
    positions = dual.positions()
    cells = chi._cells
    first, last = (int(cells[0]), int(cells[-1])) if len(cells) else (0, 0)
    lo = first + min(0, j_max * min(positions, default=0))
    hi = last + max(0, j_max * max(positions, default=0))
    span = hi - lo + 1
    if lo < -2 ** 63 or hi >= 2 ** 63 or (max(j_max, 0) + 1) * span >= 2 ** 63:
        return None
    return p, lo, span


# Most entries one batched step of ``_frobenius_ranks`` reads at once,
# unless one image alone holds more.
_BLOCK = 1 << 14


def _frobenius_ranks(dual: LinearRuleDual, chi: Character, j_max: int,
                     p: int, lo: int, span: int) -> list[int]:
    """The rank series of :func:`_rank_series` on a route that
    :func:`_frobenius_route` returned (p, lo, span) for.

    Image j is row j, each of its entries keyed j·span + cell − lo.  Rows
    0..p−1 come from ``dual_action``.  Level K = p, p², … then makes rows
    [aK, (a+1)K) from rows [(a−1)K, aK) for a = 1..p−1, since the K-th
    power of the rule is the tap set (K·v, W_v^K mod p): one
    :func:`_merge_taps` step per (level, a), on row-aligned slices of at
    most ``_BLOCK`` entries.  A row's rank is counted when it is made, and
    the row is kept only while a later step reads it: rows ≤ j_max − K
    within level K, rows ≤ j_max − pK past it.
    """
    head = list(_orbit(dual, chi, min(p - 1, j_max)))
    ranks = np.zeros(max(j_max, 0) + 1, dtype=np.int64)
    ranks[:len(head)] = [c.rank for c in head]
    positions, taps, orders = dual._arrays

    def joined(parts: list[tuple[np.ndarray, np.ndarray]]
               ) -> tuple[np.ndarray, np.ndarray]:
        """(keys, coefficient rows) of ``parts`` end to end."""
        return (np.concatenate([k for k, _ in parts] + [np.empty(0, np.int64)]),
                np.concatenate([c for _, c in parts]
                               + [np.empty((0, len(orders)), np.int64)]))

    def upto(keys: np.ndarray, row: int) -> int:
        """How many of the ascending ``keys`` lie in rows ≤ row."""
        return int(np.searchsorted(keys, max(row + 1, 0) * span))

    # the rows that level p reads
    store = joined([(c._cells - lo + j * span, c._coeffs)
                    for j, c in enumerate(head) if j <= j_max - p])
    K = 1
    while p * K <= j_max:
        K *= p
        taps = _matrix_power_mod(taps, p)
        live = taps.any(axis=(1, 2))
        if not live.any():      # F^K = 0: every later image is trivial
            break
        # K rows on and K·v cells along, in one key shift per tap
        shifts, weights = K * positions[live] + K * span, taps[live]
        parts, src = [store], store
        for a in range(1, p):
            if a * K > j_max:
                break
            # rows ≤ j_max − K feed step a + 1, rows ≤ j_max − pK level pK
            last = j_max - (K if a < p - 1 else p * K)
            made = []
            for part in _row_slices(src[0], span):
                keys, coeffs = _merge_taps(src[0][part], src[1][part], shifts,
                                           weights, orders)
                images = keys // span
                if len(images):
                    ranks[images[0]:images[-1] + 1] += np.bincount(images - images[0])
                made.append((keys[:upto(keys, last)], coeffs[:upto(keys, last)]))
            src = joined(made)
            parts.append(src)
        last = j_max - p * K
        store = joined([(k[:upto(k, last)], c[:upto(k, last)]) for k, c in parts])
    return ranks.tolist()


def _row_slices(keys: np.ndarray, span: int) -> Iterator[slice]:
    """Slices of the ascending ``keys`` (row = key // span) that end at a
    row's end and hold at most ``_BLOCK`` entries, or one whole row."""
    start = 0
    while start < len(keys):
        end = start + _BLOCK
        if end < len(keys):
            # back to the first entry of entry end's row, or on past the
            # first row when that one row fills the slice
            end = int(np.searchsorted(keys, keys[end] // span * span))
            if end == start:
                end = int(np.searchsorted(keys, (keys[start] // span + 1) * span))
        yield slice(start, end)
        start = end


def _matrix_power_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Each matrix of the stack to the p-th power, mod p."""
    out = mats % p
    for _ in range(p - 1):
        out = out @ mats % p
    return out


@dataclass
class DiffusionReport:
    """Rank trajectory of a character under iterated dual action."""

    ranks: list[int]
    thresholds: tuple[int, ...]
    densities: dict[int, float]
    density_trail: dict[int, list[tuple[int, float]]]

    def density(self, threshold: int, j_up: int | None = None) -> float:
        j_max = len(self.ranks) - 1
        upto = j_max if j_up is None else j_up
        if not 0 <= upto <= j_max:
            raise McaLabError(f"j_up {upto} outside 0..{j_max}")
        hits = sum(1 for j in range(1, upto + 1) if self.ranks[j] > threshold)
        return hits / upto if upto else 0.0


def diffusion_report(dual: LinearRuleDual, chi: Character, j_max: int,
                     thresholds: Sequence[int] = (2, 4, 10)) -> DiffusionReport:
    """Iterate the dual action and summarize how ranks grow.

    ``ranks[j]`` is the rank of chi's j-th image.  Over A = (Z/p)^d with
    weight matrices that commute mod p, and cells that stay inside int64,
    the series is built in Frobenius level blocks: ``dual_action`` makes
    images 1..p−1, and each later block of images comes from an earlier
    one in one batched step (:func:`_frobenius_ranks`).  Any other rule
    calls ``dual_action`` once per image, which refuses a step past int64.
    ``densities[r]`` is the fraction of 1 ≤ j ≤ j_max with rank > r; the
    trail records that fraction at doubling prefixes, as evidence (never
    an assertion) of diffusion in density.
    """
    ranks = _rank_series(dual, chi, j_max)
    report = DiffusionReport(ranks, tuple(thresholds), {}, {})
    upto, marks = len(ranks) - 1, _doubling(j_max)
    for r in report.thresholds:
        # hits[m] counts 1 ≤ j ≤ m with rank > r; each density is the same
        # int / int division as ``DiffusionReport.density``
        hits = list(itertools.accumulate((rank > r for rank in ranks[1:]),
                                         initial=0))
        report.densities[r] = hits[upto] / upto if upto else 0.0
        report.density_trail[r] = [(m, hits[m] / m) for m in marks]
    return report


def _doubling(n: int) -> list[int]:
    """1, 2, 4, … up to n, then n itself when it is not a power of two."""
    powers = [1 << k for k in range(max(n, 0).bit_length())]
    return powers if not powers or powers[-1] == n else powers + [n]


# -- relative diffusion (central case) ----------------------------------------


def relative_diffusion_rank(split, alpha: Character, j: int) -> int:
    """rank[alpha ∘ fibre^(j)] in the central case = rank[alpha ∘ lin^j]."""
    if not split.frame.a_is_central:
        raise NotCentralError("relative diffusion rank needs the central case")
    dual = LinearRuleDual.from_rule(split.lin_rule)
    return _rank_series(dual, alpha, j)[-1]


@dataclass
class FibreRankCheck:
    rank: int
    linear_rank: int
    all_equal: bool
    ranks_seen: tuple[int, ...]


def fibre_rank_independence(dec, split, alpha: Character, j: int,
                            cap: int = STATE_CAP) -> FibreRankCheck:
    """Exhaustively verify rank[alpha ∘ fibre^(j)_c] is the same for all c.

    The j-step fibre composite over a quotient word c is the A-part of j
    steps of the rule on the star words a*c, run for batches of c at once.
    Its linear part comes from finite differences (exact group arithmetic)
    and its character ranks are compared to the linear-rule prediction.
    As in ``dual_action``, alpha is read from its integer coefficient rows,
    here scaled to the largest invariant order, big.
    """
    rule = dec.rule
    frame = dec.frame
    A, C = frame.a_group, frame.C
    coords = abelian_invariants(A)
    if alpha.invariants != coords.orders:
        raise McaLabError("probe does not match the fibre group invariants")
    cells = alpha.cells()
    out_lo = min(cells) if cells else 0
    out_hi = (max(cells) + 1) if cells else 1
    in_lo, in_hi = out_lo + j * rule.v_lo, out_hi + j * rule.v_hi
    n_in = in_hi - in_lo
    check_cap(C.order, n_in, cap, "fibre rank independence")
    lin_rank = relative_diffusion_rank(split, alpha, j)
    gens = coords.generators
    orders = coords.orders
    big = max(orders, default=1)
    divisors = np.array([big // n for n in orders], dtype=np.int64)
    weights = alpha._coeffs * divisors
    to_tuple = np.array(coords.to_tuple, dtype=np.int64).reshape(A.order, len(orders))
    # row 0 is the zero word; row 1 + m·|gens| + gi has generator gi at cell m
    probes = np.zeros((1 + n_in * len(gens), n_in), dtype=np.int64)
    for m in range(n_in):
        probes[1 + m * len(gens): 1 + (m + 1) * len(gens), m] = gens
    ranks = set()
    batch = max(1, _CHUNK // len(probes))
    for start in range(0, C.order ** n_in, batch):
        c_words = digit_planes(np.arange(start, min(start + batch, C.order ** n_in)),
                               C.order, n_in)
        # cell-major: outs[m, c, p] is cell in_lo + m of probe p over word c
        outs = frame.b_of[probes.T[:, None, :], c_words.T[:, :, None]]
        for _ in range(j):
            outs = step_cells(rule, outs, cap)
        outs = frame.a_part[outs[[k - out_lo for k in cells]].transpose(1, 2, 0)]
        # big·alpha(y·b⁻¹) mod big at each input cell m and generator gi; it
        # is coefficient gi of (alpha ∘ composite) at m times big // n_gi
        diffs = A.table[outs[:, 1:], A.inverse[outs[:, :1]]]
        vals = (to_tuple[diffs] * weights).sum(axis=(2, 3)) % big
        vals = vals.reshape(len(c_words), n_in, len(gens))
        if (vals % divisors).any():
            raise McaLabError("fibre composite is not affine-linear")
        ranks.update(np.count_nonzero(vals.any(axis=2), axis=1).tolist())
    ranks_seen = tuple(sorted(ranks))
    one = len(ranks_seen) == 1
    return FibreRankCheck(rank=ranks_seen[0] if one else -1,
                          linear_rank=lin_rank,
                          all_equal=one and ranks_seen[0] == lin_rank,
                          ranks_seen=ranks_seen)


# -- Cesàro randomization experiments -----------------------------------------


@dataclass(frozen=True)
class Probe:
    """A product character probe against a (possibly skew) alphabet.

    For an abelian rule group, set only ``alpha`` (over the group itself).
    For a skew product, ``alpha`` probes the fibre part and ``phi`` the
    quotient part through the frame's star coordinates.
    """

    probe_id: str
    alpha: Character | None = None
    phi: Character | None = None

    def cells(self) -> tuple[int, ...]:
        return tuple(sorted({cell for chi in (self.alpha, self.phi) if chi is not None
                             for cell in chi.cells()}))

    def value_tables(self, group: FiniteGroup, frame
                     ) -> tuple[dict[int, np.ndarray], complex]:
        """(per-cell complex tables over group-element indices, phase)."""
        if frame is None and self.phi is not None:
            raise McaLabError("quotient probe needs a frame")
        parts = ([(self.alpha, np.arange(group.order))] if frame is None
                 else [(self.alpha, frame.a_part), (self.phi, frame.c_part)])
        tables: dict[int, np.ndarray] = {}
        for chi, part in parts:
            if chi is None:
                continue
            for cell, tab in chi.cell_values().items():
                tables[cell] = tables.get(cell, np.ones(group.order,
                                                        dtype=np.complex128)) * tab[part]
        phase = (self.alpha.phase if self.alpha else 1.0) * (
            self.phi.phase if self.phi else 1.0)
        return tables, complex(phase)


@dataclass
class ProbeRow:
    n: int
    probe_id: str
    coef_abs: float
    cesaro_mean: float
    mode: str
    samples: int
    stderr: float


@dataclass
class TvRow:
    n: int
    tv_distance: float
    cesaro_tv: float
    mode: str
    samples: int
    stderr: float


@dataclass
class RandomizationReport:
    probe_rows: list[ProbeRow]
    tv_rows: list[TvRow]
    n_exact: int
    coprimality_ok: bool | None
    seed: int | None


def _exponent_sums(rule: McaRule) -> dict[int, int] | None:
    """Position -> multiplicity, when every factor is the identity map."""
    out: dict[int, int] = {}
    ident = tuple(range(rule.group.order))
    for pos, coeff in rule.factors:
        if tuple(coeff.image_of) != ident:
            return None
        out[pos] = out.get(pos, 0) + 1
    return out


def cesaro_randomization(rule: McaRule, init, n_max: int,
                         probes: Sequence[Probe] = (),
                         frame=None,
                         dec=None,
                         tv_cells: int = 1,
                         cap_states: int = STATE_CAP,
                         mc_samples: int = 0,
                         mc_checkpoints: Sequence[int] | None = None,
                         seed: int | None = None,
                         workers: int = 1) -> RandomizationReport:
    """Track probe coefficients and TV-from-uniform along iterated images.

    ``init`` is a MeasureSpec over the rule group, or a (λ, ν) pair of
    specs with ``frame`` giving the product measure through star
    coordinates.  Probe rows ride the factorized dual path out to n_max
    whenever the probe's factor is abelian and the matching initial factor
    is i.i.d. (abelian rules; quotient probes with ``dec``); everything
    else gets exact rows while the window fits the state cap, then
    Monte-Carlo rows (``mc_samples`` > 0) at deterministic chunk-seeded
    checkpoints.  Past ``n_exact`` the Cesàro columns average the rows
    present, exact and MC, not every n ≤ N (ROADMAP item 2).
    """
    if tv_cells < 1:
        raise McaLabError(f"tv_cells: need a positive integer, got {tv_cells}")
    group = rule.group
    cells = sorted({c for p in probes for c in p.cells()} | set(range(tv_cells)))
    out_lo, out_hi = min(cells), max(cells) + 1
    spread = rule.spread
    check_cap(group.order, out_hi - out_lo, cap_states, "randomization output window")
    # exact horizon: largest n whose input window enumeration fits the cap
    n_exact = -1
    for n in range(n_max + 1):
        try:
            check_cap(group.order, (out_hi - out_lo) + n * spread, cap_states,
                      "exact horizon")
        except CapExceededError:
            break
        n_exact = n
    exps = _exponent_sums(rule)
    coprime = None
    if exps is not None:
        coprime = all(math.gcd(m, group.order) == 1 for m in exps.values())
        if not coprime:
            warnings.warn("some exponent sum shares a factor with the group "
                          "order; the density-one randomization hypothesis "
                          "fails", stacklevel=2)
    fast = [_dual_fast_path(rule, init, probe, dec) for probe in probes]
    # one series of (n, value, mode, samples, stderr) per probe, one for TV
    series: list[list[tuple]] = [[] for _ in probes]
    tv_series: list[tuple] = []
    # factorized dual rows cover every n up to n_max
    for rows, path in zip(series, fast):
        if path is None:
            continue
        dual, chi, dist = path
        for n, cur_chi in enumerate(_orbit(dual, chi, n_max)):
            rows.append((n, abs(bernoulli_fourier(cur_chi, dist)), "exact", 0, 0.0))
    # exact measure chain: TV always, probes without a dual path
    slow = [(rows, probe.value_tables(group, frame))
            for rows, probe, path in zip(series, probes, fast) if path is None]
    in_lo = out_lo + n_exact * rule.v_lo
    in_hi = out_hi + n_exact * rule.v_hi
    mu = _initial_measure(init, frame, group, in_lo, in_hi, cap_states)
    cur = mu
    for n in range(n_exact + 1):
        for rows, (tabs, phase) in slow:
            rows.append((n, abs(_pairing(tabs, phase, cur, cap_states)),
                         "exact", 0, 0.0))
        tv = float(cur.marginal(out_lo, out_lo + tv_cells).tv_from_uniform())
        tv_series.append((n, tv, "exact", 0, 0.0))
        if n < n_exact:
            cur = push_forward(rule, cur, cap_states)
    if mc_samples > 0:
        checkpoints = {int(m) for m in (_doubling(n_max) if mc_checkpoints is None
                                        else mc_checkpoints)}
        for n in sorted(m for m in checkpoints if n_exact < m <= n_max):
            probe_stats, (tv, tv_se) = _mc_step(
                rule, init, frame, n, out_lo, out_hi, tv_cells,
                [tab for _, tab in slow], mc_samples, seed or 0, workers,
                cap_states)
            for (rows, _), (mean_abs, se) in zip(slow, probe_stats):
                rows.append((n, mean_abs, "mc", mc_samples, se))
            tv_series.append((n, tv, "mc", mc_samples, tv_se))
    probe_rows = [ProbeRow(n, probe.probe_id, *rest)
                  for probe, rows in zip(probes, series)
                  for n, *rest in _with_cesaro(rows)]
    probe_rows.sort(key=lambda r: (r.n, r.probe_id))
    tv_rows = [TvRow(*row) for row in _with_cesaro(tv_series)]
    return RandomizationReport(probe_rows, tv_rows, n_exact, coprime, seed)


def _with_cesaro(series: list[tuple]) -> Iterator[tuple]:
    """(n, value, running mean, mode, samples, stderr) for each row in order.

    The mean is over the rows present, so past ``n_exact`` it pools the exact
    rows with the MC checkpoints: not every n ≤ N (ROADMAP item 2).
    """
    total = 0.0
    for k, (n, value, *rest) in enumerate(series, 1):
        total += value
        yield (n, value, total / k, *rest)


def _dual_fast_path(rule: McaRule, init, probe: Probe, dec):
    """(dual, seed character, cell distribution) when factorization applies."""
    if isinstance(init, MeasureSpec):
        if (rule.group.is_abelian and probe.phi is None
                and probe.alpha is not None
                and init.kind in ("uniform", "bernoulli")):
            return (LinearRuleDual.from_rule(rule), probe.alpha,
                    init.cell_distribution())
        return None
    lam, nu = init
    if (dec is not None and probe.alpha is None and probe.phi is not None
            and dec.h_rule.group.is_abelian
            and nu.kind in ("uniform", "bernoulli")):
        return (LinearRuleDual.from_rule(dec.h_rule), probe.phi,
                nu.cell_distribution())
    return None


def _initial_measure(init, frame, group: FiniteGroup, lo: int, hi: int,
                     cap: int) -> WindowMeasure:
    if isinstance(init, MeasureSpec):
        if init.size != group.order:
            raise McaLabError("initial measure alphabet mismatch")
        return init.window_measure(lo, hi, group, cap)
    lam, nu = init
    if frame is None:
        raise McaLabError("a (λ, ν) pair needs a frame")
    check_cap(group.order, hi - lo, cap, "initial product measure")
    ma = lam.window_measure(lo, hi, frame.a_group, cap)
    mc = nu.window_measure(lo, hi, frame.C, cap)
    return star_product_measure(frame, ma, mc)


# Most uniform draws per piece of ``_draw``'s reused buffer.
_DRAW_PIECE = 1 << 16


def _draw(rng: np.random.Generator, p: np.ndarray,
          out: np.ndarray) -> Iterator[slice]:
    """Fill 1-D ``out`` with ``rng.choice(len(p), size=len(out), p=p)``'s
    draws piece by piece, yielding each piece's slice once it is filled.

    ``Generator.choice`` bins ``rng.random(count)`` against the cdf
    ``p.cumsum() / p.cumsum()[-1]`` with ``searchsorted(side="right")``,
    which is the number of cdf edges at or below each draw; counting them
    edge by edge in ``out``'s dtype is faster for small alphabets.  The
    draws come in cache-sized pieces of one reused buffer, and PCG64 yields
    the same stream piece by piece as in one call, so a caller may use each
    piece before the next is drawn.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.empty(min(len(out), _DRAW_PIECE))
    for start in range(0, len(out), _DRAW_PIECE):
        piece = slice(start, min(start + _DRAW_PIECE, len(out)))
        part = out[piece]
        draws = rng.random(out=u[:len(part)])
        part.fill(0)
        for edge in cdf[:-1]:   # the last edge is 1.0, above every draw
            part += draws >= edge
        yield piece


def _sample_words(spec_pair, frame, group: FiniteGroup, length: int,
                  rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample initial words (count × length, the group's cell dtype).

    A (λ, ν) pair draws λ's words in full, then ν's into the output one
    piece at a time, mapping each piece through ``b_of`` as it comes: the
    chunk-sized arrays are λ's words and the output, and the rest is
    piece buffers.
    """
    dtype = cell_dtype(group.order)
    words = np.empty((count, length), dtype=dtype)
    flat = words.reshape(-1)

    def fill(spec: MeasureSpec, size: int, out: np.ndarray) -> Iterator[slice]:
        """Draw ``spec`` into ``out``, yielding flat slices once filled."""
        if spec.size != size:
            raise McaLabError("initial measure alphabet mismatch")
        p = np.asarray([float(x) for x in spec.probs])
        p /= p.sum()
        if spec.kind in ("uniform", "bernoulli"):
            yield from _draw(rng, p, out.reshape(-1))
            return
        # markov: sample column by column, then hand out the filled pieces
        for _ in _draw(rng, p, out[:, 0]):
            pass
        T = np.asarray([[float(x) for x in row] for row in spec.transition])
        T = T / T.sum(axis=1, keepdims=True)
        for j in range(1, length):
            u = rng.random(count)
            cum = np.cumsum(T[out[:, j - 1]], axis=1)
            out[:, j] = np.minimum((u[:, None] > cum).sum(axis=1), size - 1)
        for start in range(0, out.size, _DRAW_PIECE):
            yield slice(start, min(start + _DRAW_PIECE, out.size))

    if isinstance(spec_pair, MeasureSpec):
        for _ in fill(spec_pair, group.order, words):
            pass
        return words
    lam, nu = spec_pair
    a = np.empty_like(words)
    for _ in fill(lam, frame.a_group.order, a):
        pass
    a = a.reshape(-1)
    # each piece of c looks b_of up in place at the flat index a·|C| + c;
    # the index type also holds |C| itself, which the cell dtype misses
    # when A is trivial and |B| is 256
    b_flat = np.asarray(frame.b_of, dtype=dtype).ravel()
    idx = np.empty(min(flat.size, _DRAW_PIECE),
                   dtype=np.min_scalar_type(group.order))
    for piece in fill(nu, frame.C.order, words):
        part = idx[:piece.stop - piece.start]
        np.multiply(a[piece], frame.C.order, out=part, dtype=idx.dtype)
        part += flat[piece]
        b_flat.take(part, out=flat[piece])
    return words


# A table step costs as much per 64 sample·cells as this many 64-lane word
# operations.  Measured best of 30 with numpy 2.4 on one core of a 2-core
# Xeon: step_cells on the Q8 width-4 rule of perfbench/configs/skew_mc.json
# takes 1.2-1.9 ns per sample·cell in 2**16-cell blocks, 79-122 ns per 64,
# and an np.bitwise_and or bitwise_xor of uint64 cell slices 0.30-0.35 ns
# per word: 260-350 word operations, the low end kept.
_GATHER_WORD_OPS = 260


def _mc_kernel(rule: McaRule, cap: int):
    """``step_planes`` when the rule's group has order 2**b with 1 ≤ b ≤ 8
    (byte codes) and a bit-sliced step costs at most ``_GATHER_WORD_OPS``
    word operations; ``step_cells`` otherwise."""
    s = rule.group.order
    if s & (s - 1) or not 2 <= s <= 256:
        return step_cells
    return step_planes if plane_step_ops(rule, cap) <= _GATHER_WORD_OPS else step_cells


def _mc_step(rule: McaRule, init, frame, n: int, out_lo: int, out_hi: int,
             tv_cells: int, tables: list[tuple[dict[int, np.ndarray], complex]],
             samples: int, seed: int, workers: int, cap: int) -> tuple:
    """One Monte-Carlo checkpoint: sample, evolve n steps, measure.

    Samples are drawn in chunks of 2**14, each from its own
    ``SeedSequence(entropy=seed, spawn_key=(n, chunk))`` stream, and each
    chunk is evolved in blocks of rows that run all n steps while they stay
    in cache, so the rows are the same for any ``workers``.  The kernel is
    :func:`_mc_kernel`'s choice.  On ``step_planes`` a block of at most
    ``_CHUNK // 2`` uint64 words is bit-sliced by ``to_planes``, 64 samples
    per word, and only its output cells are unpacked; on ``step_cells`` a block
    of at most ``_CHUNK`` cells is stepped cell-major.  Sampling a chunk
    holds two cell-dtype arrays of its words (λ's draws and the output) plus
    fixed piece buffers, which took the max RSS of ``randomize`` on
    ``perfbench/configs/skew_mc.json`` from 78.4 MB to 44.9 MB.
    """
    group = rule.group
    s = group.order
    in_lo = out_lo + n * rule.v_lo
    in_hi = out_hi + n * rule.v_hi
    length = in_hi - in_lo
    chunk = 1 << 14
    # refuse a rule too wide to step before sampling, under the run's cap
    # even when the rule's table is already cached
    check_cap(s, rule.width, cap, "local rule table")
    kernel = _mc_kernel(rule, cap)
    bits = s.bit_length() - 1
    if kernel is step_planes:
        # blocks of at most _CHUNK // 2 plane words (256 KB): to_planes holds
        # two byte copies 8/b times the planes' size, and at _CHUNK words
        # they took the max RSS of skew_mc.json from 45.9 MB to 46.6 MB
        rows = 64 * max(1, _CHUNK // 2 // (bits * length))
    else:
        rows = max(1, _CHUNK // length)

    def run_chunk(ci: int) -> tuple:
        lo_i = ci * chunk
        m = min(chunk, samples - lo_i)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, ci)))
        words = _sample_words(init, frame, group, length, rng, m)
        out = np.empty((m, out_hi - out_lo), dtype=words.dtype)
        for r in range(0, m, rows):
            if kernel is step_planes:
                block = to_planes(words[r:r + rows], bits)
                for _ in range(n):
                    block = step_planes(rule, block, cap)
                out[r:r + rows] = from_planes(block, min(rows, m - r))
                continue
            block = words[r:r + rows].T
            for _ in range(n):
                block = step_cells(rule, block, cap)
            out[r:r + rows] = block.T
        words = out
        probe_sums = []
        for tabs, phase in tables:
            vals = _probe_values(tabs, phase, words, out_lo)
            probe_sums.append((vals.sum(), (vals.real ** 2).sum(),
                               (vals.imag ** 2).sum()))
        tv_idx = np.zeros(m, dtype=np.int64)
        for j in range(tv_cells):
            tv_idx = tv_idx * s + words[:, j]
        counts = np.bincount(tv_idx, minlength=s ** tv_cells)
        return probe_sums, counts, m

    n_chunks = (samples + chunk - 1) // chunk
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    else:
        parts = [run_chunk(ci) for ci in range(n_chunks)]
    probe_stats = []
    for pi in range(len(tables)):
        tot = sum(p[0][pi][0] for p in parts)
        sq_r = sum(p[0][pi][1] for p in parts)
        sq_i = sum(p[0][pi][2] for p in parts)
        mean = tot / samples
        var = (sq_r / samples - mean.real ** 2) + (sq_i / samples - mean.imag ** 2)
        se = math.sqrt(max(var, 0.0) / samples)
        probe_stats.append((abs(mean), se))
    counts = sum((p[1] for p in parts), np.zeros(s ** tv_cells, dtype=np.int64))
    phat = counts / samples
    unif = 1.0 / len(phat)
    tv = 0.5 * float(np.abs(phat - unif).sum())
    tv_se = 0.5 * float(np.sqrt(phat * (1 - phat) / samples).sum())
    return probe_stats, (tv, tv_se)
