"""Characters, dual actions, diffusion ranks, and randomization experiments.

Harmonic analysis here is strictly abelian: characters live on abelian
groups (or abelian factors of a tower) in the coordinates provided by
``abelian_invariants``.  The dual action of a linear rule on characters is
exact integer arithmetic; its correctness is pinned by the adjointness
identity <chi, push_forward(rule, m)> == <dual_action(rule, chi), m>.
Cesàro randomization experiments combine an exact push-forward chain on a
shrinking window with an optional seeded Monte-Carlo extension; both read
one law, a ``MeasureSpec`` or a (λ, ν) pair made a ``measures.StarLaw``.
"""
from __future__ import annotations

import cmath
import itertools
import math
import warnings
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (CapExceededError, McaLabError, NotAbelianError,
                     NotCentralError)
from .groups import AbelianCoords, FiniteGroup, GroupMap, abelian_invariants
from .measures import _CHUNK, MeasureSpec, StarLaw, push_forward
from .rules import (McaRule, _merge_positions, from_planes, plane_step_ops,
                    step_buffers, step_cells, step_planes, to_planes)
from .util import (STATE_CAP, WORK_CAP, cell_dtype, check_cap, digit_planes,
                   fitting_cells, is_integer)

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


def _probe_values(tabs: dict[int, np.ndarray], phase: complex, words: np.ndarray,
                  lo: int) -> np.ndarray:
    """phase·Π_cell tabs[cell][word's cell] for each row of ``words``, whose
    column t holds cell lo + t: every exact and sampled probe row's values."""
    vals = np.full(len(words), phase, dtype=np.complex128)
    for cell, tab in tabs.items():
        vals *= tab[words[:, cell - lo]]
    return vals


def bernoulli_fourier(chi: Character, cell_dist: Sequence,
                      coords: AbelianCoords | None = None) -> complex:
    """<chi, μ> for an i.i.d. product measure, via per-cell factorization.

    ``cell_dist`` is the single-cell distribution over group-element
    indices, one weight per element or refused.  Equals the window sum
    Σ_w μ[w]·chi(w) on any window that contains the support.  Each distinct
    coefficient tuple is paired with ``cell_dist`` once; the factors are
    folded in support order.
    """
    coords = chi._checked_coords(coords)
    if len(cell_dist) != coords.group.order:
        raise McaLabError(f"cell law over {len(cell_dist)} symbols; the character's "
                          f"group has {coords.group.order}")
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


class LinearRuleDual:
    """A linear rule over an abelian group, in dual (coefficient) form.

    ``matrices[v]`` is the combined endomorphism at position v as an
    integer matrix in the invariant coordinates; ``bias_coords`` is the
    rule bias.  Acting on a character transposes these matrices onto the
    coefficient tuples.
    """

    def __init__(self, coords: AbelianCoords,
                 matrices: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...],
                 bias_coords: tuple[int, ...]):
        self.coords = coords
        self.matrices = matrices
        self.bias_coords = bias_coords

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
    over all reduced rows.  The step itself is one integer product of the
    coefficient rows with the weights of every position, one sort of the
    target cells, a summed add into each distinct target, one reduction
    mod the orders, and zero rows dropped.  A step that would move a
    nonzero image row to a cell outside int64 is refused.
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
        # nothing wherever its target wraps to, and is dropped below
        live = ((coeffs @ weights) % order_arr).any(axis=2)
        ends = [(int(cells[row][0]) + v, int(cells[row][-1]) + v)
                for v, row in zip(positions.tolist(), live) if row.any()]
        lo, hi = min((a for a, _ in ends), default=0), max((b for _, b in ends), default=0)
        if lo < -2 ** 63 or hi >= 2 ** 63:
            raise McaLabError(f"dual step moves support to cells {lo}..{hi}, outside int64")
    # position-major: entry t·n + i is row i moved by position t
    targets = (cells + positions[:, None]).ravel()
    adds = (coeffs @ weights).reshape(-1, d)
    by_cell = targets.argsort(kind="stable")
    targets = targets[by_cell]
    first = np.empty(len(targets), dtype=bool)
    first[0] = True
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    starts = first.nonzero()[0]
    acc = np.add.reduceat(adds[by_cell], starts)
    acc %= order_arr
    keep = np.bitwise_or.reduce(acc, axis=1).nonzero()[0]
    return Character._from_rows(orders, targets[starts[keep]], acc[keep], phase, coords)


def _orbit(dual: LinearRuleDual, chi: Character, steps: int) -> Iterator[Character]:
    """chi and its first ``steps`` images, one ``dual_action`` call per image."""
    yield chi
    for _ in range(steps):
        chi = dual_action(dual, chi)
        yield chi


def _rank_series(dual: LinearRuleDual, chi: Character, j_max: int) -> list[int]:
    """The ranks of chi and of its first ``j_max`` images: off the base-p
    digits of j where :func:`_frobenius_route` allows, else one
    ``dual_action`` call per image."""
    p = _frobenius_route(dual, chi, j_max)
    if p is None:
        return [c.rank for c in _orbit(dual, chi, j_max)]
    return _digit_ranks(dual, chi, j_max, p)


def _frobenius_route(dual: LinearRuleDual, chi: Character, j_max: int) -> int | None:
    """p when chi's rank series may be read off the base-p digits of j.

    That needs A = (Z/p)^d for a prime p and weight matrices that commute
    mod p, so that F^(p^i)(x) = F_i(x^(p^i)) for F = Σ_v W_v x^v and
    F_i = Σ_v W_v^(p^i) x^v; and every cell of every image to ``j_max``
    inside int64, so the per-step chain refuses no step, and within 2^62
    of each other, so no cell of a :func:`_digit_ranks` state leaves int64.
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
    if lo < -2 ** 63 or hi >= 2 ** 63 or hi - lo >= 2 ** 62:
        return None
    return p


def _digit_ranks(dual: LinearRuleDual, chi: Character, j_max: int, p: int) -> list[int]:
    """The rank series of :func:`_rank_series` on a route where
    :func:`_frobenius_route` returned p, read off the base-p digits of j.

    For j = n + p·m, Q·F_i^j = (Q·F_i^n)·F_(i+1)^m(x^p), so each residue
    class mod p of the cells of Q·F_i^n, its cells c taken to c // p, goes
    on alone at level i + 1, and the ranks of the classes add up.  A state
    is (level i, coefficient rows shifted so their first cell is 0); digit
    n leads from it to the state of each nonzero class, Q·F_i^n made by
    ``dual_action`` on the level's matrices.  Levels wrap once the tuple
    of W_v^(p^i) mod p repeats, and states are explored only as deep as
    ``j_max`` has digits, since nothing deeper is read.  Then R_0 is each
    state's rank, and pass k sets R_k[:, n::p] to the sum of R_(k−1) over
    the digit-n edges, for the states and columns that later passes read.
    """
    coords, orders = dual.coords, dual.coords.orders
    positions, taps, _ = dual._arrays
    levels, seen, taps = [], {}, taps % p
    while (key := taps.tobytes()) not in seen:
        seen[key] = len(levels)
        levels.append(LinearRuleDual(coords, tuple(
            (v, tuple(map(tuple, m))) for v, m in zip(positions.tolist(), taps.tolist())),
            (0,) * len(orders)))
        power = taps
        for _ in range(p - 1):
            power = power @ taps % p
        taps = power
    after = list(range(1, len(levels))) + [seen[taps.tobytes()]]
    digits = next(k for k in itertools.count() if p ** k > j_max)
    index: dict[tuple, int] = {}
    states: list[tuple[int, Character]] = []

    def state(level: int, cells: np.ndarray, coeffs: np.ndarray) -> int:
        cells = cells - cells[:1]           # first cell 0 (none if no rows)
        key = (level, cells.tobytes(), coeffs.tobytes())
        if key not in index:
            index[key] = len(states)
            states.append((level, Character._from_rows(orders, cells, coeffs, 1.0 + 0j,
                                                       coords)))
        return index[key]

    state(0, chi._cells, chi._coeffs)
    ends, edges = [0, 1], []    # states[ends[t]:ends[t + 1]] are at depth t
    for t in range(digits):
        for src in range(ends[t], ends[t + 1]):
            level, q = states[src]
            for n in range(min(p - 1, j_max // p ** t) + 1):
                q = dual_action(levels[level], q) if n else q
                cells, residues = np.divmod(q._cells, p)
                for r in np.flatnonzero(np.bincount(residues)):
                    cls = residues == r
                    edges.append((n, src, state(after[level], cells[cls], q._coeffs[cls])))
        ends.append(len(states))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 3)
    ranks = np.array([q.rank for _, q in states], dtype=np.int64)[:, None]
    for k in range(1, digits + 1):
        # states of depth ≤ digits − k, to the columns that pass k + 1 reads
        rows = ends[digits - k + 1]
        nxt = np.zeros((rows, p * ranks.shape[1]), dtype=np.int64)
        read = edges[edges[:, 1] < rows]
        for n in range(p):
            _, src, dst = read[read[:, 0] == n].T
            np.add.at(nxt[:, n::p], src, ranks[dst])
        ranks = nxt[:, :j_max // p ** (digits - k) + 1]
    return ranks[0].tolist()


class DiffusionReport(NamedTuple):
    """Rank trajectory of a character under iterated dual action."""

    ranks: list[int]
    thresholds: tuple[int, ...]
    densities: dict[int, float]
    density_trail: dict[int, list[tuple[int, float]]]


def diffusion_report(dual: LinearRuleDual, chi: Character, j_max: int,
                     thresholds: Sequence[int] = (2, 4, 10),
                     cap: int = STATE_CAP) -> DiffusionReport:
    """Iterate the dual action and summarize how ranks grow.

    ``ranks[j]`` is the rank of chi's j-th image, for 0 ≤ j ≤ j_max; a
    negative ``j_max`` is refused, and so are more than ``cap`` ranks,
    before any is computed.  Over A = (Z/p)^d with weight matrices
    that commute mod p, and cells that stay inside int64, the ranks are
    read off the base-p digits of j by a small digit automaton
    (:func:`_digit_ranks`): a state is coefficient rows at a Frobenius
    level, and digit n leads from it, through n ``dual_action`` steps, to
    the residue classes mod p of the result.  Any other rule calls
    ``dual_action`` once per image, which refuses a step past int64.
    ``densities[r]`` is the fraction of 1 ≤ j ≤ j_max with rank > r; the
    trail records that fraction at doubling prefixes, as evidence (never
    an assertion) of diffusion in density.
    """
    if j_max < 0:
        raise McaLabError(f"j_max {j_max} is negative; need 0 <= j_max")
    if j_max + 1 > cap:
        raise CapExceededError(f"diffusion report: {j_max + 1} ranks exceed cap {cap}")
    ranks = _rank_series(dual, chi, j_max)
    report = DiffusionReport(ranks, tuple(thresholds), {}, {})
    upto, marks = len(ranks) - 1, _doubling(j_max)
    for r in report.thresholds:
        # hits[m] counts 1 ≤ j ≤ m with rank > r
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
    if j < 0:
        raise McaLabError(f"j {j} is negative; need 0 <= j")
    if not split.frame.a_is_central:
        raise NotCentralError("relative diffusion rank needs the central case")
    dual = LinearRuleDual.from_rule(split.lin_rule)
    return _rank_series(dual, alpha, j)[-1]


class FibreRankCheck(NamedTuple):
    rank: int
    linear_rank: int
    all_equal: bool
    ranks_seen: tuple[int, ...]


def fibre_rank_independence(dec, split, alpha: Character, j: int,
                            cap: int = STATE_CAP) -> FibreRankCheck:
    """Exhaustively verify rank[alpha ∘ fibre^(j)_c] is the same for all c.

    The j-step fibre composite over a quotient word c is the A-part of j
    steps of the rule on the star words a*c, run for batches of c at once,
    each batch's j steps in place in one workspace.
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
        work = step_buffers(rule, outs.shape) if j else None
        for _ in range(j):
            outs = step_cells(rule, outs, cap, work)
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


class Probe(NamedTuple):
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


class ProbeRow(NamedTuple):
    n: int
    probe_id: str
    coef_abs: float
    cesaro_mean: float
    mode: str
    samples: int
    stderr: float


class TvRow(NamedTuple):
    n: int
    tv_distance: float
    cesaro_tv: float
    mode: str
    samples: int
    stderr: float


class RandomizationReport(NamedTuple):
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
    specs, read once as their ``measures.StarLaw`` through ``frame``;
    ``dec`` must split this ``rule`` through this ``frame``.  Probe rows
    ride the factorized dual path out to n_max, at most ``cap_states``
    rows, whenever the probe's factor is abelian and the matching initial
    factor is i.i.d. (abelian rules; quotient probes with ``dec``);
    everything else gets exact rows, read on the output window, while the
    input window fits the state cap, then Monte-Carlo rows
    (``mc_samples`` > 0) at deterministic chunk-seeded checkpoints.  Past
    ``n_exact`` the Cesàro columns average the rows present, exact and MC,
    not every n ≤ N (ROADMAP item 2).  MC checkpoints costing more than
    ``util.WORK_CAP`` cell-steps in all are refused before any work starts.
    """
    if n_max < 0:
        raise McaLabError(f"n_max {n_max} is negative; need 0 <= n_max")
    if tv_cells < 1:
        raise McaLabError(f"tv_cells: need a positive integer, got {tv_cells}")
    group = rule.group
    if not isinstance(init, MeasureSpec):
        if frame is None:
            raise McaLabError("a (λ, ν) pair needs a frame")
        init = StarLaw(frame, *init)
    if init.size != group.order:
        raise McaLabError("initial measure alphabet mismatch")
    if dec is not None and (dec.rule is not rule or dec.frame is not frame):
        raise McaLabError("dec is not a decomposition of the rule through the frame")
    cells = sorted({c for p in probes for c in p.cells()} | set(range(tv_cells)))
    out_lo, out_hi = min(cells), max(cells) + 1
    width, spread = out_hi - out_lo, rule.spread
    check_cap(group.order, width, cap_states, "randomization output window")
    n_exact = _exact_horizon(group.order, width, spread, n_max, cap_states)
    asked = _doubling(n_max) if mc_checkpoints is None else mc_checkpoints
    checkpoints = sorted({m for m in map(int, asked) if n_exact < m <= n_max}
                         if mc_samples > 0 else ())
    if checkpoints:
        # before any sample: a rule too wide to step, under the run's cap even
        # when its table is cached, then too many cell-steps in all
        check_cap(group.order, rule.width, cap_states, "local rule table")
        work = mc_samples * sum((width + n * spread) * n for n in checkpoints)
        if work > WORK_CAP:
            raise CapExceededError(f"Monte Carlo: {work} cell-steps exceed cap {WORK_CAP}")
    exps = _exponent_sums(rule)
    coprime = None
    if exps is not None:
        coprime = all(math.gcd(m, group.order) == 1 for m in exps.values())
        if not coprime:
            warnings.warn("some exponent sum shares a factor with the group "
                          "order; the density-one randomization hypothesis "
                          "fails", stacklevel=2)
    fast = [_dual_fast_path(rule, init, probe, dec) for probe in probes]
    if any(fast) and n_max + 1 > cap_states:
        raise CapExceededError(f"dual probe rows: {n_max + 1} rows exceed cap {cap_states}")
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
    # exact measure chain, each law read on the output window: TV always,
    # probes without a dual path
    slow = [(rows, probe.value_tables(group, frame))
            for rows, probe, path in zip(series, probes, fast) if path is None]
    in_lo = out_lo + n_exact * rule.v_lo
    in_hi = out_hi + n_exact * rule.v_hi
    cur = init.window_measure(in_lo, in_hi, cap_states)
    # words[i, t] is cell out_lo + t of output word i
    words = np.indices((group.order,) * width, dtype=cell_dtype(group.order)
                       ).reshape(width, -1).T
    for n in range(n_exact + 1):
        out = cur.marginal(out_lo, out_hi)
        # one float division rounds correctly only while num and den are
        # exact in binary64; past 2**53 divide the Python ints instead
        weights = (out.num / out.den if out.den <= 2 ** 53 else
                   np.array([w / out.den for w in out.num.tolist()], dtype=np.float64))
        for rows, (tabs, phase) in slow:
            vals = _probe_values(tabs, phase, words, out_lo)
            vals *= weights
            rows.append((n, abs(complex(vals.sum())), "exact", 0, 0.0))
        tv = float(out.marginal(out_lo, out_lo + tv_cells).tv_from_uniform())
        tv_series.append((n, tv, "exact", 0, 0.0))
        if n < n_exact:
            cur = push_forward(rule, cur, cap_states)
    for n in checkpoints:
        probe_stats, (tv, tv_se) = _mc_step(
            rule, init, n, out_lo, out_hi, tv_cells,
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


def _exact_horizon(order: int, width: int, spread: int, n_max: int, cap: int) -> int:
    """The largest n ≤ n_max whose input window of ``width + n·spread``
    cells has at most ``cap`` words, ``width`` cells fitting already."""
    fit = fitting_cells(order, cap, width + n_max * spread)
    return (fit - width) // spread if spread else n_max


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
    """(dual, seed character, cell distribution) when the probe reads one
    abelian factor under an i.i.d. law: a spec's group, or ``dec``'s C."""
    if isinstance(init, MeasureSpec):
        base, chi, other, spec = rule, probe.alpha, probe.phi, init
    elif dec is not None:
        base, chi, other, spec = dec.h_rule, probe.phi, probe.alpha, init.nu
    else:
        return None
    if (chi is None or other is not None or not base.group.is_abelian
            or spec.kind not in ("uniform", "bernoulli")):
        return None
    return LinearRuleDual.from_rule(base), chi, spec.cell_distribution()


# A table step costs as much per 64 sample·cells as this many word
# operations of plane_step_ops.  Measured on chains as _mc_step runs them
# (16384 samples of 193 cells, 64 steps, best of 3, numpy 2.4, one core of
# a 2-core Xeon): step_cells takes 99-119 ns per 64 sample·cells on width-4
# rules over Q8, D16 and Q16, step_planes 0.38-0.62 ns per word operation
# on D16 and Q16 rules of 65-196 operations: 190-294 operations, 260 kept.
_GATHER_WORD_OPS = 260


def _mc_kernel(rule: McaRule, cap: int):
    """``step_planes`` when the rule's group has order 2**b with 1 ≤ b ≤ 8
    (byte codes) and a bit-sliced step costs at most ``_GATHER_WORD_OPS``
    word operations; ``step_cells`` otherwise."""
    s = rule.group.order
    if s & (s - 1) or not 2 <= s <= 256:
        return step_cells
    return step_planes if plane_step_ops(rule, cap) <= _GATHER_WORD_OPS else step_cells


def _mc_step(rule: McaRule, law, n: int, out_lo: int, out_hi: int,
             tv_cells: int, tables: list[tuple[dict[int, np.ndarray], complex]],
             samples: int, seed: int, workers: int, cap: int) -> tuple:
    """One Monte-Carlo checkpoint: sample, evolve n steps, measure.

    Samples are drawn in chunks of 2**14, each from its own
    ``SeedSequence(entropy=seed, spawn_key=(n, chunk))`` stream, so the
    rows are the same for any ``workers``.  The kernel is
    :func:`_mc_kernel`'s choice.  On ``step_planes`` a chunk is one block:
    one ``to_planes``, n steps of the rule's plane program, 64 samples per
    word, and one ``from_planes`` of the output cells.  On ``step_cells``
    the chunk runs in blocks of at most ``_CHUNK`` cells that take all n
    steps while they stay in cache, every step in place in one workspace
    made per chunk.  The law's ``draws`` fill each chunk's words with B
    letters, a ``StarLaw``'s through a ``b_of`` take per sampled cell.  On
    ``step_planes`` a ``StarLaw``'s ``codes`` fill them instead, and its
    ``b_planes`` carries the packed star codes to B: one Boolean map per
    chunk, decided here and nowhere else.
    """
    s = rule.group.order
    length = out_hi - out_lo + n * rule.spread
    chunk = 1 << 14
    kernel = _mc_kernel(rule, cap)
    star = kernel is step_planes and isinstance(law, StarLaw)
    rows = max(1, _CHUNK // length)

    def run_chunk(ci: int) -> tuple:
        lo_i = ci * chunk
        m = min(chunk, samples - lo_i)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, ci)))
        words = np.empty((m, length), dtype=cell_dtype(s))
        for _ in (law.codes if star else law.draws)(rng, words):
            pass
        if kernel is step_planes:
            block = to_planes(words, s.bit_length() - 1)
            del words   # not read again: a chunk's bytes less while stepping
            if star:
                block = law.b_planes(block)
            for _ in range(n):
                block = step_planes(rule, block, cap)
            words = from_planes(block, m)
        else:
            out = np.empty((m, out_hi - out_lo), dtype=words.dtype)
            # its output holds a block's input words: every step of every
            # block runs in place there, a last, shorter block at full width
            work = step_buffers(rule, (length + rule.spread, min(rows, m)))
            for r in range(0, m, rows):
                k = min(rows, m - r)
                block = work[-1]
                np.copyto(block[:, :k], words[r:r + k].T)
                for _ in range(n):
                    block = step_cells(rule, block, cap, work)
                out[r:r + k] = block[:, :k].T
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
        # imported here so a one-worker run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
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
