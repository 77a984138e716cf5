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
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import McaLabError, NotAbelianError, NotCentralError, WindowError
from .groups import AbelianCoords, FiniteGroup, GroupMap, abelian_invariants
from .measures import (_CHUNK, MeasureSpec, WindowMeasure, push_forward,
                       star_product_measure)
from .rules import McaRule, _merge_positions, local_table, step_cells
from .util import STATE_CAP, cell_dtype, check_cap, digit_planes

__all__ = [
    "Character",
    "characters_of",
    "fourier_coefficient",
    "bernoulli_fourier",
    "LinearRuleDual",
    "dual_action",
    "DiffusionReport",
    "diffusion_report",
    "relative_diffusion_rank",
    "fibre_rank_independence",
    "FibreRankCheck",
    "harmonic_mixing_profile",
    "Probe",
    "ProbeRow",
    "TvRow",
    "RandomizationReport",
    "cesaro_randomization",
]


# -- characters ---------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A character of A^(window) with finite support, times a fixed phase.

    ``support`` maps cell index to a nonzero coefficient tuple against the
    cyclic orders in ``invariants``; evaluation multiplies
    exp(2πi Σ cᵢaᵢ/nᵢ) over the support.  ``phase`` carries the constant of
    an affine character (1 for a plain character).  ``_trusted`` skips
    the support checks, for ``dual_action``'s own output only.
    """

    invariants: tuple[int, ...]
    support: tuple[tuple[int, tuple[int, ...]], ...]
    phase: complex = 1.0 + 0j
    coords: AbelianCoords | None = field(default=None, compare=False)
    _: KW_ONLY
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted: bool):
        if _trusted:
            return
        seen = set()
        for cell, coeff in self.support:
            if cell in seen:
                raise McaLabError(f"duplicate support cell {cell}")
            seen.add(cell)
            if len(coeff) != len(self.invariants):
                raise McaLabError("coefficient tuple has wrong arity")
            if all(c % n == 0 for c, n in zip(coeff, self.invariants)):
                raise McaLabError("support tuples must be nonzero")

    @classmethod
    def make(cls, coords: AbelianCoords, support: dict[int, Sequence[int]],
             phase: complex = 1.0 + 0j) -> "Character":
        orders = coords.orders
        items = []
        for cell in sorted(support):
            coeff = tuple(c % n for c, n in zip(support[cell], orders))
            if any(coeff):
                items.append((cell, coeff))
        return cls(orders, tuple(items), phase, coords)

    @property
    def rank(self) -> int:
        return len(self.support)

    def cells(self) -> tuple[int, ...]:
        return tuple(cell for cell, _ in self.support)

    def is_trivial(self) -> bool:
        return not self.support

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


def _value_table(coords: AbelianCoords, coeff: tuple[int, ...]) -> np.ndarray:
    """exp(2πi Σ cᵢaᵢ/nᵢ) over group-element indices."""
    vals = np.empty(coords.group.order, dtype=np.complex128)
    for g in range(coords.group.order):
        t = coords.to_tuple[g]
        angle = 2.0 * math.pi * math.fsum(
            c * a / n for c, a, n in zip(coeff, t, coords.orders))
        vals[g] = cmath.exp(1j * angle)
    return vals


def _nonzero_tuples(orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonzero coefficient tuples against mixed cyclic orders, lex order."""
    return [t for t in itertools.product(*(range(n) for n in orders)) if any(t)]


def characters_of(A: FiniteGroup, lo: int, hi: int) -> Iterator[Character]:
    """All characters supported inside [lo..hi), by rank then lex order."""
    if not A.is_abelian:
        raise NotAbelianError("characters need an abelian group")
    coords = abelian_invariants(A)
    nz = _nonzero_tuples(coords.orders)
    cells = range(lo, hi)
    yield Character(coords.orders, (), 1.0 + 0j, coords)
    for r in range(1, hi - lo + 1):
        for combo in itertools.combinations(cells, r):
            for assignment in itertools.product(nz, repeat=r):
                yield Character(coords.orders, tuple(zip(combo, assignment)),
                                1.0 + 0j, coords)


def fourier_coefficient(chi: Character, m: WindowMeasure,
                        coords: AbelianCoords | None = None,
                        cap: int = STATE_CAP) -> complex:
    """<chi, m> = Σ_w m[w]·chi(w), summed exactly then rounded once.

    The support must sit inside the measure window.  Cells outside the
    support integrate out for free (character value ignores them).
    """
    coords = coords or chi.coords
    if coords is None and m.group is not None:
        coords = abelian_invariants(m.group)
    if coords is None and chi.support:
        raise McaLabError("no coordinate system available for the alphabet")
    tabs = chi.cell_values(coords) if chi.support else {}
    return _pairing(tabs, chi.phase, m, cap)


def _pairing(tabs: dict[int, np.ndarray], phase: complex, m: WindowMeasure,
             cap: int) -> complex:
    """Σ_w m[w]·phase·Π_cell tabs[cell][w_cell], summed in word-index order.

    ``tabs`` maps a cell to its complex values over the alphabet; each
    weight is the correctly rounded float of num/den.
    """
    for cell in tabs:
        if not (m.lo <= cell < m.hi):
            raise WindowError(f"support cell {cell} outside [{m.lo}..{m.hi})")
    check_cap(m.size, m.length, cap, "fourier sum")
    total = m.size ** m.length
    vals = np.full(total, phase, dtype=np.complex128)
    if tabs:
        digits = digit_planes(np.arange(total, dtype=np.int64), m.size, m.length)
        for cell, tab in tabs.items():
            vals *= tab[digits[:, cell - m.lo]]
    # one float division rounds correctly only while num and den are exact
    # in binary64; past 2**53 divide the Python ints instead
    weights = (m.num / m.den if m.den <= 2 ** 53
               else np.array([n / m.den for n in m.num.tolist()], dtype=np.float64))
    return complex((vals * weights).sum())


def bernoulli_fourier(chi: Character, cell_dist: Sequence,
                      coords: AbelianCoords | None = None) -> complex:
    """<chi, μ> for an i.i.d. product measure, via per-cell factorization.

    ``cell_dist`` is the single-cell distribution over group-element
    indices.  Equals ``fourier_coefficient`` on any containing window.
    Each distinct coefficient tuple is paired with ``cell_dist`` once; the
    factors are folded in support order.
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
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(positions, weights, divisors, orders) as arrays, for ``dual_action``.

        With big the largest order, block p of the d × (P·d) weights is
        W[i, j] = matrix_p[i][j] · (big // orders[i]); a coefficient row
        times W is integral exactly where column j divides by big //
        orders[j], the divisor.
        """
        orders = self.coords.orders
        d = len(orders)
        scale = np.array([orders[-1] // n for n in orders], dtype=np.int64)
        weights = np.concatenate(
            [np.asarray(matrix, dtype=np.int64).reshape(d, d) * scale[:, None]
             for _, matrix in self.matrices], axis=1)
        return (np.array(self.positions(), dtype=np.int64), weights,
                np.tile(scale, len(self.matrices)), np.array(orders, dtype=np.int64))


def dual_action(dual: LinearRuleDual, chi: Character) -> Character:
    """Coefficients of chi ∘ rule: mass at cell k spreads to cells k+v.

    The convention matches <chi, push_forward(rule, m)> ==
    <dual_action(dual, chi), m>; the bias contributes one phase factor
    chi_k(bias) per support cell, folded in support order.  The step itself
    is integer array arithmetic on the support's coefficient rows: one
    product with the weights of every position, a shifted add into the
    target rows, one reduction mod the orders.
    """
    coords = dual.coords
    orders = coords.orders
    if chi.invariants != orders:
        raise McaLabError("character and dual rule have different invariants")
    factors: dict[tuple[int, ...], complex] = {}
    phase = chi.phase
    for _, coeff in chi.support:
        if coeff not in factors:
            angle = 2.0 * math.pi * math.fsum(
                c * b / n for c, b, n in zip(coeff, dual.bias_coords, orders))
            factors[coeff] = cmath.exp(1j * angle)
        phase *= factors[coeff]
    if not chi.support or not dual.matrices:
        return Character(orders, (), phase, coords, _trusted=True)
    positions, weights, steps, order_arr = dual._arrays
    d = len(orders)
    cells, tuples = zip(*chi.support)
    cells = np.array(cells, dtype=np.int64)
    try:
        coeffs = np.fromiter(itertools.chain.from_iterable(tuples),
                             dtype=np.int64, count=len(cells) * d)
    except OverflowError:  # a directly built character past int64
        coeffs = np.fromiter((c % n for t in tuples for c, n in zip(t, orders)),
                             dtype=np.int64, count=len(cells) * d)
    coeffs = coeffs.reshape(len(cells), d)
    # reduced rows keep the products small; reducing moves a product by
    # multiples of big only, which change neither its divisibility nor its
    # quotient mod the orders
    prod = (coeffs % order_arr) @ weights
    if (prod % steps).any():
        raise McaLabError("dual coefficient is not integral; bad matrix")
    adds = (prod // steps).reshape(len(cells), len(positions), d)
    # one row per distinct target cell, in ascending cell order
    rows, idx = np.unique(cells[:, None] + positions, return_inverse=True)
    idx = idx.reshape(len(cells), len(positions))
    acc = np.zeros((len(rows), d), dtype=np.int64)
    for p in range(len(positions)):
        # support cells are distinct, so one position hits each row once
        acc[idx[:, p]] += adds[:, p]
    acc %= order_arr
    keep = np.flatnonzero(acc.any(axis=1))
    support = tuple(zip(rows[keep].tolist(), map(tuple, acc[keep].tolist())))
    return Character(orders, support, phase, coords, _trusted=True)


def _orbit(dual: LinearRuleDual, chi: Character, steps: int) -> Iterator[Character]:
    """chi and its first ``steps`` images, one ``dual_action`` call per image."""
    yield chi
    for _ in range(steps):
        chi = dual_action(dual, chi)
        yield chi


@dataclass
class DiffusionReport:
    """Rank trajectory of a character under iterated dual action."""

    ranks: list[int]
    thresholds: tuple[int, ...]
    densities: dict[int, float]
    density_trail: dict[int, list[tuple[int, float]]]

    def density(self, threshold: int, j_up: int | None = None) -> float:
        upto = len(self.ranks) - 1 if j_up is None else j_up
        hits = sum(1 for j in range(1, upto + 1) if self.ranks[j] > threshold)
        return hits / upto if upto else 0.0


def diffusion_report(dual: LinearRuleDual, chi: Character, j_max: int,
                     thresholds: Sequence[int] = (2, 4, 10)) -> DiffusionReport:
    """Iterate the dual action and summarize how ranks grow.

    ``densities[r]`` is the fraction of 1 ≤ j ≤ j_max with rank > r; the
    trail records that fraction at doubling prefixes, as evidence (never
    an assertion) of diffusion in density.
    """
    ranks = [c.rank for c in _orbit(dual, chi, j_max)]
    report = DiffusionReport(ranks, tuple(thresholds), {}, {})
    for r in report.thresholds:
        report.densities[r] = report.density(r)
        report.density_trail[r] = [(m, report.density(r, m))
                                   for m in _doubling(j_max)]
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
    return [c.rank for c in _orbit(dual, alpha, j)][-1]


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
    As in ``dual_action``, alpha is read from integer coefficient rows
    scaled to the largest invariant order, big.
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
    weights = np.array([[c % n * (big // n) for c, n in zip(ctup, orders)]
                        for _, ctup in alpha.support],
                       dtype=np.int64).reshape(len(cells), len(orders))
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
        outs, lo = frame.b_of[probes, c_words[:, None, :]], in_lo
        for _ in range(j):
            outs = step_cells(rule, outs, lo, cap)
            lo -= rule.v_lo
        outs = frame.a_part[outs[..., [k - lo for k in cells]]]
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


# -- harmonic mixing ----------------------------------------------------------


def harmonic_mixing_profile(spec: MeasureSpec, r_max: int,
                            group: FiniteGroup | None = None) -> list[float]:
    """Max |<chi, μ>| per character rank r ≤ r_max (decay ⇒ mixing evidence).

    Bernoulli: the single-cell maximum to the r-th power (exact
    factorization).  Markov: exact transfer-matrix products over all
    supports inside a window of r + 2 cells, which bounds the gap
    structure at desk scale.
    """
    if group is not None:
        coords = abelian_invariants(group)
    else:
        from .groups import make_cyclic

        coords = abelian_invariants(make_cyclic(spec.size))
    nz = _nonzero_tuples(coords.orders)
    if spec.kind in ("uniform", "bernoulli"):
        dist = spec.cell_distribution()
        chars = [Character(coords.orders, ((0, c),), coords=coords) for c in nz]
        best = max((abs(bernoulli_fourier(chi, dist)) for chi in chars), default=0.0)
        return [1.0] + [best ** r for r in range(1, r_max + 1)]
    if spec.kind != "markov":
        raise McaLabError(f"no mixing profile for kind {spec.kind!r}")
    tables = {coeff: _value_table(coords, coeff) for coeff in nz}
    pi = np.asarray([float(p) for p in spec.probs])
    T = np.asarray([[float(p) for p in row] for row in spec.transition])
    out = [1.0]
    for r in range(1, r_max + 1):
        window = r + 2
        best = 0.0
        for combo in itertools.combinations(range(window), r):
            if combo[0] != 0:
                continue  # shift invariance: anchor the first support cell
            for assignment in itertools.product(nz, repeat=r):
                vec = pi * tables[assignment[0]]
                prev = combo[0]
                for cell, coeff in zip(combo[1:], assignment[1:]):
                    vec = vec @ np.linalg.matrix_power(T, cell - prev)
                    vec = vec * tables[coeff]
                    prev = cell
                best = max(best, float(abs(vec.sum())))
        out.append(best)
    return out


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
        cells = set()
        for chi in (self.alpha, self.phi):
            if chi is not None:
                cells.update(chi.cells())
        return tuple(sorted(cells))

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
    # exact horizon: largest n whose input window enumeration fits the cap
    n_exact = -1
    for n in range(n_max + 1):
        width = (out_hi - out_lo) + n * spread
        # as in util.check_cap: past cap.bit_length() cells, refuse unpowered
        if (group.order > 1 and width > cap_states.bit_length()
                or group.order ** width > cap_states):
            break
        n_exact = n
    if n_exact < 0:
        check_cap(group.order, out_hi - out_lo, cap_states,
                  "randomization output window")
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
                [tab for _, tab in slow], mc_samples, seed or 0, workers)
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


def _draw(rng: np.random.Generator, p: np.ndarray, count: int,
          dtype: np.dtype) -> np.ndarray:
    """``rng.choice(len(p), size=count, p=p)``, the same draws, in ``dtype``.

    ``Generator.choice`` bins ``rng.random(count)`` against the cdf
    ``p.cumsum() / p.cumsum()[-1]`` with ``searchsorted(side="right")``,
    which is the number of cdf edges at or below each draw; counting them
    edge by edge in ``dtype`` is faster for small alphabets.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(count)
    out = np.zeros(count, dtype=dtype)
    for edge in cdf[:-1]:       # the last edge is 1.0, above every draw
        out += u >= edge
    return out


def _sample_words(spec_pair, frame, group: FiniteGroup, length: int,
                  rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample initial words (count × length, the group's cell dtype)."""
    dtype = cell_dtype(group.order)

    def sample_spec(spec: MeasureSpec, size: int) -> np.ndarray:
        if spec.size != size:
            raise McaLabError("initial measure alphabet mismatch")
        p = np.asarray([float(x) for x in spec.probs])
        if spec.kind in ("uniform", "bernoulli"):
            return _draw(rng, p / p.sum(), count * length, dtype).reshape(count, length)
        # markov: sample column by column
        out = np.empty((count, length), dtype=dtype)
        out[:, 0] = _draw(rng, p / p.sum(), count, dtype)
        T = np.asarray([[float(x) for x in row] for row in spec.transition])
        T = T / T.sum(axis=1, keepdims=True)
        for j in range(1, length):
            u = rng.random(count)
            cum = np.cumsum(T[out[:, j - 1]], axis=1)
            out[:, j] = np.minimum((u[:, None] > cum).sum(axis=1), size - 1)
        return out

    if isinstance(spec_pair, MeasureSpec):
        return sample_spec(spec_pair, group.order)
    lam, nu = spec_pair
    a = sample_spec(lam, frame.a_group.order)
    c = sample_spec(nu, frame.C.order)
    # one flat lookup of b_of at a·|C| + c; the index type also holds |C|
    # itself, which the cell dtype misses when A is trivial and |B| is 256
    idx = a.astype(np.min_scalar_type(group.order), copy=False)
    idx *= frame.C.order
    idx += c
    return np.asarray(frame.b_of, dtype=dtype).ravel().take(idx)


def _mc_step(rule: McaRule, init, frame, n: int, out_lo: int, out_hi: int,
             tv_cells: int, tables: list[tuple[dict[int, np.ndarray], complex]],
             samples: int, seed: int, workers: int) -> tuple:
    """One Monte-Carlo checkpoint: sample, evolve n steps, measure.

    Samples are drawn in chunks of 2**14, each from its own
    ``SeedSequence(entropy=seed, spawn_key=(n, chunk))`` stream, and each
    chunk is evolved in row blocks of at most ``_CHUNK`` cells, so the rows
    are the same for any ``workers``.
    """
    group = rule.group
    s = group.order
    in_lo = out_lo + n * rule.v_lo
    in_hi = out_hi + n * rule.v_hi
    length = in_hi - in_lo
    chunk = 1 << 14
    local_table(rule)   # refuse a rule too wide to step before sampling

    def run_chunk(ci: int) -> tuple:
        lo_i = ci * chunk
        m = min(chunk, samples - lo_i)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, ci)))
        words = _sample_words(init, frame, group, length, rng, m)
        # rows evolve independently, so each block of at most _CHUNK cells
        # runs all n steps while its cells and codes stay in cache
        rows = max(1, _CHUNK // length)
        out = np.empty((m, out_hi - out_lo), dtype=words.dtype)
        for r in range(0, m, rows):
            block = words[r:r + rows]
            for step in range(n):
                block = step_cells(rule, block, in_lo - step * rule.v_lo)
            out[r:r + rows] = block
        words = out
        probe_sums = []
        for tabs, phase in tables:
            vals = np.full(m, phase, dtype=np.complex128)
            for cell, tab in tabs.items():
                vals *= tab[words[:, cell - out_lo]]
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
