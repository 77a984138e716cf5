"""Laws, exact window measures, push-forwards, and partition entropies.

A law on full sequences, a :class:`MeasureSpec` or the :class:`StarLaw`
λ⋆ν of two through a frame, gives exact window measures and seeded draws.
Window measures, trajectory laws among them (one cell per observation),
are integer numerators over one common denominator, so push-forward and
marginalization are exact; only the final entropy evaluation leaves the
rationals.  Every exhaustive path takes one route: each observed word's
index is a sum of local-table terms over its input cells' letters
(``rules.step_cells`` steps only cells observed after a second step), then
integer weights are summed by image word, or keys tabled by (quotient
word, fibre word) for a fibre entropy.  Trajectory enumeration cross-checks
bipermutative rules' closed-form entropies (overlap × shift entropy).
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import McaLabError, NotPermutativeError, WindowError
from .rules import (McaRule, _compile, _run_program, _table_anf, code_dtype,
                    is_bipermutative, local_table, step_buffers, step_cells)
from .util import STATE_CAP, check_cap, fitting_cells

__all__ = [
    "WindowMeasure",
    "MeasureSpec",
    "push_forward",
    "partition_entropy",
    "trajectory_joint_distribution",
    "trajectory_partition_entropy",
    "formula_entropy",
    "skew_entropy",
    "fibre_trajectory_entropy",
    "star_product_measure",
]

# Most words per pass of the push-forward/trajectory kernel; bounds its memory.
_CHUNK = 1 << 16


def _weight_dtype(den: int):
    """Dtype of weights over ``den``: the smallest signed integer dtype whose
    maximum is at least ``den`` (int8, int16, int32 or int64), and object
    (Python ints) at or above 2**62.

    Every weight of a law lies in [0, den], and so does every partial sum
    or product of weights formed in this module, so nothing wraps.
    """
    if den >= 2 ** 62:
        return object
    # a signed type reaching -(den + 1) reaches +den
    return np.min_scalar_type(-max(den, 0) - 1)


def _holds(dtype: np.dtype, den: int) -> bool:
    """Whether ``dtype`` may store weights over ``den`` as they are."""
    if den >= 2 ** 62:
        return dtype == object
    return dtype.kind == "i" and np.iinfo(dtype).max >= den


def _window_length(lo: int, hi: int) -> int:
    """Number of cells in [lo..hi); a reversed window is a WindowError."""
    if hi < lo:
        raise WindowError(f"bad window [{lo}..{hi})")
    return hi - lo


def _exact_sum(num: np.ndarray, den: int) -> int:
    """Exact sum of weights in [0, den]: int64 sums over blocks of
    (2**63 - 1) // den weights, which cannot wrap, added as Python ints."""
    if den >= 2 ** 62 or num.size * den < 2 ** 63:
        # one buffered pass, with no int64 copy of narrower weights
        return num.sum(dtype=object if den >= 2 ** 62 else np.int64)
    starts = np.arange(0, num.size, (2 ** 63 - 1) // den)
    return sum(np.add.reduceat(num, starts, dtype=np.int64).tolist())


def _frozen(num: np.ndarray) -> np.ndarray:
    """Make a freshly built array, and every array it views, read-only."""
    a = num
    while isinstance(a, np.ndarray):
        a.setflags(write=False)
        a = a.base
    return num


@dataclass(frozen=True, eq=False)
class WindowMeasure:
    """A probability vector over all words on a window of cells [lo..hi).

    Probabilities are ``num[i] / den`` with word ``i`` in big-endian index
    order; they are exact and sum to 1.  ``num`` is a read-only integer
    array in the narrowest dtype that holds ``den`` (:func:`_weight_dtype`:
    int8 up to int64, Python ints at or above 2**62).  A caller's array is
    kept as it is when nothing writable can change it and its signed
    integer dtype already holds ``den``; anything else is copied into that
    dtype.
    """

    size: int
    lo: int
    hi: int
    num: np.ndarray
    den: int

    def __post_init__(self):
        _window_length(self.lo, self.hi)
        num, den = self.num, self.den
        # keep the caller's array only if nothing writable can change it
        owner = num
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        kept = owner is None and _holds(num.dtype, den)
        if not kept:
            # validated at full width, so no narrowing can wrap a weight
            try:
                num = np.array(num, dtype=object if den >= 2 ** 62 else np.int64)
            except OverflowError:
                raise McaLabError("weights must sum exactly to the denominator") from None
        if num.shape != (self.size ** self.length,):
            raise McaLabError(
                f"need {self.size ** self.length} weights, got {num.size}")
        # min and max allocate no temporary as large as the weights
        if den <= 0 or (num.size and num.min() < 0):
            raise McaLabError("weights must be nonnegative with positive denominator")
        if (num.size and num.max() > den) or _exact_sum(num, den) != den:
            raise McaLabError("weights must sum exactly to the denominator")
        if not kept:
            num = num.astype(_weight_dtype(den), copy=False)
            num.setflags(write=False)
        object.__setattr__(self, "num", num)

    @property
    def length(self) -> int:
        return self.hi - self.lo

    @classmethod
    def uniform(cls, size: int, lo: int, hi: int) -> "WindowMeasure":
        n = size ** _window_length(lo, hi)
        return cls(size, lo, hi, np.broadcast_to(
            _frozen(np.ones(1, _weight_dtype(n))), (n,)), n)

    def marginal(self, lo: int, hi: int) -> "WindowMeasure":
        """Restriction to a sub-window (sums out the other cells)."""
        if not (self.lo <= lo <= hi <= self.hi):
            raise WindowError(f"[{lo}..{hi}) is not inside [{self.lo}..{self.hi})")
        s = self.size
        keep = s ** (hi - lo)
        # partial sums of weights stay at most den: summed in its own dtype
        num = self.num.reshape(-1, keep, s ** (self.hi - hi)).sum(
            axis=(0, 2), dtype=_weight_dtype(self.den))
        return WindowMeasure(s, lo, hi, _frozen(num), self.den)

    def entropy_bits(self) -> float:
        """Shannon entropy in bits (0·log 0 = 0), from exact weights."""
        return _weights_entropy(self.num, self.den)

    def tv_from_uniform(self) -> Fraction:
        """Exact total-variation distance to the uniform vector."""
        m = len(self.num)
        total = sum(abs(n * m - self.den) for n in self.num.tolist())
        return Fraction(total, 2 * self.den * m)

    def is_uniform(self) -> bool:
        return bool((self.num == self.num[0]).all())


class MeasureSpec:
    """Analytic description of a shift-invariant measure on full sequences.

    Kinds: ``uniform`` (needs only the alphabet size), ``bernoulli``
    (i.i.d. cells with a given distribution), ``markov`` (stationary chain;
    the initial vector must be invariant under the transition matrix, which
    is checked exactly).  Generates window measures of any length and
    knows its shift entropy in closed form.
    """

    def __init__(self, kind: str, size: int,
                 probs: Sequence[Fraction] | None = None,
                 transition: Sequence[Sequence[Fraction]] | None = None,
                 initial: Sequence[Fraction] | None = None):
        if size <= 0:
            raise McaLabError("alphabet size must be positive")
        self.kind = kind
        self.size = size
        if kind == "uniform":
            self.probs = tuple(Fraction(1, size) for _ in range(size))
        elif kind == "bernoulli":
            if probs is None or len(probs) != size:
                raise McaLabError("bernoulli needs one probability per symbol")
            self.probs = tuple(Fraction(p) for p in probs)
            if any(p < 0 for p in self.probs) or sum(self.probs) != 1:
                raise McaLabError("bernoulli probabilities must be >= 0 and sum to 1")
        elif kind == "markov":
            if transition is None or initial is None:
                raise McaLabError("markov needs a transition matrix and initial vector")
            self.transition = tuple(tuple(Fraction(p) for p in row)
                                    for row in transition)
            self.probs = tuple(Fraction(p) for p in initial)
            if len(self.transition) != size or any(len(r) != size for r in self.transition):
                raise McaLabError("transition matrix must be size x size")
            if any(p < 0 for row in self.transition for p in row):
                raise McaLabError("transition probabilities must be nonnegative")
            if any(sum(row) != 1 for row in self.transition):
                raise McaLabError("transition rows must sum to 1")
            if len(self.probs) != size or sum(self.probs) != 1 or any(
                    p < 0 for p in self.probs):
                raise McaLabError("initial vector must be a distribution")
            for j in range(size):
                if sum(self.probs[i] * self.transition[i][j]
                       for i in range(size)) != self.probs[j]:
                    raise McaLabError("initial vector is not stationary")
        else:
            raise McaLabError(f"unknown measure kind {kind!r}")

    def cell_distribution(self) -> tuple[Fraction, ...]:
        return self.probs

    def window_measure(self, lo: int, hi: int, cap: int = STATE_CAP) -> WindowMeasure:
        n = _window_length(lo, hi)
        check_cap(self.size, n, cap, "window measure")
        if self.kind == "uniform":
            return WindowMeasure.uniform(self.size, lo, hi)
        # integer cell weights, one digit plane at a time; a Bernoulli cell
        # is a chain whose transition rows all equal its distribution
        rows = (self.transition if self.kind == "markov"
                else (self.probs,) * self.size)
        d0 = math.lcm(*(p.denominator for p in self.probs))
        d1 = math.lcm(*(p.denominator for row in rows for p in row))
        den = d0 * d1 ** (n - 1) if n else 1
        dtype = _weight_dtype(den)
        num = np.array([int(p * d0) for p in self.probs] if n else [1], dtype=dtype)
        step = np.array([[int(p * d1) for p in row] for row in rows], dtype=dtype)
        for _ in range(n - 1):
            num = (num.reshape(-1, self.size, 1) * step).ravel()
        # lowest common denominator of the word probabilities; a smaller
        # one may fit a narrower dtype
        g = math.gcd(den, int(np.gcd.reduce(num)))
        if g > 1:
            num //= g
            num = num.astype(_weight_dtype(den // g), copy=False)
        return WindowMeasure(self.size, lo, hi, _frozen(num), den // g)

    def shift_entropy_bits(self) -> float:
        """Entropy rate of the shift in bits per cell, in closed form."""
        if self.kind == "uniform":
            return math.log2(self.size)
        if self.kind == "bernoulli":
            return partition_entropy(self.probs)
        return math.fsum(float(pi) * partition_entropy(row)
                         for pi, row in zip(self.probs, self.transition) if pi)

    def is_uniform(self) -> bool:
        return all(p == Fraction(1, self.size) for p in self.probs) and (
            self.kind != "markov"
            or all(row == self.probs for row in self.transition))

    def draws(self, rng: np.random.Generator, out: np.ndarray) -> Iterator[slice]:
        """Fill ``out`` (count × length, C order) with words drawn from
        ``rng``, yielding slices of its flat view once filled.  I.i.d. cells
        are ``Generator.choice``'s draws (:func:`_draw`); a chain's later
        columns count the cdf edges below one uniform per word."""
        p = np.asarray([float(x) for x in self.probs])
        p /= p.sum()
        if self.kind != "markov":
            yield from _draw(rng, p, out.reshape(-1))
            return
        for _ in _draw(rng, p, out[:, 0]):
            pass
        T = np.asarray([[float(x) for x in row] for row in self.transition])
        # row k: edge k of each letter's row.  A draw above the last edge
        # (1.0 up to rounding) is above every other, so it counts size - 1
        edges = np.cumsum(T / T.sum(axis=1, keepdims=True), axis=1).T[:-1]
        for prev, col in zip(out.T, out.T[1:]):
            u = rng.random(len(out))
            col.fill(0)
            for row in edges:
                col += u > row[prev]
        for start in range(0, out.size, _DRAW_PIECE):
            yield slice(start, min(start + _DRAW_PIECE, out.size))


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
    piece before the next is drawn.  The first edge writes the piece (all
    zero for one symbol, whose edge is 1.0), and the rest add from a buffer.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.empty(min(len(out), _DRAW_PIECE))
    hit = np.empty(len(u), dtype=bool)
    for start in range(0, len(out), _DRAW_PIECE):
        piece = slice(start, min(start + _DRAW_PIECE, len(out)))
        part = out[piece]
        draws = rng.random(out=u[:len(part)])
        np.greater_equal(draws, cdf[0], out=part)
        for edge in cdf[1:-1]:   # the last edge is 1.0, above every draw
            part += np.greater_equal(draws, edge, out=hit[:len(part)])
        yield piece


def partition_entropy(dist) -> float:
    """Shannon entropy in bits of a distribution in any common shape.

    Accepts a WindowMeasure, a mapping to weights, or a bare weight
    sequence.  Weights may be ints (numpy's too), Fractions or finite
    floats and need not be normalized: each is divided by their exact sum.
    A float weight counts as the exact binary value it holds.  Every shape
    groups equal weights (see :func:`_grouped_entropy`), so the cost grows
    with the number of distinct weights, and the result is the exact sum
    of every outcome's -p·log2(p) rounded once: the same bits for a
    WindowMeasure as for its list of probabilities.
    """
    if isinstance(dist, WindowMeasure):
        return dist.entropy_bits()
    values = dist.values() if isinstance(dist, Mapping) else dist
    # group on exact ratios: hashing a Fraction costs ten times more
    ratios = Counter(map(_ratio, values))
    if not ratios:
        return 0.0
    return _grouped_entropy(ratios.keys(), ratios.values())


def _ratio(v) -> tuple[int, int]:
    """Lowest-terms (numerator, denominator) of an exact or float weight."""
    try:
        return v.as_integer_ratio()
    except AttributeError:
        # numpy integer scalars lack the method, and a Fraction of one keeps
        # numpy parts, which wrap at 2**63
        f = Fraction(v)
        return int(f.numerator), int(f.denominator)


# Every finite float is a whole multiple of 2**-1074, the least subnormal.
_FLOAT_ULP_EXP = 1074


def _grouped_entropy(ratios: Iterable[tuple[int, int]],
                     counts: Iterable[int]) -> float:
    """Entropy in bits of a law with ``counts[i]`` outcomes of weight ``ratios[i]``.

    ``ratios`` holds (numerator, denominator) pairs with positive
    denominators; weights need not be normalized.  Each term p·log2(p) is
    computed once, with p the float nearest to the weight over the exact
    total, as ``float(Fraction)`` gives it.  The terms are added ``count``
    times exactly, in units of 2**-1074, and the sum is rounded once.  That
    is bit for bit ``-math.fsum`` over every outcome's term, since both
    round the same exact sum once, half to even.
    """
    groups = [(n, d, int(k)) for (n, d), k in zip(ratios, counts)]
    by_den: dict[int, int] = {}
    for n, d, k in groups:
        by_den[d] = by_den.get(d, 0) + n * k
    total = sum(Fraction(n, d) for d, n in by_den.items())
    if total <= 0:
        raise McaLabError("entropy needs positive total weight")
    acc = 0
    for n, d, k in groups:
        # int / int is correctly rounded, so p == float(Fraction(n, d) / total)
        p = n * total.denominator / (d * total.numerator)
        if p:
            m, e = (p * math.log2(p)).as_integer_ratio()
            acc += (m * k) << (_FLOAT_ULP_EXP + 1 - e.bit_length())
    return -(acc / (1 << _FLOAT_ULP_EXP))


def _weights_entropy(num: np.ndarray, den: int) -> float:
    """Entropy in bits of the integer weights ``num`` over ``den``, grouped."""
    weights, counts = np.unique(num, return_counts=True)
    return _grouped_entropy([(w, den) for w in weights.tolist()], counts.tolist())


def push_forward(op: McaRule, m: WindowMeasure,
                 cap: int = STATE_CAP) -> WindowMeasure:
    """Exact image of a window measure under one synchronous step.

    The output lives on the shrunken window; every input word's weight is
    added to the weight of its image word.
    """
    if m.size != op.group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    out_lo, out_hi = m.lo - op.v_lo, m.hi - op.v_hi
    if out_lo > out_hi:
        raise WindowError("window too narrow for the rule")
    check_cap(m.size, m.length, cap, "push-forward")
    num = _observed_weights(m, op, [(m.lo, m.lo), (out_lo, out_hi)], cap)
    return WindowMeasure(m.size, out_lo, out_hi, _frozen(num), m.den)


def _observed_weights(m: WindowMeasure, rule: McaRule, windows: Sequence,
                      cap: int) -> np.ndarray:
    """Weight of every observation word, summed over the input words of m.

    Indexed by observation word (see :func:`_observation_keys`), exact in
    the weight dtype of ``m.den``: every entry is a partial sum of m's
    weights, at most ``m.den``.
    """
    acc = np.zeros(m.size ** sum(hi - lo for lo, hi in windows),
                   dtype=_weight_dtype(m.den))
    for rows, key in _observation_keys(m, rule, windows, cap):
        np.add.at(acc, key, m.num[rows])
    return acc


def _tail_cells(size: int, length: int) -> int:
    """Most trailing cells whose words fit in one chunk of ``_CHUNK`` words.

    A chunk of a ``length``-cell window fixes the other, leading cells and
    runs through every word of these tail cells.
    """
    return fitting_cells(size, _CHUNK, length)


def _star_chunks(frame, length: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Indices (x, y) of the A-word and of the C-word behind each star word
    of a ``length``-cell window, in chunks laid out as :func:`_observation_keys`
    lays out its own: the tail words' indices, computed once, shifted by each
    chunk's leading cells into two buffers, which the next chunk overwrites."""
    A, C = frame.a_group.order, frame.C.order
    low = _tail_cells(frame.B.order, length)
    tail_x, tail_y = frame.word_indices(low)
    head_x, head_y = frame.word_indices(length - low)
    x, y = np.empty_like(tail_x), np.empty_like(tail_y)
    for hx, hy in zip((head_x * A ** low).tolist(), (head_y * C ** low).tolist()):
        yield np.add(tail_x, hx, out=x), np.add(tail_y, hy, out=y)


def _observation_keys(m: WindowMeasure, rule: McaRule, windows: Sequence,
                      cap: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Observation word of each input word of m, a chunk of words at a time.

    Each input word, over the rule's group, runs through
    ``len(windows) - 1`` steps of ``rule``; ``windows[n] = (lo, hi)`` names
    the cells appended to its observation after n steps.  Yields the chunk
    of input word indices and the big-endian index (intp) of each
    observation.

    A step is a sliding-block code, each time-1 cell a function of the
    ``rule.width`` cells under it, so the key of the time-0 and time-1
    cells is a sum of one term per cell: its letter, or the
    :func:`rules.local_table` over its input cells' letters, times its
    place value.  A chunk fixes the leading cells; the terms of tail cells
    alone are summed once, and each chunk adds the others, indexed by its
    leading letters and broadcast over the tail.  Only a window observed
    after a second step needs cells: the time-1 cells, broadcast from the
    same tables in the code dtype, are stepped by :func:`rules.step_cells`
    in one workspace.  Every chunk-sized buffer is allocated once per
    call, so the chunk loop itself allocates nothing.  The key buffer is
    reused: a consumer must use each key before it advances the iterator.
    """
    s, length = m.size, m.length
    low = _tail_cells(s, length)
    words, high = s ** low, length - low
    # the time-1 cell over width cells, on every word of their letters
    image = (local_table(rule, cap).reshape((s,) * rule.width)
             if len(windows) > 1 else None)

    def placed(t, values):
        """(t, h, values) for values over input cells t, t + 1, ...: the
        first h axes are leading cells, indexed by a chunk's digits[t:t + h],
        and the rest broadcast over the chunk's (s,) * low tail words."""
        h = min(values.ndim, max(high - t, 0))
        lead = max(t - high, 0)
        trail = low - lead - (values.ndim - h)
        return t, h, values.reshape(values.shape[:h] + (1,) * lead
                                    + values.shape[h:] + (1,) * trail)

    # the terms of the cells observed at times 0 and 1, in a dtype that
    # holds their key; each later window extends it digit by digit
    count = sum(hi - lo for lo, hi in windows[:2])
    weight, terms = code_dtype(s, count), []
    for n, (w_lo, w_hi) in enumerate(windows[:2]):
        for x in range(w_lo, w_hi):
            count -= 1
            t = x - m.lo + n * rule.v_lo
            terms.append(placed(t, np.multiply(image if n else np.arange(s),
                                               s ** count, dtype=weight)))
    tail = np.zeros((s,) * low, dtype=np.intp)
    for _, h, values in terms:
        if not h:
            tail += values
    head = [term for term in terms if term[1]]
    # the head terms' sum over the tail cells they reach; with no leading
    # cells there is one chunk, whose key is the tail sum itself
    part = np.zeros(np.broadcast_shapes((1,) * low, *(v.shape[h:] for _, h, v in head)),
                    dtype=np.intp)
    key = np.empty_like(tail) if high else tail
    later = windows[2:]
    if later:
        cells = np.empty((length - rule.spread,) + tail.shape, dtype=image.dtype)
        fills = [placed(t, image) for t in range(len(cells))]
        for t, h, values in fills:
            if not h:
                cells[t] = values
        fills = [fill for fill in fills if fill[1]]
        work = step_buffers(rule, (len(cells), words))
        digit = np.empty(words, dtype=np.intp)
    flat = key.reshape(words)
    for chunk, digits in enumerate(itertools.product(range(s), repeat=high)):
        if high:
            part.fill(0)
            for t, h, values in head:
                part += values[digits[t:t + h]]
            # copyto broadcasts without the buffers a ufunc would allocate
            np.copyto(key, part)
            key += tail
        if later:
            for t, h, values in fills:
                np.copyto(cells[t, ...], values[digits[t:t + h]])
            block, lo = cells.reshape(len(cells), words), m.lo - rule.v_lo
            for w_lo, w_hi in later:
                block = step_cells(rule, block, cap, work)
                lo -= rule.v_lo
                for x in range(w_lo, w_hi):
                    flat *= s
                    np.copyto(digit, block[x - lo])   # an unbuffered cast to intp
                    flat += digit
        yield slice(chunk * words, (chunk + 1) * words), flat


def _trajectory_setup(rule: McaRule, spec: MeasureSpec, n_steps: int, cap: int):
    """(input law on [-NL..NR), observed windows) of a trajectory.

    Cells [-L..R) are observed at times 0..N-1, time-major, so the
    observation words are as long as the input words.
    """
    if spec.size != rule.group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    L, R = rule.left_overlap, rule.right_overlap
    lo, hi = -n_steps * L, n_steps * R
    check_cap(spec.size, hi - lo, cap, "trajectory enumeration")
    return spec.window_measure(lo, hi, cap), [(-L, R)] * n_steps


def trajectory_joint_distribution(op: McaRule, spec: MeasureSpec, n_steps: int,
                                  cap: int = STATE_CAP) -> WindowMeasure:
    """Joint law of the cells [-L..R) observed at times 0..n_steps-1.

    A measure on [0..N·(L+R)), one cell per observation, time-major (cell
    n·(L+R) + i is cell i - L at time n), over the denominator of the law
    of the generating input window [-NL..NR), which enumeration runs over.
    """
    m, windows = _trajectory_setup(op, spec, n_steps, cap)
    num = _observed_weights(m, op, windows, cap)
    return WindowMeasure(m.size, 0, m.length, _frozen(num), m.den)


def trajectory_partition_entropy(op: McaRule, spec: MeasureSpec, n_steps: int,
                                 cap: int = STATE_CAP) -> float:
    """Entropy in bits of the time-0..N-1 trajectory observations.

    For bipermutative rules this equals the entropy of the input marginal
    on [-NL..NR) (the two partitions are equivalent).  A uniform measure
    counts the preimages of each outcome in numpy; when every outcome is
    hit once the trajectory map is a bijection and the result is the closed
    form length·log2(size).  Any other measure takes the exact joint law,
    a :class:`WindowMeasure` (:func:`trajectory_joint_distribution`).  Both
    non-closed routes read integer weights over one denominator and return
    the exact sum of the per-outcome terms rounded once, one term per
    distinct weight (:func:`_weights_entropy`).
    """
    if spec.kind != "uniform":
        return partition_entropy(trajectory_joint_distribution(op, spec, n_steps, cap))
    m, windows = _trajectory_setup(op, spec, n_steps, cap)
    hits = np.zeros(len(m.num), dtype=bool)
    for _, key in _observation_keys(m, op, windows, cap):
        hits[key] = True
    if hits.all():
        # trajectory map is a bijection on the generating window, so the
        # joint is uniform over all outcomes
        return m.length * math.log2(m.size)
    return _weights_entropy(_observed_weights(m, op, windows, cap), m.den)


def formula_entropy(rule: McaRule, spec: MeasureSpec,
                    cap: int = STATE_CAP) -> float:
    """Closed-form entropy overlap × shift-entropy for bipermutative rules.

    Requires bipermutativity.  Invariance of the measure under the rule is
    verified for the uniform spec (push-forward on a width-sized window);
    any other spec is accepted with a warning since invariance is then the
    caller's assertion.
    """
    if spec.size != rule.group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    if not is_bipermutative(rule):
        raise NotPermutativeError("closed-form entropy needs a bipermutative rule")
    if spec.is_uniform():
        probe = spec.window_measure(0, rule.width + 1, cap)
        if not push_forward(rule, probe, cap).is_uniform():
            raise McaLabError("uniform measure unexpectedly not invariant")
    else:
        warnings.warn("measure invariance under the rule is assumed, not checked",
                      stacklevel=2)
    return rule.overlap * spec.shift_entropy_bits()


def skew_entropy(v_overlap: int, w_overlap: int,
                 h_lambda: float, h_nu: float) -> float:
    """Entropy of a skew product from its two bipermutative components."""
    return v_overlap * h_lambda + w_overlap * h_nu


def fibre_trajectory_entropy(dec, lambda_spec: MeasureSpec,
                             nu_spec: MeasureSpec, n_steps: int,
                             cap: int = STATE_CAP) -> float:
    """Finite-horizon relative trajectory entropy, averaged over the base.

    Every star word a⋆c of the generating window runs through the rule's
    own local table in one pass over the B-words, keyed by (quotient word
    c, fibre word a).  With c fixed, the B-cells observed name the A-cells
    observed, so their law under the fibre measure is the fibre trajectory
    law; its entropy (the closed form length·log2|A| when a uniform law
    sees every word apart) is averaged with the quotient weights — a
    finite-N stand-in for the relative entropy closed form (divide by
    n_steps for the per-step rate).
    """
    rule, fr = dec.rule, dec.frame
    StarLaw(fr, lambda_spec, nu_spec)   # refuses a law over the wrong alphabet
    L, R = rule.left_overlap, rule.right_overlap
    lo, hi = -n_steps * L, n_steps * R
    n = hi - lo
    check_cap(fr.B.order, n, cap, "fibrewise enumeration")
    nu = nu_spec.window_measure(lo, hi, cap)
    lam = lambda_spec.window_measure(lo, hi, cap)
    A, C = fr.a_group.order, fr.C.order
    keys = np.empty((C ** n, A ** n), dtype=np.intp)
    words = WindowMeasure.uniform(fr.B.order, lo, hi)
    chunks = _observation_keys(words, rule, [(-L, R)] * n_steps, cap)
    for (_, key), (x, y) in zip(chunks, _star_chunks(fr, n)):
        y *= A ** n   # the flat (C-word, A-word) index, in the chunk's buffer
        keys.put(np.add(y, x, out=y), key)
    acc = []
    for i in np.flatnonzero(nu.num).tolist():
        seen, which = np.unique(keys[i], return_inverse=True)
        if lambda_spec.kind == "uniform" and len(seen) == len(keys[i]):
            h = lam.length * math.log2(lam.size)
        else:
            weights = np.zeros(len(seen), dtype=_weight_dtype(lam.den))
            np.add.at(weights, which, lam.num)
            h = _weights_entropy(weights, lam.den)
        p = int(nu.num[i]) / nu.den
        acc.append(p * h)
    return math.fsum(acc)


def star_product_measure(frame, a: WindowMeasure, c: WindowMeasure) -> WindowMeasure:
    """Product of fibre and base measures, carried onto the big group.

    Both factors must live on the same window, ``a`` over the frame's A and
    ``c`` over its C.  Cellwise, the pair (x, y) becomes the group element
    x⋆y = ``frame.b_of[x, y]``, giving a measure on words over B; exact.  A
    star word weighs a.num times c.num of its two coordinate words.  The
    output is filled in place a chunk of :func:`_star_chunks` at a time,
    into buffers made before the loop, so no chunk allocates.
    """
    if (a.lo, a.hi) != (c.lo, c.hi):
        raise WindowError("product factors must share the window")
    A, C, B = frame.a_group.order, frame.C.order, frame.B.order
    if (a.size, c.size) != (A, C):
        raise McaLabError(f"star product needs factors over |A| = {A} and "
                          f"|C| = {C}, got sizes {a.size} and {c.size}")
    n, den = a.length, a.den * c.den
    dtype = _weight_dtype(den)
    words = B ** _tail_cells(B, n)
    num = np.empty(B ** n, dtype=dtype)
    # cast once; the C-factor gather reuses its buffer, and every index is
    # valid, so "wrap" gathers unbuffered
    num_a, num_c = a.num.astype(dtype, copy=False), c.num.astype(dtype, copy=False)
    gather = np.empty(words, dtype)
    for head, (x, y) in enumerate(_star_chunks(frame, n)):
        out = num[head * words:(head + 1) * words]
        num_a.take(x, out=out, mode="wrap")
        out *= num_c.take(y, out=gather, mode="wrap")
    return WindowMeasure(B, a.lo, a.hi, _frozen(num), den)


class StarLaw:
    """The star product λ⋆ν of a law λ over a frame's A and a law ν over its
    C, read as a :class:`MeasureSpec` over B is: ``size``, exact window
    measures and seeded draws.  Cell (x, y) is x⋆y = ``frame.b_of[x, y]``.
    """

    def __init__(self, frame, lam: MeasureSpec, nu: MeasureSpec):
        for name, part, law, group in (("λ", "A", lam, frame.a_group),
                                       ("ν", "C", nu, frame.C)):
            if law.size != group.order:
                raise McaLabError(f"star law: {name} must be over |{part}| = "
                                  f"{group.order} symbols, got {law.size}")
        self.frame, self.lam, self.nu = frame, lam, nu
        self.size = frame.B.order
        self._program = None

    def window_measure(self, lo: int, hi: int, cap: int = STATE_CAP) -> WindowMeasure:
        """λ⋆ν on [lo..hi) over the frame's B, by :func:`star_product_measure`."""
        check_cap(self.size, _window_length(lo, hi), cap, "star product measure")
        return star_product_measure(self.frame, self.lam.window_measure(lo, hi, cap),
                                    self.nu.window_measure(lo, hi, cap))

    def draws(self, rng: np.random.Generator, out: np.ndarray) -> Iterator[slice]:
        """As :meth:`MeasureSpec.draws`: the star codes of :meth:`codes`,
        each piece carried to B by one ``b_of`` take as it comes.  The
        plane kernel of ``spectral._mc_step`` takes the codes instead and
        carries a whole chunk at once, by :meth:`b_planes`."""
        b_flat = np.asarray(self.frame.b_of, dtype=out.dtype).ravel()
        flat = out.reshape(-1)
        for piece in self.codes(rng, out):
            # take reads its indices through an intp copy, so they may be out
            b_flat.take(flat[piece], out=flat[piece], mode="wrap")
            yield piece

    def codes(self, rng: np.random.Generator, out: np.ndarray) -> Iterator[slice]:
        """As :meth:`draws`, with each cell (x, y) left as its star code
        x·|C| + y, the flat index of x⋆y in ``b_of``: λ's words in full,
        then ν's into ``out`` piece by piece, each piece coded as it comes,
        so λ's words and ``out`` are the only full-size arrays."""
        C = self.frame.C.order
        a = np.empty(out.shape, dtype=out.dtype)
        for _ in self.lam.draws(rng, a):
            pass
        # a·|C| < |B| fits out's dtype, but |C| itself may not: it is 256
        # when A is trivial and |B| is 256
        np.multiply(a, C, out=a, casting="unsafe",
                    dtype=np.promote_types(a.dtype, np.min_scalar_type(C)))
        flat, a = out.reshape(-1), a.reshape(-1)
        for piece in self.nu.draws(rng, out):
            flat[piece] += a[piece]
            yield piece

    def b_planes(self, planes: np.ndarray) -> np.ndarray:
        """The planes of B letters ``b_of`` gives the star codes packed in
        ``planes`` (``rules.to_planes``), B of order 2**b: ``b_of`` compiled
        once per law as a width-1 map of b-bit codes, into the plane program
        a rule's ``step_planes`` runs, and run by the same evaluator."""
        if self._program is None:   # chunk threads racing here build equal programs
            b_of = np.asarray(self.frame.b_of).ravel()
            self._program = _compile(_table_anf(b_of, len(b_of).bit_length() - 1, 1))
        return _run_program(self._program, planes, 0)
