"""Exact window measures, push-forwards, and partition entropies.

Measures on length-ℓ windows are stored as integer numerators over one
common denominator, so push-forward and marginalization are exact; only
the final entropy evaluation leaves the rationals.  Every exhaustive path
takes one route: digit planes of the word indices, local-table steps
(``rules.step_cells``), then integer weights summed by image word.
Bipermutative rules admit closed-form entropies (overlap × shift entropy),
which the trajectory-enumeration functions cross-check at finite horizon.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import McaLabError, NotPermutativeError, WindowError
from .groups import FiniteGroup
from .rules import McaRule, code_dtype, is_bipermutative, step_buffers, step_cells
from .util import STATE_CAP, check_cap, digit_planes, index_word

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
    dtype.  ``group`` is optional — only the alphabet size matters for
    measure arithmetic.
    """

    size: int
    lo: int
    hi: int
    num: np.ndarray
    den: int
    group: FiniteGroup | None = None

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
        # entries in [0, den] cannot wrap an int64 sum below 2**63 in total
        exact = np.int64 if num.size * den < 2 ** 63 else object
        if (num.size and num.max() > den) or num.sum(dtype=exact) != den:
            raise McaLabError("weights must sum exactly to the denominator")
        if not kept:
            num = num.astype(_weight_dtype(den), copy=False)
            num.setflags(write=False)
        object.__setattr__(self, "num", num)

    @property
    def length(self) -> int:
        return self.hi - self.lo

    @classmethod
    def uniform(cls, size: int, lo: int, hi: int,
                group: FiniteGroup | None = None) -> "WindowMeasure":
        n = size ** _window_length(lo, hi)
        return cls(size, lo, hi, np.broadcast_to(
            _frozen(np.ones(1, _weight_dtype(n))), (n,)), n, group)

    def marginal(self, lo: int, hi: int) -> "WindowMeasure":
        """Restriction to a sub-window (sums out the other cells)."""
        if not (self.lo <= lo <= hi <= self.hi):
            raise WindowError(f"[{lo}..{hi}) is not inside [{self.lo}..{self.hi})")
        s = self.size
        keep = s ** (hi - lo)
        # partial sums of weights stay at most den: summed in its own dtype
        num = self.num.reshape(-1, keep, s ** (self.hi - hi)).sum(
            axis=(0, 2), dtype=_weight_dtype(self.den))
        return WindowMeasure(s, lo, hi, _frozen(num), self.den, self.group)

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

    def window_measure(self, lo: int, hi: int,
                       group: FiniteGroup | None = None,
                       cap: int = STATE_CAP) -> WindowMeasure:
        n = _window_length(lo, hi)
        check_cap(self.size, n, cap, "window measure")
        if self.kind == "uniform":
            return WindowMeasure.uniform(self.size, lo, hi, group)
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
        return WindowMeasure(self.size, lo, hi, _frozen(num), den // g, group)

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
    group = op.group
    if m.size != group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    out_lo, out_hi = m.lo - op.v_lo, m.hi - op.v_hi
    if out_lo > out_hi:
        raise WindowError("window too narrow for the rule")
    check_cap(m.size, m.length, cap, "push-forward")
    num = _observed_weights(m, op, [(m.lo, m.lo), (out_lo, out_hi)], cap)
    return WindowMeasure(m.size, out_lo, out_hi, _frozen(num), m.den, group)


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
    low = 0
    while low < length and size ** (low + 1) <= _CHUNK:
        low += 1
    return low


def _observation_keys(m: WindowMeasure, rule: McaRule, windows: Sequence,
                      cap: int, letters: np.ndarray | None = None
                      ) -> Iterator[tuple[slice, np.ndarray]]:
    """Observation word of each input word of m, a chunk of words at a time.

    Each input word runs through ``len(windows) - 1`` steps of ``rule``;
    ``windows[n] = (lo, hi)`` names the cells appended to its observation
    after n steps.  Letter x at cell m.lo + t of an input word puts
    ``letters[t, x]`` in that cell (x itself when None: a fibre word runs
    as its star word over a fixed quotient word this way).  Yields the
    chunk of input word indices and the big-endian index (intp), over the
    rule's group, of each observation.  Every buffer is allocated once per
    call, so the chunk loop itself allocates nothing: the start cells and
    the cells of every chunk's leading word, in the rule's code dtype (see
    :func:`rules.step_cells`), one workspace per step, and the key.  The
    key buffer is reused: a consumer must use each key before it advances
    the iterator.
    """
    s, length, base = m.size, m.length, rule.group.order
    code = code_dtype(base, rule.width)
    letters = (np.broadcast_to(np.arange(s), (length, s)) if letters is None
               else letters).astype(code)
    low = _tail_cells(s, length)
    words, high = s ** low, length - low
    # the cells of every tail word, one column each, and of every head word,
    # which fixes the leading cells of one chunk
    tail, heads = (np.take_along_axis(part, digit_planes(np.arange(s ** n), s, n).T,
                                      axis=1)
                   for part, n in ((letters[high:], low), (letters[:high], high)))
    cells = np.empty((length, words), dtype=code)
    # cell-major: the tail cells run through every tail word in each chunk
    cells[high:] = tail
    works, shape = [], cells.shape
    for _ in windows[1:]:
        works.append(step_buffers(rule, shape))
        shape = works[-1][-1].shape
    key, digit = np.empty(words, dtype=np.intp), np.empty(words, dtype=np.intp)
    for head in range(s ** high):
        cells[:high] = heads[:, head:head + 1]
        block, lo = cells, m.lo
        key.fill(0)
        for n, (w_lo, w_hi) in enumerate(windows):
            if n:
                block = step_cells(rule, block, cap, works[n - 1])
                lo -= rule.v_lo
            for x in range(w_lo, w_hi):
                key *= base
                np.copyto(digit, block[x - lo])   # an unbuffered cast to intp
                key += digit
        yield slice(head * words, (head + 1) * words), key


def _trajectory_setup(rule: McaRule, spec: MeasureSpec, n_steps: int, cap: int):
    """(input law on [-NL..NR), observed windows) of a trajectory.

    Cells [-L..R) are observed at times 0..N-1, time-major, so the
    observation words are as long as the input words.
    """
    group = rule.group
    if spec.size != group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    L, R = rule.left_overlap, rule.right_overlap
    lo, hi = -n_steps * L, n_steps * R
    check_cap(group.order, hi - lo, cap, "trajectory enumeration")
    return spec.window_measure(lo, hi, group, cap), [(-L, R)] * n_steps


def trajectory_joint_distribution(op: McaRule, spec: MeasureSpec, n_steps: int,
                                  cap: int = STATE_CAP) -> dict[tuple[int, ...], Fraction]:
    """Joint law of the cells [-L..R) observed at times 0..n_steps-1.

    Keys are the concatenated observations (time-major), in ascending
    word-index order; enumeration runs over the generating input window
    [-nL..nR).  Words of equal weight share one ``Fraction``.
    """
    m, windows = _trajectory_setup(op, spec, n_steps, cap)
    s, length, den = m.size, m.length, m.den
    num = _observed_weights(m, op, windows, cap)
    del m  # only one weight array stays alive while the dict grows
    idx = np.flatnonzero(num)
    # one Fraction per distinct weight, shared by every word that has it
    weights, which = np.unique(num[idx], return_inverse=True)
    probs = [Fraction(w, den) for w in weights.tolist()]
    joint: dict[tuple[int, ...], Fraction] = {}
    # a chunk of words at a time, one list per cell: zip builds each key
    # tuple directly, and no list per word or digit plane of every word exists
    for start in range(0, len(idx), _CHUNK):
        part = slice(start, start + _CHUNK)
        cells = digit_planes(idx[part], s, length).T.tolist()
        keys = zip(*cells) if length else [()] * len(idx[part])
        joint.update(zip(keys, map(probs.__getitem__, which[part].tolist())))
    return joint


def trajectory_partition_entropy(op: McaRule, spec: MeasureSpec, n_steps: int,
                                 cap: int = STATE_CAP) -> float:
    """Entropy in bits of the time-0..N-1 trajectory observations.

    For bipermutative rules this equals the entropy of the input marginal
    on [-NL..NR) (the two partitions are equivalent).  A uniform measure
    counts the preimages of each outcome in numpy; when every outcome is
    hit once the trajectory map is a bijection and the result is the closed
    form length·log2(size).  Any other measure takes the exact joint law
    (:func:`trajectory_joint_distribution`).  Both non-closed routes return
    the exact sum of the per-outcome terms rounded once, one term per
    distinct weight (:func:`partition_entropy`).
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
    check_cap(m.size, m.length, 1 << 24, "non-bijective trajectory counting")
    return _weights_entropy(_observed_weights(m, op, windows, cap), m.den)


def formula_entropy(rule: McaRule, spec: MeasureSpec,
                    cap: int = STATE_CAP) -> float:
    """Closed-form entropy overlap × shift-entropy for bipermutative rules.

    Requires bipermutativity.  Invariance of the measure under the rule is
    verified for the uniform spec (push-forward on a width-sized window);
    any other spec is accepted with a warning since invariance is then the
    caller's assertion.
    """
    if not is_bipermutative(rule):
        raise NotPermutativeError("closed-form entropy needs a bipermutative rule")
    if spec.is_uniform():
        probe = spec.window_measure(0, rule.width + 1, rule.group, cap)
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

    For each quotient word c on the generating window, every fibre word a
    runs as the star word a⋆c through the rule's own local table.  With c
    fixed, the B-cells observed name the A-cells observed, so their law
    under the fibre measure is the fibre trajectory law; its entropy (the
    closed form length·log2|A| when a uniform law sees every word apart)
    is averaged with the quotient weights — a finite-N stand-in for the
    relative entropy closed form (divide by n_steps for the per-step rate).
    """
    rule, fr = dec.rule, dec.frame
    L, R = rule.left_overlap, rule.right_overlap
    lo, hi = -n_steps * L, n_steps * R
    check_cap(fr.B.order, hi - lo, cap, "fibrewise enumeration")
    nu = nu_spec.window_measure(lo, hi, fr.C, cap)
    if lambda_spec.size != fr.a_group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    lam = lambda_spec.window_measure(lo, hi, fr.a_group, cap)
    windows, keys = [(-L, R)] * n_steps, np.empty(len(lam.num), dtype=np.intp)
    acc = []
    for i in np.flatnonzero(nu.num).tolist():
        letters = fr.b_of[:, index_word(i, fr.C.order, hi - lo)].T
        for rows, key in _observation_keys(lam, rule, windows, cap, letters):
            keys[rows] = key
        seen, which = np.unique(keys, return_inverse=True)
        if lambda_spec.kind == "uniform" and len(seen) == len(keys):
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
    output is filled in place a chunk at a time: a chunk fixes the leading
    cells, and the coordinate-word indices of the tail words, computed
    once, are shifted by the leading cells' offsets.
    """
    if (a.lo, a.hi) != (c.lo, c.hi):
        raise WindowError("product factors must share the window")
    A, C, B = frame.a_group.order, frame.C.order, frame.B.order
    if (a.size, c.size) != (A, C):
        raise McaLabError(f"star product needs factors over |A| = {A} and "
                          f"|C| = {C}, got sizes {a.size} and {c.size}")
    n, den = a.length, a.den * c.den
    dtype = _weight_dtype(den)
    low = _tail_cells(B, n)
    tail_x, tail_y = frame.word_indices(low)
    head_x, head_y = frame.word_indices(n - low)
    words = B ** low
    num = np.empty(B ** n, dtype=dtype)
    for head, (hx, hy) in enumerate(zip((head_x * A ** low).tolist(),
                                        (head_y * C ** low).tolist())):
        np.multiply(a.num[tail_x + hx], c.num[tail_y + hy],
                    out=num[head * words:(head + 1) * words], dtype=dtype)
    return WindowMeasure(B, a.lo, a.hi, _frozen(num), den, frame.B)
