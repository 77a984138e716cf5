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
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import McaLabError, NotPermutativeError, WindowError
from .groups import FiniteGroup
from .rules import Config, McaRule, NhcaSequence, is_bipermutative, step_cells
from .util import STATE_CAP, cell_dtype, check_cap, digit_planes, index_word

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
    "product_measure",
    "star_product_measure",
]

# Most words per pass of the push-forward/trajectory kernel; bounds its memory.
_CHUNK = 1 << 16


def _weight_dtype(den: int):
    """int64 while weights (each at most ``den``) stay below 2**62, else object."""
    return np.int64 if den < 2 ** 62 else object


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
    array: int64 while ``den < 2**62``, Python ints (object dtype) above.
    ``group`` is optional — only the alphabet size matters for measure
    arithmetic.
    """

    size: int
    lo: int
    hi: int
    num: np.ndarray
    den: int
    group: FiniteGroup | None = None

    def __post_init__(self):
        _window_length(self.lo, self.hi)
        # keep the caller's array only if nothing writable can change it
        owner = self.num
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        try:
            num = (np.asarray if owner is None else np.array)(
                self.num, dtype=_weight_dtype(self.den))
        except OverflowError:
            raise McaLabError("weights must sum exactly to the denominator") from None
        if num.shape != (self.size ** self.length,):
            raise McaLabError(
                f"need {self.size ** self.length} weights, got {num.size}")
        if self.den <= 0 or (num < 0).any():
            raise McaLabError("weights must be nonnegative with positive denominator")
        # entries in [0, den] cannot wrap an int64 sum below 2**63 in total
        exact = None if num.size * self.den < 2 ** 63 else object
        if (num > self.den).any() or num.sum(dtype=exact) != self.den:
            raise McaLabError("weights must sum exactly to the denominator")
        num.setflags(write=False)
        object.__setattr__(self, "num", num)

    @property
    def length(self) -> int:
        return self.hi - self.lo

    @classmethod
    def uniform(cls, size: int, lo: int, hi: int,
                group: FiniteGroup | None = None) -> "WindowMeasure":
        n = size ** _window_length(lo, hi)
        return cls(size, lo, hi,
                   np.broadcast_to(_frozen(np.ones(1, np.int64)), (n,)), n, group)

    def marginal(self, lo: int, hi: int) -> "WindowMeasure":
        """Restriction to a sub-window (sums out the other cells)."""
        if not (self.lo <= lo <= hi <= self.hi):
            raise WindowError(f"[{lo}..{hi}) is not inside [{self.lo}..{self.hi})")
        s = self.size
        keep = s ** (hi - lo)
        num = self.num.reshape(-1, keep, s ** (self.hi - hi)).sum(axis=(0, 2))
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
        # lowest common denominator of the word probabilities
        g = math.gcd(den, int(np.gcd.reduce(num)))
        return WindowMeasure(self.size, lo, hi, _frozen(num // g), den // g, group)

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


def push_forward(op: Union[McaRule, NhcaSequence], m: WindowMeasure,
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
    num = _observed_weights(m, [op], [(m.lo, m.lo), (out_lo, out_hi)], cap)
    return WindowMeasure(m.size, out_lo, out_hi, _frozen(num), m.den, group)


def _observed_weights(m: WindowMeasure, steps: Sequence, windows: Sequence,
                      cap: int) -> np.ndarray:
    """Weight of every observation word, summed over the input words of m.

    Indexed by observation word (see :func:`_observation_keys`), exact in
    the dtype of ``m.num``.
    """
    acc = np.zeros(m.size ** sum(hi - lo for lo, hi in windows), dtype=m.num.dtype)
    for rows, key in _observation_keys(m, steps, windows, cap):
        np.add.at(acc, key, m.num[rows])
    return acc


def _observation_keys(m: WindowMeasure, steps: Sequence, windows: Sequence,
                      cap: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Observation word of each input word of m, a chunk of words at a time.

    Each input word runs through ``steps``; ``windows[n] = (lo, hi)`` names
    the cells appended to its observation after n steps.  Yields the chunk
    of input word indices and the big-endian index of each observation.
    """
    s, length = m.size, m.length
    # a chunk fixes the leading cells and runs through every tail word
    low = 0
    while low < length and s ** (low + 1) <= _CHUNK:
        low += 1
    tail = digit_planes(np.arange(s ** low), s, low).astype(cell_dtype(s))
    for head in range(s ** (length - low)):
        cells, lo = np.empty((len(tail), length), dtype=tail.dtype), m.lo
        cells[:, :length - low] = index_word(head, s, length - low)
        cells[:, length - low:] = tail
        key = np.zeros(len(tail), dtype=np.int64)
        for n, (w_lo, w_hi) in enumerate(windows):
            if n:
                cells = step_cells(steps[n - 1], cells, lo, cap)
                lo -= steps[n - 1].v_lo
            for x in range(w_lo, w_hi):
                key *= s
                key += cells[:, x - lo]
        yield slice(head * len(tail), (head + 1) * len(tail)), key


def _step_list(op, n_steps: int) -> list:
    if isinstance(op, (McaRule, NhcaSequence)):
        steps = [op] * n_steps
    else:
        steps = list(op)
        if len(steps) != n_steps:
            raise McaLabError(f"need {n_steps} steps, got {len(steps)}")
    if len({(st.v_lo, st.v_hi) for st in steps}) > 1:
        raise WindowError("all steps must share the same neighborhood")
    return steps


def _trajectory_setup(op, spec: MeasureSpec, n_steps: int, cap: int):
    """(input law on [-NL..NR), steps, observed windows) of a trajectory.

    Cells [-L..R) are observed at times 0..N-1, time-major, so the
    observation words are as long as the input words.
    """
    steps = _step_list(op, max(n_steps - 1, 0))
    if steps:
        first = steps[0]
    elif isinstance(op, (McaRule, NhcaSequence)):
        first = op
    else:
        raise McaLabError("need a rule object, not a list, when no step is applied")
    group = first.group
    if spec.size != group.order:
        raise McaLabError("measure alphabet does not match the rule's group")
    L, R = first.left_overlap, first.right_overlap
    lo, hi = -n_steps * L, n_steps * R
    check_cap(group.order, hi - lo, cap, "trajectory enumeration")
    return spec.window_measure(lo, hi, group, cap), steps, [(-L, R)] * n_steps


def trajectory_joint_distribution(op, spec: MeasureSpec, n_steps: int,
                                  cap: int = STATE_CAP) -> dict[tuple[int, ...], Fraction]:
    """Joint law of the cells [-L..R) observed at times 0..n_steps-1.

    Keys are the concatenated observations (time-major), in ascending
    word-index order; enumeration runs over the generating input window
    [-nL..nR).  Words of equal weight share one ``Fraction``.
    """
    m, steps, windows = _trajectory_setup(op, spec, n_steps, cap)
    s, length, den = m.size, m.length, m.den
    num = _observed_weights(m, steps, windows, cap)
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


def trajectory_partition_entropy(op, spec: MeasureSpec, n_steps: int,
                                 cap: int = STATE_CAP) -> float:
    """Entropy in bits of the time-0..N-1 trajectory observations.

    For bipermutative rules this equals the entropy of the input marginal
    on [-NL..NR) (the two partitions are equivalent).  ``op`` is a rule,
    an NHCA or a list of ``n_steps - 1`` steps.  A uniform measure counts
    the preimages of each outcome in numpy; when every outcome is hit once
    the trajectory map is a bijection and the result is the closed form
    length·log2(size).  Any other measure takes the exact joint law
    (:func:`trajectory_joint_distribution`).  Both non-closed routes return
    the exact sum of the per-outcome terms rounded once, one term per
    distinct weight (:func:`partition_entropy`).
    """
    if spec.kind != "uniform":
        return partition_entropy(trajectory_joint_distribution(op, spec, n_steps, cap))
    m, steps, windows = _trajectory_setup(op, spec, n_steps, cap)
    hits = np.zeros(len(m.num), dtype=bool)
    for _, key in _observation_keys(m, steps, windows, cap):
        hits[key] = True
    if hits.all():
        # trajectory map is a bijection on the generating window, so the
        # joint is uniform over all outcomes
        return m.length * math.log2(m.size)
    check_cap(m.size, m.length, 1 << 24, "non-bijective trajectory counting")
    return _weights_entropy(_observed_weights(m, steps, windows, cap), m.den)


def formula_entropy(rule: Union[McaRule, NhcaSequence], spec: MeasureSpec,
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
        if isinstance(rule, McaRule):
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

    For each quotient word on the generating window, evolves the fibre
    rule sequence along the driven quotient configuration, takes the joint
    entropy of the fibre observations under the fibre measure, and averages
    with the quotient weights — a finite-N stand-in for the relative
    entropy closed form (divide by n_steps for the per-step rate).
    """
    from .decompose import fibre_nhca, fibre_step_sequence  # avoid cycle

    rule = dec.rule
    lo, hi = -n_steps * rule.left_overlap, n_steps * rule.right_overlap
    C = dec.frame.C
    check_cap(dec.frame.B.order, hi - lo, cap, "fibrewise enumeration")
    nu = nu_spec.window_measure(lo, hi, C, cap)
    acc = []
    for i in np.flatnonzero(nu.num).tolist():
        c_cfg = Config(C, lo, index_word(i, C.order, hi - lo))
        if n_steps > 1:
            op = fibre_step_sequence(dec, c_cfg, n_steps - 1)
        else:
            op = fibre_nhca(dec, c_cfg, c_cfg.lo - rule.v_lo, c_cfg.hi - rule.v_hi)
        p = int(nu.num[i]) / nu.den
        acc.append(p * trajectory_partition_entropy(op, lambda_spec, n_steps, cap))
    return math.fsum(acc)


def product_measure(a: WindowMeasure, b: WindowMeasure) -> WindowMeasure:
    """Independent product on the paired alphabet (a-symbol, b-symbol).

    Both factors must live on the same window; the pair (x, y) is encoded
    as x·|b-alphabet| + y.
    """
    pairs = np.arange(a.size * b.size).reshape(a.size, b.size)
    return _paired_product(a, b, pairs, None)


def star_product_measure(frame, a: WindowMeasure, c: WindowMeasure) -> WindowMeasure:
    """Product of fibre and base measures, carried onto the big group.

    Cellwise, the pair (x, y) becomes the group element x⋆y, giving a
    measure on words over B; exact.
    """
    return _paired_product(a, c, frame.b_of, frame.B)


def _paired_product(a: WindowMeasure, c: WindowMeasure, pairs: np.ndarray,
                    group: FiniteGroup | None) -> WindowMeasure:
    """Independent product of two measures on one window, paired cellwise.

    ``pairs[x, y]`` is the symbol of the cell pair (x, y), a bijection onto
    ``range(pairs.size)``.  A paired word weighs a.num times c.num of its
    two coordinate words; one gather moves the outer product into place.
    """
    if (a.lo, a.hi) != (c.lo, c.hi):
        raise WindowError("product factors must share the window")
    n, den = a.length, a.den * c.den
    joint = np.multiply.outer(a.num, c.num, dtype=_weight_dtype(den))
    joint = joint.reshape((a.size,) * n + (c.size,) * n)
    # the (x, y) pair behind each symbol, broadcast along its own cell axis
    xs, ys = np.divmod(np.argsort(pairs, axis=None), pairs.shape[1])
    index = tuple(v.reshape([-1 if u == t else 1 for u in range(n)])
                  for v in (xs, ys) for t in range(n))
    num = np.reshape(joint[index], -1)
    return WindowMeasure(pairs.size, a.lo, a.hi, _frozen(num), den, group)
