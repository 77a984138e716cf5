"""Scalar reference implementations of the exhaustive window paths.

Each walks the words of a window one at a time through a scalar evaluator
(``eval_local`` / ``apply_window`` / ``star_compose`` / :func:`word_weight`),
independently of the table-lookup kernel the library uses.
``dual_action_oracle`` steps a character one support cell and one
position at a time in Python integers.  ``fibre_rank_oracle``
reads each finite difference of a fibre composite as a sum of
``Fraction``s.  ``tower_eval``/``tower_apply`` evaluate a rule through
its nilpotent tower level by level, one window word at a time.
``partition_entropy_oracle`` divides every outcome's weight by the exact
total and sums the terms with ``math.fsum``.  Property tests compare each
with the library.  ``point_mass``, ``prob``, ``probs`` and
``same_distribution`` build and read window measures one word at a time.
"""
import cmath
import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from mcalab import (Character, Config, FibreRankCheck, McaLabError, McaRule,
                    NhcaSequence, RecomposeReport, WindowError, WindowMeasure,
                    abelian_invariants, apply_window, eval_local,
                    fibre_step_sequence, relative_diffusion_rank, star_compose,
                    star_decompose)
from mcalab.rules import step_cells
from mcalab.util import STATE_CAP, check_cap, iter_words, word_index


def point_mass(size: int, lo: int, word, group=None) -> WindowMeasure:
    """The measure of weight 1 on ``word``, placed at cell ``lo``."""
    num = np.zeros(size ** len(word), dtype=np.int64)
    num[word_index(word, size)] = 1
    return WindowMeasure(size, lo, lo + len(word), num, 1, group)


def prob(m, word_or_index) -> Fraction:
    """Probability of one word (or big-endian word index) under ``m``."""
    idx = (word_or_index if isinstance(word_or_index, int)
           else word_index(word_or_index, m.size))
    return Fraction(int(m.num[idx]), m.den)


def probs(m) -> list[Fraction]:
    """Every word's probability under ``m``, in word-index order."""
    return [Fraction(n, m.den) for n in m.num.tolist()]


def same_distribution(m, other) -> bool:
    """Exact equality of two probability vectors on the same window."""
    if (m.size, m.lo, m.hi) != (other.size, other.lo, other.hi):
        return False
    return probs(m) == probs(other)


def word_weight(spec, word) -> Fraction:
    """Exact probability of one finite word under a ``MeasureSpec``."""
    if spec.kind == "markov":
        if not word:
            return Fraction(1)
        p = spec.probs[word[0]]
        for a, b in zip(word, word[1:]):
            p *= spec.transition[a][b]
        return p
    p = Fraction(1)
    for x in word:
        p *= spec.probs[x]
    return p


def push_forward_oracle(op, m) -> list[int]:
    """Numerators of the one-step image of ``m`` (same denominator)."""
    out_len = m.length - (op.v_hi - op.v_lo)
    out = [0] * m.size ** out_len
    for i, w in enumerate(iter_words(m.size, m.length)):
        n = int(m.num[i])
        if n:
            img = apply_window(op, Config(op.group, m.lo, w))
            out[word_index(img.word, m.size)] += n
    return out


def marginal_oracle(m, lo: int, hi: int) -> list[int]:
    out = [0] * m.size ** (hi - lo)
    for i, w in enumerate(iter_words(m.size, m.length)):
        out[word_index(w[lo - m.lo: hi - m.lo], m.size)] += int(m.num[i])
    return out


def product_oracle(a, b) -> list[int]:
    """Numerators of the independent product, pair (x, y) -> x·|b| + y."""
    size = a.size * b.size
    num = [0] * size ** a.length
    for i, wa in enumerate(iter_words(a.size, a.length)):
        for j, wb in enumerate(iter_words(b.size, b.length)):
            idx = word_index([x * b.size + y for x, y in zip(wa, wb)], size)
            num[idx] = int(a.num[i]) * int(b.num[j])
    return num


def star_product_oracle(frame, a, c) -> list[int]:
    """Numerators of the fibre × base product carried onto B."""
    B = frame.B.order
    num = [0] * B ** a.length
    for i, wa in enumerate(iter_words(a.size, a.length)):
        for j, wc in enumerate(iter_words(c.size, c.length)):
            idx = word_index([star_compose(frame, x, y) for x, y in zip(wa, wc)], B)
            num[idx] = int(a.num[i]) * int(c.num[j])
    return num


def trajectory_oracle(op, spec, n_steps: int) -> dict[tuple[int, ...], Fraction]:
    """Joint law of cells [-L..R) at times 0..n_steps-1, word by word."""
    if isinstance(op, (McaRule, NhcaSequence)):
        steps, first = [op] * max(n_steps - 1, 0), op
    else:
        steps, first = list(op), op[0]
    L, R = first.left_overlap, first.right_overlap
    lo, hi = -n_steps * L, n_steps * R
    joint: dict[tuple[int, ...], Fraction] = {}
    for w in iter_words(first.group.order, hi - lo):
        p = word_weight(spec, w)
        if not p:
            continue
        cfg = Config(first.group, lo, w)
        obs: list[int] = []
        for n in range(n_steps):
            obs.extend(cfg.word[-L - cfg.lo: R - cfg.lo])
            if n + 1 < n_steps:
                cfg = apply_window(steps[n], cfg)
        key = tuple(obs)
        joint[key] = joint.get(key, Fraction(0)) + p
    return joint


def partition_entropy_oracle(dist) -> float:
    """Entropy in bits of a weight mapping or sequence, one outcome at a time."""
    values = list(dist.values()) if isinstance(dist, Mapping) else list(dist)
    if not values:
        return 0.0
    # numpy scalars as Python numbers: a Fraction keeps numpy parts, which wrap
    exact = [Fraction(v.item() if isinstance(v, np.generic) else v) for v in values]
    total = sum(exact)
    if total <= 0:
        raise McaLabError("entropy needs positive total weight")
    probs = [float(v / total) for v in exact]
    return -math.fsum(p * math.log2(p) for p in probs if p)


def recompose_oracle(dec, rule=None) -> RecomposeReport:
    """Pair-by-pair recomposition: the first mismatch is the witness."""
    rule = rule if rule is not None else dec.rule
    fr = dec.frame
    A, C = fr.a_group, fr.C
    for w in iter_words(C.order, rule.width):
        try:
            fib = dec.fibre(w)
        except KeyError:
            return RecomposeReport(False, {"c_word": w, "reason": "missing error term"})
        h_out = eval_local(dec.h_rule, w)
        for u in iter_words(A.order, rule.width):
            b_word = [star_compose(fr, a, c) for a, c in zip(u, w)]
            a_out, c_out = star_decompose(fr, eval_local(rule, b_word))
            if c_out != h_out:
                return RecomposeReport(False, {
                    "c_word": w, "a_word": u, "part": "quotient",
                    "expected": c_out, "got": h_out})
            got = eval_local(fib, u)
            if got != a_out:
                return RecomposeReport(False, {
                    "c_word": w, "a_word": u, "part": "fibre",
                    "expected": a_out, "got": got})
    return RecomposeReport(True)


def _dual_coeff(coords, matrix, coeff: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficient tuple of chi_coeff ∘ endo, by exact integer division."""
    orders = coords.orders
    if not orders:
        return ()
    big = orders[-1]
    out = []
    for j, nj in enumerate(orders):
        t = sum(c * matrix[i][j] * (big // orders[i])
                for i, c in enumerate(coeff))
        step = big // nj
        if t % step:
            raise McaLabError("dual coefficient is not integral; bad matrix")
        out.append((t // step) % nj)
    return tuple(out)


def dual_action_oracle(dual, chi):
    """One dual step, support cell by support cell, position by position."""
    coords = dual.coords
    if chi.invariants != coords.orders:
        raise McaLabError("character and dual rule have different invariants")
    acc: dict[int, list[int]] = {}
    phase = chi.phase
    for cell, coeff in chi.support:
        angle = 2.0 * math.pi * math.fsum(
            c * b / n for c, b, n in zip(coeff, dual.bias_coords, coords.orders))
        phase *= cmath.exp(1j * angle)
        for v, matrix in dual.matrices:
            add = _dual_coeff(coords, matrix, coeff)
            if not any(add):
                continue
            tgt = acc.setdefault(cell + v, [0] * len(coords.orders))
            for i, (a, n) in enumerate(zip(add, coords.orders)):
                tgt[i] = (tgt[i] + a) % n
    support = tuple((cell, tuple(t)) for cell, t in sorted(acc.items())
                    if any(t))
    return Character(coords.orders, support, phase, coords)


def fibre_rank_oracle(dec, split, alpha, j: int, cap: int = STATE_CAP):
    """``fibre_rank_independence`` with each alpha summed in ``Fraction``s."""
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
    # row 0 is the zero word; row 1 + m·|gens| + gi has generator gi at cell m
    probes = np.zeros((1 + n_in * len(gens), n_in), dtype=np.int64)
    for m in range(n_in):
        probes[1 + m * len(gens): 1 + (m + 1) * len(gens), m] = gens
    ranks = set()
    for w in iter_words(C.order, n_in):
        outs, lo = probes, in_lo
        for st in fibre_step_sequence(dec, Config(C, in_lo, w), j):
            outs = step_cells(st, outs, lo)
            lo -= st.v_lo
        outs = outs[:, [k - lo for k in cells]].tolist()
        rank = 0
        for m in range(n_in):
            # coefficient tuple of (alpha ∘ composite) at input cell m, by
            # exact finite differences along each generator direction
            coeff = []
            for gi in range(len(gens)):
                diff = [A.mul(y, A.inv(b))
                        for y, b in zip(outs[1 + m * len(gens) + gi], outs[0])]
                num = Fraction(0)
                for (_, ctup), d in zip(alpha.support, diff):
                    t = coords.to_tuple[d]
                    num += sum(Fraction(c * a, o) for c, a, o in
                               zip(ctup, t, coords.orders))
                scaled = (num % 1) * coords.orders[gi]
                if scaled.denominator != 1:
                    raise McaLabError("fibre composite is not affine-linear")
                coeff.append(int(scaled) % coords.orders[gi])
            if any(coeff):
                rank += 1
        ranks.add(rank)
    ranks_seen = tuple(sorted(ranks))
    one = len(ranks_seen) == 1
    return FibreRankCheck(rank=ranks_seen[0] if one else -1,
                          linear_rank=lin_rank,
                          all_equal=one and ranks_seen[0] == lin_rank,
                          ranks_seen=ranks_seen)


def tower_eval(tower, word: tuple[int, ...]) -> int:
    """Evaluate the original local map through the tower levels."""

    def level_eval(k: int, w: tuple[int, ...]) -> int:
        if k == len(tower.levels):
            return eval_local(tower.tail_rule, w)
        lev = tower.levels[k]
        pairs = [star_decompose(lev.frame, b) for b in w]
        a_word = tuple(p[0] for p in pairs)
        c_word = tuple(p[1] for p in pairs)
        a_out = eval_local(lev.decomposition.fibre(c_word), a_word)
        c_out = level_eval(k + 1, c_word)
        return star_compose(lev.frame, a_out, c_out)

    return level_eval(0, word)


def tower_apply(tower, config: Config) -> Config:
    """One synchronous step, each output cell by :func:`tower_eval` (window shrinks)."""
    rule = tower.rule
    out_lo, out_hi = config.lo - rule.v_lo, config.hi - rule.v_hi
    if out_lo > out_hi:
        raise WindowError(f"block of {len(config.word)} cells is narrower than the rule")
    word = [tower_eval(tower, config.word[m + rule.v_lo - config.offset:
                                          m + rule.v_hi + 1 - config.offset])
            for m in range(out_lo, out_hi)]
    return Config(rule.group, out_lo, word)
