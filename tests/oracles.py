"""Scalar reference implementations of the exhaustive window paths, and
the functions that only tests call.

Each walks the words of a window one at a time through a scalar evaluator
(``eval_local`` / ``apply_window`` / ``star_compose`` / :func:`word_weight`),
independently of the table-lookup kernel the library uses.
``is_group_table`` checks the group axioms on a table by the exhaustive
scan over all n**3 triples (``associativity_failures``) that the library's
validator replaces with Light's test.
``dual_action_oracle`` steps a character one support cell and one
position at a time in Python integers.  ``fibre_rank_oracle``
reads each finite difference of a fibre composite as a sum of
``Fraction``s.  ``tower_eval``/``tower_apply`` evaluate a rule through
its nilpotent tower level by level, one window word at a time.
``fibre_oracle`` assembles one fibre rule of a skew decomposition with a
``GroupMap.compose`` per factor, one quotient word at a time.
``partition_entropy_oracle`` divides every outcome's weight by the exact
total and sums the terms with ``math.fsum``.  Property tests compare each
with the library.  ``point_mass``, ``prob``, ``probs``, ``word_index`` and
``same_distribution`` build and read window measures one word at a time.
The paper's endomorphism test (``is_homomorphic_local``,
``extract_eca_coefficients``), ``filling_solve``, ``characters_of``, the
window sum ``fourier_coefficient`` and ``harmonic_mixing_profile`` check
the library's permutativity, dual action and ``bernoulli_fourier``.
``sample_words_oracle`` draws a Monte-Carlo chunk of star words with
whole-chunk ``Generator.choice`` draws and one ``b_of[a, c]`` gather.
"""
import cmath
import functools
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from mcalab import (Character, Config, FibreRankCheck, GroupMap, McaLabError,
                    McaRule, NhcaSequence, NotAbelianError,
                    NotPermutativeError, RecomposeReport, TableInvalidError,
                    WindowError, WindowMeasure, abelian_invariants,
                    apply_window, bernoulli_fourier, eval_local,
                    fibre_step_sequence, local_table, make_cyclic,
                    permutativity, relative_diffusion_rank, star_compose,
                    star_decompose)
from mcalab.rules import step_cells
from mcalab.util import STATE_CAP, check_cap, digit_planes, iter_words


def associativity_failures(table) -> np.ndarray:
    """``bad[x, y, z]`` is True where (x*y)*z != x*(y*z), over every triple
    of a square table with entries 0..n-1."""
    table = np.asarray(table, dtype=np.int64)
    return table[table] != table[:, table]


def is_group_table(table) -> bool:
    """A square table of entries 0..n-1 whose rows and columns are
    permutations, with a two-sided identity, associative on every triple."""
    table = np.asarray(table, dtype=np.int64)
    n = len(table)
    if table.shape != (n, n) or n == 0 or table.min() < 0 or table.max() >= n:
        return False
    ar = np.arange(n)
    latin = all(np.array_equal(np.sort(table[a]), ar)
                and np.array_equal(np.sort(table[:, a]), ar) for a in range(n))
    identity = any(np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar)
                   for e in range(n))
    return latin and identity and not associativity_failures(table).any()


def word_index(word, base: int) -> int:
    """Big-endian index of ``word`` over ``range(base)`` (``util.index_word``'s inverse)."""
    return functools.reduce(lambda idx, w: idx * base + w, word, 0)


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


def fibre_oracle(dec, c_word) -> McaRule:
    """The fibre rule over ``c_word``, assembled by composing maps.

    The rule over B on a*c is
    ``f_bias * prod_i Conj_{S_i}(f_i(a) * g'_i(c_i)) * error(c)`` with S_i
    the running product of section values; conjugating each factor by its
    ascending suffix of constants brings it to bias times a product of
    endomorphisms of A.
    """
    fr, rule = dec.frame, dec.rule
    A, B = fr.a_group, fr.B

    def conj_by(b):
        images = [fr.a_index(B.conjugate(b, a_b)) for a_b in fr.a_embed]
        return GroupMap(A, A, images, True)

    running = fr.sigma[dec.bias_c]
    phis, consts = [], []
    for (pos, _), sp in zip(rule.factors, dec.factor_splits):
        c_val = c_word[pos - rule.v_lo]
        conj = conj_by(running)
        phis.append(conj.compose(sp.f))
        consts.append(conj(sp.gprime(c_val)))
        running = B.mul(running, fr.sigma[sp.h(c_val)])
    suffix = dec.error_map[tuple(c_word)]
    factors = []
    for (pos, _), phi, k in zip(reversed(rule.factors), reversed(phis),
                                reversed(consts)):
        suffix = A.mul(k, suffix)
        factors.append((pos, conj_by(fr.a_embed[A.inv(suffix)]).compose(phi)))
    return McaRule(A, rule.v_lo, rule.v_hi, factors[::-1],
                   A.mul(dec.bias_a, suffix), one_sided=rule.one_sided)


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
        outs, lo = probes.T, in_lo
        for st in fibre_step_sequence(dec, Config(C, in_lo, w), j):
            outs = step_cells(st, outs, lo)
            lo -= st.v_lo
        outs = outs[[k - lo for k in cells]].T.tolist()
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


# -- the paper's endomorphism test and preimage filling ------------------------


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


def _product_table(rule: McaRule, maps: list[GroupMap], ordering, cap: int) -> np.ndarray:
    """Local table of the product of per-position maps, taken in ``ordering``."""
    factors = [(rule.v_lo + t, maps[t]) for t in ordering]
    return local_table(McaRule(rule.group, rule.v_lo, rule.v_hi, factors), cap)


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
        tbl = local_table(rule, cap)
        for ordering in itertools.permutations(range(rule.width)):
            if not np.array_equal(_product_table(rule, maps, ordering, cap), tbl):
                raise TableInvalidError(
                    f"coefficient product disagrees under ordering {ordering}")
    return maps


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


def filling_solve(op, target: Config, seed: Config) -> Config:
    """Extend a seed block to the unique preimage of a target block.

    For a (bi)permutative family with overlaps L, R: given the target d on
    [J..K) and a seed on [j-L .. j+R) for some j in [J..K), there is exactly
    one configuration on [J-L .. K+R) extending the seed whose image is d.
    Solving rightward pins cell m+R from d_m (right-permutativity); solving
    leftward pins cell m-L (left-permutativity, needed only when j > J).
    """
    def rule_at(m: int) -> McaRule:
        return op if isinstance(op, McaRule) else op.rule_at(m)

    some_rule = rule_at(target.lo)
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
        rule = rule_at(m)
        if not permutativity(rule).right:
            raise NotPermutativeError(f"rule at cell {m} is not right-permutative")
        window = cells[m + rule.v_lo - lo: m + rule.v_hi + 1 - lo]
        free = rule.width - 1          # cell m + v_hi = m + R
        val = _solve_cell(rule, list(window), free, target.at(m), m + R)
        cells[m + R - lo] = val
    # leftward: output cell m determines input cell m-L
    for m in range(j - 1, J - 1, -1):
        rule = rule_at(m)
        if not permutativity(rule).left:
            raise NotPermutativeError(f"rule at cell {m} is not left-permutative")
        window = cells[m + rule.v_lo - lo: m + rule.v_hi + 1 - lo]
        val = _solve_cell(rule, list(window), 0, target.at(m), m - L)
        cells[m - L - lo] = val
    assert all(v is not None for v in cells)
    result = Config(target.group, lo, cells)
    # sanity: the filled block maps onto the target
    block = np.array(result.word[J + op.v_lo - lo: K + op.v_hi - lo], dtype=np.int64)
    if tuple(step_cells(op, block, J + op.v_lo).tolist()) != target.word:
        raise NotPermutativeError("internal: filled block does not map to target")
    return result


# -- characters, window Fourier sums and mixing profiles -----------------------


def _nonzero_tuples(orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonzero coefficient tuples against mixed cyclic orders, lex order."""
    return [t for t in itertools.product(*(range(n) for n in orders)) if any(t)]


def characters_of(A, lo: int, hi: int):
    """All characters supported inside [lo..hi), by rank then lex order."""
    if not A.is_abelian:
        raise NotAbelianError("characters need an abelian group")
    coords = abelian_invariants(A)
    nz = _nonzero_tuples(coords.orders)
    yield Character(coords.orders, (), 1.0 + 0j, coords)
    for r in range(1, hi - lo + 1):
        for combo in itertools.combinations(range(lo, hi), r):
            for assignment in itertools.product(nz, repeat=r):
                yield Character(coords.orders, tuple(zip(combo, assignment)),
                                1.0 + 0j, coords)


def fourier_coefficient(chi: Character, m: WindowMeasure, coords=None,
                        cap: int = STATE_CAP) -> complex:
    """<chi, m> = Σ_w m[w]·chi(w) over every word of the window, which must
    hold the support; each weight is the correctly rounded float of its
    ``Fraction``."""
    coords = coords or chi.coords
    if coords is None and m.group is not None:
        coords = abelian_invariants(m.group)
    tabs = chi.cell_values(coords) if chi.support else {}
    for cell in tabs:
        if not (m.lo <= cell < m.hi):
            raise WindowError(f"support cell {cell} outside [{m.lo}..{m.hi})")
    check_cap(m.size, m.length, cap, "fourier sum")
    total = m.size ** m.length
    digits = digit_planes(np.arange(total, dtype=np.int64), m.size, m.length)
    vals = np.full(total, chi.phase, dtype=np.complex128)
    for cell, tab in tabs.items():
        vals *= tab[digits[:, cell - m.lo]]
    weights = np.array([float(p) for p in probs(m)], dtype=np.float64)
    return complex((vals * weights).sum())


def harmonic_mixing_profile(spec, r_max: int, group=None) -> list[float]:
    """Max |<chi, μ>| per character rank r ≤ r_max (decay ⇒ mixing evidence).

    Bernoulli: the single-cell maximum to the r-th power (exact
    factorization).  Markov: exact transfer-matrix products over all
    supports inside a window of r + 2 cells, which bounds the gap
    structure at desk scale.
    """
    coords = abelian_invariants(group if group is not None else make_cyclic(spec.size))
    nz = _nonzero_tuples(coords.orders)
    chars = {coeff: Character(coords.orders, ((0, coeff),), coords=coords)
             for coeff in nz}
    if spec.kind in ("uniform", "bernoulli"):
        dist = spec.cell_distribution()
        best = max((abs(bernoulli_fourier(chi, dist)) for chi in chars.values()),
                   default=0.0)
        return [1.0] + [best ** r for r in range(1, r_max + 1)]
    if spec.kind != "markov":
        raise McaLabError(f"no mixing profile for kind {spec.kind!r}")
    tables = {coeff: chi.cell_values()[0] for coeff, chi in chars.items()}
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


def _spec_words(spec, rng: np.random.Generator, count: int,
                length: int) -> np.ndarray:
    """count × length draws of ``spec``: i.i.d. cells in one
    ``Generator.choice`` call; a Markov chain column by column."""
    p = np.asarray([float(x) for x in spec.probs])
    p /= p.sum()
    if spec.kind in ("uniform", "bernoulli"):
        return rng.choice(spec.size, size=count * length, p=p).reshape(count, length)
    out = np.empty((count, length), dtype=np.int64)
    out[:, 0] = rng.choice(spec.size, size=count, p=p)
    T = np.asarray([[float(x) for x in row] for row in spec.transition])
    T = T / T.sum(axis=1, keepdims=True)
    for j in range(1, length):
        u = rng.random(count)
        cum = np.cumsum(T[out[:, j - 1]], axis=1)
        out[:, j] = np.minimum((u[:, None] > cum).sum(axis=1), spec.size - 1)
    return out


def sample_words_oracle(spec_pair, frame, rng: np.random.Generator,
                        count: int, length: int) -> np.ndarray:
    """The star words of a (λ, ν) pair: all of λ's draws, then all of ν's,
    each over the whole chunk, mapped (a, c) -> b by one ``b_of[a, c]``."""
    lam, nu = spec_pair
    a = _spec_words(lam, rng, count, length)
    c = _spec_words(nu, rng, count, length)
    return np.asarray(frame.b_of)[a, c]
