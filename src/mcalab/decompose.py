"""Skew-product decomposition of rules over a product frame.

If every coefficient of a rule over B leaves the frame subgroup A invariant,
the CA factors as a skew product: a quotient CA over C = B/A driving, fibre
by fibre, an affine nonhomogeneous CA over A.  The fibre local maps are
assembled from the per-coefficient splits in closed form and cross-checked
exhaustively against direct evaluation (the two paths must agree exactly).
Iterating on the upper central series yields a tower that bottoms out in an
abelian CA exactly when the group is nilpotent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FrameError, NotCentralError, WindowError
from .groups import FiniteGroup, GroupMap, abelian_invariants, center
from .pseudo import PseudoFrame, SplitEndo, make_frame, split_endo, star_decompose
from .rules import (Config, McaRule, NhcaSequence, _merge_positions,
                    local_table, step_cells)
from .util import STATE_CAP, check_cap, digit_planes, index_word, iter_words

__all__ = [
    "SkewDecomposition",
    "RecomposeReport",
    "CentralSplit",
    "TowerLevel",
    "NilpotentTower",
    "decompose_mca",
    "recompose_check",
    "central_split",
    "nilpotent_tower",
    "fibre_nhca",
    "fibre_step_sequence",
]


@dataclass(eq=False)
class SkewDecomposition:
    """A rule over B split into quotient rule, fibre maps, and error terms.

    ``h_rule`` is the induced rule over C.  For a window word ``w`` over C,
    :meth:`fibre` assembles the affine fibre rule over A from the stored
    per-factor splits and ``error_map``.  Each fibre is built once and
    memoized under ``(c_word, error_map[c_word])``, so a changed error term
    rebuilds its fibre and a deleted one raises, and recomposition checks
    still catch either.
    """

    frame: PseudoFrame
    rule: McaRule
    h_rule: McaRule
    bias_a: int
    bias_c: int
    factor_splits: list[SplitEndo]
    error_map: dict[tuple[int, ...], int]
    verified: bool = False
    _conj_cache: dict[int, GroupMap] = field(default_factory=dict, repr=False)
    _fibre_cache: dict[tuple, McaRule] = field(default_factory=dict, repr=False)

    def _conj_by(self, b_elem: int) -> GroupMap:
        """Conjugation by a B element, restricted to A (A is normal)."""
        got = self._conj_cache.get(b_elem)
        if got is None:
            fr = self.frame
            images = [fr.a_index(fr.B.conjugate(b_elem, a_b)) for a_b in fr.a_embed]
            got = GroupMap(fr.a_group, fr.a_group, images, True, _trusted=True)
            self._conj_cache[b_elem] = got
        return got

    def fibre(self, c_word: tuple[int, ...]) -> McaRule:
        """Affine fibre rule over A for one quotient window word.

        The rule over B evaluated on a*c splits as
        ``f_bias * prod_i Conj_{S_i}(f_i(a) * g'_i(c_i)) * error(c)`` where
        S_i is the running product of section values; this is renormalized
        into bias-times-endomorphism-product form by conjugating each factor
        with its ascending suffix of constants.
        """
        fr, A, B = self.frame, self.frame.a_group, self.frame.B
        rule = self.rule
        if len(c_word) != rule.width:
            raise WindowError(f"fibre word needs {rule.width} cells")
        c_word = tuple(c_word)
        err = self.error_map[c_word]
        key = (c_word, err)
        if key in self._fibre_cache:
            return self._fibre_cache[key]
        sigma = fr.sigma
        running = sigma[self.bias_c]
        phis: list[GroupMap] = []
        consts: list[int] = []
        for (pos, _), sp in zip(rule.factors, self.factor_splits):
            c_val = c_word[pos - rule.v_lo]
            conj = self._conj_by(running)
            phis.append(conj.compose(sp.f))
            consts.append(conj(sp.gprime(c_val)))
            running = B.mul(running, sigma[sp.h(c_val)])
        # normalize f_bias*phi_0(.)k_0*...*phi_{I-1}(.)k_{I-1}*err into
        # bias * prod phi'_i(.) with phi'_i = T_i^-1 phi_i T_i,
        # T_i = k_i k_{i+1} ... k_{I-1} err  (ascending suffix products).
        suffix = err
        new_factors = []
        for (pos, _), phi, k in zip(reversed(rule.factors), reversed(phis),
                                    reversed(consts)):
            suffix = A.mul(k, suffix)
            conj_t = self._conj_by(fr.a_embed[A.inv(suffix)]).compose(phi)
            new_factors.append((pos, conj_t))
        new_factors.reverse()
        bias = A.mul(self.bias_a, suffix)
        fib = McaRule(A, rule.v_lo, rule.v_hi, new_factors, bias,
                      one_sided=rule.one_sided)
        self._fibre_cache[key] = fib
        return fib

    def fibre_table(self) -> dict[tuple[int, ...], McaRule]:
        """Dense map of every quotient window word to its fibre rule."""
        return {w: self.fibre(w)
                for w in iter_words(self.frame.C.order, self.rule.width)}


@dataclass
class RecomposeReport:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fibre_tables(dec: SkewDecomposition, c_words, cap: int) -> np.ndarray:
    """Local tables of the fibres over ``c_words``, stacked in that order."""
    return np.stack([local_table(dec.fibre(w), cap) for w in c_words])


def decompose_mca(rule: McaRule, frame: PseudoFrame,
                  cap: int = STATE_CAP) -> SkewDecomposition:
    """Split a rule through a frame; exhaustively verified before return.

    Every coefficient must leave the frame subgroup invariant (checked by
    the per-coefficient splits).  Verification evaluates the original rule
    on all |B|**width window words and compares both components against the
    quotient rule and the assembled fibre rules — a mismatch means an
    internal error and raises.
    """
    if rule.group is not frame.B:
        raise FrameError("rule and frame act on different groups")
    check_cap(frame.B.order, rule.width, cap, "decomposition verification")
    bias_a, bias_c = star_decompose(frame, rule.bias)
    splits = [split_endo(frame, coeff) for _, coeff in rule.factors]
    h_rule = McaRule(frame.C, rule.v_lo, rule.v_hi,
                     [(pos, sp.h) for (pos, _), sp in zip(rule.factors, splits)],
                     bias_c, one_sided=rule.one_sided)
    B, C, sigma = frame.B, frame.C, np.asarray(frame.sigma)
    words = digit_planes(np.arange(C.order ** rule.width), C.order, rule.width)
    # sigma(bias_c) * prod_i sigma(h_i(c_i)) * sigma(h(c))^-1 on every word c
    e_val = np.full(len(words), sigma[bias_c])
    for (pos, _), sp in zip(rule.factors, splits):
        h_val = np.asarray(sp.h.image_of)[words[:, pos - rule.v_lo]]
        e_val = B.table[e_val, sigma[h_val]]
    e_val = B.table[e_val, B.inverse[sigma[local_table(h_rule, cap)]]]
    if frame.c_part[e_val].any():
        raise FrameError("error term escaped the subgroup")
    error_map = dict(zip(map(tuple, words.tolist()), frame.a_part[e_val].tolist()))
    dec = SkewDecomposition(frame=frame, rule=rule, h_rule=h_rule,
                            bias_a=bias_a, bias_c=bias_c,
                            factor_splits=splits, error_map=error_map)
    report = recompose_check(dec)
    if not report.ok:
        raise FrameError(f"decomposition self-check failed: {report.witness}")
    dec.verified = True
    return dec


def recompose_check(dec: SkewDecomposition, rule: McaRule | None = None) -> RecomposeReport:
    """Exhaustively compare the decomposition against the original rule.

    Rebuilds each fibre from the stored parts, so tampering with any of
    them (e.g. the error map) is caught; compares local tables and returns
    the first mismatch (c-word order, then a-word order, quotient before
    fibre) as a witness instead of raising.
    """
    rule = rule if rule is not None else dec.rule
    fr = dec.frame
    A, C = fr.a_group, fr.C
    width = rule.width
    a_words = digit_planes(np.arange(A.order ** width), A.order, width)
    c_words = digit_planes(np.arange(C.order ** width), C.order, width)
    h_out = local_table(dec.h_rule)
    for ci, w in enumerate(c_words.tolist()):
        w = tuple(w)
        try:
            fib = dec.fibre(w)
        except KeyError:
            return RecomposeReport(False, {"c_word": w, "reason": "missing error term"})
        # the rule on a*c for every a-word, split back into its two parts
        b_out = step_cells(rule, fr.b_of[a_words, w].T, rule.v_lo)[0]
        a_out, c_out = fr.a_part[b_out], fr.c_part[b_out]
        fib_out = local_table(fib)
        bad_c = c_out != h_out[ci]
        bad = np.flatnonzero(bad_c | (fib_out != a_out))
        if bad.size:
            ai = int(bad[0])
            u = index_word(ai, A.order, width)
            if bad_c[ai]:
                return RecomposeReport(False, {
                    "c_word": w, "a_word": u, "part": "quotient",
                    "expected": int(c_out[ai]), "got": int(h_out[ci])})
            return RecomposeReport(False, {
                "c_word": w, "a_word": u, "part": "fibre",
                "expected": int(a_out[ai]), "got": int(fib_out[ai])})
    return RecomposeReport(True)


def fibre_nhca(dec: SkewDecomposition, c_config: Config,
               out_lo: int, out_hi: int) -> NhcaSequence:
    """Fibre rules along a fixed quotient configuration, one per output cell."""
    rule = dec.rule
    rules = {}
    for m in range(out_lo, out_hi):
        w = tuple(c_config.at(m + v) for v in range(rule.v_lo, rule.v_hi + 1))
        rules[m] = dec.fibre(w)
    return NhcaSequence(dec.frame.a_group, rule.v_lo, rule.v_hi, rules,
                        one_sided=rule.one_sided)


def fibre_step_sequence(dec: SkewDecomposition, c_config: Config,
                        n_steps: int) -> list[NhcaSequence]:
    """Time-varying fibre families driven by the evolving quotient config.

    Step n uses the fibres of the n-times-evolved quotient configuration;
    the usable cell range shrinks by the window spread each step.
    """
    out: list[NhcaSequence] = []
    cur = c_config
    for _ in range(n_steps):
        lo, hi = cur.lo - dec.rule.v_lo, cur.hi - dec.rule.v_hi
        if lo > hi:
            raise WindowError("quotient configuration too narrow for the step count")
        out.append(fibre_nhca(dec, cur, lo, hi))
        cur = Config(cur.group, lo, step_cells(
            dec.h_rule, np.array(cur.word, dtype=np.int64), cur.lo).tolist())
    return out


# -- central case ------------------------------------------------------------


@dataclass(eq=False)
class CentralSplit:
    """Fibres over a central subgroup: one linear rule plus a block map.

    Every fibre equals ``lin_rule + block_map[c_word]`` — the linear part is
    shared by all fibres, only the additive block depends on the quotient
    word.  ``linear_coeffs`` combines all factors at one position into a
    single endomorphism of the (abelian) fibre group.
    """

    frame: PseudoFrame
    h_rule: McaRule
    lin_rule: McaRule
    linear_coeffs: dict[int, GroupMap]
    block_map: dict[tuple[int, ...], int]


def central_split(rule: McaRule, frame: PseudoFrame,
                  cap: int = STATE_CAP,
                  dec: SkewDecomposition | None = None) -> CentralSplit:
    """Specialize a decomposition when the frame subgroup is central."""
    if not frame.a_is_central:
        raise NotCentralError("central split needs a central frame subgroup")
    if dec is None:
        dec = decompose_mca(rule, frame, cap)
    A, C = frame.a_group, frame.C
    per_pos = _merge_positions(A, [(pos, sp.f) for (pos, _), sp
                                   in zip(rule.factors, dec.factor_splits)])
    lin_rule = McaRule(A, rule.v_lo, rule.v_hi, sorted(per_pos.items()),
                       0, one_sided=rule.one_sided)
    lin_tbl = local_table(lin_rule, cap)
    words = digit_planes(np.arange(C.order ** rule.width), C.order, rule.width)
    keys = list(map(tuple, words.tolist()))
    block = A.table[dec.bias_a, [dec.error_map[w] for w in keys]]
    for (pos, _), sp in zip(rule.factors, dec.factor_splits):
        gp_val = np.asarray(sp.gprime.image_of)[words[:, pos - rule.v_lo]]
        block = A.table[block, gp_val]
    # verify fibre == linear + block on every input
    linear_plus_block = A.table[lin_tbl[None, :], block[:, None]]
    bad = (_fibre_tables(dec, keys, cap) != linear_plus_block).any(axis=1)
    if bad.any():
        raise FrameError(f"central split disagrees with fibre at {keys[bad.argmax()]}")
    block_map = dict(zip(keys, block.tolist()))
    return CentralSplit(frame=frame, h_rule=dec.h_rule, lin_rule=lin_rule,
                        linear_coeffs=per_pos, block_map=block_map)


# -- nilpotent towers --------------------------------------------------------


@dataclass(eq=False)
class TowerLevel:
    frame: PseudoFrame
    decomposition: SkewDecomposition
    split: CentralSplit


@dataclass(eq=False)
class NilpotentTower:
    """Iterated central decompositions until the quotient turns abelian.

    ``levels[k]`` decomposes the current rule over the center of its group;
    ``tail_rule`` is what remains.  ``is_complete`` is True exactly when the
    tail group is abelian (i.e. the group was nilpotent); otherwise the tail
    group has trivial center and is the non-nilpotent residue.
    """

    rule: McaRule
    levels: list[TowerLevel]
    tail_rule: McaRule
    is_complete: bool
    factor_invariants: list[tuple[int, ...]]

    @property
    def depth(self) -> int:
        return len(self.levels) + 1

    @property
    def residue_group(self) -> FiniteGroup | None:
        return None if self.is_complete else self.tail_rule.group


def nilpotent_tower(rule: McaRule, cap: int = STATE_CAP) -> NilpotentTower:
    """Peel central skew factors until the remaining group is abelian.

    Verifies on return that recomposing all levels reproduces the original
    rule on every window word.
    """
    levels: list[TowerLevel] = []
    invariants: list[tuple[int, ...]] = []
    cur = rule
    while not cur.group.is_abelian:
        Z = center(cur.group)
        if Z.order == 1:
            break
        frame = make_frame(cur.group, Z)
        dec = decompose_mca(cur, frame, cap)
        split = central_split(cur, frame, cap, dec)
        invariants.append(abelian_invariants(frame.a_group).orders)
        levels.append(TowerLevel(frame=frame, decomposition=dec, split=split))
        cur = dec.h_rule
    complete = cur.group.is_abelian
    if complete:
        invariants.append(abelian_invariants(cur.group).orders)
    tower = NilpotentTower(rule=rule, levels=levels, tail_rule=cur,
                           is_complete=complete, factor_invariants=invariants)
    check_cap(rule.group.order, rule.width, cap, "tower verification")
    # compose the local table from the tail up: level k sends the word a*c
    # to fibre_c(a) * h(c), reading h off the table of the level above
    tbl = local_table(cur, cap)
    for lev in reversed(levels):
        fr, width = lev.frame, rule.width
        a_idx, c_idx = fr.word_indices(width)
        fibres = _fibre_tables(lev.decomposition, iter_words(fr.C.order, width), cap)
        tbl = fr.b_of[fibres[c_idx, a_idx], tbl[c_idx]]
    bad = np.flatnonzero(tbl != local_table(rule, cap))
    if bad.size:
        word = index_word(int(bad[0]), rule.group.order, rule.width)
        raise FrameError(f"tower recomposition fails on window word {word}")
    return tower
