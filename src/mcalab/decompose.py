"""Skew-product decomposition of rules over a product frame.

If every coefficient of a rule over B leaves the frame subgroup A invariant,
the CA factors as a skew product: a quotient CA over C = B/A driving, fibre
by fibre, an affine nonhomogeneous CA over A.  The fibre local maps are
assembled from the per-coefficient splits in closed form, for every
quotient word in one array pass, and cross-checked exhaustively against
the rule's local table (the two must agree exactly).
Iterating on the upper central series yields a tower that bottoms out in an
abelian CA exactly when the group is nilpotent.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import FrameError, NotCentralError, WindowError
from .groups import FiniteGroup, GroupMap, abelian_invariants, center
from .pseudo import PseudoFrame, SplitEndo, make_frame, split_endo, star_decompose
from .rules import McaRule, _local_tables, _merge_positions, _seed_table, local_table
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
]


@dataclass(eq=False)
class SkewDecomposition:
    """A rule over B split into quotient rule, fibre maps, and error terms.

    ``h_rule`` is the induced rule over C.  The fibre over a window word
    ``w`` over C is an affine rule over A, assembled from the stored
    per-factor splits and ``error_map[w]``.  The error map is read-only: a
    changed term is a :func:`dataclasses.replace` copy, which starts
    unverified and with no fibres built.  Every fibre is built at once, by
    :func:`recompose_check` or the first time a fibre is asked for, and
    :meth:`fibre` makes each fibre rule once from its row.
    """

    frame: PseudoFrame
    rule: McaRule
    h_rule: McaRule
    bias_a: int
    bias_c: int
    factor_splits: list[SplitEndo]
    error_map: Mapping[tuple[int, ...], int]
    verified: bool = field(default=False, init=False)
    _batch: tuple | None = field(default=None, init=False, repr=False)
    _rules: dict[int, McaRule] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.error_map = MappingProxyType(dict(self.error_map))

    def _fibres(self) -> tuple:
        if self._batch is None:
            self._batch = _fibre_rows(self)
        return self._batch

    def fibre(self, c_word: tuple[int, ...]) -> McaRule:
        """Affine fibre rule over A for one quotient window word, with its
        local table, made once from its row of the fibre batch."""
        rule = self.rule
        if len(c_word) != rule.width:
            raise WindowError(f"fibre word needs {rule.width} cells")
        self.error_map[tuple(c_word)]  # a word with no error term raises here
        row = int(np.ravel_multi_index(c_word, (self.frame.C.order,) * rule.width))
        if row not in self._rules:
            bias, images, tables = self._fibres()
            A = self.frame.a_group
            factors = [(pos, GroupMap(A, A, img, True, _trusted=True)) for (pos, _), img
                       in zip(rule.factors, images[:, row].tolist())]
            fibre = McaRule(A, rule.v_lo, rule.v_hi, factors, int(bias[row]),
                            one_sided=rule.one_sided)
            _seed_table(fibre, tables[row])
            self._rules[row] = fibre
        return self._rules[row]

    def fibre_table(self) -> dict[tuple[int, ...], McaRule]:
        """Dense map of every quotient window word to its fibre rule."""
        return {w: self.fibre(w)
                for w in iter_words(self.frame.C.order, self.rule.width)}


def _fibre_rows(dec: SkewDecomposition):
    """``(bias, images, tables)`` of the fibres over every quotient word.

    Row r holds the fibre over the word of index r: its bias, its
    normalized factor images (axis 1 of ``images``) and its local table in
    the code dtype; a word with no error term is built with term 0.  The
    rule over B on a*c splits as
    ``f_bias * prod_i Conj_{S_i}(f_i(a) * g'_i(c_i)) * error(c)`` where S_i
    is the running product of section values; this is renormalized into
    bias-times-endomorphism-product form by conjugating each factor with
    its ascending suffix of constants.  Only the factors are looped over;
    each step gathers over every word at once.
    """
    fr, rule = dec.frame, dec.rule
    A, B = fr.a_group, fr.B
    c_words = digit_planes(np.arange(fr.C.order ** rule.width), fr.C.order, rule.width)
    a_embed, sigma = np.asarray(fr.a_embed), np.asarray(fr.sigma)
    # conj[b, a]: the A-index of b * a * b^-1 (A is normal)
    conj = fr.a_part[B.table[B.table[:, a_embed], B.inverse[:, None]]]
    running = np.full(len(c_words), sigma[dec.bias_c])
    phis, consts = [], []
    for (pos, _), sp in zip(rule.factors, dec.factor_splits):
        c_val = c_words[:, pos - rule.v_lo]
        phis.append(conj[running[:, None], np.asarray(sp.f.image_of)])
        consts.append(conj[running, np.asarray(sp.gprime.image_of)[c_val]])
        running = B.table[running, sigma[np.asarray(sp.h.image_of)[c_val]]]
    # normalize f_bias*phi_0(.)k_0*...*phi_{I-1}(.)k_{I-1}*err into
    # bias * prod phi'_i(.) with phi'_i = T_i^-1 phi_i T_i,
    # T_i = k_i k_{i+1} ... k_{I-1} err  (ascending suffix products).
    suffix = np.array([dec.error_map.get(w, 0) for w in map(tuple, c_words.tolist())],
                      dtype=np.int64)
    images = np.empty((len(phis), len(c_words), A.order), dtype=np.int64)
    for i in reversed(range(len(phis))):
        suffix = A.table[consts[i], suffix]
        images[i] = np.take_along_axis(conj[a_embed[A.inverse[suffix]]], phis[i], 1)
    bias = A.table[dec.bias_a, suffix]
    return bias, images, _local_tables(A, rule.width, bias, [
        (pos - rule.v_lo, img) for (pos, _), img in zip(rule.factors, images)])


class RecomposeReport(NamedTuple):
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def decompose_mca(rule: McaRule, frame: PseudoFrame,
                  cap: int = STATE_CAP) -> SkewDecomposition:
    """Split a rule through a frame; exhaustively verified before return.

    Every coefficient must leave the frame subgroup invariant (checked by
    the per-coefficient splits).  Verification (:func:`recompose_check`)
    reads the original rule on all |B|**width window words and compares
    both components against the quotient rule and the assembled fibres —
    a mismatch means an internal error and raises.  The fibres it builds
    are kept, so no fibre rule is made until one is asked for.
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
    # sigma(bias_c) * prod_i sigma(h_i(c_i)) * sigma(h(c))^-1 on every word c,
    # in A since h(c) = bias_c * prod_i h_i(c_i)
    e_val = np.full(len(words), sigma[bias_c])
    for (pos, _), sp in zip(rule.factors, splits):
        h_val = np.asarray(sp.h.image_of)[words[:, pos - rule.v_lo]]
        e_val = B.table[e_val, sigma[h_val]]
    e_val = B.table[e_val, B.inverse[sigma[local_table(h_rule, cap)]]]
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

    Rebuilds every fibre from the stored parts in one array pass, so a
    changed or missing error term in a copy is caught, and keeps them for
    :meth:`SkewDecomposition.fibre`.  The rule (by default the
    decomposed one) must act on the frame's group with the same width.
    Its local table, split into its parts through
    :meth:`PseudoFrame.word_indices`, is compared with the quotient and
    fibre tables in one gather; the first mismatch (c-word order, then
    a-word order, quotient before fibre) is returned as a witness instead
    of raising.
    """
    rule = rule if rule is not None else dec.rule
    fr, width = dec.frame, dec.rule.width
    if rule.group is not fr.B:
        raise FrameError("rule and frame act on different groups")
    if rule.width != width:
        raise WindowError(f"rule width {rule.width} differs from {width}")
    A, C = fr.a_group, fr.C
    stop = next((i for i, w in enumerate(iter_words(C.order, width))
                 if w not in dec.error_map), C.order ** width)
    dec._batch = _fibre_rows(dec)
    b_out = local_table(rule)
    a_idx, c_idx = fr.word_indices(width)
    h_out, fib_out = local_table(dec.h_rule)[c_idx], dec._batch[2][c_idx, a_idx]
    bad_c = fr.c_part[b_out] != h_out
    bad = np.flatnonzero((bad_c | (fr.a_part[b_out] != fib_out)) & (c_idx < stop))
    if bad.size:
        j = bad[np.argmin(c_idx[bad] * A.order ** width + a_idx[bad])]
        part, split, got = (("quotient", fr.c_part, h_out) if bad_c[j]
                            else ("fibre", fr.a_part, fib_out))
        return RecomposeReport(False, {
            "c_word": index_word(int(c_idx[j]), C.order, width),
            "a_word": index_word(int(a_idx[j]), A.order, width), "part": part,
            "expected": int(split[b_out[j]]), "got": int(got[j])})
    if stop < C.order ** width:
        return RecomposeReport(False, {"c_word": index_word(stop, C.order, width),
                                       "reason": "missing error term"})
    return RecomposeReport(True)


# -- central case ------------------------------------------------------------


class CentralSplit(NamedTuple):
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
    # over a central A no suffix conjugates: each fibre's bias, bias_a *
    # err(c) * prod_i g'_i(c_i), is its block; check fibre == linear + block
    block, _, tables = dec._fibres()
    lin_tbl = local_table(lin_rule, cap)
    bad = (tables != A.table[lin_tbl[None, :], block[:, None]]).any(axis=1)
    keys = list(iter_words(C.order, rule.width))
    if bad.any():
        raise FrameError(f"central split disagrees with fibre at {keys[bad.argmax()]}")
    block_map = dict(zip(keys, block.tolist()))
    return CentralSplit(frame=frame, h_rule=dec.h_rule, lin_rule=lin_rule,
                        linear_coeffs=per_pos, block_map=block_map)


# -- nilpotent towers --------------------------------------------------------


class TowerLevel(NamedTuple):
    frame: PseudoFrame
    decomposition: SkewDecomposition
    split: CentralSplit


class NilpotentTower(NamedTuple):
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
        tbl = fr.b_of[lev.decomposition._fibres()[2][c_idx, a_idx], tbl[c_idx]]
    bad = np.flatnonzero(tbl != local_table(rule, cap))
    if bad.size:
        word = index_word(int(bad[0]), rule.group.order, rule.width)
        raise FrameError(f"tower recomposition fails on window word {word}")
    return tower
