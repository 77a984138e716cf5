"""Skew decompositions: fibre tables, central splits, and towers.

The robust path (decompose, then exhaustively recompose) is the source of
truth; closed-form checks against hand-derived fibre formulas live in the
acceptance suite.
"""
import itertools
import re
from dataclasses import replace

import pytest

from mcalab import decompose
from mcalab import (Config, FrameError, GroupMap, McaRule, NotCentralError,
                    NotInvariantError, WindowError, apply_window, central_split,
                    decompose_mca, eval_local, fibre_nhca,
                    fibre_step_sequence, generated_subgroup, local_table,
                    make_cyclic, make_frame, nilpotent_tower, recompose_check,
                    star_compose, star_decompose)
from oracles import tower_apply, tower_eval


@pytest.fixture(scope="module")
def x1_dec(x1_rule, z20_frame):
    return decompose_mca(x1_rule, z20_frame)


@pytest.fixture(scope="module")
def x2_dec(x2_rule, z20_frame):
    return decompose_mca(x2_rule, z20_frame)


def test_x1_decomposition_verifies(x1_dec):
    assert x1_dec.verified
    assert recompose_check(x1_dec)


def test_x1_quotient_rule_is_coset_sum(x1_dec):
    # the quotient of b0*b1*b2 over the order-4 coset group is c0+c1+c2
    h = x1_dec.h_rule
    C = h.group
    for word in itertools.product(C.elements(), repeat=3):
        assert eval_local(h, list(word)) == sum(word) % 4


def test_x1_error_map_trivial_on_semidirect_frame(x1_dec):
    # a homomorphic section leaves nothing to correct
    assert all(e == 0 for e in x1_dec.error_map.values())


def test_x1_fibre_formula_spot_checks(x1_dec):
    # f_c(a) = a0 + 2^c0 a1 + 2^(c0+c1) a2  (mod 5)
    for c_word in [(0, 0, 0), (1, 0, 0), (2, 3, 1), (3, 3, 3)]:
        fib = x1_dec.fibre(c_word)
        for a_word in [(0, 0, 0), (1, 2, 3), (4, 4, 4), (2, 0, 1)]:
            want = (a_word[0]
                    + pow(2, c_word[0], 5) * a_word[1]
                    + pow(2, c_word[0] + c_word[1], 5) * a_word[2]) % 5
            assert eval_local(fib, list(a_word)) == want


def test_x2_quotient_rule(x2_dec):
    # b2^4 b1^3 b0 collapses to 4c2 + 3c1 + c0 = c0 - c1 mod 4
    h = x2_dec.h_rule
    for word in itertools.product(range(4), repeat=3):
        assert eval_local(h, list(word)) == (word[0] - word[1]) % 4


def test_recompose_reconstructs_rule(x1_dec, x1_rule, z20_frame):
    frame = z20_frame
    for b_word in itertools.islice(
            itertools.product(frame.B.elements(), repeat=3), 0, 8000, 97):
        parts = [star_decompose(frame, b) for b in b_word]
        a_word = tuple(p[0] for p in parts)
        c_word = tuple(p[1] for p in parts)
        fib = x1_dec.fibre(c_word)
        a_out = eval_local(fib, list(a_word))
        c_out = eval_local(x1_dec.h_rule, list(c_word))
        assert star_compose(frame, a_out, c_out) \
            == eval_local(x1_rule, list(b_word))


def test_corrupted_error_map_fails_with_witness(x2_rule, z20_frame):
    dec = decompose_mca(x2_rule, z20_frame)
    key = next(iter(dec.error_map))
    dec = replace(dec, error_map={
        **dec.error_map, key: (dec.error_map[key] + 1) % dec.frame.a_group.order})
    report = recompose_check(dec)
    assert not report
    assert report.witness is not None


def test_fibre_is_built_once_per_error_term(x2_rule, z20_frame):
    dec = decompose_mca(x2_rule, z20_frame)
    key = next(iter(dec.error_map))
    fib = dec.fibre(key)
    assert dec.fibre(key) is fib
    changed = replace(dec, error_map={
        **dec.error_map, key: (dec.error_map[key] + 1) % dec.frame.a_group.order})
    rebuilt = changed.fibre(key)
    assert rebuilt is not fib
    assert local_table(rebuilt).tolist() != local_table(fib).tolist()
    missing = replace(dec, error_map={w: e for w, e in dec.error_map.items() if w != key})
    with pytest.raises(KeyError):
        missing.fibre(key)


def test_error_map_is_read_only_and_a_copy_starts_unverified(x2_rule, z20_frame):
    dec = decompose_mca(x2_rule, z20_frame)
    key = next(iter(dec.error_map))
    with pytest.raises(TypeError):
        dec.error_map[key] = 0
    changed = replace(dec, error_map={
        **dec.error_map, key: (dec.error_map[key] + 1) % dec.frame.a_group.order})
    assert dec.verified and not changed.verified
    assert changed.error_map[key] != dec.error_map[key]
    with pytest.raises(TypeError):
        changed.error_map[key] = 0


def test_decompose_makes_no_rule_per_fibre(monkeypatch, quat_rule4, q8_center_frame):
    """Verification builds the fibres as arrays: the quotient rule is the
    only rule made, and no map is composed."""
    made, composed = [], []
    post_init, compose = McaRule.__post_init__, GroupMap.compose
    monkeypatch.setattr(McaRule, "__post_init__",
                        lambda self: (made.append(self), post_init(self))[1])
    monkeypatch.setattr(GroupMap, "compose",
                        lambda self, inner: (composed.append(inner),
                                             compose(self, inner))[1])
    dec = decompose_mca(quat_rule4, q8_center_frame)
    assert dec.verified
    assert len(made) == 1 and made[0] is dec.h_rule
    assert composed == []
    made.clear()
    tower = nilpotent_tower(quat_rule4)
    assert made == [r for lev in tower.levels
                    for r in (lev.decomposition.h_rule, lev.split.lin_rule)]
    assert len(made) == 2 and composed == []


def test_recompose_check_refuses_a_rule_of_another_group_or_width(x1_dec, z20):
    ident = GroupMap.identity(z20)
    wider = McaRule(z20, 0, 3, [(v, ident) for v in range(4)], one_sided=True)
    with pytest.raises(WindowError, match="rule width 4 differs"):
        recompose_check(x1_dec, wider)
    Z20 = make_cyclic(20)
    cyclic = McaRule(Z20, 0, 2, [(v, GroupMap.identity(Z20)) for v in range(3)],
                     one_sided=True)
    with pytest.raises(FrameError, match="different groups"):
        recompose_check(x1_dec, cyclic)


def test_decompose_rejects_non_invariant_coefficient(q8, q8_labels):
    # A = <i> is not preserved by the i <-> j swap
    A = generated_subgroup(q8, [q8_labels["i"]])
    frame = make_frame(q8, A)
    swap = GroupMap(q8, q8, [0, 1, 4, 5, 2, 3, 7, 6], True)
    rule = McaRule(q8, 0, 1, [(0, GroupMap.identity(q8)), (1, swap)])
    with pytest.raises(NotInvariantError):
        decompose_mca(rule, frame)


def test_decompose_over_non_characteristic_frame_still_works(q8, q8_labels):
    """A = <i> is merely normal, but identity coefficients stay inside it."""
    A = generated_subgroup(q8, [q8_labels["i"]])
    frame = make_frame(q8, A)
    ident = GroupMap.identity(q8)
    rule = McaRule(q8, 0, 1, [(0, ident), (1, ident)], bias=q8_labels["j"])
    dec = decompose_mca(rule, frame)
    assert dec.verified


def test_fibre_nhca_matches_full_rule(x1_dec, x1_rule, z20_frame):
    frame = z20_frame
    c_cfg = Config(x1_dec.h_rule.group, 0, (1, 3, 0, 2, 1))
    nhca = fibre_nhca(x1_dec, c_cfg, 0, 3)
    for a_word in itertools.islice(
            itertools.product(range(5), repeat=5), 0, 3125, 41):
        b_word = [star_compose(frame, a, c)
                  for a, c in zip(a_word, c_cfg.word)]
        full = apply_window(x1_rule, Config(frame.B, 0, b_word))
        fib = apply_window(nhca, Config(frame.a_group, 0, a_word))
        assert fib.word == tuple(star_decompose(frame, b)[0]
                                 for b in full.word)


def test_fibre_step_sequence_tracks_quotient_evolution(x1_dec):
    c_cfg = Config(x1_dec.h_rule.group, 0, (1, 0, 2, 3, 1, 0, 2))
    steps = fibre_step_sequence(x1_dec, c_cfg, 3)
    assert [sorted(st.rules) for st in steps] == [[0, 1, 2, 3, 4], [0, 1, 2], [0]]
    # step n's rule at cell m is the fibre of the n-times evolved quotient word
    evolved = c_cfg
    for st in steps:
        for m, rule in st.rules.items():
            assert rule is x1_dec.fibre(tuple(evolved.at(m + v) for v in range(3)))
        evolved = apply_window(x1_dec.h_rule, evolved)


# --- central splits and towers ----------------------------------------------

def test_central_split_quat3(quat_rule3, q8_center_frame):
    split = central_split(quat_rule3, q8_center_frame)
    lin = split.lin_rule
    # every linear coefficient restricts to the identity of Z(Q8)
    for pos, cf in split.linear_coeffs.items():
        assert list(cf.image_of) == [0, 1]
    # block map is additive sign data; the identity word contributes nothing
    assert split.block_map[(0, 0, 0)] == 0


def test_central_split_agrees_with_fibres(quat_rule3, q8_center_frame):
    split = central_split(quat_rule3, q8_center_frame)
    dec = decompose_mca(quat_rule3, q8_center_frame)
    A = q8_center_frame.a_group
    for c_word in itertools.product(range(4), repeat=3):
        fib = dec.fibre(c_word)
        blk = split.block_map[c_word]
        for a_word in itertools.product(range(2), repeat=3):
            lin = eval_local(split.lin_rule, list(a_word))
            assert eval_local(fib, list(a_word)) == A.mul(lin, blk)


def test_central_split_requires_central_subgroup(x1_rule, z20_frame):
    with pytest.raises(NotCentralError):
        central_split(x1_rule, z20_frame)


def test_tower_quat4(quat_rule4):
    tower = nilpotent_tower(quat_rule4)
    assert tower.is_complete
    assert tower.depth == 2
    assert [tuple(t) for t in tower.factor_invariants] == [(2,), (2, 2)]


def test_tower_eval_reproduces_local_map(quat_rule4):
    tower = nilpotent_tower(quat_rule4)
    for word in itertools.product(range(8), repeat=4):
        assert tower_eval(tower, word) == eval_local(quat_rule4, list(word))


def test_tower_apply_matches_direct_application(quat_rule4, q8):
    tower = nilpotent_tower(quat_rule4)
    cfg = Config(q8, 0, (3, 0, 7, 2, 5, 1, 4))
    direct = apply_window(quat_rule4, cfg)
    via_tower = tower_apply(tower, cfg)
    assert via_tower.lo == direct.lo
    assert via_tower.word == direct.word


def test_tower_apply_shrinks_the_block_like_apply_window(quat_rule4, q8):
    tower = nilpotent_tower(quat_rule4)
    with pytest.raises(WindowError):
        tower_apply(tower, Config(q8, 0, (3, 0)))
    # exactly spread cells leave an empty block at lo - v_lo
    out = tower_apply(tower, Config(q8, 5, (3, 0, 7)))
    assert (out.lo, out.word) == (5 - quat_rule4.v_lo, ())


def test_tower_check_names_the_first_failing_window_word(monkeypatch, quat_rule4):
    """A first-level quotient rule with bias 1 moves every word's image."""
    real = decompose.decompose_mca
    levels = []

    def tampered(rule, frame, cap):
        dec = real(rule, frame, cap)
        if not levels:
            h = dec.h_rule
            dec.h_rule = McaRule(h.group, h.v_lo, h.v_hi, h.factors, bias=1,
                                 one_sided=h.one_sided)
        levels.append(dec)
        return dec

    monkeypatch.setattr(decompose, "decompose_mca", tampered)
    with pytest.raises(FrameError, match=re.escape(
            "tower recomposition fails on window word (0, 0, 0, 0)")):
        nilpotent_tower(quat_rule4)
    assert levels


def test_central_split_names_the_first_fibre_that_disagrees(monkeypatch, quat_rule4,
                                                           q8_center_frame):
    dec = decompose_mca(quat_rule4, q8_center_frame)
    real = decompose._fibre_rows

    def flipped(dec):
        # one output flipped in the order-2 centre, in the fibres over
        # (3, 3, 3, 3) and (0, 1, 2, 3)
        bias, images, tables = real(dec)
        tables = tables.copy()
        for row in [int("3333", 4), int("0123", 4)]:
            tables[row, 0] = 1 - tables[row, 0]
        return bias, images, tables

    monkeypatch.setattr(decompose, "_fibre_rows", flipped)
    with pytest.raises(FrameError, match=re.escape(
            "central split disagrees with fibre at (0, 1, 2, 3)")):
        central_split(quat_rule4, q8_center_frame, dec=replace(dec))


def test_tower_on_abelian_group_is_flat():
    G = make_cyclic(6)
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 1, [(0, ident), (1, ident)])
    tower = nilpotent_tower(rule)
    assert tower.depth == 1
    assert not tower.levels
    assert tower.is_complete
    assert tower.tail_rule is rule
    assert tower.factor_invariants == [(6,)]
