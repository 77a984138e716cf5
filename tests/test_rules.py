"""Local rules: evaluation, window geometry, permutativity, filling."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcalab import (Config, GroupMap, McaRule, TableInvalidError, WindowError,
                    apply_window, eval_local, is_bipermutative, local_table,
                    make_cyclic, permutativity)
from mcalab.rules import algebraic_normal_form, step_cells

from oracles import (NhcaSequence, extract_eca_coefficients, filling_solve,
                     is_homomorphic_local, step_config)


def linear_rule(n, coeffs, v_lo=0, bias=0, one_sided=False, G=None):
    """sum_i coeffs[i] * x_{v_lo + i}  over Z/n (or over the given G = Z/n)."""
    G = G or make_cyclic(n)
    factors = [(v_lo + i, GroupMap(G, G, [(k * x) % n for x in range(n)],
                                   True))
               for i, k in enumerate(coeffs)]
    return McaRule(G, v_lo, v_lo + len(coeffs) - 1, factors, bias=bias,
                   one_sided=one_sided)


def test_eval_local_xor():
    rule = linear_rule(2, [1, 1])
    assert [eval_local(rule, [a, b]) for a in (0, 1) for b in (0, 1)] \
        == [0, 1, 1, 0]


def test_eval_local_respects_factor_order(q8, q8_labels):
    ident = GroupMap.identity(q8)
    ij = McaRule(q8, 0, 1, [(0, ident), (1, ident)])
    ji = McaRule(q8, 0, 1, [(1, ident), (0, ident)])
    i, j, k = q8_labels["i"], q8_labels["j"], q8_labels["k"]
    assert eval_local(ij, [i, j]) == k
    assert eval_local(ji, [i, j]) == q8_labels["-k"]


def test_repeated_positions_are_powers():
    G = make_cyclic(5)
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 1, [(0, ident), (0, ident), (1, ident)])
    assert eval_local(rule, [2, 1]) == (2 + 2 + 1) % 5


def test_bias_prepends():
    rule = linear_rule(4, [1], bias=3)
    assert eval_local(rule, [2]) == (3 + 2) % 4


def test_rejects_untagged_coefficient():
    G = make_cyclic(3)
    raw = GroupMap(G, G, [0, 1, 2])  # not marked as a homomorphism
    with pytest.raises(TableInvalidError):
        McaRule(G, 0, 0, [(0, raw)])


def test_rejects_factor_outside_window():
    G = make_cyclic(3)
    with pytest.raises(WindowError):
        McaRule(G, 0, 1, [(2, GroupMap.identity(G))])


def test_local_table_matches_eval():
    rule = linear_rule(3, [1, 2, 1], bias=1)
    tbl = local_table(rule, 10**6)
    s, w = 3, rule.width
    for idx, word in enumerate(itertools.product(range(s), repeat=w)):
        assert tbl[idx] == eval_local(rule, list(word))


def test_a_stepped_rule_caches_one_local_table():
    """The kernel looks codes up in the rule's local table itself, which is
    built once, in the code dtype."""
    rule = linear_rule(3, [1, 2, 1], bias=1)
    step_cells(rule, np.zeros((5, 2), dtype=np.int64))
    cached = [name for name, val in vars(rule).items() if isinstance(val, np.ndarray)]
    assert cached == ["_table"]
    assert local_table(rule) is rule._table
    assert rule._table.dtype == np.min_scalar_type(-(3 ** 3))


def test_a_replaced_rule_builds_its_own_caches():
    """``dataclasses.replace`` copies no cached table or normal form, so
    the copy's lookups follow its own bias, not the original's."""
    rule = linear_rule(4, [1, 1])
    assert local_table(rule).tolist()[:4] == [0, 1, 2, 3]
    anf = algebraic_normal_form(rule)
    shifted = replace(rule, bias=1)
    want = [eval_local(shifted, list(w))
            for w in itertools.product(range(4), repeat=2)]
    assert local_table(shifted).tolist() == want
    assert want[:4] == [1, 2, 3, 0]
    assert algebraic_normal_form(shifted) != anf
    assert local_table(rule).tolist()[:4] == [0, 1, 2, 3]
    assert algebraic_normal_form(rule) is anf
    with pytest.raises(ValueError, match="init=False"):
        replace(rule, _table=local_table(rule))


def test_apply_window_geometry():
    rule = linear_rule(2, [1, 1])           # window [0, 1]
    cfg = Config(rule.group, 3, (1, 0, 1, 1))
    out = apply_window(rule, cfg)
    assert out.lo == 3 and len(out.word) == 3
    assert out.word == (1, 1, 0)


def test_apply_window_shrinks_to_empty():
    # a block narrower than the window leaves nothing determined
    rule = linear_rule(2, [1, 1, 1])
    out = apply_window(rule, Config(rule.group, 0, (1, 0)))
    assert out.word == ()


def test_nhca_per_cell_rules():
    """The scalar NHCA stepper of the oracles reads each cell's own rule."""
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    flip = McaRule(G, 0, 0, [(0, ident)], bias=1)
    keep = McaRule(G, 0, 0, [(0, ident)])
    seq = NhcaSequence(G, 0, 0, {0: flip, 1: keep, 2: flip})
    out = step_config(seq, Config(G, 0, (0, 0, 0)))
    assert out.word == (1, 0, 1)


def test_homomorphic_local_detection(q8):
    ident = GroupMap.identity(q8)
    rule = McaRule(q8, 0, 1, [(0, ident), (1, ident)])
    # images of the two slices are all of Q8, which is nonabelian: the
    # product map cannot be a homomorphism
    assert not is_homomorphic_local(rule)
    abelian = linear_rule(6, [5, 1])
    assert is_homomorphic_local(abelian)


def test_extract_eca_coefficients_round_trip():
    rule = linear_rule(7, [3, 1, 5])
    coeffs = extract_eca_coefficients(rule)
    assert [c.image_of[1] for c in coeffs] == [3, 1, 5]
    biased = linear_rule(7, [3, 1, 5], bias=2)
    with pytest.raises(TableInvalidError):
        extract_eca_coefficients(biased)


def test_permutativity_needs_overlap_on_that_side():
    # window [0, 1]: it never reaches left of the output cell, so the
    # left flag is off no matter the coefficients
    flags = permutativity(linear_rule(4, [1, 2]))
    assert not flags.left and not flags.right  # 2 is not a unit mod 4
    flags = permutativity(linear_rule(4, [1, 3]))
    assert not flags.left and flags.right


def test_permutativity_flags_centered_window():
    flags = permutativity(linear_rule(4, [3, 2, 1], v_lo=-1))
    assert flags.left and flags.right
    assert is_bipermutative(linear_rule(4, [3, 2, 1], v_lo=-1))
    flags = permutativity(linear_rule(4, [2, 0, 1], v_lo=-1))
    assert not flags.left and flags.right


def test_one_sided_bipermutativity():
    rule = linear_rule(4, [2, 1], one_sided=True)
    assert is_bipermutative(rule)              # right side is what counts
    assert not is_bipermutative(linear_rule(4, [2, 1]))


def test_x1_rule_is_right_but_not_left_permutative(x1_rule):
    flags = permutativity(x1_rule)
    assert flags.right
    assert is_bipermutative(x1_rule)


def test_quat_rules_right_permutative(quat_rule3, quat_rule4):
    assert permutativity(quat_rule3).right
    assert permutativity(quat_rule4).right


@given(st.integers(min_value=2, max_value=7),
       st.data())
@settings(max_examples=40, deadline=None)
def test_unit_end_coefficients_give_bipermutativity(n, data):
    units = [k for k in range(1, n) if __import__("math").gcd(k, n) == 1]
    k0 = data.draw(st.sampled_from(units))
    k1 = data.draw(st.sampled_from(units))
    mid = data.draw(st.integers(min_value=0, max_value=n - 1))
    rule = linear_rule(n, [k0, mid, k1], v_lo=-1)
    assert is_bipermutative(rule)


def test_filling_solve_right_permutative():
    rule = linear_rule(5, [1, 2])            # right-permutative, L=0 R=1
    target = Config(rule.group, 0, (3, 1, 4))
    seed = Config(rule.group, 0, (2,))       # seed covers [J-L .. J+R) = [0..1)
    full = filling_solve(rule, target, seed)
    assert full.lo == 0 and len(full.word) == 4
    assert apply_window(rule, full).word == target.word
    assert full.word[0] == 2


def test_filling_solve_unique_against_brute_force():
    rule = linear_rule(3, [2, 1])
    target = Config(rule.group, 0, (1, 0))
    seed = Config(rule.group, 0, (2,))
    got = filling_solve(rule, target, seed)
    brute = [w for w in itertools.product(range(3), repeat=3)
             if w[0] == 2 and apply_window(
                 rule, Config(rule.group, 0, w)).word == (1, 0)]
    assert len(brute) == 1
    assert got.word == brute[0]


@settings(max_examples=40, deadline=None)
@given(target=st.lists(st.integers(0, 2), min_size=1, max_size=5),
       seed=st.tuples(st.integers(0, 2), st.integers(0, 2)), data=st.data())
def test_filling_solve_solves_leftward_from_an_interior_seed(target, seed, data):
    rule = linear_rule(3, [1, 2, 1], v_lo=-1)  # bipermutative, L = R = 1
    j = data.draw(st.integers(0, len(target) - 1))
    full = filling_solve(rule, Config(rule.group, 0, tuple(target)),
                         Config(rule.group, j - 1, seed))
    assert (full.lo, full.hi) == (-1, len(target) + 1)
    assert apply_window(rule, full).word == tuple(target)
    assert full.word[j: j + 2] == seed
