"""Exact window measures, push-forwards, and entropy computations."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcalab import (Config, GroupMap, McaLabError, McaRule, MeasureSpec,
                    NotPermutativeError, WindowError, WindowMeasure,
                    decompose_mca, fibre_trajectory_entropy, formula_entropy,
                    make_cyclic, partition_entropy, product_measure,
                    push_forward, skew_entropy, star_compose,
                    star_product_measure, trajectory_joint_distribution,
                    trajectory_partition_entropy)

from oracles import trajectory_oracle

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def xor_rule():
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    return McaRule(G, 0, 1, [(0, ident), (1, ident)], one_sided=True)


def bern_point_nine():
    return MeasureSpec("bernoulli", 2, probs=[Fraction(9, 10), Fraction(1, 10)])


def test_uniform_window_measure():
    m = WindowMeasure.uniform(3, -1, 2)
    assert m.length == 3
    assert all(p == Fraction(1, 27) for p in m.probs())
    assert m.entropy_bits() == pytest.approx(3 * math.log2(3), abs=1e-12)
    assert m.tv_from_uniform() == 0
    assert m.is_uniform()


def test_point_mass_measure():
    m = WindowMeasure.point_mass(4, 0, [2, 0, 1])
    assert m.prob((2, 0, 1)) == 1
    assert m.entropy_bits() == 0.0
    assert m.tv_from_uniform() == 1 - Fraction(1, 64)


def test_measure_weights_are_private_and_read_only():
    """The caller's arrays stay writable and cannot change the weights."""
    base = np.array([1, 2, 3, 2, 0], dtype=np.int64)
    view = base[1:]
    view.setflags(write=False)
    for num in (base[1:], view):
        m = WindowMeasure(2, 0, 2, num, 7)
        base[1] = 6
        assert m.num.tolist() == [2, 3, 2, 0]
        assert not m.num.flags.writeable
        base[1] = 2
    assert base.flags.writeable
    owned = np.array([3, 4], dtype=np.int64)
    owned.setflags(write=False)
    assert WindowMeasure(2, 0, 1, owned, 7).num is owned


def test_marginal_matches_spec_window():
    spec = bern_point_nine()
    m = spec.window_measure(0, 4)
    sub = m.marginal(1, 3)
    assert sub.same_distribution(spec.window_measure(1, 3))
    assert sub.prob((0, 1)) == Fraction(9, 100)


def test_push_forward_xor_bernoulli():
    m = bern_point_nine().window_measure(0, 2)
    out = push_forward(xor_rule(), m)
    assert (out.lo, out.hi) == (0, 1)
    assert out.prob((0,)) == Fraction(82, 100)
    assert out.prob((1,)) == Fraction(18, 100)
    assert sum(out.probs()) == 1


def test_push_forward_window_geometry():
    G = make_cyclic(3)
    ident = GroupMap.identity(G)
    rule = McaRule(G, -1, 1, [(-1, ident), (1, ident)])
    m = WindowMeasure.uniform(3, -2, 3, G)
    out = push_forward(rule, m)
    assert (out.lo, out.hi) == (-1, 2)
    assert out.is_uniform()


def test_push_forward_rejects_narrow_window():
    G = make_cyclic(3)
    ident = GroupMap.identity(G)
    centered = McaRule(G, -1, 1, [(-1, ident), (1, ident)])
    with pytest.raises(WindowError):
        push_forward(centered, WindowMeasure.uniform(3, 0, 1, G))


def test_markov_requires_stationary_initial():
    with pytest.raises(McaLabError, match="stationary"):
        MeasureSpec("markov", 2,
                    transition=[[HALF, HALF], [QUARTER, 3 * QUARTER]],
                    initial=[HALF, HALF])


def test_markov_shift_entropy_is_conditional_entropy():
    spec = MeasureSpec("markov", 2,
                       transition=[[HALF, HALF], [QUARTER, 3 * QUARTER]],
                       initial=[Fraction(1, 3), Fraction(2, 3)])
    pair = spec.window_measure(0, 2).entropy_bits()
    single = spec.window_measure(0, 1).entropy_bits()
    assert spec.shift_entropy_bits() == pytest.approx(pair - single, abs=1e-12)


def test_trajectory_joint_is_a_distribution():
    joint = trajectory_joint_distribution(xor_rule(), bern_point_nine(), 3)
    assert sum(joint.values()) == 1
    assert all(len(k) == 3 for k in joint)


def test_uniform_trajectory_fast_path_agrees_with_enumeration():
    rule = xor_rule()
    spec = MeasureSpec("uniform", 2)
    fast = trajectory_partition_entropy(rule, spec, 3)
    slow = partition_entropy(trajectory_oracle(rule, spec, 3))
    assert fast == pytest.approx(slow, abs=1e-12)
    assert fast == pytest.approx(3.0, abs=1e-12)  # right overlap 1, N = 3


def test_formula_entropy_sum_rule(x1_rule):
    spec = MeasureSpec("uniform", 20)
    assert formula_entropy(x1_rule, spec) == pytest.approx(
        2 * math.log2(20), abs=1e-12)


def test_formula_entropy_needs_bipermutativity():
    G = make_cyclic(4)
    double = GroupMap(G, G, [G.power(x, 2) for x in G.elements()], True)
    rule = McaRule(G, 0, 1, [(0, GroupMap.identity(G)), (1, double)])
    with pytest.raises(NotPermutativeError):
        formula_entropy(rule, MeasureSpec("uniform", 4))


def test_formula_entropy_warns_on_asserted_invariance():
    with pytest.warns(UserWarning, match="assumed"):
        val = formula_entropy(xor_rule(), bern_point_nine())
    h = bern_point_nine().shift_entropy_bits()
    assert val == pytest.approx(h, abs=1e-12)


def test_skew_entropy_arithmetic():
    assert skew_entropy(2, 2, math.log2(5), 2.0) == pytest.approx(
        2 * math.log2(20), abs=1e-12)


def test_fibre_entropy_obeys_the_chain_rule(x1_rule, z20_frame):
    dec = decompose_mca(x1_rule, z20_frame)
    lam = MeasureSpec("uniform", 5)
    nu = MeasureSpec("uniform", 4)
    rel = fibre_trajectory_entropy(dec, lam, nu, 2)
    full = trajectory_partition_entropy(x1_rule, MeasureSpec("uniform", 20), 2)
    base = trajectory_partition_entropy(dec.h_rule, nu, 2)
    assert rel == pytest.approx(full - base, abs=1e-9)
    assert rel == pytest.approx(4 * math.log2(5), abs=1e-9)


def test_fibre_entropy_at_one_step_is_the_window_entropy(x1_rule, z20_frame):
    dec = decompose_mca(x1_rule, z20_frame)
    lam = MeasureSpec("bernoulli", 5, probs=[Fraction(k, 15) for k in range(1, 6)])
    rel = fibre_trajectory_entropy(dec, lam, MeasureSpec("uniform", 4), 1)
    window = lam.window_measure(-x1_rule.left_overlap, x1_rule.right_overlap)
    assert rel == pytest.approx(window.entropy_bits(), abs=1e-9)


def test_product_measure_is_independent():
    a = bern_point_nine().window_measure(0, 2)
    b = WindowMeasure.uniform(3, 0, 2)
    prod = product_measure(a, b)
    assert prod.size == 6
    assert sum(prod.probs()) == 1
    # pair (x, y) encodes as x*3 + y cellwise
    word = (0 * 3 + 1, 1 * 3 + 2)
    assert prod.prob(word) == a.prob((0, 1)) * b.prob((1, 2))


def test_star_product_measure_lands_on_cosets(z20_frame):
    frame = z20_frame
    a = WindowMeasure.point_mass(5, 0, [2], frame.a_group)
    c = WindowMeasure.uniform(4, 0, 1, frame.C)
    m = star_product_measure(frame, a, c)
    assert m.size == frame.B.order
    for cc in range(4):
        assert m.prob((star_compose(frame, 2, cc),)) == Fraction(1, 4)
    assert sum(m.probs()) == 1


def test_partition_entropy_accepts_plain_weights():
    assert partition_entropy([1, 1, 2]) == pytest.approx(1.5, abs=1e-12)
    assert partition_entropy({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.booleans())
def test_push_forward_conserves_mass(k, use_collapsing):
    G = make_cyclic(4)
    ident = GroupMap.identity(G)
    double = GroupMap(G, G, [G.power(x, 2) for x in G.elements()], True)
    rule = McaRule(G, 0, 1, [(0, ident), (1, double if use_collapsing else ident)])
    probs = [Fraction(k, 16), Fraction(8 - k, 16), Fraction(3, 16),
             Fraction(5, 16)]
    m = MeasureSpec("bernoulli", 4, probs=probs).window_measure(0, 3, G)
    out = push_forward(rule, m)
    assert sum(out.probs()) == 1
