"""Acceptance gate: one test per advertised capability, at stated tolerance.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``.  The two asymptotic thresholds (rank density > 0.9 for
rank > 10, Cesàro mean < 0.05) are checked at horizons where the exact
values reach them (j <= 4096, N = 2048), together with the closed-form
value at that horizon; the companion ``*_observed`` tests pin the
desk-scale values at j <= 512 and N = 256.
"""
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from mcalab import (Character, GroupMap, McaRule, MeasureSpec, Probe,
                    WindowMeasure, abelian_invariants, cesaro_randomization,
                    cocycle_zeta, decompose_mca, diffusion_report,
                    dual_action, eval_local, is_nilpotent, LinearRuleDual,
                    make_cyclic, make_direct_sum, permutativity, push_forward,
                    recompose_check, skew_entropy, split_endo, star_compose,
                    star_decompose, trajectory_joint_distribution,
                    trajectory_partition_entropy, upper_central_series)

from oracles import (characters_of, fourier_coefficient,
                     harmonic_mixing_profile, law_items, probs)


def test_criterion_01_quaternion_central_series(q8):
    series = upper_central_series(q8)
    members = [sorted(sg.members) for sg in series.chain]
    assert members == [[0], [0, 1], list(range(8))]
    assert [q8.labels[m] for m in members[1]] == ["1", "-1"]
    assert is_nilpotent(q8)


def test_criterion_02_cocycle_table(q8_center_frame):
    frame = q8_center_frame
    labels = [frame.B.labels[frame.sigma[c]] for c in range(4)]
    assert labels == ["1", "i", "j", "k"]
    one = frame.a_group.labels.index("1")
    minus_one = frame.a_group.labels.index("-1")
    O, I, J = 0, 1, 2
    assert cocycle_zeta(frame, I, J) == one
    assert cocycle_zeta(frame, J, I) == minus_one
    for c in range(4):
        assert cocycle_zeta(frame, O, c) == one


def test_criterion_03_endomorphism_splitting(q8_center_frame, quat_g1,
                                             quat_g2):
    s1 = split_endo(q8_center_frame, quat_g1)
    s2 = split_endo(q8_center_frame, quat_g2)
    assert list(s1.f.image_of) == [0, 1]
    assert list(s2.f.image_of) == [0, 1]
    assert list(s1.h.image_of) == [0, 2, 3, 1]
    assert list(s2.h.image_of) == [0, 1, 3, 2]
    assert list(s1.gprime.image_of) == [0, 0, 0, 0]
    assert list(s2.gprime.image_of) == [0, 1, 0, 0]


def test_criterion_04_decomposition_closed_forms(x1_rule, x2_rule,
                                                 z20_frame):
    frame = z20_frame
    dec1 = decompose_mca(x1_rule, frame)
    dec2 = decompose_mca(x2_rule, frame)
    assert recompose_check(dec1)
    assert recompose_check(dec2)
    for c in itertools.product(range(4), repeat=3):
        fib1, fib2 = dec1.fibre(c), dec2.fibre(c)
        k2 = sum(pow(2, t * c[2], 5) for t in range(4)) % 5
        k1 = (pow(2, 4 * c[2], 5)
              * sum(pow(2, t * c[1], 5) for t in range(3))) % 5
        k0 = pow(2, 4 * c[2] + 3 * c[1], 5)
        assert eval_local(dec1.h_rule, list(c)) == sum(c) % 4
        assert eval_local(dec2.h_rule, list(c)) == (c[0] - c[1]) % 4
        for a in itertools.product(range(5), repeat=3):
            want1 = (a[0] + pow(2, c[0], 5) * a[1]
                     + pow(2, c[0] + c[1], 5) * a[2]) % 5
            assert eval_local(fib1, list(a)) == want1
            want2 = (k0 * a[0] + k1 * a[1] + k2 * a[2]) % 5
            assert eval_local(fib2, list(a)) == want2


def test_criterion_05_fibre_permutativity_pattern(x2_rule, z20_frame):
    dec = decompose_mca(x2_rule, z20_frame)
    for c_word, fib in dec.fibre_table().items():
        flags = permutativity(fib)
        assert flags.right == (c_word[2] % 4 == 0), c_word
        assert flags.left is False  # one-sided window: no left overlap


def test_criterion_06_entropy_values(x1_rule):
    # the skew product has fibre overlap V = 2 over Z/5 and quotient
    # overlap W = 2 over Z/4, both from the one-sided width-3 window
    value = skew_entropy(2, 2, math.log2(5), math.log2(4))
    assert value == pytest.approx(2 * math.log2(5) + 4, abs=1e-9)
    uniform = MeasureSpec("uniform", 20)
    for n in (1, 2, 3):
        got = trajectory_partition_entropy(x1_rule, uniform, n, cap=10 ** 8)
        assert got == (n * 2) * math.log2(20)


def test_criterion_07_trajectory_matches_input_marginal():
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 1, [(0, ident), (1, ident)], one_sided=True)
    spec = MeasureSpec("bernoulli", 2, probs=[Fraction(9, 10),
                                              Fraction(1, 10)])
    for n in (1, 2, 3, 4):
        joint = law_items(trajectory_joint_distribution(rule, spec, n))
        marginal = spec.window_measure(0, n)  # [-nL..nR) with L=0, R=1
        assert sorted(joint.values()) == sorted(probs(marginal))


def test_criterion_08_haar_invariance(quat_rule3, x1_rule, x2_rule, z20):
    G6 = make_cyclic(6)
    five = GroupMap(G6, G6, [G6.power(x, 5) for x in G6.elements()], True)
    linear = McaRule(G6, 0, 1, [(0, GroupMap.identity(G6)), (1, five)],
                     one_sided=True)
    cases = [(quat_rule3, 6), (x1_rule, 4), (x2_rule, 4), (linear, 7)]
    for rule, length in cases:
        B = rule.group
        assert B.order ** length <= 10 ** 6
        m = WindowMeasure.uniform(B.order, 0, length, B)
        assert push_forward(rule, m).is_uniform()


def test_criterion_09_duality_identity():
    G2, G4, G5, V4 = (make_cyclic(2), make_cyclic(4), make_cyclic(5),
                      make_direct_sum([2, 2]))
    cases = []
    for G, scale in ((G2, 1), (G4, 2), (G5, 2), (V4, 1)):
        coeff = GroupMap(G, G, [G.power(x, scale) for x in G.elements()],
                         True)
        cases.append(McaRule(G, 0, 1,
                             [(0, GroupMap.identity(G)), (1, coeff)]))
    for rule in cases:
        G = rule.group
        s = G.order
        probs = [Fraction(2, s + 1)] + [Fraction(1, s + 1)] * (s - 1)
        m = MeasureSpec("bernoulli", s, probs=probs).window_measure(0, 4, G)
        pushed = push_forward(rule, m)
        dual = LinearRuleDual.from_rule(rule)
        for chi in characters_of(G, 0, 3):
            lhs = fourier_coefficient(chi, pushed)
            rhs = fourier_coefficient(dual_action(dual, chi), m)
            assert abs(lhs - rhs) <= 1e-12


def _xor_diffusion(j_max):
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 1, [(0, ident), (1, ident)], one_sided=True)
    dual = LinearRuleDual.from_rule(rule)
    seed = Character.make(abelian_invariants(G), {0: (1,)})
    return diffusion_report(dual, seed, j_max, thresholds=(10,))


def test_criterion_10_rank_oracle():
    report = _xor_diffusion(64)
    for j, rank in enumerate(report.ranks):
        odd_binomials = sum(1 for k in range(j + 1)
                            if math.comb(j, k) % 2 == 1)
        assert rank == odd_binomials == 2 ** bin(j).count("1")


def test_criterion_10_rank_density():
    # rank(j) = 2^popcount(j), so rank > 10 iff popcount(j) >= 4; that share
    # of 1..J first passes 0.9 at J = 2871, hence the power of two 4096
    report = _xor_diffusion(4096)
    assert report.densities[10] == 3797 / 4096
    assert report.densities[10] > 0.9


def test_criterion_10_rank_oracle_far_horizon():
    # rank(j) = 2^popcount(j) at every j < 2^16, evidence past 4096
    report = _xor_diffusion(2 ** 16 - 1)
    assert report.ranks == [2 ** bin(j).count("1") for j in range(2 ** 16)]


def test_criterion_10_rank_density_observed():
    report = _xor_diffusion(512)
    assert report.densities[10] == pytest.approx(0.74609375, abs=1e-12)
    # the doubling trail shows density climbing with the horizon
    trail = dict(report.density_trail[10])
    assert trail[512] > trail[64] > trail[16]


def _xor_cesaro(n_max, cap=4096):
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 1, [(0, ident), (1, ident)], one_sided=True)
    spec = MeasureSpec("bernoulli", 2, probs=[Fraction(9, 10),
                                              Fraction(1, 10)])
    probe = Probe("x", Character.make(abelian_invariants(G), {0: (1,)}))
    return rule, spec, cesaro_randomization(rule, spec, n_max, [probe],
                                            cap_states=cap)


def test_criterion_11a_cesaro_mean_threshold():
    # |coef| at n is 0.8^(2^popcount(n)); its Cesàro mean stays below 0.05
    # from N = 1241 on (checked to 8192), hence the power of two 2048
    _, _, report = _xor_cesaro(2048)
    final = [r for r in report.probe_rows if r.n == 2048][0]
    closed = sum(0.8 ** (2 ** bin(n).count("1"))
                 for n in range(2049)) / 2049
    assert final.cesaro_mean == pytest.approx(closed, abs=1e-12)
    assert final.cesaro_mean < 0.05


def test_criterion_11a_cesaro_mean_observed():
    _, _, report = _xor_cesaro(256)
    by_n = {r.n: r for r in report.probe_rows}
    assert by_n[256].cesaro_mean == pytest.approx(0.11455, abs=5e-4)
    # the mean is falling: from 0.2339 at N=64 to 0.1145 at N=256, more
    # than a halving, and monotone past the early transient
    assert by_n[256].cesaro_mean < by_n[128].cesaro_mean \
        < by_n[64].cesaro_mean


def test_criterion_11a_fast_path_crosscheck():
    rule, spec, report = _xor_cesaro(8)
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    for row in report.probe_rows:
        if row.n > 6:
            continue
        m = spec.window_measure(0, 1 + row.n, rule.group)
        for _ in range(row.n):
            m = push_forward(rule, m)
        assert row.coef_abs == pytest.approx(
            abs(fourier_coefficient(chi, m)), abs=1e-12)


def test_criterion_11b_quaternion_randomization(quat_rule4,
                                                q8_center_frame):
    frame = q8_center_frame
    dec = decompose_mca(quat_rule4, frame)
    lam = MeasureSpec("bernoulli", 2, probs=[Fraction(7, 10),
                                             Fraction(3, 10)])
    nu = MeasureSpec("bernoulli", 4,
                     probs=[Fraction(4, 10), Fraction(3, 10),
                            Fraction(2, 10), Fraction(1, 10)])
    report = cesaro_randomization(quat_rule4, (lam, nu), 64, frame=frame,
                                  dec=dec, cap_states=4 * 10 ** 6,
                                  mc_samples=10 ** 5, seed=2026)
    assert report.coprimality_ok is True  # all exponent sums odd
    assert report.n_exact == 2
    rows = report.tv_rows
    assert rows[0].n == 0 and rows[0].mode == "exact"
    exact_end = [r for r in rows if r.n == report.n_exact][0]
    assert exact_end.cesaro_tv <= rows[0].cesaro_tv / 2
    mc_rows = [r for r in rows if r.mode == "mc"]
    assert mc_rows[-1].n == 64
    assert all(r.samples == 10 ** 5 for r in mc_rows)
    trend = [r.cesaro_tv for r in rows]
    assert all(b <= a for a, b in zip(trend, trend[1:]))


def test_criterion_12_negative_controls(x2_rule, z20_frame):
    # (i) shared exponent factor trips the hypothesis warning
    G4 = make_cyclic(4)
    ident4 = GroupMap.identity(G4)
    square = McaRule(G4, 0, 1, [(0, ident4), (1, ident4), (1, ident4)])
    with pytest.warns(UserWarning, match="shares a factor"):
        report = cesaro_randomization(square, MeasureSpec("uniform", 4), 2)
    assert report.coprimality_ok is False
    # (ii) a point mass is maximally non-mixing
    point = MeasureSpec("bernoulli", 2, probs=[Fraction(1), Fraction(0)])
    assert harmonic_mixing_profile(point, 5) == pytest.approx([1.0] * 6)
    # (iii) corruption is caught with a witness
    dec = decompose_mca(x2_rule, z20_frame)
    key = next(iter(dec.error_map))
    dec = replace(dec, error_map={**dec.error_map, key: (dec.error_map[key] + 2) % 5})
    verdict = recompose_check(dec)
    assert not verdict
    assert verdict.witness is not None
