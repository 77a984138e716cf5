"""Characters, dual actions, diffusion ranks, and Cesàro randomization."""
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mcalab import (Character, GroupMap, LinearRuleDual, McaLabError, McaRule,
                    MeasureSpec, Probe, Subgroup, WindowMeasure,
                    abelian_invariants,
                    bernoulli_fourier, central_split, cesaro_randomization,
                    decompose_mca, diffusion_report, dual_action,
                    enumerate_endomorphisms, fibre_rank_independence,
                    generated_subgroup, make_cyclic, make_direct_sum, make_frame,
                    push_forward, relative_diffusion_rank,
                    star_product_measure)
from mcalab import CapExceededError, measures, spectral
from mcalab.measures import StarLaw
from mcalab.rules import _plane_program, local_table, plane_step_ops
from mcalab.specs import load_experiment, parse_measure_pair, parse_probe
from mcalab.util import STATE_CAP

from conftest import drawn, traced_peak
from oracles import (_spec_words, characters_of, density, dual_action_oracle,
                     exact_horizon_oracle, fourier_coefficient, harmonic_mixing_profile, is_trivial,
                     point_mass, prob, sample_words_oracle)


def xor_rule():
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    return McaRule(G, 0, 1, [(0, ident), (1, ident)], one_sided=True)


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(params=["table", "planes"])
def route(request, monkeypatch):
    """Pin the Monte-Carlo kernel: no rule's planes cost at most -1 word
    operations, and every 2-group's cost at most infinitely many."""
    monkeypatch.setattr(spectral, "_GATHER_WORD_OPS",
                        -1 if request.param == "table" else math.inf)
    return request.param


def bern(p_num, p_den, size=2):
    head = Fraction(p_num, p_den)
    rest = (1 - head) / (size - 1)
    return MeasureSpec("bernoulli", size, probs=[head] + [rest] * (size - 1))


def test_character_count_matches_dual_group():
    G = make_cyclic(4)
    chars = list(characters_of(G, 0, 2))
    assert len(chars) == 4 ** 2
    assert sum(1 for c in chars if is_trivial(c)) == 1


def test_nontrivial_characters_vanish_on_haar():
    G = make_cyclic(4)
    uniform = WindowMeasure.uniform(4, 0, 2)
    for chi in characters_of(G, 0, 2):
        want = 1.0 if is_trivial(chi) else 0.0
        assert abs(fourier_coefficient(chi, uniform)) == pytest.approx(
            want, abs=1e-12)


def test_characters_have_modulus_one_on_point_masses():
    G = make_cyclic(3)
    m = point_mass(3, 0, [2, 1])
    for chi in characters_of(G, 0, 2):
        assert abs(fourier_coefficient(chi, m)) == pytest.approx(1.0, abs=1e-12)


def test_bernoulli_fourier_factorizes_the_window_sum():
    coords = abelian_invariants(make_cyclic(4))
    # the skewed law tells (1,) from (3,); cells 0 and 2 share a tuple
    skewed = MeasureSpec("bernoulli", 4, probs=[Fraction(1, 2), Fraction(1, 4),
                                                Fraction(1, 8), Fraction(1, 8)])
    for spec, supp in [(bern(5, 8, 4), {0: (1,), 1: (3,)}),
                       (skewed, {0: (1,), 1: (3,), 2: (1,)})]:
        chi = Character.make(coords, supp)
        direct = fourier_coefficient(chi, spec.window_measure(0, len(supp)))
        assert bernoulli_fourier(chi, spec.cell_distribution()) == pytest.approx(
            direct, abs=1e-14)


def test_bernoulli_fourier_refuses_a_law_over_another_alphabet():
    """A Z/4 character against a law over 2 or 8 symbols is refused, not
    paired with the first symbols or padded with zeros."""
    chi = Character.make(abelian_invariants(make_cyclic(4)), {0: (1,)})
    for size in (2, 8):
        with pytest.raises(McaLabError, match=f"cell law over {size} symbols"):
            bernoulli_fourier(chi, [Fraction(1, size)] * size)


def test_dual_action_satisfies_the_pairing_identity():
    G = make_cyclic(4)
    ident = GroupMap.identity(G)
    double = GroupMap(G, G, [G.power(x, 2) for x in G.elements()], True)
    rule = McaRule(G, 0, 1, [(0, ident), (1, double)])
    dual = LinearRuleDual.from_rule(rule)
    m = bern(3, 8, 4).window_measure(0, 3)
    pushed = push_forward(rule, m)
    coords = abelian_invariants(G)
    for supp in [{0: (1,)}, {1: (2,)}, {0: (3,), 1: (1,)}]:
        chi = Character.make(coords, supp)
        lhs = fourier_coefficient(chi, pushed)
        rhs = fourier_coefficient(dual_action(dual, chi), m)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_dual_action_rejects_a_matrix_that_is_not_integral():
    coords = abelian_invariants(make_direct_sum([2, 4]))
    assert coords.orders == (2, 4)
    # column 0 sends the order-2 generator to an element of order 4
    dual = LinearRuleDual(coords, ((0, ((1, 0), (1, 1))),), (0, 0))
    with pytest.raises(McaLabError, match="not integral"):
        dual_action(dual, Character.make(coords, {0: (0, 1)}))


def test_dual_action_rejects_a_character_of_another_group():
    dual = LinearRuleDual.from_rule(xor_rule())
    chi = Character.make(abelian_invariants(make_cyclic(4)), {0: (1,)})
    with pytest.raises(McaLabError, match="different invariants"):
        dual_action(dual, chi)


def test_character_construction_checks_its_support():
    with pytest.raises(McaLabError, match="duplicate support cell 0"):
        Character((4,), ((0, (1,)), (0, (2,))))
    with pytest.raises(McaLabError, match="wrong arity"):
        Character((4,), ((0, (1, 1)),))
    with pytest.raises(McaLabError, match="must be nonzero"):
        Character((4,), ((3, (8,)),))


def test_character_refuses_cells_and_coefficients_that_are_not_integers():
    # a float or bool cell would land on cell 1, and a float coefficient
    # would be truncated to 1
    for cell in (1.5, True):
        with pytest.raises(McaLabError, match=f"support cell {cell} is not an integer"):
            Character((2,), ((cell, (1,)),))
    for coeff in (1.5, True):
        with pytest.raises(McaLabError, match="are not all integers"):
            Character((4,), ((0, (coeff,)),))
    assert Character((4,), ((np.int64(3), (np.int64(3),)),)) == Character((4,), ((3, (3,)),))


def test_character_refuses_cells_outside_int64():
    coords = abelian_invariants(make_cyclic(2))
    for cell in (2 ** 63, -2 ** 63 - 1, 10 ** 20):
        with pytest.raises(McaLabError, match=f"support cell {cell} is outside int64"):
            Character((2,), ((0, (1,)), (cell, (1,))))
        with pytest.raises(McaLabError, match=f"support cell {cell} is outside int64"):
            Character.make(coords, {cell: (1,)})
    for cell in (2 ** 63 - 1, -2 ** 63):
        assert Character.make(coords, {cell: (1,)}).cells() == (cell,)


def test_dual_action_refuses_a_step_past_int64():
    Z2 = make_cyclic(2)
    coords = abelian_invariants(Z2)
    ident = GroupMap.identity(Z2)
    right = LinearRuleDual.from_rule(xor_rule())
    left = LinearRuleDual.from_rule(McaRule(Z2, -1, 0, [(-1, ident), (0, ident)]))
    top = Character.make(coords, {0: (1,), 2 ** 63 - 1: (1,)})
    bottom = Character.make(coords, {-2 ** 63: (1,), 5: (1,)})
    for dual, chi in ((right, top), (left, bottom)):
        with pytest.raises(McaLabError, match="outside int64"):
            dual_action(dual, chi)
    # each rule moves the other's extreme cell back toward zero
    assert dual_action(left, top).cells() == (-1, 0, 2 ** 63 - 2, 2 ** 63 - 1)
    assert dual_action(right, bottom).cells() == (-2 ** 63, -2 ** 63 + 1, 5, 6)


def test_dual_action_bounds_only_the_nonzero_image_rows():
    """Over Z/2⊕Z/4, position 2 with matrix ((0, 0), (2, 0)) sends the row
    (0, 1) to (1, 0) and (1, 0) to zero: a zero row may point past int64,
    as in the oracle, and a nonzero one is still refused."""
    G = make_direct_sum([2, 4])
    coords = abelian_invariants(G)
    shift = next(e for e in enumerate_endomorphisms(G)
                 if LinearRuleDual.from_rule(McaRule(G, 2, 2, [(2, e)])).matrices
                 == ((2, ((0, 0), (2, 0))),))
    top = 2 ** 63 - 3
    lone = LinearRuleDual.from_rule(McaRule(G, 2, 2, [(2, shift)]))
    chi = dual_action(lone, Character.make(coords, {top: (0, 1)}))
    assert chi.support == ((top + 2, (1, 0)),)
    assert dual_action(lone, chi) == dual_action_oracle(lone, chi) == Character.make(coords, {})
    # beside the identity at 0, the zero row at top + 4 is dropped, and a
    # nonzero one there is refused, where the oracle cannot hold its cell
    pair = LinearRuleDual.from_rule(McaRule(G, 0, 2, [(0, GroupMap.identity(G)),
                                                      (2, shift)]))
    assert dual_action(pair, chi) == dual_action_oracle(pair, chi) == chi
    far = Character.make(coords, {top + 2: (0, 1)})
    with pytest.raises(McaLabError, match=f"dual step moves support to cells "
                                          f"{top + 2}..{top + 4}, outside int64"):
        dual_action(pair, far)
    with pytest.raises(McaLabError, match=f"support cell {top + 4} is outside int64"):
        dual_action_oracle(pair, far)


def test_tuple_built_characters_equal_their_make_twins():
    """The constructor reduces and sorts its tuples: unsorted, unreduced and
    past-int64 input gives the character ``make`` builds from the reduced
    dict, and 30 dual steps from each agree to the last bit."""
    G = make_direct_sum([2, 4])
    coords = abelian_invariants(G)
    ident = GroupMap.identity(G)
    rule = McaRule(G, -1, 1, [(-1, ident), (0, ident), (1, ident), (1, ident)],
                   coords.index_of[(1, 3)])
    dual = LinearRuleDual.from_rule(rule)
    phase = complex(0.6, -0.0)
    built = Character(coords.orders, ((7, (2 ** 70 + 1, -1)), (-3, (5, 2 ** 66 + 2)),
                                      (2, (-4, 6))), phase, coords)
    twin = Character.make(coords, {7: (1, 3), -3: (1, 2), 2: (0, 2)}, phase)
    assert built == twin and hash(built) == hash(twin)
    assert built.support == twin.support == ((-3, (1, 2)), (2, (0, 2)), (7, (1, 3)))
    assert repr(built) == repr(twin)
    for _ in range(30):
        built, twin = dual_action(dual, built), dual_action(dual, twin)
        assert built == twin
        assert repr(built) == repr(twin)  # the phase bits too


def test_tuple_built_characters_step_without_the_support_view(monkeypatch):
    """A character built from tuples already holds coefficient rows, so a
    dual chain from it never reads ``support``."""
    rule = xor_rule()
    coords = abelian_invariants(rule.group)
    dual = LinearRuleDual.from_rule(rule)
    want = diffusion_report(dual, Character.make(coords, {0: (1,), 3: (1,)}), 30)

    def refuse(self):
        raise AssertionError("support read")

    chi = Character((2,), ((3, (1,)), (0, (3,))), 1.0 + 0j, coords)
    monkeypatch.setattr(Character, "support", property(refuse))
    assert diffusion_report(dual, chi, 30).ranks == want.ranks
    with pytest.raises(AssertionError, match="support read"):
        chi.support


def test_dual_chains_call_the_module_level_dual_action_once_per_step(
        monkeypatch):
    """perfbench's tracer times the dual chain by wrapping this one name.

    A rule outside the Frobenius hypothesis (over Z/4) calls it once per
    image.  xor over Z/2 reads every rank off the digits of j from one
    digit-automaton state, whose digit-1 edge is its one call, and gets the
    chain's ranks."""
    calls = []
    step = spectral.dual_action

    def counted(dual, chi):
        calls.append(chi.rank)
        return step(dual, chi)

    monkeypatch.setattr(spectral, "dual_action", counted)
    Z4 = make_cyclic(4)
    ident = GroupMap.identity(Z4)
    z4 = LinearRuleDual.from_rule(McaRule(Z4, 0, 1, [(0, ident), (1, ident)]))
    diffusion_report(z4, Character.make(abelian_invariants(Z4), {0: (1,)}), 64)
    assert len(calls) == 64
    calls.clear()
    rule = xor_rule()
    dual = LinearRuleDual.from_rule(rule)
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    ranks = diffusion_report(dual, chi, 64).ranks
    assert len(calls) == 1
    assert ranks == [c.rank for c in spectral._orbit(dual, chi, 64)]
    calls.clear()
    report = cesaro_randomization(rule, bern(9, 10), 8, [Probe("x", chi)])
    assert len(calls) == 8
    assert [r.n for r in report.probe_rows] == list(range(9))


def test_xor_rank_series_to_4096_stays_small():
    """The digit automaton keeps one row of ranks per state, and only the
    columns a later pass reads: 16 MiB bounds the traced peak."""
    rule = xor_rule()
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    dual = LinearRuleDual.from_rule(rule)
    report, peak = traced_peak(diffusion_report, dual, chi, 4096)
    assert report.ranks[4095] == 2 ** 12
    assert peak <= 16 * 2 ** 20


def test_diffusion_ranks_never_build_support_tuples(monkeypatch):
    """The dual chain steps coefficient rows and ``rank`` reads their
    length, so 4096 xor steps run with the tuple view unavailable."""
    def refuse(cells, coeffs):
        raise AssertionError("support tuple built")

    monkeypatch.setattr(spectral, "_support_tuple", refuse)
    rule = xor_rule()
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    report = diffusion_report(LinearRuleDual.from_rule(rule), chi, 4096)
    assert report.densities[10] == 3797 / 4096
    with pytest.raises(AssertionError, match="support tuple built"):
        dual_action(LinearRuleDual.from_rule(rule), chi).support


@pytest.mark.parametrize("j_max", [0, 1, 300])
def test_density_trail_matches_density_at_every_mark(j_max):
    """The one-pass counts give the bits the ``density`` oracle does."""
    rule = xor_rule()
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    report = diffusion_report(LinearRuleDual.from_rule(rule), chi, j_max,
                              thresholds=(0, 2, 4, 10))
    for r in report.thresholds:
        assert repr(report.densities[r]) == repr(density(report, r))
        assert [m for m, _ in report.density_trail[r]] == spectral._doubling(j_max)
        for m, value in report.density_trail[r]:
            assert repr(value) == repr(density(report, r, m))


def test_diffusion_report_refuses_a_negative_horizon():
    rule = xor_rule()
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    for j_max in (-1, -3):
        with pytest.raises(McaLabError,
                           match=rf"j_max {j_max} is negative; need 0 <= j_max"):
            diffusion_report(LinearRuleDual.from_rule(rule), chi, j_max)


def test_relative_diffusion_rank_refuses_a_negative_horizon(quat_rule4,
                                                            q8_center_frame):
    split = central_split(quat_rule4, q8_center_frame)
    dec = decompose_mca(quat_rule4, q8_center_frame)
    alpha = Character.make(abelian_invariants(q8_center_frame.a_group), {0: (1,)})
    for j in (-1, -3):
        with pytest.raises(McaLabError, match=rf"j {j} is negative; need 0 <= j"):
            relative_diffusion_rank(split, alpha, j)
        with pytest.raises(McaLabError, match=rf"j {j} is negative; need 0 <= j"):
            fibre_rank_independence(dec, split, alpha, j)


def test_cesaro_randomization_refuses_a_negative_horizon():
    chi = Character.make(abelian_invariants(xor_rule().group), {0: (1,)})
    for n_max in (-1, -2):
        with pytest.raises(McaLabError,
                           match=rf"n_max {n_max} is negative; need 0 <= n_max"):
            cesaro_randomization(xor_rule(), bern(9, 10), n_max, [Probe("x", chi)])


def test_exact_horizon_matches_the_check_cap_scan():
    """``n_exact`` comes from one count of the cells that fit the cap, not
    a ``check_cap`` per n; it is what the scan finds wherever the output
    window fits, which ``cesaro_randomization`` checks first."""
    caps = (1, 2, 3, 7, 8, 9, 63, 64, 65, 400, 4096, 65536, 10 ** 5, 10 ** 7 - 1, 10 ** 7)
    for order, width, spread, cap in itertools.product((1, 2, 5, 8, 20), (1, 2, 3, 5),
                                                      (0, 1, 3), caps):
        for n_max in (0, 1, 2, 9, 40, 300):
            want = exact_horizon_oracle(order, width, spread, n_max, cap)
            if want >= 0:
                assert spectral._exact_horizon(order, width, spread, n_max, cap) == want, (
                    order, width, spread, n_max, cap)


def test_density_refuses_a_horizon_outside_the_report():
    rule = xor_rule()
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    report = diffusion_report(LinearRuleDual.from_rule(rule), chi, 16)
    assert density(report, 2, 16) == density(report, 2)
    assert density(report, 2, 0) == 0.0
    for j_up in (17, -3):
        with pytest.raises(McaLabError, match=rf"j_up {j_up} outside 0\.\.16"):
            density(report, 2, j_up)


def digit_sum(j):
    return bin(j).count("1")


def test_binary_rank_growth_follows_binomial_parity():
    rule = xor_rule()
    dual = LinearRuleDual.from_rule(rule)
    coords = abelian_invariants(rule.group)
    report = diffusion_report(dual, Character.make(coords, {0: (1,)}), 64)
    for j, rank in enumerate(report.ranks):
        assert rank == 2 ** digit_sum(j)


def test_rank_density_at_desk_scale():
    # the fraction of 1 <= j <= 512 with rank > 10 sits below 3/4 + eps;
    # density one is an asymptotic statement, not a finite-j one
    rule = xor_rule()
    dual = LinearRuleDual.from_rule(rule)
    coords = abelian_invariants(rule.group)
    report = diffusion_report(dual, Character.make(coords, {0: (1,)}), 512,
                              thresholds=(10,))
    assert report.densities[10] == pytest.approx(0.74609375, abs=1e-12)
    # the doubling trail is non-decreasing from 32 onwards
    trail = [d for _, d in report.density_trail[10]]
    assert trail == sorted(trail[:1] + trail[1:])  # sanity: recorded at all
    assert report.ranks[511] == 2 ** 9


@pytest.mark.parametrize("j_max, points", [
    (0, []), (1, [1]), (7, [1, 2, 4, 7]), (64, [1, 2, 4, 8, 16, 32, 64]),
    (100, [1, 2, 4, 8, 16, 32, 64, 100])])
def test_density_trail_doubles_then_ends_at_j_max(j_max, points):
    rule = xor_rule()
    dual = LinearRuleDual.from_rule(rule)
    chi = Character.make(abelian_invariants(rule.group), {0: (1,)})
    report = diffusion_report(dual, chi, j_max, thresholds=(2, 4))
    for r in (2, 4):
        assert report.density_trail[r] == [(m, density(report, r, m))
                                           for m in points]


def test_relative_diffusion_ranks_on_the_central_split(quat_rule4,
                                                       q8_center_frame):
    split = central_split(quat_rule4, q8_center_frame)
    coords = abelian_invariants(q8_center_frame.a_group)
    alpha = Character.make(coords, {0: (1,)})
    ranks = [relative_diffusion_rank(split, alpha, j) for j in range(3)]
    assert ranks == [1, 4, 4]


def test_relative_diffusion_rank_reads_the_rank_series(
        monkeypatch, quat_rule4, q8_center_frame):
    """The centre of Q8 is Z/2, so the linear rule's ranks come off the
    digits of j: j = 100 takes one ``dual_action`` call for each of the
    three digit-automaton states, and gets the chain's rank."""
    split = central_split(quat_rule4, q8_center_frame)
    alpha = Character.make(abelian_invariants(q8_center_frame.a_group), {0: (1,)})
    dual = LinearRuleDual.from_rule(split.lin_rule)
    want = [c.rank for c in spectral._orbit(dual, alpha, 100)][-1]
    calls = []
    step = spectral.dual_action
    monkeypatch.setattr(spectral, "dual_action",
                        lambda dual, chi: calls.append(chi) or step(dual, chi))
    assert relative_diffusion_rank(split, alpha, 100) == want
    assert len(calls) == 3


def test_fibre_ranks_are_independent_of_the_base_word(quat_rule4,
                                                      q8_center_frame):
    split = central_split(quat_rule4, q8_center_frame)
    dec = decompose_mca(quat_rule4, q8_center_frame)
    coords = abelian_invariants(q8_center_frame.a_group)
    alpha = Character.make(coords, {0: (1,)})
    check = fibre_rank_independence(dec, split, alpha, 1)
    assert check.all_equal
    assert check.ranks_seen == (4,)
    assert check.rank == check.linear_rank == 4


def test_mixing_profile_of_a_biased_coin():
    profile = harmonic_mixing_profile(bern(9, 10), 3)
    assert profile == pytest.approx([1.0, 0.8, 0.64, 0.512], abs=1e-12)


def test_point_mass_profile_never_decays():
    spec = MeasureSpec("bernoulli", 2, probs=[Fraction(1), Fraction(0)])
    assert harmonic_mixing_profile(spec, 4) == pytest.approx([1.0] * 5)


def test_markov_profile_decays_for_a_mixing_chain():
    # decay is in the large-rank trend, not cell by cell: adjacent support
    # cells can correlate harder than one cell deviates on its own
    spec = MeasureSpec(
        "markov", 2,
        transition=[[Fraction(1, 2), Fraction(1, 2)],
                    [Fraction(3, 4), Fraction(1, 4)]],
        initial=[Fraction(3, 5), Fraction(2, 5)])
    profile = harmonic_mixing_profile(spec, 4)
    assert profile[0] == 1.0
    assert all(0 < v < 1 for v in profile[1:])
    assert profile[1] == pytest.approx(0.2, abs=1e-12)
    assert profile[4] < profile[1] / 4


def assert_running_means(rows, value, mean):
    """Rows n = 0, 1, …: each ``mean`` is the plain mean of ``value`` over 0..n."""
    values = [getattr(r, value) for r in rows]
    for k, row in enumerate(rows):
        assert row.n == k
        assert getattr(row, mean) == sum(values[:k + 1]) / (k + 1)


def test_cesaro_from_haar_stays_at_haar():
    rule = xor_rule()
    coords = abelian_invariants(rule.group)
    probe = Probe("x", Character.make(coords, {0: (1,)}))
    report = cesaro_randomization(rule, MeasureSpec("uniform", 2), 8, [probe])
    assert all(r.coef_abs == pytest.approx(0.0, abs=1e-14)
               for r in report.probe_rows)
    assert all(r.tv_distance == 0.0 for r in report.tv_rows)


def test_cesaro_rejects_an_empty_tv_window():
    rule = xor_rule()
    probe = Probe("x", Character.make(abelian_invariants(rule.group), {0: (1,)}))
    for probes in ((), (probe,)):
        with pytest.raises(McaLabError, match="tv_cells"):
            cesaro_randomization(rule, MeasureSpec("uniform", 2), 3, probes,
                                 tv_cells=0)


def test_fast_dual_rows_match_push_forward_pairing():
    rule = xor_rule()
    spec = bern(9, 10)
    coords = abelian_invariants(rule.group)
    probe = Probe("x", Character.make(coords, {0: (1,)}))
    report = cesaro_randomization(rule, spec, 6, [probe])
    assert report.n_exact == 6
    assert all(r.mode == "exact" and r.samples == 0 for r in report.probe_rows)
    chi = probe.alpha
    for row in report.probe_rows:
        # independent chain: push the window measure forward row.n times
        m = spec.window_measure(0, 1 + row.n)
        for _ in range(row.n):
            m = push_forward(rule, m)
        assert row.coef_abs == pytest.approx(
            abs(fourier_coefficient(chi, m)), abs=1e-12)
        # closed form from binomial parity
        assert row.coef_abs == pytest.approx(
            0.8 ** (2 ** digit_sum(row.n)), abs=1e-12)
        # single-cell total variation is half the coefficient here
        assert report.tv_rows[row.n].tv_distance == pytest.approx(
            row.coef_abs / 2, abs=1e-12)
    assert_running_means(report.probe_rows, "coef_abs", "cesaro_mean")
    assert_running_means(report.tv_rows, "tv_distance", "cesaro_tv")


def test_cesaro_warns_on_shared_exponent_factor():
    G = make_cyclic(4)
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 1, [(0, ident), (1, ident), (1, ident)])
    with pytest.warns(UserWarning, match="shares a factor"):
        report = cesaro_randomization(rule, MeasureSpec("uniform", 4), 2)
    assert report.coprimality_ok is False


def test_monte_carlo_rows_are_reproducible(quat_rule3, q8_center_frame):
    coords = abelian_invariants(q8_center_frame.a_group)
    probe = Probe("a", Character.make(coords, {0: (1,)}))
    spec = MeasureSpec("bernoulli", 8,
                       probs=[Fraction(3, 16)] * 4 + [Fraction(1, 16)] * 4)
    samples = (1 << 14) + 1500          # two chunks, the second one partial
    kw = dict(probes=[probe], frame=q8_center_frame, cap_states=8 ** 4,
              mc_samples=samples, seed=11)
    first = cesaro_randomization(quat_rule3, spec, 4, **kw)
    second = cesaro_randomization(quat_rule3, spec, 4, **kw)
    threaded = cesaro_randomization(quat_rule3, spec, 4, workers=2, **kw)
    assert first.n_exact == 1
    assert first.probe_rows == second.probe_rows == threaded.probe_rows
    assert first.tv_rows == second.tv_rows == threaded.tv_rows
    modes = {r.n: r.mode for r in first.probe_rows}
    assert modes[0] == modes[1] == "exact"
    assert modes[2] == modes[4] == "mc"
    assert all(r.samples == samples for r in first.probe_rows if r.mode == "mc")


@pytest.mark.parametrize("budget", [1, 10 ** 9])
@pytest.mark.parametrize("kernel", ["table", "planes"])
def test_monte_carlo_rows_ignore_row_blocks_and_threads(
        monkeypatch, quat_rule3, quat_rule4, q8_center_frame, budget, kernel):
    """On the table kernel a block budget of 1 evolves one row per block,
    10**9 one block per chunk; the plane kernel steps one chain per chunk
    whatever the budget, so its cases vary the threads alone.  On either
    kernel, serial or threaded, the rows are the table kernel's at the
    default budget.  The last run's frame, Q8 over <j>, maps star codes to
    B through an AND on the plane kernel."""
    frame = q8_center_frame
    A, C = frame.a_group, frame.C
    alpha = Character.make(abelian_invariants(A), {0: (1,)})
    spec = MeasureSpec("bernoulli", 8,
                       probs=[Fraction(3, 16)] * 4 + [Fraction(1, 16)] * 4)
    both = Probe("s", alpha, Character.make(abelian_invariants(C), {0: (1, 0)}))
    over_j = make_frame(quat_rule4.group, generated_subgroup(quat_rule4.group, [4]))
    both_j = Probe("j", *(Character.make(abelian_invariants(G), {0: (1,)})
                          for G in (over_j.a_group, over_j.C)))
    runs = [  # the two-chunk Q8 case above, then (λ, ν) pairs on two frames
        (quat_rule3, spec, dict(probes=[Probe("a", alpha)], cap_states=8 ** 4,
                                mc_samples=(1 << 14) + 1500, seed=11, frame=frame)),
        (quat_rule4, (bern(7, 10), bern(4, 10, size=4)),
         dict(probes=[both], cap_states=8 ** 4, mc_samples=3000, seed=5, frame=frame)),
        (quat_rule4, (bern(7, 10, size=4), bern(4, 10)),
         dict(probes=[both_j], cap_states=8 ** 4, mc_samples=(1 << 14) + 1500,
              seed=7, frame=over_j))]
    # n_max 2: one Monte-Carlo checkpoint keeps the one-row blocks quick
    monkeypatch.setattr(spectral, "_GATHER_WORD_OPS", -1)
    want = [cesaro_randomization(rule, init, 2, **kw) for rule, init, kw in runs]
    monkeypatch.setattr(spectral, "_GATHER_WORD_OPS",
                        -1 if kernel == "table" else math.inf)
    monkeypatch.setattr(spectral, "_CHUNK", budget)
    for (rule, init, kw), ref in zip(runs, want):
        assert spectral._mc_kernel(rule, STATE_CAP).__name__ == {
            "table": "step_cells", "planes": "step_planes"}[kernel]
        assert any(r.mode == "mc" for r in ref.probe_rows)
        for workers in (1, 2):
            got = cesaro_randomization(rule, init, 2, workers=workers, **kw)
            assert got.probe_rows == ref.probe_rows
            assert got.tv_rows == ref.tv_rows


def test_monte_carlo_steps_feed_each_output_back_uncast(monkeypatch, quat_rule4,
                                                       q8_center_frame):
    """Past a chain's first step, ``step_cells`` gets its own output back:
    C-contiguous cell planes in the code dtype, so no step casts or copies."""
    monkeypatch.setattr(spectral, "_GATHER_WORD_OPS", -1)   # the table kernel
    step_cells, chains, last = spectral.step_cells, [], [None]

    def spy(rule, cells, *args):
        if cells is last[0]:
            assert np.ascontiguousarray(cells, dtype=np.int16) is cells
            chains[-1].append(len(cells))
        else:
            chains.append([len(cells)])
        last[0] = step_cells(rule, cells, *args)
        return last[0]

    monkeypatch.setattr(spectral, "step_cells", spy)
    lam, nu = bern(7, 10), bern(4, 10, size=4)
    report = cesaro_randomization(quat_rule4, (lam, nu), 16,
                                  frame=q8_center_frame, cap_states=4096,
                                  mc_samples=3000, seed=2026)
    assert report.n_exact == 1
    # one chain of n steps per block, whose axis 0 holds the 1 + 3n input
    # cells and shrinks by the spread 3 each step; several blocks at n = 16
    for chain in chains:
        assert chain == [1 + 3 * n for n in range(len(chain), 0, -1)]
    lengths = [len(chain) for chain in chains]
    assert set(lengths) == {2, 4, 8, 16} and lengths.count(16) > 1


def test_monte_carlo_plane_steps_feed_each_output_back_uncast(
        monkeypatch, quat_rule4, q8_center_frame):
    """On the plane kernel each chunk is one chain of n ``step_planes``
    calls, and past its first each gets the previous planes back: uint64,
    C-contiguous, uncast and uncopied.  No table step runs."""
    step_planes, chains, last = spectral.step_planes, [], [None]

    def spy(rule, planes, *args):
        if planes is last[0]:
            assert np.ascontiguousarray(planes, dtype=np.uint64) is planes
            chains[-1].append(planes.shape[1])
        else:
            chains.append([planes.shape[1]])
        last[0] = step_planes(rule, planes, *args)
        return last[0]

    def no_table_step(*args):
        pytest.fail("a table step ran on the plane kernel")

    monkeypatch.setattr(spectral, "step_planes", spy)
    monkeypatch.setattr(spectral, "step_cells", no_table_step)
    lam, nu = bern(7, 10), bern(4, 10, size=4)
    report = cesaro_randomization(quat_rule4, (lam, nu), 16,
                                  frame=q8_center_frame, cap_states=4096,
                                  mc_samples=(1 << 14) + 1500, seed=2026)
    assert report.n_exact == 1
    # axis 1 holds the 1 + 3n input cells and shrinks by the spread 3;
    # each of the two chunks is one chain at every checkpoint
    for chain in chains:
        assert chain == [1 + 3 * n for n in range(len(chain), 0, -1)]
    assert [len(chain) for chain in chains] == [2, 2, 4, 4, 8, 8, 16, 16]


def test_monte_carlo_table_blocks_step_in_one_workspace(monkeypatch, z20_frame, x1_rule):
    """On the table kernel a chunk makes its step buffers once, for its first
    step: at n = 64 the loop's traced peak is one workspace of that shape
    (the block's cell count is fixed by ``_CHUNK``, whatever n), and the
    later blocks, the last and shorter one included, allocate no block."""
    n, marks, calls = 64, {}, []
    buffers, step = spectral.step_buffers, spectral.step_cells

    def watched_buffers(*args):
        marks["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return buffers(*args)

    def watched_step(rule, cells, *args):
        calls.append(len(cells))
        if len(calls) == n + 1:   # the second block's first step
            marks["first"] = tracemalloc.get_traced_memory()[1] - marks["start"]
            marks["later"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        out = step(rule, cells, *args)
        if "later" in marks:
            marks["growth"] = tracemalloc.get_traced_memory()[1] - marks["later"]
        return out

    monkeypatch.setattr(spectral, "step_buffers", watched_buffers)
    monkeypatch.setattr(spectral, "step_cells", watched_step)
    laws = (MeasureSpec("uniform", 5),
            MeasureSpec("bernoulli", 4, probs=[Fraction(1, 2), Fraction(1, 4),
                                               Fraction(1, 8), Fraction(1, 8)]))
    report, _ = traced_peak(cesaro_randomization, x1_rule, laws, n, frame=z20_frame,
                            cap_states=20 ** 3, mc_samples=4000, seed=3,
                            mc_checkpoints=[n])
    assert report.tv_rows[-1].mode == "mc"
    # 129 input cells: 508 rows a block, so 7 full blocks and one of 444
    rows = spectral._CHUNK // (1 + 2 * n)
    assert len(calls) == n * 8 and calls[:n] == [1 + 2 * (n - t) for t in range(n)]
    # two code buffers and two outputs at 2 B a cell, the index at 8 B and
    # the input planes at 2 B: under 18 B per block cell
    assert marks["first"] <= 18 * (1 + 2 * n) * rows + (64 << 10)
    # casting copies of the input keep at most a few ufunc buffers; one
    # block's step buffers alone come to over 1 MB
    assert marks["growth"] < 64 << 10


def test_monte_carlo_refuses_a_rule_over_the_cap_before_sampling(
        monkeypatch, route, quat_rule4, q8_center_frame):
    """Caps are honoured on both kernels, with the rule's table and plane
    program already cached under the default cap."""
    local_table(quat_rule4)
    _plane_program(quat_rule4)

    def no_sampling(*args):
        pytest.fail("words were sampled past the cap")

    monkeypatch.setattr(MeasureSpec, "draws", no_sampling)
    monkeypatch.setattr(StarLaw, "draws", no_sampling)
    for init, frame in ((MeasureSpec("uniform", 8), None),
                        ((bern(1, 2, size=2), bern(1, 4, size=4)), q8_center_frame)):
        with pytest.raises(CapExceededError, match="local rule table: 4096 states"):
            cesaro_randomization(quat_rule4, init, 4, frame=frame,
                                 cap_states=8 ** 4 - 1, mc_samples=100, seed=1)


def test_randomization_refuses_a_decomposition_of_another_rule_or_frame(
        quat_rule3, quat_rule4):
    """ν drives the quotient rule of ``dec``, so ``dec`` must split ``rule``
    through ``frame``: Q8's split over <i> beside the frame over <j> (both
    quotients of order 2), or beside another rule, is refused."""
    q8 = quat_rule4.group
    over_i, over_j = (make_frame(q8, generated_subgroup(q8, [g])) for g in (2, 4))
    dec = decompose_mca(quat_rule4, over_i)
    for rule, frame in ((quat_rule4, over_j), (quat_rule3, over_i)):
        with pytest.raises(McaLabError, match="not a decomposition of the rule"):
            cesaro_randomization(rule, (bern(7, 10, size=4), bern(4, 10)), 2,
                                 frame=frame, dec=dec)


def test_metacyclic_exact_chain_holds_one_weight_vector():
    """The metacyclic demo's exact chain, probes and all, on its widest
    window of 20^5 words: its law over 40^5 is stored in int32, and the
    whole chain peaks at 1.25 times that vector."""
    cfg = load_experiment(str(ROOT / "demos" / "configs" / "randomize_metacyclic.json"))
    dec = decompose_mca(cfg.rule, cfg.frame)
    A, C = cfg.frame.a_group, dec.h_rule.group
    init = parse_measure_pair(cfg.param("measures"), A.order, C.order)
    probes = [parse_probe(p, "probes", A, C) for p in cfg.param("probes")]
    report, peak = traced_peak(cesaro_randomization, cfg.rule, init,
                               cfg.param("n_max"), probes=probes,
                               frame=cfg.frame, dec=dec)
    assert report.n_exact == 2   # 1 + 2·2 = 5 input cells
    assert peak <= 1.25 * 20 ** 5 * np.dtype(np.int32).itemsize


# the kernel the cost rule picks for each config that ``randomize`` reads
# (the only command with probes): a silent fall-back fails here
MC_KERNELS = {
    "demos/configs/randomize_metacyclic.json": "step_cells",   # Z/5 x| Z/4
    "demos/configs/randomize_xor.json": "step_planes",         # Z/2
    "perfbench/configs/skew_mc.json": "step_planes",           # Q8
}


def test_each_randomize_config_steps_on_the_kernel_the_cost_rule_names():
    found = {str(path.relative_to(ROOT))
             for folder in ("demos/configs", "perfbench/configs")
             for path in (ROOT / folder).glob("*.json")
             if "probes" in json.loads(path.read_text())}
    assert found == set(MC_KERNELS)
    for path, kernel in MC_KERNELS.items():
        cfg = load_experiment(str(ROOT / path))
        cap = cfg.param("cap_states", STATE_CAP)
        assert spectral._mc_kernel(cfg.rule, cap).__name__ == kernel


def test_plane_programs_share_xor_sums():
    """The word operations of a bit-sliced step on each plane-kernel
    config: sharing XOR sums across output bits and cell shifts takes the
    Q8 rule from 42 (one AND chain per monomial) to 24, and the Z/2 xor
    rule is one XOR."""
    ops = {path: plane_step_ops(load_experiment(str(ROOT / path)).rule)
           for path, kernel in MC_KERNELS.items() if kernel == "step_planes"}
    assert ops == {"demos/configs/randomize_xor.json": 1,
                   "perfbench/configs/skew_mc.json": 24}


def test_sampled_words_are_the_draws_of_generator_choice(q8_center_frame):
    count, length = 300, 7

    def choice(rng, spec, count=count):
        p = np.asarray([float(x) for x in spec.probs])
        flat = rng.choice(spec.size, size=count * length, p=p / p.sum())
        return flat.reshape(count, length)

    laws = {2: [1, 3], 4: [0, 2, 1, 0], 8: [3] * 4 + [1] * 4,
            20: [0, 1, 2, 3, 0] * 4}
    for size, weights in laws.items():
        spec = MeasureSpec("bernoulli", size,
                           probs=[Fraction(w, sum(weights)) for w in weights])
        got = drawn(spec, np.random.default_rng(3), count, length)
        assert got.dtype == np.uint8
        assert np.array_equal(got, choice(np.random.default_rng(3), spec))
    # more draws than one piece of the draw buffer holds
    many = 2 * measures._DRAW_PIECE // length + 5
    got = drawn(spec, np.random.default_rng(4), many, length)
    assert np.array_equal(got, choice(np.random.default_rng(4), spec, many))
    # Markov chains, column by column: one with a zero transition entry,
    # one of a single symbol, and one past a piece of the draw buffer
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    chains = [(MeasureSpec("markov", 3, transition=[[half, 0, half], [third] * 3,
                                                    [quarter, quarter, half]],
                           initial=[Fraction(6, 17), Fraction(3, 17), Fraction(8, 17)]),
               count),
              (MeasureSpec("markov", 1, transition=[[1]], initial=[1]), count),
              (MeasureSpec("markov", 2, transition=[[quarter, 3 * quarter], [half, half]],
                           initial=[Fraction(2, 5), Fraction(3, 5)]), many)]
    for spec, rows in chains:
        got = drawn(spec, np.random.default_rng(7), rows, length)
        assert np.array_equal(got, _spec_words(spec, np.random.default_rng(7), rows,
                                               length))
    fr = q8_center_frame
    lam, nu = bern(7, 10), bern(4, 10, size=4)
    got = drawn(StarLaw(fr, lam, nu), np.random.default_rng(5), count, length)
    rng = np.random.default_rng(5)
    a, c = choice(rng, lam), choice(rng, nu)
    assert got.dtype == np.uint8
    assert np.array_equal(got, fr.b_of[a, c])
    # λ on a trivial A is a one-symbol law: it draws, but writes no edge
    q8 = fr.B
    whole = make_frame(q8, Subgroup(q8, [0]))
    got = drawn(StarLaw(whole, MeasureSpec("uniform", 1), bern(4, 10, size=8)),
                np.random.default_rng(6), count, length)
    rng = np.random.default_rng(6)
    a, c = choice(rng, MeasureSpec("uniform", 1)), choice(rng, bern(4, 10, size=8))
    assert not a.any()
    assert np.array_equal(got, whole.b_of[a, c])


def test_star_word_sampling_holds_two_cell_arrays(q8_center_frame):
    # one Monte-Carlo chunk of the skew_mc run: λ's words and the output
    # are the only chunk-sized arrays; the ν draws and the (a, c) -> b
    # index live in fixed piece buffers
    fr, count, length = q8_center_frame, 1 << 14, 193
    words, peak = traced_peak(drawn, StarLaw(fr, bern(7, 10), bern(4, 10, size=4)),
                              np.random.default_rng(0), count, length)
    assert words.shape == (count, length)
    assert peak <= 2 * words.size + 2 * 2 ** 20


def test_star_code_sampling_holds_two_cell_arrays(q8_center_frame):
    # the plane kernel's chunk of the skew_mc run: star codes under the same
    # bound, λ's words and the output the only chunk-sized arrays; the codes
    # carry to the draws' B letters through b_of
    fr, count, length = q8_center_frame, 1 << 14, 193
    law = StarLaw(fr, bern(7, 10), bern(4, 10, size=4))

    def coded():
        codes = np.empty((count, length), dtype=np.uint8)
        for _ in law.codes(np.random.default_rng(0), codes):
            pass
        return codes

    codes, peak = traced_peak(coded)
    assert codes.shape == (count, length)
    assert peak <= 2 * codes.size + 2 * 2 ** 20
    assert np.array_equal(np.asarray(fr.b_of).ravel()[codes],
                          drawn(law, np.random.default_rng(0), count, length))


def test_star_codes_fit_when_c_has_256_elements():
    """Over the trivial subgroup of Z/256, |C| = 256 does not fit the uint8
    cells; the codes are formed in a dtype that holds it, and still give the
    streamed oracle's words over every frame of Z/256 tried."""
    G = make_cyclic(256)
    for members in ([0], [0, 128], range(0, 256, 2), range(256)):
        fr = make_frame(G, Subgroup(G, list(members)))
        pair = (MeasureSpec("uniform", fr.a_group.order), MeasureSpec("uniform", fr.C.order))
        law = StarLaw(fr, *pair)
        codes = np.empty((300, 7), dtype=np.uint8)
        for _ in law.codes(np.random.default_rng(3), codes):
            pass
        want = sample_words_oracle(pair, fr, np.random.default_rng(3), 300, 7)
        assert np.array_equal(np.asarray(fr.b_of).ravel()[codes], want)
        assert np.array_equal(drawn(law, np.random.default_rng(3), 300, 7), want)


def test_markov_monte_carlo_tv_matches_the_stationary_law():
    # the shift keeps a stationary chain, so every TV row is ½·Σ|π_i − ½|
    Z2 = make_cyclic(2)
    shift = McaRule(Z2, 0, 1, [(1, GroupMap.identity(Z2))])
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    spec = MeasureSpec("markov", 2, transition=[[half, half], [sixth, 5 * sixth]],
                       initial=[Fraction(1, 4), Fraction(3, 4)])
    kw = dict(cap_states=2 ** 3, mc_samples=4000, seed=5)
    first = cesaro_randomization(shift, spec, 16, **kw)
    second = cesaro_randomization(shift, spec, 16, **kw)
    mc = [r for r in first.tv_rows if r.mode == "mc"]
    assert [r.n for r in mc] == [4, 8, 16]
    for row in mc:
        assert abs(row.tv_distance - 0.25) <= 5 * row.stderr
    assert first.tv_rows == second.tv_rows


# The shift from a Markov start has no dual path; cap 2^3 ends the exact
# rows at n = 2, since the window has 1 + n cells.
@pytest.mark.parametrize("n_max, checkpoints, mc_ns", [
    (2, None, []), (16, None, [4, 8, 16]), (12, None, [4, 8, 12]),
    (12, [12, 3, 3, 40, 1, 2, 7, 7, 12], [3, 7, 12])])
def test_monte_carlo_rows_sit_at_the_checkpoints_past_the_exact_range(
        n_max, checkpoints, mc_ns):
    Z2 = make_cyclic(2)
    shift = McaRule(Z2, 0, 1, [(1, GroupMap.identity(Z2))])
    spec = MeasureSpec("markov", 2,
                       transition=[[Fraction(1, 2), Fraction(1, 2)],
                                   [Fraction(1, 6), Fraction(5, 6)]],
                       initial=[Fraction(1, 4), Fraction(3, 4)])
    probe = Probe("x", Character.make(abelian_invariants(Z2), {0: (1,)}))
    report = cesaro_randomization(shift, spec, n_max, [probe], cap_states=2 ** 3,
                                  mc_samples=64, mc_checkpoints=checkpoints,
                                  seed=3)
    assert report.n_exact == 2
    # one state under 2^(1 + 2·1) stops the exact rows at n = 1
    assert cesaro_randomization(shift, spec, n_max, [probe],
                                cap_states=2 ** 3 - 1).n_exact == 1
    for rows in (report.tv_rows, report.probe_rows):
        assert [r.n for r in rows if r.mode == "exact"] == [0, 1, 2]
        assert [r.n for r in rows if r.mode == "mc"] == mc_ns
    assert_running_means(report.probe_rows[:3], "coef_abs", "cesaro_mean")
    assert_running_means(report.tv_rows[:3], "tv_distance", "cesaro_tv")


def probe_pairing(probe, frame, group, m):
    """<probe, m> summed directly over the window words."""
    tabs, phase = probe.value_tables(group, frame)
    total = 0j
    for idx, w in enumerate(itertools.product(range(m.size),
                                              repeat=m.length)):
        p = prob(m, idx)
        if not p:
            continue
        val = phase
        for cell, tab in tabs.items():
            val *= tab[w[cell - m.lo]]
        total += complex(val) * float(p)
    return total


def test_product_probe_composes_fibre_and_base_decay(quat_rule4,
                                                     q8_center_frame):
    """Skew pushes of a product measure: the product probe's value decays
    toward the reference pairing against Haar-on-fibre x pushed base, which
    is exactly zero for a nontrivial fibre factor."""
    frame = q8_center_frame
    rule = quat_rule4
    A, C = frame.a_group, frame.C
    alpha = Character.make(abelian_invariants(A), {0: (1,)})
    phi = Character.make(abelian_invariants(C), {0: (1, 0)})
    beta = Probe("b", alpha, phi)
    lam = bern(7, 10)
    nu = MeasureSpec("bernoulli", 4, probs=[Fraction(4, 10), Fraction(3, 10),
                                            Fraction(2, 10), Fraction(1, 10)])
    haar_a = MeasureSpec("uniform", 2)
    gaps = []
    for j in range(3):
        lo, hi = j * rule.v_lo, 1 + j * rule.v_hi
        mu = star_product_measure(frame, lam.window_measure(lo, hi),
                                  nu.window_measure(lo, hi))
        ref = star_product_measure(frame, haar_a.window_measure(lo, hi),
                                   nu.window_measure(lo, hi))
        for _ in range(j):
            mu = push_forward(rule, mu)
            ref = push_forward(rule, ref)
        assert abs(probe_pairing(beta, frame, rule.group, ref)) < 1e-12
        gaps.append(abs(probe_pairing(beta, frame, rule.group, mu)))
    # j = 0 is the plain product of the two single-cell coefficients
    assert gaps[0] == pytest.approx(0.16, abs=1e-12)
    assert gaps[1] <= 0.01
    assert gaps[2] <= gaps[1]


def test_exact_probe_rows_pair_on_the_output_window():
    """A two-cell α⊗φ probe, which no dual path serves, on the metacyclic
    demo's rule and frame under Bernoulli halves: at every n ≤ n_exact the
    row read on the output window equals the sum over every word of the
    chain's pushed-forward star law, and the chain peaks no higher than the
    demo's own (1.25 times its 20^5 int32 weights)."""
    cfg = load_experiment(str(ROOT / "demos" / "configs" / "randomize_metacyclic.json"))
    frame, rule = cfg.frame, cfg.rule
    halves = [Fraction(1, 2 ** k) for k in (1, 2, 3, 4, 4)]
    laws = (MeasureSpec("bernoulli", 5, probs=halves),
            MeasureSpec("bernoulli", 4, probs=halves[:2] + [Fraction(1, 8)] * 2))
    alpha = Character.make(abelian_invariants(frame.a_group), {0: (1,)})
    phi = Character.make(abelian_invariants(frame.C), {1: (1,)})
    probe = Probe("s", alpha, phi)
    report, peak = traced_peak(cesaro_randomization, rule, laws, 8, [probe],
                               frame=frame, dec=decompose_mca(rule, frame))
    assert peak <= 1.25 * 20 ** 5 * np.dtype(np.int32).itemsize
    assert report.n_exact == 1   # 2 + 2·1 = 4 input cells
    assert [(r.n, r.mode) for r in report.probe_rows] == [(0, "exact"), (1, "exact")]
    m = StarLaw(frame, *laws).window_measure(0, 4)
    for row in report.probe_rows:
        assert row.coef_abs == pytest.approx(
            abs(probe_pairing(probe, frame, rule.group, m)), abs=1e-12)
        m = push_forward(rule, m)
