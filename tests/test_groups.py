"""Group layer: construction, series, quotients, endomorphism enumeration.

Oracles here are deliberately dumb: brute-force scans over all maps or all
elements, small enough to finish instantly, checked against the library's
cleverer implementations.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcalab import (FiniteGroup, GroupMap, McaRule, SizeLimitError, Subgroup,
                    TableInvalidError,
                    abelian_invariants, center, commutator_subgroup,
                    enumerate_automorphisms, enumerate_endomorphisms,
                    from_table, generated_subgroup, is_fully_characteristic,
                    is_nilpotent, make_cyclic, make_direct_sum,
                    make_quaternion, make_semidirect, nilpotent_tower, quotient,
                    serialize_group, upper_central_series)
from conftest import KNOWN_STRUCTURE, doubling_action, traced_peak
from oracles import (abelian_invariants_oracle, associativity_failures,
                     center_oracle, commutator_subgroup_oracle, is_abelian_oracle,
                     is_group_table, power_by_steps, upper_central_series_oracle)


def brute_endomorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All |G|^|G| maps, filtered by the homomorphism law. Tiny groups only."""
    out = []
    for images in itertools.product(range(G.order), repeat=G.order):
        if all(images[G.mul(x, y)] == G.mul(images[x], images[y])
               for x in range(G.order) for y in range(G.order)):
            out.append(images)
    return out


def test_cyclic_identity_is_index_zero():
    G = make_cyclic(6)
    assert G.identity_index == 0
    assert all(G.mul(0, x) == x for x in G.elements())


def test_cyclic_orders():
    G = make_cyclic(12)
    assert G.element_order(1) == 12
    assert G.element_order(4) == 3
    assert G.exponent() == 12


def test_cyclic_order_past_the_table_limit_is_refused():
    """Like a direct sum, Z/n builds an n × n table only up to order 4096."""
    for n in (4097, 10 ** 30):
        with pytest.raises(SizeLimitError, match="exceeds table limit"):
            make_cyclic(n)


def test_invalid_table_rejected():
    # constant table: not a Latin square
    with pytest.raises(TableInvalidError):
        from_table([[0, 0], [0, 0]])
    # Latin square that is not associative (order-5 quasigroup)
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(TableInvalidError):
        from_table(t)
    # entries out of range are refused before the identity is moved to 0,
    # so a -1 cannot wrap onto the last element
    for bad in (-1, 3):
        with pytest.raises(TableInvalidError, match=r"entry at \(0, 0\) is outside 0..2"):
            from_table([[bad, 0, 1], [0, 1, 2], [1, 2, 0]])
    # too few labels, whether or not the identity comes first
    for table in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        with pytest.raises(TableInvalidError, match="labels must be 2 distinct strings"):
            from_table(table, ["a"])


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    square = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield np.array(square)
            return
        r, c = cells[k]
        used = set(square[r][:c]) | {square[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                square[r][c] = v
                yield from fill(k + 1)
        square[r][c] = None

    return list(fill(0))


def test_validator_accepts_exactly_what_the_exhaustive_scan_accepts(q8, z20):
    """Light's test against all n**3 triples: every reduced Latin square of
    order at most 5 (13 groups among 63 loops), each of them times Z/2, and
    the fixture groups with and without their elements renamed.  In a
    product, element 1 = (e, 1) associates with everything, so a test that
    stopped after the first generator would pass every such loop.  A
    refused table names a triple on which it fails."""
    squares = [reduced_latin_squares(n) for n in range(1, 6)]
    assert [len(s) for s in squares] == [1, 1, 1, 4, 56]
    tables = [t for s in squares for t in s]
    z2 = make_cyclic(2).table
    tables += [(t[:, None, :, None] * 2 + z2[None, :, None, :]).reshape(2 * len(t), -1)
               for t in tables]
    rng = np.random.default_rng(0)
    for G in (q8, z20, make_direct_sum([2, 4])):
        perm = rng.permutation(G.order)        # the identity moves off index 0
        renamed = np.empty_like(G.table)
        renamed[np.ix_(perm, perm)] = perm[G.table]
        tables += [G.table, renamed]
    accepted = 0
    for table in tables:
        try:
            from_table(table)
        except TableInvalidError as exc:
            assert not is_group_table(table)
            triple = re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(exc))
            assert triple, exc
            assert associativity_failures(table)[tuple(map(int, triple.groups()))]
        else:
            assert is_group_table(table)
            accepted += 1
    assert accepted == 13 + 13 + 6


def test_validation_of_an_order_1024_table_stays_quadratic():
    """The exhaustive scan would build (n, n, n) arrays, 8 GiB at n = 1024;
    Light's test checks n*n entries per generator."""
    series, peak = traced_peak(lambda: upper_central_series(make_direct_sum([32, 32])))
    assert [sg.order for sg in series.chain] == [1, 1024]
    assert peak <= 64 * 2 ** 20


def test_semidirect_order_past_the_table_limit_is_refused():
    with pytest.raises(SizeLimitError,
                       match="semidirect product of order 8192 exceeds table limit"):
        make_semidirect(make_cyclic(64), make_cyclic(128), [list(range(64))] * 128)


def test_direct_sum_layout():
    G = make_direct_sum([2, 3])
    assert G.order == 6
    assert G.is_abelian
    assert tuple(abelian_invariants(G).orders) == (6,)


def test_quaternion_structure(q8):
    assert q8.order == 8
    assert not q8.is_abelian
    assert q8.exponent() == 4
    Z = center(q8)
    assert sorted(q8.labels[m] for m in Z.members) == ["-1", "1"]
    K = commutator_subgroup(q8)
    assert set(K.members) == set(Z.members)


def test_quaternion_products(q8, q8_labels):
    i, j, k = q8_labels["i"], q8_labels["j"], q8_labels["k"]
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8_labels["-k"]
    assert q8.mul(i, i) == q8_labels["-1"]


def test_upper_central_series_q8(q8):
    series = upper_central_series(q8)
    assert [len(sg.members) for sg in series.chain] == [1, 2, 8]
    assert series.reaches_group
    assert is_nilpotent(q8)
    assert [tuple(t) for t in series.factor_invariants] == [(2,), (2, 2)]


def test_metacyclic_21_not_nilpotent():
    G = make_semidirect(make_cyclic(7), make_cyclic(3),
                        doubling_action(7, 3))
    assert G.order == 21
    assert center(G).order == 1
    assert not is_nilpotent(G)
    series = upper_central_series(G)
    assert not series.reaches_group


def test_quotient_of_q8_by_center(q8):
    Q, pi = quotient(q8, center(q8))
    assert Q.order == 4
    assert Q.is_abelian
    assert tuple(abelian_invariants(Q).orders) == (2, 2)
    # pi is a homomorphism onto Q
    for x in q8.elements():
        for y in q8.elements():
            assert pi(q8.mul(x, y)) == Q.mul(pi(x), pi(y))


def test_quotient_coset_labeling_is_minimal_representative(q8):
    Q, pi = quotient(q8, center(q8))
    # coset 0 is the subgroup itself; representatives ascend
    reps = [min(x for x in q8.elements() if pi(x) == c)
            for c in Q.elements()]
    assert reps == sorted(reps)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_endomorphism_enumeration_matches_brute_force(n):
    """The set of endomorphisms; their order follows the generating set the
    group was validated with, so only the sorted lists are compared."""
    G = make_cyclic(n)
    got = sorted(tuple(e.image_of) for e in enumerate_endomorphisms(G))
    assert got == sorted(brute_endomorphisms(G))


def test_endomorphism_enumeration_v4_brute():
    G = make_direct_sum([2, 2])
    got = sorted(tuple(e.image_of) for e in enumerate_endomorphisms(G))
    assert got == sorted(brute_endomorphisms(G))
    # Aut(V4) = S3
    assert len(enumerate_automorphisms(G)) == 6


def test_endomorphisms_come_in_order_of_the_generators_images(q8):
    """The search runs over the images of the validator's generating set
    (here -1, i, j), each endomorphism once."""
    gens = q8._gens.tolist()
    assert [q8.labels[g] for g in gens] == ["-1", "i", "j"]
    keys = [tuple(e.image_of[g] for g in gens) for e in enumerate_endomorphisms(q8)]
    assert keys == sorted(set(keys))


def test_quaternion_automorphism_count(q8):
    # |Aut(Q8)| = 24 is classical
    assert len(enumerate_automorphisms(q8)) == 24


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_cyclic_endo_and_auto_counts(n):
    G = make_cyclic(n)
    assert len(enumerate_endomorphisms(G)) == n
    phi = sum(1 for k in range(1, n + 1) if np.gcd(k, n) == 1)
    assert len(enumerate_automorphisms(G)) == phi


def test_center_is_fully_characteristic_in_q8(q8):
    assert is_fully_characteristic(q8, center(q8))


def test_axis_subgroup_not_fully_characteristic(q8, q8_labels):
    # <i> is normal but automorphisms rotate the axes right out of it
    A = generated_subgroup(q8, [q8_labels["i"]])
    assert A.order == 4
    assert A.is_normal()
    assert not is_fully_characteristic(q8, A)


def test_normal_factor_fully_characteristic_in_z20(z20):
    # the Sylow-5 subgroup is unique, hence fixed by every endomorphism
    A = Subgroup(z20, [4 * a for a in range(5)])
    assert is_fully_characteristic(z20, A)


def test_abelian_invariants_divisibility_chain():
    G = make_direct_sum([4, 6])
    inv = tuple(abelian_invariants(G).orders)
    assert inv == (2, 12)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0


def test_abelian_coords_round_trip():
    G = make_direct_sum([2, 4])
    coords = abelian_invariants(G)
    for g in G.elements():
        t = coords.to_tuple[g]
        assert coords.index_of[t] == g


def test_serialize_round_trip(q8):
    data = serialize_group(q8)
    H = from_table(data["table"], data["labels"])
    assert H.same_table(q8)
    assert H.labels == q8.labels


def test_generated_subgroup_whole_group(q8, q8_labels):
    S = generated_subgroup(q8, [q8_labels["i"], q8_labels["j"]])
    assert S.order == 8


def test_semidirect_trivial_action_is_direct_product():
    G = make_semidirect(make_cyclic(3), make_cyclic(2),
                        [[0, 1, 2], [0, 1, 2]])
    assert G.is_abelian
    assert tuple(abelian_invariants(G).orders) == (6,)


def test_from_table_moves_the_identity_to_index_zero(q8):
    swap = [3, 1, 2, 0, 4, 5, 6, 7]           # relabel: swap elements 0 and 3
    table = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            table[swap[x]][swap[y]] = swap[q8.mul(x, y)]
    labels = [q8.labels[swap[x]] for x in range(8)]
    G = from_table(table, labels)
    assert G.order == 8 and is_nilpotent(G)
    # every label stays on its element, and the identity is back at slot 0
    assert list(G.labels) == list(q8.labels)
    assert all(G.mul(x, y) == q8.mul(x, y) for x in range(8) for y in range(8))


@pytest.mark.parametrize("name", sorted(KNOWN_STRUCTURE))
def test_series_and_derived_subgroup_of_groups_with_known_structure(name):
    """D_2^k has class k-1 with factors Z/2, ..., Z/2, (Z/2)^2, as does
    generalized Q16; a Heisenberg group mod p has Z/p, then (Z/p)^2.  D12
    has centre Z/2 and a centreless quotient S3.  A width-3 product rule
    peels into a tower with the same factors."""
    build, factors, derived = KNOWN_STRUCTURE[name]
    G = build()
    series = upper_central_series(G)
    assert commutator_subgroup(G).order == derived
    if factors is None:
        assert [sg.order for sg in series.chain] == [1, 2]
        assert not series.reaches_group
        return
    assert series.reaches_group and series.factor_invariants == factors
    ident = GroupMap.identity(G)
    rule = McaRule(G, 0, 2, [(0, ident), (1, ident), (2, ident)])
    assert nilpotent_tower(rule).factor_invariants == factors


def unit_power_semidirect(n: int, m: int, u: int) -> FiniteGroup:
    """Z/n x| Z/m with c acting as multiplication by u^c (u^m = 1 mod n)."""
    return make_semidirect(make_cyclic(n), make_cyclic(m),
                           [[pow(u, c, n) * a % n for a in range(n)] for c in range(m)])


@st.composite
def small_groups(draw) -> FiniteGroup:
    """A direct sum of cyclic groups or a unit-power semidirect product, of
    order at most 200."""
    if draw(st.booleans()):
        orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)
                      .filter(lambda o: math.prod(o) <= 200))
        return make_direct_sum(orders)
    n = draw(st.integers(2, 50))
    m = draw(st.integers(1, 200 // n))
    units = [u for u in range(1, n) if math.gcd(u, n) == 1 and pow(u, m, n) == 1]
    return unit_power_semidirect(n, m, draw(st.sampled_from(units)))


def assert_structure_matches_oracles(G: FiniteGroup) -> None:
    assert center(G).members == center_oracle(G)
    assert G.is_abelian == is_abelian_oracle(G)
    series = upper_central_series(G)
    chain, factors = upper_central_series_oracle(G)
    assert [sg.members for sg in series.chain] == chain
    assert series.factor_invariants == factors
    assert commutator_subgroup(G).members == commutator_subgroup_oracle(G)
    assert_element_orders_match_steps(G)


def assert_element_orders_match_steps(G: FiniteGroup) -> None:
    """Powers stepped by table multiplication: ``FiniteGroup.power`` reduces
    k by the very element order under test."""
    orders = [next(k for k in range(1, G.order + 1) if power_by_steps(G, x, k) == 0)
              for x in G.elements()]
    assert [G.element_order(x) for x in G.elements()] == orders
    assert G.exponent() == math.lcm(*orders)


def test_the_element_order_oracle_catches_a_wrong_order():
    """Claiming order 2 for the order-4 elements of Z/4 + Z/2 fails."""
    G = make_direct_sum([4, 2])
    G._orders = np.minimum(G._element_orders(), 2)
    with pytest.raises(AssertionError):
        assert_element_orders_match_steps(G)


def relabelled(G: FiniteGroup, perm) -> FiniteGroup:
    """The table of G with element perm[i] renamed i."""
    perm = np.asarray(perm)
    return from_table(np.argsort(perm)[G.table[np.ix_(perm, perm)]])


@st.composite
def abelian_groups(draw) -> FiniteGroup:
    """A direct sum of cyclic groups of order at most 128, as built, as a
    relabelled table copy, or as a quotient by a cyclic subgroup.  Factors
    of prime-power order give the ranks where the peel adjusts generators."""
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16]),
                           min_size=1, max_size=4)
                  .filter(lambda o: math.prod(o) <= 128))
    G = make_direct_sum(orders)
    how = draw(st.sampled_from(["direct sum", "relabelled", "quotient"]))
    if how == "relabelled":
        return relabelled(G, draw(st.permutations(range(G.order))))
    if how == "quotient":
        x = draw(st.integers(0, G.order - 1))
        return quotient(G, generated_subgroup(G, [x]))[0]
    return G


@given(abelian_groups())
# relabellings where a generator adjusted below the top of the peel is not
# the least member of its coset
@example(relabelled(make_direct_sum([2, 4, 8]), np.random.default_rng(3).permutation(64)))
@example(relabelled(make_direct_sum([2, 2, 4, 8]), np.random.default_rng(1).permutation(128)))
@settings(max_examples=60, deadline=None)
def test_abelian_invariants_match_the_quotient_oracle(A):
    assert A.is_abelian and is_abelian_oracle(A)
    assert center(A).members == center_oracle(A) == tuple(A.elements())
    coords = abelian_invariants(A)
    assert (coords.orders, coords.generators, coords.to_tuple) == abelian_invariants_oracle(A)


@given(small_groups())
@settings(max_examples=40, deadline=None)
def test_series_and_commutators_match_the_quotient_oracles(G):
    assert_structure_matches_oracles(G)


@pytest.mark.parametrize("name", sorted(KNOWN_STRUCTURE))
def test_known_structure_matches_the_quotient_oracles(name):
    assert_structure_matches_oracles(KNOWN_STRUCTURE[name][0]())


def test_direct_sum_table_is_built_one_factor_at_a_time():
    """One int64 n x n array per factor peaked at 11 times the table's
    bytes for [2]*10; the running broadcast keeps the validator's peak."""
    G, peak = traced_peak(make_direct_sum, [2] * 10)
    assert peak <= 4 * G.table.nbytes
    orders = [2, 3, 4]
    digits = np.unravel_index(np.arange(24), orders)
    want = np.ravel_multi_index(
        tuple((d[:, None] + d[None, :]) % n for d, n in zip(digits, orders)), orders)
    assert np.array_equal(make_direct_sum(orders).table, want)


@pytest.mark.parametrize("build, named", [
    (lambda G: Subgroup(G, [0, 8]), "subgroup member 8 "),
    (lambda G: Subgroup(G, [0, -7]), "subgroup member -7 "),
    (lambda G: Subgroup(G, [0, 1.5]), "subgroup member 1.5 "),
    (lambda G: generated_subgroup(G, [9]), "generator 9 "),
], ids=["past the order", "negative", "not an integer", "generator past the order"])
def test_a_non_element_is_refused_by_name(q8, build, named):
    with pytest.raises(TableInvalidError, match=f"^{re.escape(named)}is not an element"):
        build(q8)
