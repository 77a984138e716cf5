"""Group layer: construction, series, quotients, endomorphism enumeration.

Oracles here are deliberately dumb: brute-force scans over all maps or all
elements, small enough to finish instantly, checked against the library's
cleverer implementations.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcalab import (FiniteGroup, GroupMap, SizeLimitError, Subgroup,
                    TableInvalidError,
                    abelian_invariants, center, commutator_subgroup,
                    enumerate_automorphisms, enumerate_endomorphisms,
                    from_table, generated_subgroup, is_fully_characteristic,
                    is_nilpotent, make_cyclic, make_direct_sum,
                    make_quaternion, make_semidirect, quotient,
                    serialize_group, upper_central_series)
from conftest import doubling_action


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
    # too few labels, whether or not the identity comes first
    for table in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        with pytest.raises(TableInvalidError, match="labels must be 2 distinct strings"):
            from_table(table, ["a"])


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
    G = make_cyclic(n)
    got = sorted(tuple(e.image_of) for e in enumerate_endomorphisms(G))
    assert got == sorted(brute_endomorphisms(G))


def test_endomorphism_enumeration_v4_brute():
    G = make_direct_sum([2, 2])
    got = sorted(tuple(e.image_of) for e in enumerate_endomorphisms(G))
    assert got == sorted(brute_endomorphisms(G))
    # Aut(V4) = S3
    assert len(enumerate_automorphisms(G)) == 6


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
