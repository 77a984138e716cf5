"""Product frames: the star bijection, cocycles, and endomorphism splitting."""
import pytest

from mcalab import (FrameError, GroupMap, Subgroup, cocycle_zeta, conj_auto,
                    is_polymorph, make_cyclic, make_direct_sum, make_frame,
                    make_semidirect, split_endo, star_compose, star_decompose)
from conftest import doubling_action


def test_star_bijection_round_trip(q8_center_frame):
    frame = q8_center_frame
    seen = set()
    for a in frame.a_group.elements():
        for c in frame.C.elements():
            b = star_compose(frame, a, c)
            assert star_decompose(frame, b) == (a, c)
            seen.add(b)
    assert seen == set(frame.B.elements())


def test_a_index_inverts_the_embedding_and_rejects_the_rest(z20):
    # Z/5 ⋊ Z/4 by its normal Z/5, whose members 0, 4, ..., 16 are not 0..4
    frame = make_frame(z20, Subgroup(z20, [4 * a for a in range(5)]))
    assert [frame.a_index(b) for b in frame.a_embed] == list(range(5))
    for b in (-4, -1, 1, 5, 19, 20):
        with pytest.raises(FrameError, match=f"element {b} is not in"):
            frame.a_index(b)


def test_canonical_section_is_minimal_representative(q8_center_frame, q8):
    frame = q8_center_frame
    for c in frame.C.elements():
        coset = [b for b in q8.elements() if frame.pi(b) == c]
        assert frame.sigma[c] == min(coset)


def test_canonical_section_of_a_non_central_subgroup(z20):
    frame = make_frame(z20, Subgroup(z20, [4 * a for a in range(5)]))
    assert list(frame.sigma) == [min(b for b in z20.elements() if frame.pi(b) == c)
                                 for c in frame.C.elements()] == [0, 1, 2, 3]


def test_canonical_q8_section_is_one_i_j_k(q8_center_frame, q8):
    labels = [q8.labels[s] for s in q8_center_frame.sigma]
    assert labels == ["1", "i", "j", "k"]


def test_cocycle_q8_table(q8_center_frame):
    """zeta(c1,c2) records the sign defect of the section: full 4x4 table."""
    frame = q8_center_frame
    # A-index 0 is +1, A-index 1 is -1; cosets: 0=O, 1=I, 2=J, 3=K
    minus = 1
    expected = [
        [0, 0, 0, 0],        # O row: section at identity twists nothing
        [0, minus, 0, minus],  # i*i=-1, i*k=-j
        [0, minus, minus, 0],  # j*i=-k, j*j=-1
        [0, 0, minus, minus],  # k*j=-i, k*k=-1
    ]
    got = [[cocycle_zeta(frame, c1, c2) for c2 in range(4)] for c1 in range(4)]
    assert got == expected


def test_cocycle_defining_identity(q8_center_frame):
    # sigma(c1) sigma(c2) = sigma(c1 c2) * zeta(c1, c2) with zeta central
    frame = q8_center_frame
    B, C = frame.B, frame.C
    for c1 in C.elements():
        for c2 in C.elements():
            z = frame.a_embed[cocycle_zeta(frame, c1, c2)]
            lhs = B.mul(frame.sigma[c1], frame.sigma[c2])
            rhs = B.mul(frame.sigma[C.mul(c1, c2)], z)
            assert lhs == rhs


def test_cocycle_warns_outside_central_case(z20, z20_frame):
    with pytest.warns(UserWarning):
        cocycle_zeta(z20_frame, 1, 2)


def test_semidirect_frame_has_trivial_cocycle(z20_frame):
    frame = z20_frame
    assert frame.is_semidirect
    for c1 in frame.C.elements():
        for c2 in frame.C.elements():
            prod = frame.B.mul(frame.sigma[c1], frame.sigma[c2])
            assert prod == frame.sigma[frame.C.mul(c1, c2)]


def test_q8_center_frame_is_not_semidirect(q8_center_frame):
    assert not q8_center_frame.is_semidirect


def test_section_validation(q8, q8_labels):
    from mcalab import center
    A = center(q8)
    # a section must hit each coset once and fix the identity coset
    with pytest.raises(FrameError):
        make_frame(q8, A, [q8_labels["-1"], q8_labels["i"],
                           q8_labels["j"], q8_labels["k"]])
    with pytest.raises(FrameError):
        make_frame(q8, A, [0, q8_labels["i"], q8_labels["i"],
                           q8_labels["k"]])


def test_frame_rejects_non_normal_subgroup():
    # S3 as Z/3 x| Z/2 with inversion; a 2-element subgroup is not normal
    G = make_semidirect(make_cyclic(3), make_cyclic(2),
                        [[0, 1, 2], [0, 2, 1]])
    twist = next(x for x in G.elements()
                 if G.element_order(x) == 2)
    from mcalab import NotNormalError
    with pytest.raises(NotNormalError):
        make_frame(G, Subgroup(G, [0, twist]))


def test_conj_auto_matches_direct_conjugation(z20_frame):
    frame = z20_frame
    B = frame.B
    for c in frame.C.elements():
        auto = conj_auto(frame, c)
        for ai, a_b in enumerate(frame.a_embed):
            want = B.mul(frame.sigma[c], B.mul(a_b, B.inv(frame.sigma[c])))
            assert frame.a_embed[auto(ai)] == want


def test_direct_product_frame_is_polymorph():
    G = make_direct_sum([5, 4])
    A = Subgroup(G, [a for a in G.elements()
                     if G.element_order(a) in (1, 5)])
    frame = make_frame(G, A)
    assert is_polymorph(frame)


def test_q8_center_frame_is_not_polymorph(q8_center_frame):
    # not even semidirect, so certainly not a polymorph
    assert not is_polymorph(q8_center_frame)


# --- splitting endomorphisms through the center frame -----------------------

def test_split_g1_tables(q8_center_frame, quat_g1):
    sp = split_endo(q8_center_frame, quat_g1)
    assert list(sp.f.image_of) == [0, 1]            # restriction is identity
    assert list(sp.h.image_of) == [0, 2, 3, 1]      # I->J->K->I on cosets
    assert list(sp.gprime.image_of) == [0, 0, 0, 0]  # no sign correction


def test_split_g2_tables(q8_center_frame, quat_g2):
    sp = split_endo(q8_center_frame, quat_g2)
    assert list(sp.f.image_of) == [0, 1]
    assert list(sp.h.image_of) == [0, 1, 3, 2]      # fixes I, swaps J/K
    assert list(sp.gprime.image_of) == [0, 1, 0, 0]  # g2(i) = -i = i*(-1)


def test_split_defining_identity_exhaustive(q8_center_frame, quat_g2):
    frame = q8_center_frame
    sp = split_endo(frame, quat_g2)
    B = frame.B
    for a in frame.a_group.elements():
        for c in frame.C.elements():
            b = star_compose(frame, a, c)
            lhs = quat_g2(b)
            corr = B.mul(frame.a_embed[sp.f(a)],
                         frame.a_embed[sp.gprime(c)])
            rhs = B.mul(corr, frame.sigma[sp.h(c)])
            assert lhs == rhs


def test_split_rejects_non_invariant_endomorphism(q8, q8_labels):
    # an automorphism moving <i> off itself cannot split through A = <i>
    from mcalab import NotInvariantError, generated_subgroup
    A = generated_subgroup(q8, [q8_labels["i"]])
    frame = make_frame(q8, A)
    swap = GroupMap(q8, q8, [0, 1, 4, 5, 2, 3, 7, 6], True)  # i <-> j
    with pytest.raises(NotInvariantError):
        split_endo(frame, swap)


def test_split_composition_respects_quotient(z20_frame):
    """h of a composite equals the composite of the h parts."""
    frame = z20_frame
    B = frame.B
    g = B.mul(4, 1)  # some element
    conj = GroupMap(B, B, [B.conjugate(g, x) for x in B.elements()], True)
    sp1 = split_endo(frame, conj)
    sp2 = split_endo(frame, conj.compose(conj))
    for c in frame.C.elements():
        assert sp2.h(c) == sp1.h(sp1.h(c))
