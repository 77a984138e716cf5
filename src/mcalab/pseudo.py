"""Product frames: writing a group B as A * C through a section of B -> B/A.

A frame fixes a normal subgroup A, the quotient C = B/A, and a section
sigma: C -> B with sigma(identity) = identity.  Every b then factors
uniquely as b = a * sigma(c), giving a bijection A x C -> B.  When sigma is
itself a homomorphism the frame is semidirect and the twisting cocycle is
trivial.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, NotInvariantError, TableInvalidError
from .groups import (
    FiniteGroup,
    GroupMap,
    Subgroup,
    enumerate_automorphisms,
    is_fully_characteristic,
    quotient,
)
from .util import ENUMERATION_CAP

__all__ = [
    "PseudoFrame",
    "SplitEndo",
    "make_frame",
    "star_compose",
    "star_decompose",
    "conj_auto",
    "cocycle_zeta",
    "is_polymorph",
    "split_endo",
]


@dataclass(eq=False)
class PseudoFrame:
    """All the bookkeeping for one factorization B = A * C.

    ``a_group`` is the subgroup A reindexed as its own group with
    ``a_embed[i]`` the B-index of its i-th element; ``sigma[c]`` is the
    B-index of the section at coset c.  ``b_of[a, c]`` tabulates the star
    bijection and ``a_part``/``c_part`` invert it.
    """

    B: FiniteGroup
    A: Subgroup
    C: FiniteGroup
    pi: GroupMap
    a_group: FiniteGroup
    a_embed: list[int]
    sigma: tuple[int, ...]
    b_of: np.ndarray
    a_part: np.ndarray
    c_part: np.ndarray
    is_semidirect: bool
    a_is_central: bool

    def a_index(self, b_elem: int) -> int:
        """A-index of a B-element known to lie in A."""
        if not 0 <= b_elem < self.B.order or self.c_part[b_elem] != 0:
            raise FrameError(f"element {b_elem} is not in the distinguished subgroup")
        return int(self.a_part[b_elem])

    def word_indices(self, cells: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the A-word and of the C-word behind each B-word of
        ``cells`` cells, in B-word index order."""
        x = y = np.zeros(1, dtype=np.int64)
        for _ in range(cells):
            x = (x[:, None] * self.a_group.order + self.a_part).ravel()
            y = (y[:, None] * self.C.order + self.c_part).ravel()
        return x, y


def make_frame(B: FiniteGroup, A: Subgroup, section: list[int] | None = None) -> PseudoFrame:
    """Build the frame for B = A * C.

    The default section sends each coset to its minimal-index member (which
    maps the identity coset to the identity).  A user-supplied ``section``
    must satisfy pi(section[c]) = c and section[0] = 0.
    """
    if A.parent is not B:
        raise FrameError("subgroup belongs to a different group")
    C, pi = quotient(B, A)
    if section is None:
        sigma = np.unique(pi.image_of, return_index=True)[1].tolist()
    else:
        if len(section) != C.order:
            raise FrameError(f"section needs {C.order} entries, got {len(section)}")
        sigma = [int(s) for s in section]
        if sigma[0] != 0:
            raise FrameError("section must send the identity coset to the identity")
        for c, s in enumerate(sigma):
            if not (0 <= s < B.order) or pi(s) != c:
                raise FrameError(f"section[{c}] = {s} is not in coset {c}")
    a_group, a_embed = A.as_group()
    # a * sigma(c) lies in coset c, so (a, c) -> a * sigma(c) is a bijection
    b_of = B.table[np.ix_(a_embed, sigma)]
    a_part = np.empty(B.order, dtype=np.int64)
    c_part = np.empty(B.order, dtype=np.int64)
    a_part[b_of] = np.arange(A.order)[:, None]
    c_part[b_of] = np.arange(C.order)
    semidirect = np.array_equal(B.table[np.ix_(sigma, sigma)], np.asarray(sigma)[C.table])
    members = np.asarray(A.members)
    central = np.array_equal(B.table[members], B.table[:, members].T)
    return PseudoFrame(
        B=B, A=A, C=C, pi=pi, a_group=a_group, a_embed=a_embed,
        sigma=tuple(sigma), b_of=b_of, a_part=a_part, c_part=c_part,
        is_semidirect=semidirect, a_is_central=central)


def star_compose(frame: PseudoFrame, a: int, c: int) -> int:
    """B-element of the pair (a, c): a * sigma(c)."""
    return int(frame.b_of[a, c])


def star_decompose(frame: PseudoFrame, b: int) -> tuple[int, int]:
    """Unique (a, c) with b = a * sigma(c)."""
    return int(frame.a_part[b]), int(frame.c_part[b])


def conj_auto(frame: PseudoFrame, c: int) -> GroupMap:
    """The automorphism c* of A: a -> sigma(c) a sigma(c)^-1."""
    B, s = frame.B, frame.sigma[c]
    conj = B.table[B.table[s, frame.a_embed], B.inverse[s]]  # in A: A is normal
    return GroupMap(frame.a_group, frame.a_group, frame.a_part[conj], True)


def cocycle_zeta(frame: PseudoFrame, c1: int, c2: int) -> int:
    """Twisting cocycle sigma(c1 c2)^-1 sigma(c1) sigma(c2), as an A-index.

    Cochain identities only make the usual sense when A is central; outside
    that case the value is still returned but a warning flags it.
    """
    if not frame.a_is_central:
        warnings.warn("cocycle over a non-central subgroup: identities may not apply",
                      stacklevel=2)
    B, C = frame.B, frame.C
    prod = B.mul(frame.sigma[c1], frame.sigma[c2])
    # a_index refuses a value outside A
    return frame.a_index(B.mul(B.inv(frame.sigma[C.mul(c1, c2)]), prod))


def is_polymorph(frame: PseudoFrame, cap: int = ENUMERATION_CAP) -> bool:
    """Frame supports uniform splitting of every invariant endomorphism.

    Three conditions: the frame is semidirect; both A and sigma(C) are fully
    characteristic in B; and every conjugation c* is central in Aut(A).
    """
    if not frame.is_semidirect:
        return False
    if not is_fully_characteristic(frame.B, frame.A, cap):
        return False
    try:
        sigma_sub = Subgroup(frame.B, frame.sigma)
    except TableInvalidError:
        return False   # section image is not even a subgroup
    if not is_fully_characteristic(frame.B, sigma_sub, cap):
        return False
    autos = enumerate_automorphisms(frame.a_group, cap)
    for c in frame.C.elements():
        cstar = conj_auto(frame, c)
        for phi in autos:
            if cstar.compose(phi).image_of != phi.compose(cstar).image_of:
                return False
    return True


@dataclass(eq=False)
class SplitEndo:
    """Split of an A-invariant endomorphism g through a frame.

    ``f`` is the restriction of g to A, ``h`` the induced map on C, and
    ``gprime(c) = g(sigma(c)) * sigma(h(c))^-1`` the A-valued correction
    (a plain map, not generally a homomorphism; gprime(identity)=identity).
    The defining identity g(a * c) = (f(a) * gprime(c)) * h(c) is verified
    exhaustively at construction.
    """

    frame: PseudoFrame
    f: GroupMap
    h: GroupMap
    gprime: GroupMap


def split_endo(frame: PseudoFrame, g: GroupMap) -> SplitEndo:
    """Split an endomorphism of B that maps A into A."""
    B, C = frame.B, frame.C
    if g.source is not B or g.target is not B:
        raise FrameError("endomorphism must act on the frame's group")
    if not g.is_homomorphism:
        raise FrameError("split requires a homomorphism")
    img = np.asarray(g.image_of)
    on_a, on_sigma = img[frame.a_embed], img[list(frame.sigma)]
    bad = np.flatnonzero(frame.c_part[on_a])
    if bad.size:
        a_b = frame.a_embed[bad[0]]
        raise NotInvariantError(
            f"map does not leave the subgroup invariant: {a_b} -> {g(a_b)}")
    f = GroupMap(frame.a_group, frame.a_group, frame.a_part[on_a], True)
    # induced quotient map: h(pi(b)) = pi(g(b)); well-defined by invariance
    h = GroupMap(C, C, frame.c_part[on_sigma], True)
    # g(sigma(c)) lies in coset h(c), so the correction lies in A
    sigma_h = np.asarray(frame.sigma)[list(h.image_of)]
    gprime = GroupMap(C, frame.a_group,
                      frame.a_part[B.table[on_sigma, B.inverse[sigma_h]]], False)
    # defining identity, all |A| x |C| inputs
    rhs = frame.b_of[frame.a_group.table[np.ix_(f.image_of, gprime.image_of)],
                     list(h.image_of)]
    bad = np.argwhere(img[frame.b_of] != rhs)
    if bad.size:
        raise FrameError(f"split identity fails at (a={bad[0, 0]}, c={bad[0, 1]})")
    return SplitEndo(frame=frame, f=f, h=h, gprime=gprime)
