"""Finite groups as explicit multiplication tables.

Elements are integer indices ``0..order-1`` with the identity always at
index 0 (constructors relabel if needed).  Every table is validated on
construction: closure, identity, the row/column permutation property (hence
inverses) and associativity by Light's test, with error messages naming a
witness.  Derived tables are gathers of their parent's table.  The
structural queries (commutator subgroup, upper central series, abelian
invariants) work inside the group's own table and build no other: a coset
of a normal subgroup is named by its least member, as in ``quotient``.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidActionError,
    InvalidOrderError,
    NotAbelianError,
    NotNormalError,
    SizeLimitError,
    TableInvalidError,
)
from .util import ENUMERATION_CAP, is_integer

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "GroupMap",
    "CharSeries",
    "AbelianCoords",
    "make_cyclic",
    "make_direct_sum",
    "make_quaternion",
    "make_semidirect",
    "from_table",
    "serialize_group",
    "generated_subgroup",
    "center",
    "commutator_subgroup",
    "enumerate_endomorphisms",
    "enumerate_automorphisms",
    "is_fully_characteristic",
    "quotient",
    "upper_central_series",
    "is_nilpotent",
    "abelian_invariants",
]


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is an ``order x order`` integer array with
    ``table[a, b] = a*b``.  Instances are immutable by convention; all
    derived data (inverses, abelianness, element orders) is cached.
    ``labels`` are distinct strings, ``str(k)`` for element k by default.
    The generating set the table was validated with is the one every
    structural query reads.
    """

    def __init__(self, table: np.ndarray, labels: list[str] | None = None):
        table = np.asarray(table, dtype=np.int64)
        self._gens: np.ndarray = np.asarray(_validate_table(table), dtype=np.int64)
        self.order: int = int(table.shape[0])
        self.table: np.ndarray = table
        self.table.setflags(write=False)
        self.identity_index: int = 0
        self.inverse: np.ndarray = (table == 0).argmax(axis=1)
        self.inverse.setflags(write=False)
        labels = [str(k) for k in range(self.order)] if labels is None else list(labels)
        if (len(labels) != self.order or len(set(labels)) != self.order
                or not all(isinstance(s, str) for s in labels)):
            raise TableInvalidError(f"labels must be {self.order} distinct strings")
        self.labels: list[str] = labels
        self._orders: np.ndarray | None = None
        self._abelian: bool | None = None

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k (negative powers via the order of a)."""
        k %= self.element_order(a)
        out = 0
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a]

    def _element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = _orders_mod(self.table, np.arange(self.order), [0])
        return self._orders

    def element_order(self, a: int) -> int:
        return int(self._element_orders()[a])

    @property
    def is_abelian(self) -> bool:
        """Whether the validated generators commute pairwise."""
        if self._abelian is None:
            products = self.table[np.ix_(self._gens, self._gens)]
            self._abelian = bool(np.array_equal(products, products.T))
        return self._abelian

    def same_table(self, other: "FiniteGroup") -> bool:
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _orders_mod(T: np.ndarray, xs: np.ndarray, normal) -> np.ndarray:
    """For each x in ``xs`` the least e >= 1 with x^e in the normal
    subgroup ``normal``; the k-th powers are one gather of the (k-1)-th."""
    inside = np.zeros(len(T), dtype=bool)
    inside[normal] = True
    orders = np.zeros(len(xs), dtype=np.int64)
    power, k = xs, 1
    while not orders.all():
        orders[inside[power] & (orders == 0)] = k
        power, k = T[power, xs], k + 1
    return orders


def _check_entries(table: np.ndarray) -> None:
    """A nonempty square table of entries in 0..n-1."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise TableInvalidError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n == 0:
        raise InvalidOrderError("group order must be positive")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise TableInvalidError(f"entry at {tuple(bad.tolist())} is outside 0..{n-1}")


def _validate_table(table: np.ndarray) -> list[int]:
    """Check the group axioms; return the generators Light's test checked."""
    _check_entries(table)
    n = table.shape[0]
    # rows and columns are permutations (Latin square); the first bad
    # index is reported, its row before its column
    ar = np.arange(n)
    bad_row = (np.sort(table, axis=1) != ar).any(axis=1)
    bad_col = (np.sort(table, axis=0) != ar[:, None]).any(axis=0)
    if (bad_row | bad_col).any():
        a = int((bad_row | bad_col).argmax())
        raise TableInvalidError(
            f"{'row' if bad_row[a] else 'column'} {a} is not a permutation")
    # identity at index 0
    if not (np.array_equal(table[0], ar) and np.array_equal(table[:, 0], ar)):
        raise TableInvalidError("index 0 is not a two-sided identity")
    # Light's associativity test: the g with (x*g)*z == x*(g*z) for all x, z
    # are closed under products, so it suffices to check a set of g whose
    # products reach every element.
    gens = _generators(table)
    for g in gens:
        bad = table[table[:, g]] != table[:, table[g]]   # (x*g)*z != x*(g*z)
        if bad.any():
            x, z = np.argwhere(bad)[0]
            raise TableInvalidError(f"associativity fails at ({x},{g},{z})")
    # inverses exist because rows are permutations and identity exists.
    return gens


def _generators(table: np.ndarray) -> list[int]:
    """Elements whose products reach every element, grown from the least
    element not yet reached.  In a group the reached part is a subgroup,
    so each new element at least doubles it: at most log2(n) elements."""
    gens: list[int] = []
    reached = _extend(table, gens, gens) >= 0
    while not reached.all():
        gens.append(int(reached.argmin()))
        reached = _extend(table, gens, gens) >= 0
    return gens


def _extend(table: np.ndarray, gens, images) -> np.ndarray | None:
    """The homomorphism on the subgroup generated by ``gens`` that sends
    them to ``images`` (-1 off that subgroup), or None if there is none:
    f(x*g) = f(x)*f(g), set breadth first and checked on every edge.  With
    ``images = gens`` it is the identity on the elements ``gens`` reach."""
    f = np.full(len(table), -1, dtype=np.int64)
    f[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        xs = table[np.ix_(frontier, gens)]
        ys = table[np.ix_(f[frontier], images)]
        unset = f == -1
        f[xs] = np.where(unset[xs], ys, f[xs])
        if (f[xs] != ys).any():
            return None
        frontier = np.flatnonzero(unset & (f != -1))
    return f


# -- maps ------------------------------------------------------------------


class GroupMap:
    """A total map between groups, tagged with whether it is a homomorphism.

    ``is_homomorphism=True`` is verified exhaustively at construction unless
    ``_trusted`` is set by internal callers that have already proved it.
    """

    source: FiniteGroup
    target: FiniteGroup
    image_of: tuple[int, ...]
    is_homomorphism: bool

    def __init__(self, source, target, image_of, is_homomorphism=False, *, _trusted=False):
        self.source = source
        self.target = target
        self.image_of = tuple(int(x) for x in image_of)
        self.is_homomorphism = bool(is_homomorphism)
        if len(self.image_of) != source.order:
            raise TableInvalidError(
                f"map needs {source.order} images, got {len(self.image_of)}")
        for y in self.image_of:
            if not (0 <= y < target.order):
                raise TableInvalidError(f"image {y} outside target group")
        if self.is_homomorphism and not _trusted:
            _check_hom(source, target, self.image_of)

    def __call__(self, x: int) -> int:
        return self.image_of[x]

    def compose(self, inner: "GroupMap") -> "GroupMap":
        """self after inner."""
        if inner.target is not self.source and not inner.target.same_table(self.source):
            raise TableInvalidError("composition: group mismatch")
        images = tuple(self.image_of[y] for y in inner.image_of)
        hom = self.is_homomorphism and inner.is_homomorphism
        return GroupMap(inner.source, self.target, images, hom, _trusted=True)

    def is_bijective(self) -> bool:
        return (self.source.order == self.target.order
                and len(set(self.image_of)) == self.source.order)

    @staticmethod
    def identity(G: FiniteGroup) -> "GroupMap":
        return GroupMap(G, G, tuple(range(G.order)), True, _trusted=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupMap)
                and self.image_of == other.image_of
                and self.source.same_table(other.source)
                and self.target.same_table(other.target))

    def __hash__(self):
        return hash(self.image_of)

    def __repr__(self) -> str:
        tag = "hom" if self.is_homomorphism else "map"
        return f"GroupMap({tag}, {self.image_of})"


def _check_hom(source: FiniteGroup, target: FiniteGroup, images) -> None:
    if images[0] != 0:
        raise TableInvalidError("homomorphism must send identity to identity")
    st, tt = source.table, target.table
    img = np.asarray(images, dtype=np.int64)
    lhs = img[st]                    # f(x*y)
    rhs = tt[np.ix_(img, img)]       # f(x)*f(y)
    if not np.array_equal(lhs, rhs):
        x, y = np.argwhere(lhs != rhs)[0]
        raise TableInvalidError(
            f"not a homomorphism: f({x}*{y}) != f({x})*f({y})")


# -- subgroups -------------------------------------------------------------


def _elements(G: FiniteGroup, xs, what: str) -> list[int]:
    """``xs`` as a list of ints, refusing anything that is not an element."""
    xs = list(xs)
    bad = [x for x in xs if not is_integer(x) or not 0 <= x < G.order]
    if bad:
        raise TableInvalidError(f"{what} {bad[0]} is not an element index 0..{G.order - 1}")
    return [int(x) for x in xs]


class Subgroup:
    """A subgroup given by its sorted member indices inside ``parent``."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        ms = tuple(sorted(set(_elements(parent, members, "subgroup member"))))
        if not ms or ms[0] != 0:
            raise TableInvalidError("subgroup must contain the identity")
        idx = np.array(ms)
        mask = np.zeros(parent.order, dtype=bool)
        mask[idx] = True
        # the first bad member, its inverse checked before its products
        bad_inv = ~mask[parent.inverse[idx]]
        bad_mul = ~mask[parent.table[np.ix_(idx, idx)]]
        bad = bad_inv | bad_mul.any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            if bad_inv[i]:
                raise TableInvalidError(f"subgroup not closed under inverse at {ms[i]}")
            raise TableInvalidError(
                f"subgroup not closed at ({ms[i]},{ms[int(bad_mul[i].argmax())]})")
        self.members = ms
        self._mask = mask

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.parent.order and bool(self._mask[x])

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Reindex the subgroup as its own FiniteGroup.

        Returns ``(group, embed)`` where ``embed[i]`` is the parent index of
        the i-th subgroup element.  The identity stays at index 0 because
        members are sorted and contain 0.
        """
        embed = list(self.members)
        back = np.zeros(self.parent.order, dtype=np.int64)
        back[embed] = np.arange(len(embed))
        table = back[self.parent.table[np.ix_(embed, embed)]]
        return FiniteGroup(table, [self.parent.label(p) for p in embed]), embed

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.members == self.members)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members})"


# -- constructors ----------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """Z/n with addition; element k has label str(k)."""
    if not isinstance(n, int) or n <= 0:
        raise InvalidOrderError(f"cyclic order must be a positive integer, got {n!r}")
    if n > 4096:
        raise SizeLimitError(f"cyclic group of order {n} exceeds table limit")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, [str(k) for k in range(n)])


def make_direct_sum(orders: list[int]) -> FiniteGroup:
    """Direct sum of cyclic groups, big-endian mixed-radix element indexing."""
    if not orders:
        raise InvalidOrderError("direct sum needs at least one factor")
    for n in orders:
        if not isinstance(n, int) or n <= 0:
            raise InvalidOrderError(f"factor orders must be positive integers, got {n!r}")
    total = math.prod(orders)
    if total > 4096:
        raise SizeLimitError(f"direct sum of order {total} exceeds table limit")
    # one factor at a time: the new factor is the least significant digit
    table = np.zeros((1, 1), dtype=np.int64)
    for n in orders:
        cyclic = np.add.outer(np.arange(n), np.arange(n)) % n
        size = len(table) * n
        table = (table[:, None, :, None] * n + cyclic[None, :, None, :]).reshape(size, size)
    labels = ["(" + ",".join(map(str, t)) + ")"
              for t in itertools.product(*[range(n) for n in orders])]
    return FiniteGroup(table, labels)


def make_quaternion() -> FiniteGroup:
    """The quaternion group of order 8, elements ordered 1,-1,i,-i,j,-j,k,-k."""
    # element 2*axis + sign with axes 1, i, j, k = 0..3 and sign 1 for -1:
    # axes multiply as xor (i*j = k, i*i = 1) up to the sign neg[axis, axis]
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    axis, sign = np.divmod(np.arange(8), 2)
    table = 2 * (axis[:, None] ^ axis) + (sign[:, None] ^ sign ^ neg[np.ix_(axis, axis)])
    return FiniteGroup(table, ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def make_semidirect(normal: FiniteGroup, acting: FiniteGroup,
                    action: list[list[int]]) -> FiniteGroup:
    """Semidirect product on pairs (a, c), index = a*|acting| + c.

    ``action[c]`` is the image array of the automorphism c* of ``normal``;
    the assignment c -> c* must be a homomorphism into the automorphisms.
    Product: (a1,c1)(a2,c2) = (a1 * c1*a2, c1*c2).
    """
    na, nc = normal.order, acting.order
    if na * nc > 4096:
        raise SizeLimitError(f"semidirect product of order {na * nc} exceeds table limit")
    if len(action) != acting.order:
        raise InvalidActionError(
            f"need one automorphism per acting element, got {len(action)}")
    autos = []
    for c, images in enumerate(action):
        try:
            phi = GroupMap(normal, normal, images, is_homomorphism=True)
        except TableInvalidError as exc:
            raise InvalidActionError(f"action[{c}]: {exc}") from exc
        if not phi.is_bijective():
            raise InvalidActionError(f"action[{c}] is not a bijection")
        autos.append(phi)
    if autos[0].image_of != tuple(range(normal.order)):
        raise InvalidActionError("action of the identity must be the identity map")
    act = np.array([phi.image_of for phi in autos], dtype=np.int64)
    # act[c1, act[c2, a]] == act[c1*c2, a] for every a
    bad = (act[:, act] != act[acting.table]).any(axis=2)
    if bad.any():
        c1, c2 = np.argwhere(bad)[0]
        raise InvalidActionError(f"action is not a homomorphism at ({c1},{c2})")
    # table[(a1, c1), (a2, c2)] with axes (a1, c1, a2, c2)
    table = (normal.table[:, act][..., None] * nc
             + acting.table[None, :, None, :]).reshape(na * nc, na * nc)
    labels = [f"({normal.label(a)}|{acting.label(c)})"
              for a in normal.elements() for c in acting.elements()]
    return FiniteGroup(table, labels)


def from_table(table, labels: list[str] | None = None) -> FiniteGroup:
    """Validate a raw table; relabel so the identity sits at index 0.

    Accepts either a square nested table or a row-major flat list of
    length n^2 (the serialized form).
    """
    table = np.asarray(table, dtype=np.int64)
    if table.ndim == 1:
        n = math.isqrt(table.size)
        if n * n != table.size:
            raise TableInvalidError(
                f"flat table length {table.size} is not a perfect square")
        table = table.reshape(n, n)
    _check_entries(table)
    n = table.shape[0]
    ar = np.arange(n)
    idents = np.flatnonzero((table == ar).all(axis=1) & (table == ar[:, None]).all(axis=0))
    if not idents.size:
        raise TableInvalidError("no two-sided identity element")
    ident = int(idents[0])
    if ident != 0:
        perm = ar.copy()
        perm[[0, ident]] = perm[[ident, 0]]   # swap identity to slot 0
        table = perm[table[np.ix_(perm, perm)]]   # perm is an involution
        # a list of the wrong length is left for FiniteGroup to reject
        if labels is not None and len(labels) == n:
            labels = list(labels)
            labels[0], labels[ident] = labels[ident], labels[0]
    return FiniteGroup(table, labels)


def serialize_group(G: FiniteGroup) -> dict:
    """Round-trippable plain-data form: order, row-major table, labels."""
    return {
        "order": G.order,
        "table": [int(x) for x in G.table.reshape(-1)],
        "labels": list(G.labels),
    }


# -- structural queries ----------------------------------------------------


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """Closure of a generating set (BFS over right multiplication)."""
    gens = _elements(G, gens, "generator")
    return Subgroup(G, np.flatnonzero(_extend(G.table, gens, gens) >= 0))


def center(G: FiniteGroup) -> Subgroup:
    """The x with ``x s == s x`` for every validated generator s."""
    T, S = G.table, G._gens
    return Subgroup(G, np.flatnonzero((T[:, S] == T[S].T).all(axis=1)))


def _commutators(G: FiniteGroup, xs: np.ndarray) -> np.ndarray:
    """``[x, s] = x s x^-1 s^-1`` for every x in ``xs`` and generator s."""
    T, inv, S = G.table, G.inverse, G._gens
    return T[T[np.ix_(xs, S)], T[np.ix_(inv[xs], inv[S])]]


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """Normal closure of the commutators of the generating set: close
    under products, then add one conjugate by a generator that escapes.
    Each round at least doubles the subgroup."""
    T, S = G.table, G._gens
    gens = _commutators(G, S).ravel()
    while True:
        reached = _extend(T, gens, gens) >= 0
        conj = T[T[np.ix_(S, np.flatnonzero(reached))], G.inverse[S][:, None]]
        escaped = conj[~reached[conj]]
        if not escaped.size:
            return Subgroup(G, np.flatnonzero(reached))
        gens = np.append(gens, escaped[0])


def enumerate_endomorphisms(G: FiniteGroup, cap: int = ENUMERATION_CAP) -> list[GroupMap]:
    """All endomorphisms of G, in lexicographic order of the images of
    the generating set G was validated with: an exhaustive search over
    those images with consistent-prefix pruning.  Refuses orders past ``cap``."""
    if G.order > cap:
        raise SizeLimitError(f"group order {G.order} exceeds enumeration cap {cap}")
    gens = G._gens.tolist()
    results: list[GroupMap] = []

    def extend(images: list[int]) -> None:
        f = _extend(G.table, gens[:len(images)], images)
        if f is None:
            return
        if len(images) == len(gens):
            results.append(GroupMap(G, G, f, True, _trusted=True))
            return
        for img in G.elements():
            extend(images + [img])

    extend([])
    return results


def enumerate_automorphisms(G: FiniteGroup, cap: int = ENUMERATION_CAP) -> list[GroupMap]:
    return [phi for phi in enumerate_endomorphisms(G, cap) if phi.is_bijective()]


def is_fully_characteristic(G: FiniteGroup, sub: Subgroup,
                            cap: int = ENUMERATION_CAP) -> bool:
    """True iff every endomorphism of G maps ``sub`` into itself."""
    for phi in enumerate_endomorphisms(G, cap):
        if any(phi(x) not in sub for x in sub.members):
            return False
    return True


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupMap]:
    """Quotient by a normal subgroup.

    Cosets are indexed by ascending minimal member, so the coset of the
    identity is index 0.  Returns (quotient group, projection hom).
    """
    if N.parent is not G:
        raise NotNormalError("subgroup belongs to a different group")
    # [g, i] is True where g * members[i] * g^-1 leaves N
    escapes = ~N._mask[G.table[G.table[:, N.members], G.inverse[:, None]]]
    if escapes.any():
        g, i = np.argwhere(escapes)[0]
        raise NotNormalError(f"subgroup is not normal: witness {(int(g), N.members[i])}")
    least = G.table[:, N.members].min(axis=1)
    reps = np.flatnonzero(least == np.arange(G.order))
    coset_of = np.searchsorted(reps, least)
    Q = FiniteGroup(coset_of[G.table[np.ix_(reps, reps)]],
                    [f"[{G.label(r)}]" for r in reps.tolist()])
    return Q, GroupMap(G, Q, coset_of, True, _trusted=True)


class CharSeries(NamedTuple):
    """An ascending central series with per-step abelian factor invariants."""

    group: FiniteGroup
    chain: list[Subgroup]
    factor_invariants: list[tuple[int, ...]]

    @property
    def reaches_group(self) -> bool:
        return self.chain[-1].order == self.group.order


def upper_central_series(G: FiniteGroup) -> CharSeries:
    """Ascending chain {e} = Z0 <= Z1 <= ... with Z_{k+1}/Z_k = Z(G/Z_k).

    Z_{k+1} is the set of x with [x, s] in Z_k for every generator s, read
    off one table of those commutators.  Stops when the chain stabilizes;
    for nilpotent groups the last entry is G itself.  Records the abelian
    invariants of each factor Z_k/Z_{k-1}.
    """
    comms = _commutators(G, np.arange(G.order))
    chain = [Subgroup(G, [0])]
    invariants: list[tuple[int, ...]] = []
    lower = np.arange(G.order) == 0
    while True:
        upper = lower[comms].all(axis=1)
        if upper.sum() == chain[-1].order:
            break   # series stabilized (below G if G is not nilpotent)
        members = np.flatnonzero(upper)
        invariants.append(tuple(_peel(G, members, np.flatnonzero(lower))[0]))
        chain.append(Subgroup(G, members))
        lower = upper
    return CharSeries(G, chain, invariants)


def is_nilpotent(G: FiniteGroup) -> bool:
    return upper_central_series(G).reaches_group


# -- abelian structure -----------------------------------------------------


class AbelianCoords(NamedTuple):
    """Coordinates A = Z/n1 + ... + Z/nd with n1 | n2 | ... | nd.

    ``to_tuple[x]`` is the coefficient tuple of element x; ``index_of`` is
    the inverse.  The trivial group gets the empty tuple of orders.
    """

    group: FiniteGroup
    orders: tuple[int, ...]
    generators: tuple[int, ...]
    to_tuple: tuple[tuple[int, ...], ...]
    index_of: dict[tuple[int, ...], int]


def _peel(G: FiniteGroup, members: np.ndarray, normal) -> tuple[list[int], list[int]]:
    """Greedy maximal-order peeling of the abelian quotient members/N in G's
    table, cosets named by their least member; orders come out ascending."""
    if len(members) == len(normal):
        return [], []
    T = G.table
    orders = _orders_mod(T, members, normal)
    g = int(members[orders.argmax()])   # the least of largest order mod N
    m = int(orders.max())
    powers = [0]
    for _ in range(m - 1):
        powers.append(int(T[powers[-1], g]))
    larger = np.zeros(G.order, dtype=bool)   # N<g>, the cosets N g^k
    larger[T[np.ix_(normal, powers)]] = True
    q_orders, q_gens = _peel(G, members, np.flatnonzero(larger))
    power_cosets = T[np.ix_(powers, normal)].min(axis=1)
    gens = []
    for mi, h in zip(q_orders, q_gens):
        # h^mi lies in N g^s with mi | s (m is the largest order), so
        # h * g^{-s/mi} has order mi modulo N
        s = int(np.flatnonzero(power_cosets == T[G.power(h, mi), normal].min())[0])
        if s % mi != 0:
            raise NotAbelianError("internal: maximal-order peeling failed")
        gens.append(int(T[T[h, powers[-(s // mi) % m]], normal].min()))
    return q_orders + [m], gens + [g]


def abelian_invariants(A: FiniteGroup) -> AbelianCoords:
    """Invariant factors of an abelian group plus an explicit isomorphism."""
    if not A.is_abelian:
        raise NotAbelianError("abelian invariants need an abelian group")
    orders, gens = map(tuple, _peel(A, np.arange(A.order), [0]))
    # the element of every coefficient tuple, in itertools.product order
    elems = np.zeros(1, dtype=np.int64)
    for g, n in zip(gens, orders):
        elems = A.table[elems[:, None], [A.power(g, c) for c in range(n)]].ravel()
    if not np.array_equal(np.sort(elems), np.arange(A.order)):
        raise NotAbelianError("internal: peeled generators are not a basis")
    coeffs = list(itertools.product(*[range(n) for n in orders]))
    to_tuple = tuple(coeffs[i] for i in np.argsort(elems))
    return AbelianCoords(A, orders, gens, to_tuple, dict(zip(coeffs, elems.tolist())))
