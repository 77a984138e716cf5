"""Finite groups as explicit multiplication tables.

Elements are integer indices ``0..order-1`` with the identity always at
index 0 (constructors relabel if needed).  Tables are validated exhaustively
on construction: closure, associativity, identity, inverses, and the row/
column permutation property, with error messages naming the first witness.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from math import gcd

import numpy as np

from .errors import (
    InvalidActionError,
    InvalidOrderError,
    NotAbelianError,
    NotNormalError,
    SizeLimitError,
    TableInvalidError,
)
from .util import ENUMERATION_CAP

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
    """

    def __init__(self, table: np.ndarray, labels: list[str] | None = None, *, _validated: bool = False):
        table = np.asarray(table, dtype=np.int64)
        if not _validated:
            _validate_table(table)
        self.order: int = int(table.shape[0])
        self.table: np.ndarray = table
        self.table.setflags(write=False)
        self.identity_index: int = 0
        inv = np.empty(self.order, dtype=np.int64)
        for a in range(self.order):
            hits = np.flatnonzero(table[a] == 0)
            inv[a] = hits[0]
        self.inverse: np.ndarray = inv
        self.inverse.setflags(write=False)
        labels = [str(k) for k in range(self.order)] if labels is None else list(labels)
        if (len(labels) != self.order or len(set(labels)) != self.order
                or not all(isinstance(s, str) for s in labels)):
            raise TableInvalidError(f"labels must be {self.order} distinct strings")
        self.labels: list[str] = labels
        self._orders: list[int] | None = None
        self._abelian: bool | None = None

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k (negative powers via the inverse)."""
        if k < 0:
            a, k = self.inv(a), -k
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

    def prod(self, xs) -> int:
        """Ordered product of a sequence of elements (empty product = identity)."""
        out = 0
        for x in xs:
            out = self.mul(out, x)
        return out

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a]

    def element_order(self, a: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.order
        if self._orders[a] == 0:
            k, x = 1, a
            while x != 0:
                x = self.mul(x, a)
                k += 1
            self._orders[a] = k
        return self._orders[a]

    def exponent(self) -> int:
        return reduce(lambda acc, a: acc * self.element_order(a) // gcd(acc, self.element_order(a)),
                      self.elements(), 1)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def same_table(self, other: "FiniteGroup") -> bool:
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _validate_table(table: np.ndarray) -> None:
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise TableInvalidError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n == 0:
        raise InvalidOrderError("group order must be positive")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise TableInvalidError(f"entry at {tuple(bad)} is outside 0..{n-1}")
    # rows and columns are permutations (Latin square)
    ar = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(table[a]), ar):
            raise TableInvalidError(f"row {a} is not a permutation")
        if not np.array_equal(np.sort(table[:, a]), ar):
            raise TableInvalidError(f"column {a} is not a permutation")
    # identity at index 0
    if not (np.array_equal(table[0], ar) and np.array_equal(table[:, 0], ar)):
        raise TableInvalidError("index 0 is not a two-sided identity")
    # associativity: table[table[x,y],z] == table[x,table[y,z]]
    left = table[table]            # left[x,y,z] = (x*y)*z
    right = table[:, table]        # right[x,y,z] = x*(y*z)
    if not np.array_equal(left, right):
        x, y, z = np.argwhere(left != right)[0]
        raise TableInvalidError(f"associativity fails at ({x},{y},{z})")
    # inverses exist because rows are permutations and identity exists.


# -- maps ------------------------------------------------------------------


@dataclass(eq=False)
class GroupMap:
    """A total map between groups, tagged with whether it is a homomorphism.

    ``is_homomorphism=True`` is verified exhaustively at construction unless
    ``_trusted`` is set by internal callers that have already proved it.
    """

    source: FiniteGroup
    target: FiniteGroup
    image_of: tuple[int, ...]
    is_homomorphism: bool = False

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


@dataclass(eq=False)
class Subgroup:
    """A subgroup given by its sorted member indices inside ``parent``."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        ms = tuple(sorted(set(int(m) for m in members)))
        if not ms or ms[0] != 0:
            raise TableInvalidError("subgroup must contain the identity")
        mset = set(ms)
        for a in ms:
            if parent.inv(a) not in mset:
                raise TableInvalidError(f"subgroup not closed under inverse at {a}")
            for b in ms:
                if parent.mul(a, b) not in mset:
                    raise TableInvalidError(f"subgroup not closed at ({a},{b})")
        self.members = ms
        self._member_set = mset

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Reindex the subgroup as its own FiniteGroup.

        Returns ``(group, embed)`` where ``embed[i]`` is the parent index of
        the i-th subgroup element.  The identity stays at index 0 because
        members are sorted and contain 0.
        """
        embed = list(self.members)
        back = {p: i for i, p in enumerate(embed)}
        n = len(embed)
        table = np.empty((n, n), dtype=np.int64)
        for i, a in enumerate(embed):
            for j, b in enumerate(embed):
                table[i, j] = back[self.parent.mul(a, b)]
        return FiniteGroup(table, [self.parent.label(p) for p in embed]), embed

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.conjugate(g, x) in self._member_set
                   for g in G.elements() for x in self.members)

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
    return FiniteGroup(table, [str(k) for k in range(n)], _validated=True)


def make_direct_sum(orders: list[int]) -> FiniteGroup:
    """Direct sum of cyclic groups, big-endian mixed-radix element indexing."""
    if not orders:
        raise InvalidOrderError("direct sum needs at least one factor")
    for n in orders:
        if not isinstance(n, int) or n <= 0:
            raise InvalidOrderError(f"factor orders must be positive integers, got {n!r}")
    total = 1
    for n in orders:
        total *= n
    if total > 4096:
        raise SizeLimitError(f"direct sum of order {total} exceeds table limit")
    tuples = list(itertools.product(*[range(n) for n in orders]))
    index = {t: i for i, t in enumerate(tuples)}
    table = np.empty((total, total), dtype=np.int64)
    for i, s in enumerate(tuples):
        for j, t in enumerate(tuples):
            table[i, j] = index[tuple((a + b) % n for a, b, n in zip(s, t, orders))]
    labels = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    return FiniteGroup(table, labels, _validated=True)


_QUAT_LABELS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def make_quaternion() -> FiniteGroup:
    """The quaternion group of order 8, elements ordered 1,-1,i,-i,j,-j,k,-k."""
    # represent q = (sign, axis) with axis in {1, i, j, k}
    def split(q):  # index -> (sign, axis) with axis 0..3
        return (1 if q % 2 == 0 else -1), q // 2

    def join(sign, axis):
        return axis * 2 + (0 if sign == 1 else 1)

    # axis multiplication: axis_mul[a][b] = (sign, axis) for a*b
    # axes: 0 = 1, 1 = i, 2 = j, 3 = k
    axis_mul = {}
    for a in range(4):
        axis_mul[(0, a)] = (1, a)
        axis_mul[(a, 0)] = (1, a)
    for a in (1, 2, 3):
        axis_mul[(a, a)] = (-1, 0)          # i*i = j*j = k*k = -1
    cyc = {(1, 2): 3, (2, 3): 1, (3, 1): 2}  # i*j=k, j*k=i, k*i=j
    for (a, b), c in cyc.items():
        axis_mul[(a, b)] = (1, c)
        axis_mul[(b, a)] = (-1, c)
    table = np.empty((8, 8), dtype=np.int64)
    for p in range(8):
        sp, ap = split(p)
        for q in range(8):
            sq, aq = split(q)
            sm, am = axis_mul[(ap, aq)]
            table[p, q] = join(sp * sq * sm, am)
    return FiniteGroup(table, list(_QUAT_LABELS))


def make_semidirect(normal: FiniteGroup, acting: FiniteGroup,
                    action: list[list[int]]) -> FiniteGroup:
    """Semidirect product on pairs (a, c), index = a*|acting| + c.

    ``action[c]`` is the image array of the automorphism c* of ``normal``;
    the assignment c -> c* must be a homomorphism into the automorphisms.
    Product: (a1,c1)(a2,c2) = (a1 * c1*a2, c1*c2).
    """
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
    for c1 in acting.elements():
        for c2 in acting.elements():
            composed = autos[c1].compose(autos[c2])
            if composed.image_of != autos[acting.mul(c1, c2)].image_of:
                raise InvalidActionError(
                    f"action is not a homomorphism at ({c1},{c2})")
    nc = acting.order
    total = normal.order * nc
    table = np.empty((total, total), dtype=np.int64)
    for a1 in normal.elements():
        for c1 in acting.elements():
            i = a1 * nc + c1
            act = autos[c1]
            for a2 in normal.elements():
                row_a = normal.mul(a1, act(a2))
                base = row_a * nc
                for c2 in acting.elements():
                    table[i, a2 * nc + c2] = base + acting.mul(c1, c2)
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
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise TableInvalidError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    ar = np.arange(n)
    ident = None
    for e in range(n):
        if np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar):
            ident = e
            break
    if ident is None:
        raise TableInvalidError("no two-sided identity element")
    if ident != 0:
        perm = ar.copy()
        perm[[0, ident]] = perm[[ident, 0]]   # swap identity to slot 0
        new = np.empty_like(table)
        for x in range(n):
            for y in range(n):
                new[perm[x], perm[y]] = perm[table[x, y]]
        table = new
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
    """Closure of a generating set (BFS over left multiplication)."""
    seen = {0}
    frontier = [0]
    gens = [int(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(G, sorted(seen))


def center(G: FiniteGroup) -> Subgroup:
    members = [a for a in G.elements()
               if all(G.mul(a, b) == G.mul(b, a) for b in G.elements())]
    return Subgroup(G, members)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    comms = {G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
             for a in G.elements() for b in G.elements()}
    return generated_subgroup(G, sorted(comms))


def _generating_set(G: FiniteGroup) -> list[int]:
    """Greedy generating set: repeatedly add the element whose addition
    generates the largest extension (smallest index breaks ties)."""
    gens: list[int] = []
    current = {0}
    while len(current) < G.order:
        best_g, best_size, best_set = -1, 0, None
        for g in G.elements():
            if g in current:
                continue
            sub = generated_subgroup(G, gens + [g])
            if len(sub.members) > best_size:
                best_g, best_size, best_set = g, len(sub.members), set(sub.members)
        gens.append(best_g)
        current = best_set
    return gens


def _close_partial_hom(G: FiniteGroup, assign: dict[int, int]) -> dict[int, int] | None:
    """Close a partial map under products; None on contradiction.

    On success the returned dict is multiplicative on its (subgroup) domain.
    """
    m = dict(assign)
    changed = True
    while changed:
        changed = False
        dom = list(m.items())
        for x, fx in dom:
            for y, fy in dom:
                xy = G.mul(x, y)
                v = G.mul(fx, fy)
                got = m.get(xy)
                if got is None:
                    m[xy] = v
                    changed = True
                elif got != v:
                    return None
    return m


def enumerate_endomorphisms(G: FiniteGroup, cap: int = ENUMERATION_CAP) -> list[GroupMap]:
    """All endomorphisms of G, in lexicographic order of generator images.

    Exhaustive search over images of a greedy generating set with
    consistent-prefix pruning; refuses groups larger than ``cap``.
    """
    if G.order > cap:
        raise SizeLimitError(f"group order {G.order} exceeds enumeration cap {cap}")
    gens = _generating_set(G)
    results: list[GroupMap] = []

    def extend(idx: int, partial: dict[int, int]) -> None:
        if idx == len(gens):
            images = tuple(partial[x] for x in G.elements())
            results.append(GroupMap(G, G, images, True, _trusted=True))
            return
        g = gens[idx]
        for img in G.elements():
            nxt = dict(partial)
            nxt[g] = img
            closed = _close_partial_hom(G, nxt)
            if closed is not None:
                extend(idx + 1, closed)

    extend(0, {0: 0})
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
    if not N.is_normal():
        bad = next((g, x) for g in G.elements() for x in N.members
                   if G.conjugate(g, x) not in N)
        raise NotNormalError(f"subgroup is not normal: witness {bad}")
    coset_of = [-1] * G.order
    reps: list[int] = []
    for x in G.elements():
        if coset_of[x] == -1:
            idx = len(reps)
            reps.append(x)
            for m in N.members:
                coset_of[G.mul(x, m)] = idx
    k = len(reps)
    table = np.empty((k, k), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i, j] = coset_of[G.mul(a, b)]
    Q = FiniteGroup(table, [f"[{G.label(r)}]" for r in reps])
    pi = GroupMap(G, Q, coset_of, True, _trusted=True)
    return Q, pi


@dataclass
class CharSeries:
    """An ascending central series with per-step abelian factor invariants."""

    group: FiniteGroup
    chain: list[Subgroup]
    factor_invariants: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def terminal(self) -> Subgroup:
        return self.chain[-1]

    @property
    def reaches_group(self) -> bool:
        return self.terminal.order == self.group.order


def upper_central_series(G: FiniteGroup) -> CharSeries:
    """Ascending chain {e} = Z0 <= Z1 <= ... with Z_{k+1}/Z_k = Z(G/Z_k).

    Stops when the chain stabilizes; for nilpotent groups the last entry is
    G itself.  Records the abelian invariants of each factor Z_k/Z_{k-1}.
    """
    chain = [Subgroup(G, [0])]
    invariants: list[tuple[int, ...]] = []
    while chain[-1].order < G.order:
        Q, pi = quotient(G, chain[-1])
        zq = center(Q)
        members = sorted(x for x in G.elements() if pi(x) in zq)
        if len(members) == chain[-1].order:
            break   # series stabilized below G: not nilpotent
        factor_group, _ = zq.as_group()
        invariants.append(abelian_invariants(factor_group).orders)
        chain.append(Subgroup(G, members))
    return CharSeries(G, chain, invariants)


def is_nilpotent(G: FiniteGroup) -> bool:
    return upper_central_series(G).reaches_group


# -- abelian structure -----------------------------------------------------


@dataclass(eq=False)
class AbelianCoords:
    """Coordinates A = Z/n1 + ... + Z/nd with n1 | n2 | ... | nd.

    ``to_tuple[x]`` is the coefficient tuple of element x; ``index_of`` is
    the inverse.  The trivial group gets the empty tuple of orders.
    """

    group: FiniteGroup
    orders: tuple[int, ...]
    generators: tuple[int, ...]
    to_tuple: tuple[tuple[int, ...], ...]
    index_of: dict[tuple[int, ...], int]

    @property
    def rank(self) -> int:
        return len(self.orders)


def _peel_abelian(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """Greedy maximal-order generator peeling; orders come out descending."""
    if G.order == 1:
        return [], []
    g = max(G.elements(), key=lambda x: (G.element_order(x), -x))
    m = G.element_order(g)
    Q, pi = quotient(G, generated_subgroup(G, [g]))
    q_orders, q_gens = _peel_abelian(Q)
    gens = [g]
    for mi, qg in zip(q_orders, q_gens):
        h = next(x for x in G.elements() if pi(x) == qg)
        # adjust h by a power of g so that its order drops to mi:
        # h^mi lies in <g>, say g^s with mi | s; then (h * g^{-s/mi})^mi = e.
        hm = G.power(h, mi)
        s = next(k for k in range(m) if G.power(g, k) == hm)
        if s % mi != 0:
            raise NotAbelianError("internal: maximal-order peeling failed")
        t = (-(s // mi)) % m
        gens.append(G.mul(h, G.power(g, t)))
    return [m] + q_orders, gens


def abelian_invariants(A: FiniteGroup) -> AbelianCoords:
    """Invariant factors of an abelian group plus an explicit isomorphism."""
    if not A.is_abelian:
        raise NotAbelianError("abelian invariants need an abelian group")
    orders_desc, gens_desc = _peel_abelian(A)
    orders = tuple(reversed(orders_desc))
    gens = tuple(reversed(gens_desc))
    to_tuple: list[tuple[int, ...] | None] = [None] * A.order
    index_of: dict[tuple[int, ...], int] = {}
    for coeffs in itertools.product(*[range(n) for n in orders]):
        x = A.prod(A.power(g, c) for g, c in zip(gens, coeffs))
        if to_tuple[x] is not None:
            raise NotAbelianError("internal: peeled generators not independent")
        to_tuple[x] = coeffs
        index_of[coeffs] = x
    if any(t is None for t in to_tuple):
        raise NotAbelianError("internal: peeled generators do not span")
    return AbelianCoords(A, orders, gens, tuple(to_tuple), index_of)
