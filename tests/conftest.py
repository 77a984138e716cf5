"""Shared groups, rules, and frames used across the test modules."""
import itertools
import tracemalloc

import numpy as np
import pytest

from mcalab import (GroupMap, McaRule, Subgroup, center, from_table,
                    make_cyclic, make_direct_sum, make_frame, make_quaternion,
                    make_semidirect)


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak bytes traced while it ran)``.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    every array the call allocates, whatever the host; memory alive before
    the call is not counted.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def drawn(law, rng, count: int, length: int):
    """``count`` × ``length`` uint8 words filled by ``law.draws``."""
    words = np.empty((count, length), dtype=np.uint8)
    for _ in law.draws(rng, words):
        pass
    return words


def doubling_action(n: int, order: int) -> list[list[int]]:
    """Z/order acting on Z/n with c acting as multiplication by 2^c."""
    return [[(pow(2, c, n) * a) % n for a in range(n)] for c in range(order)]


def dihedral(n: int):
    """D_2n = Z/n x| Z/2, the generator of Z/2 acting by inversion."""
    return make_semidirect(make_cyclic(n), make_cyclic(2),
                           [list(range(n)), [(-a) % n for a in range(n)]])


def heisenberg(p: int):
    """(Z/p)^2 x| Z/p with c.(a1, a2) = (a1 + c*a2, a2); (a1, a2) has
    index a1*p + a2 in the direct sum."""
    action = [[((a // p + c * (a % p)) % p) * p + a % p for a in range(p * p)]
              for c in range(p)]
    return make_semidirect(make_direct_sum([p, p]), make_cyclic(p), action)


def quaternion16():
    """Generalized quaternion <a, b | a^8, b^2 = a^4, b a b^-1 = a^-1>,
    given by its table; a^i b^j has index 2i + j."""
    table = [[0] * 16 for _ in range(16)]
    for i, j, k, l in itertools.product(range(8), range(2), range(8), range(2)):
        # b^j a^k = a^(+-k) b^j, and b^2 = a^4
        exp = i + (-k if j else k) + (4 if j and l else 0)
        table[2 * i + j][2 * k + l] = 2 * (exp % 8) + (j + l) % 2
    return from_table(table)


# name -> (group, upper central series factor invariants or None if the
# group is not nilpotent, order of the derived subgroup)
KNOWN_STRUCTURE = {
    "D12": (lambda: dihedral(6), None, 3),
    "D16": (lambda: dihedral(8), [(2,), (2,), (2, 2)], 4),
    "D32": (lambda: dihedral(16), [(2,), (2,), (2,), (2, 2)], 8),
    "Q16": (quaternion16, [(2,), (2,), (2, 2)], 4),
    "Heisenberg mod 3": (lambda: heisenberg(3), [(3,), (3, 3)], 3),
    "Heisenberg mod 5": (lambda: heisenberg(5), [(5,), (5, 5)], 5),
}


@pytest.fixture(scope="session")
def q8():
    return make_quaternion()


@pytest.fixture(scope="session")
def q8_labels(q8):
    return {s: i for i, s in enumerate(q8.labels)}


@pytest.fixture(scope="session")
def z20():
    """Z/5 x| Z/4 with the doubling action — small, nonabelian, metacyclic."""
    return make_semidirect(make_cyclic(5), make_cyclic(4),
                           doubling_action(5, 4))


@pytest.fixture(scope="session")
def z20_frame(z20):
    # A = the normal Z/5: elements (a|0) sit at indices 4a in the
    # normal-major layout
    return make_frame(z20, Subgroup(z20, [4 * a for a in range(5)]))


@pytest.fixture(scope="session")
def x1_rule(z20):
    """One-sided width-3 product rule b0*b1*b2."""
    ident = GroupMap.identity(z20)
    return McaRule(z20, 0, 2, [(0, ident), (1, ident), (2, ident)],
                   one_sided=True)


@pytest.fixture(scope="session")
def x2_rule(z20):
    """One-sided rule b2^4 * b1^3 * b0 (exponents as repeated factors)."""
    ident = GroupMap.identity(z20)
    return McaRule(z20, 0, 2,
                   [(2, ident)] * 4 + [(1, ident)] * 3 + [(0, ident)],
                   one_sided=True)


@pytest.fixture(scope="session")
def quat_g1(q8):
    # axis rotation i -> j -> k -> i
    return GroupMap(q8, q8, [0, 1, 4, 5, 6, 7, 2, 3], True)


@pytest.fixture(scope="session")
def quat_g2(q8):
    # i -> -i, j <-> k
    return GroupMap(q8, q8, [0, 1, 3, 2, 6, 7, 4, 5], True)


@pytest.fixture(scope="session")
def quat_rule3(q8, quat_g1, quat_g2):
    """Width-3 rule b0 * g1(b1) * g2(b2) over the quaternions."""
    ident = GroupMap.identity(q8)
    return McaRule(q8, 0, 2, [(0, ident), (1, quat_g1), (2, quat_g2)])


@pytest.fixture(scope="session")
def quat_rule4(q8):
    """q3 * q0^3 * q2^5 * q1^-1, all exponent sums odd."""
    ident = GroupMap.identity(q8)
    return McaRule(q8, 0, 3,
                   [(3, ident)] + [(0, ident)] * 3 + [(2, ident)] * 5
                   + [(1, ident)] * 3)


@pytest.fixture(scope="session")
def q8_center_frame(q8):
    return make_frame(q8, center(q8))
