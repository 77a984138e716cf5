"""Shared groups, rules, and frames used across the test modules."""
import tracemalloc

import pytest

from mcalab import (GroupMap, McaRule, Subgroup, center, make_frame,
                    make_quaternion, make_semidirect, make_cyclic)


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


def doubling_action(n: int, order: int) -> list[list[int]]:
    """Z/order acting on Z/n with c acting as multiplication by 2^c."""
    return [[(pow(2, c, n) * a) % n for a in range(n)] for c in range(order)]


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
