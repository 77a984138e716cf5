"""Exact window measures, push-forwards, and entropy computations."""
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcalab import (Config, GroupMap, McaLabError, McaRule, MeasureSpec,
                    NotPermutativeError, WindowError, WindowMeasure,
                    decompose_mca, fibre_trajectory_entropy, formula_entropy,
                    make_cyclic, partition_entropy,
                    push_forward, skew_entropy, star_compose,
                    star_product_measure, trajectory_joint_distribution,
                    trajectory_partition_entropy)
from mcalab import measures
from mcalab.specs import load_experiment, parse_measure

from conftest import traced_peak
from oracles import (law_items, partition_entropy_oracle, point_mass, prob,
                     probs, same_distribution, trajectory_oracle)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
EIGHTH = Fraction(1, 8)
ROOT = Path(__file__).resolve().parent.parent


def sum_rule(n):
    """x_0 + x_1 on Z/n."""
    G = make_cyclic(n)
    ident = GroupMap.identity(G)
    return McaRule(G, 0, 1, [(0, ident), (1, ident)], one_sided=True)


def xor_rule():
    return sum_rule(2)


def bern_point_nine():
    return MeasureSpec("bernoulli", 2, probs=[Fraction(9, 10), Fraction(1, 10)])


def test_uniform_window_measure():
    m = WindowMeasure.uniform(3, -1, 2)
    assert m.length == 3
    assert all(p == Fraction(1, 27) for p in probs(m))
    assert m.entropy_bits() == pytest.approx(3 * math.log2(3), abs=1e-12)
    assert m.tv_from_uniform() == 0
    assert m.is_uniform()


def test_point_mass_measure():
    m = point_mass(4, 0, [2, 0, 1])
    assert prob(m, (2, 0, 1)) == 1
    assert m.entropy_bits() == 0.0
    assert m.tv_from_uniform() == 1 - Fraction(1, 64)


def test_measure_weights_are_private_and_read_only():
    """The caller's arrays stay writable and cannot change the weights."""
    base = np.array([1, 2, 3, 2, 0], dtype=np.int64)
    view = base[1:]
    view.setflags(write=False)
    for num in (base[1:], view):
        m = WindowMeasure(2, 0, 2, num, 7)
        base[1] = 6
        assert m.num.tolist() == [2, 3, 2, 0]
        assert not m.num.flags.writeable
        base[1] = 2
    assert base.flags.writeable
    owned = np.array([3, 4], dtype=np.int64)
    owned.setflags(write=False)
    assert WindowMeasure(2, 0, 1, owned, 7).num is owned


def test_marginal_matches_spec_window():
    spec = bern_point_nine()
    m = spec.window_measure(0, 4)
    sub = m.marginal(1, 3)
    assert same_distribution(sub, spec.window_measure(1, 3))
    assert prob(sub, (0, 1)) == Fraction(9, 100)


def test_reversed_windows_raise_window_error():
    """A window [3..1) is named before any size is computed from it."""
    for make in (lambda: MeasureSpec("uniform", 2).window_measure(3, 1),
                 lambda: bern_point_nine().window_measure(3, 1),
                 lambda: WindowMeasure.uniform(2, 3, 1),
                 lambda: WindowMeasure(2, 3, 1, [1], 1)):
        with pytest.raises(WindowError, match=r"^bad window \[3\.\.1\)$"):
            make()


def test_push_forward_xor_bernoulli():
    m = bern_point_nine().window_measure(0, 2)
    out = push_forward(xor_rule(), m)
    assert (out.lo, out.hi) == (0, 1)
    assert prob(out, (0,)) == Fraction(82, 100)
    assert prob(out, (1,)) == Fraction(18, 100)
    assert sum(probs(out)) == 1


def test_push_forward_window_geometry():
    G = make_cyclic(3)
    ident = GroupMap.identity(G)
    rule = McaRule(G, -1, 1, [(-1, ident), (1, ident)])
    m = WindowMeasure.uniform(3, -2, 3, G)
    out = push_forward(rule, m)
    assert (out.lo, out.hi) == (-1, 2)
    assert out.is_uniform()


def test_push_forward_rejects_narrow_window():
    G = make_cyclic(3)
    ident = GroupMap.identity(G)
    centered = McaRule(G, -1, 1, [(-1, ident), (1, ident)])
    with pytest.raises(WindowError):
        push_forward(centered, WindowMeasure.uniform(3, 0, 1, G))


def test_markov_requires_stationary_initial():
    with pytest.raises(McaLabError, match="stationary"):
        MeasureSpec("markov", 2,
                    transition=[[HALF, HALF], [QUARTER, 3 * QUARTER]],
                    initial=[HALF, HALF])


def test_markov_shift_entropy_is_conditional_entropy():
    spec = MeasureSpec("markov", 2,
                       transition=[[HALF, HALF], [QUARTER, 3 * QUARTER]],
                       initial=[Fraction(1, 3), Fraction(2, 3)])
    pair = spec.window_measure(0, 2).entropy_bits()
    single = spec.window_measure(0, 1).entropy_bits()
    assert spec.shift_entropy_bits() == pytest.approx(pair - single, abs=1e-12)


def test_trajectory_joint_is_a_distribution():
    joint = law_items(trajectory_joint_distribution(xor_rule(), bern_point_nine(), 3))
    assert sum(joint.values()) == 1
    assert all(len(k) == 3 for k in joint)
    # a rule with no overlap observes no cell: one empty outcome
    G = make_cyclic(2)
    copy = McaRule(G, 0, 0, [(0, GroupMap.identity(G))], one_sided=True)
    for n in (0, 2):
        assert law_items(trajectory_joint_distribution(copy, bern_point_nine(), n)) == {
            (): 1}


def test_uniform_trajectory_fast_path_agrees_with_enumeration():
    rule = xor_rule()
    spec = MeasureSpec("uniform", 2)
    fast = trajectory_partition_entropy(rule, spec, 3)
    slow = partition_entropy(trajectory_oracle(rule, spec, 3))
    assert fast == pytest.approx(slow, abs=1e-12)
    assert fast == pytest.approx(3.0, abs=1e-12)  # right overlap 1, N = 3


def test_formula_entropy_sum_rule(x1_rule):
    spec = MeasureSpec("uniform", 20)
    assert formula_entropy(x1_rule, spec) == pytest.approx(
        2 * math.log2(20), abs=1e-12)


def test_formula_entropy_needs_bipermutativity():
    G = make_cyclic(4)
    double = GroupMap(G, G, [G.power(x, 2) for x in G.elements()], True)
    rule = McaRule(G, 0, 1, [(0, GroupMap.identity(G)), (1, double)])
    with pytest.raises(NotPermutativeError):
        formula_entropy(rule, MeasureSpec("uniform", 4))


def test_formula_entropy_warns_on_asserted_invariance():
    with pytest.warns(UserWarning, match="assumed"):
        val = formula_entropy(xor_rule(), bern_point_nine())
    h = bern_point_nine().shift_entropy_bits()
    assert val == pytest.approx(h, abs=1e-12)


@pytest.mark.parametrize("spec", [
    MeasureSpec("uniform", 3),
    MeasureSpec("bernoulli", 3, probs=[HALF, QUARTER, QUARTER])])
def test_formula_entropy_refuses_a_law_over_the_wrong_alphabet(spec):
    """Two-sided xor over Z/2 with a 3-symbol law: refused before any
    probe or warning, whatever the kind of law."""
    G = make_cyclic(2)
    ident = GroupMap.identity(G)
    rule = McaRule(G, -1, 1, [(-1, ident), (1, ident)])
    with pytest.raises(McaLabError, match="measure alphabet does not match"):
        formula_entropy(rule, spec)


def test_skew_entropy_arithmetic():
    assert skew_entropy(2, 2, math.log2(5), 2.0) == pytest.approx(
        2 * math.log2(20), abs=1e-12)


def test_fibre_entropy_obeys_the_chain_rule(x1_rule, z20_frame):
    dec = decompose_mca(x1_rule, z20_frame)
    lam = MeasureSpec("uniform", 5)
    nu = MeasureSpec("uniform", 4)
    rel = fibre_trajectory_entropy(dec, lam, nu, 2)
    full = trajectory_partition_entropy(x1_rule, MeasureSpec("uniform", 20), 2)
    base = trajectory_partition_entropy(dec.h_rule, nu, 2)
    assert rel == pytest.approx(full - base, abs=1e-9)
    assert rel == pytest.approx(4 * math.log2(5), abs=1e-9)


def test_fibre_entropy_at_one_step_is_the_window_entropy(x1_rule, z20_frame):
    dec = decompose_mca(x1_rule, z20_frame)
    lam = MeasureSpec("bernoulli", 5, probs=[Fraction(k, 15) for k in range(1, 6)])
    rel = fibre_trajectory_entropy(dec, lam, MeasureSpec("uniform", 4), 1)
    window = lam.window_measure(-x1_rule.left_overlap, x1_rule.right_overlap)
    assert rel == pytest.approx(window.entropy_bits(), abs=1e-9)


@pytest.mark.parametrize("factor, sizes", [
    ("λ", (4, 4)), ("λ", (20, 4)), ("ν", (5, 3)), ("ν", (5, 5)), ("ν", (5, 2))],
    ids=["lambda4", "lambda20", "nu3", "nu5", "nu2"])
def test_fibre_entropy_refuses_a_law_over_the_wrong_alphabet(factor, sizes):
    """The metacyclic demo's decomposition (A = Z/5, C = Z/4) at N = 1
    refuses a uniform law over the wrong alphabet on either factor, by
    name; the right laws give 2·log2(5) bits."""
    cfg = load_experiment(str(ROOT / "demos" / "configs" / "decompose_metacyclic.json"))
    dec = decompose_mca(cfg.rule, cfg.frame)
    part, order, got = ("A", 5, sizes[0]) if factor == "λ" else ("C", 4, sizes[1])
    with pytest.raises(McaLabError, match=rf"star law: {factor} must be over "
                                          rf"\|{part}\| = {order} symbols, got {got}$"):
        fibre_trajectory_entropy(dec, *(MeasureSpec("uniform", n) for n in sizes), 1)
    assert fibre_trajectory_entropy(dec, MeasureSpec("uniform", 5),
                                    MeasureSpec("uniform", 4), 1) == 2 * math.log2(5)


def test_fibre_entropy_keys_every_star_word_in_one_pass(q8, q8_center_frame, quat_g1,
                                                        monkeypatch):
    """Q8 over its centre, a two-sided width-3 rule at N = 3: one
    ``_observation_keys`` pass over the 8^6 star words, not one per
    quotient word (4096), held under three times its intp key table,
    which a whole-window index array per factor would pass."""
    ident = GroupMap.identity(q8)
    rule = McaRule(q8, -1, 1, [(-1, ident), (0, quat_g1), (1, ident)])
    dec = decompose_mca(rule, q8_center_frame)
    nu = MeasureSpec("bernoulli", 4, probs=[HALF, QUARTER, EIGHTH, EIGHTH])
    keys, passes = measures._observation_keys, []

    def watched(m, *args):
        passes.append(m.size ** m.length)
        return keys(m, *args)

    monkeypatch.setattr(measures, "_observation_keys", watched)
    h, peak = traced_peak(fibre_trajectory_entropy, dec, MeasureSpec("uniform", 2), nu, 3)
    assert passes == [8 ** 6]
    assert h == 6.0
    assert peak < 3 * 8 ** 6 * np.dtype(np.intp).itemsize


def test_star_product_measure_lands_on_cosets(z20_frame):
    frame = z20_frame
    a = point_mass(5, 0, [2], frame.a_group)
    c = WindowMeasure.uniform(4, 0, 1, frame.C)
    m = star_product_measure(frame, a, c)
    assert m.size == frame.B.order
    for cc in range(4):
        assert prob(m, (star_compose(frame, 2, cc),)) == Fraction(1, 4)
    assert sum(probs(m)) == 1


@pytest.mark.parametrize("sizes", [(4, 5), (4, 4), (5, 5), (6, 4)])
def test_star_product_refuses_factors_over_the_wrong_alphabet(z20_frame, sizes):
    a, c = (WindowMeasure.uniform(size, 0, 2) for size in sizes)
    with pytest.raises(McaLabError, match=rf"\|A\| = 5 and \|C\| = 4, "
                                          rf"got sizes {sizes[0]} and {sizes[1]}"):
        star_product_measure(z20_frame, a, c)


def metacyclic_laws(frame):
    """The metacyclic demo's λ over A and ν over C on its widest exact
    window, 5 cells (20^5 words over B)."""
    return (MeasureSpec("uniform", 5).window_measure(0, 5, frame.a_group),
            MeasureSpec("bernoulli", 4, probs=[HALF, QUARTER, EIGHTH, EIGHTH]
                        ).window_measure(0, 5, frame.C))


def test_star_product_holds_one_full_window(z20_frame):
    """The metacyclic demo's laws on its widest exact window (20^5 words):
    past its output the star product allocates only chunk-sized scratch.
    Its denominator 40^5 fits int32."""
    m, peak = traced_peak(star_product_measure, z20_frame, *metacyclic_laws(z20_frame))
    assert (m.num.dtype, m.num.size, m.den) == (np.int32, 20 ** 5, 40 ** 5)
    assert peak <= 1.25 * m.num.nbytes


def test_star_product_is_the_same_in_any_chunk(z20_frame, monkeypatch):
    """The demo's 20^5-word law is the same in chunks of 400 words as in
    the default ones; int64 factors whose product denominator passes 2**62
    multiply in Python ints, exactly a.num[x] * c.num[y] of each star word."""
    laws = metacyclic_laws(z20_frame)
    want = star_product_measure(z20_frame, *laws)
    monkeypatch.setattr(measures, "_CHUNK", 1 << 10)
    got = star_product_measure(z20_frame, *laws)
    assert got.num.dtype == want.num.dtype == np.int32
    assert np.array_equal(got.num, want.num)
    rng = np.random.default_rng(7)
    a, c = (WindowMeasure(size, 0, 3, num, int(num.sum()))
            for size in (5, 4)
            for num in [rng.integers(2 ** 31, 2 ** 32, size ** 3)])
    assert (a.num.dtype, c.num.dtype) == (np.int64, np.int64)
    m = star_product_measure(z20_frame, a, c)
    assert m.num.dtype == object and m.den == a.den * c.den >= 2 ** 62
    x, y = z20_frame.word_indices(3)
    assert m.num.tolist() == [int(a.num[i]) * int(c.num[j])
                              for i, j in zip(x.tolist(), y.tolist())]


def test_bernoulli_window_holds_one_full_window(z20):
    """A 20-symbol Bernoulli window of 5 cells: no copy of the weights is
    made to divide them by their gcd."""
    spec = MeasureSpec("bernoulli", 20, probs=[Fraction(k, 210) for k in range(1, 21)])
    m, peak = traced_peak(spec.window_measure, 0, 5, z20)
    assert (m.num.dtype, m.num.size, m.den) == (np.int64, 20 ** 5, 210 ** 5)
    assert peak <= 1.25 * m.num.nbytes


def test_push_forward_chunk_loop_allocates_nothing(z20_frame, x1_rule, monkeypatch):
    """One step over the metacyclic demo's 20^5-word law allocates its
    output and a fixed set of chunk buffers, whatever the chunk count:
    the traced peak grows with the chunk, not with the number of chunks,
    and past the first chunk the loop allocates no chunk-sized array."""
    m = star_product_measure(z20_frame, *metacyclic_laws(z20_frame))
    keys, growth = measures._observation_keys, []

    def watched(*args):
        chunks = keys(*args)
        yield next(chunks)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield from chunks
        growth.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(measures, "_observation_keys", watched)
    peaks = {}
    # a chunk of 20^2 = 400 words (8000 chunks), then of 20^3 = 8000 (400)
    for chunk, words in ((1 << 10, 20 ** 2), (1 << 16, 20 ** 3)):
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        out, peak = traced_peak(push_forward, x1_rule, m)
        assert (out.num.size, out.num.dtype) == (20 ** 3, np.int32)
        # start cells, two code buffers, index, output, key, digit: under
        # 96 bytes per chunk word, beside the output and set-up scratch
        assert peak - out.num.nbytes <= 96 * words + (64 << 10), chunk
        peaks[chunk] = peak
    assert peaks[1 << 10] < peaks[1 << 16]
    # np.add.at keeps about 5 KB of scratch; the chunk buffers come to 29 KB
    # at 400 words, and each alone is at least 48 KB at 8000
    assert len(growth) == 2 and max(growth) < 16 << 10, growth


def test_partition_entropy_accepts_plain_weights():
    assert partition_entropy([1, 1, 2]) == pytest.approx(1.5, abs=1e-12)
    assert partition_entropy({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == 1.0
    # every weight type, numpy scalars included, gives the oracle's bits
    floats = [0.1, 0.2, 0.7, 0.1]
    for weights in ([1, 2, 1], [True, True], [Fraction(1, 3), Fraction(2, 3)],
                    floats, [np.int64(1), np.int64(2), np.int64(1)],
                    [np.float64(x) for x in floats],
                    [1, Fraction(1, 2), 0.25, np.int64(3), True],
                    [np.int64(7), np.float64(0.3), Fraction(1, 3)]):
        assert repr(partition_entropy(weights)) == repr(
            partition_entropy_oracle(weights)), weights
    # a float weight is the exact binary value it holds
    assert repr(partition_entropy(floats)) == repr(
        partition_entropy([Fraction(x) for x in floats]))
    # one outcome: -fsum of a single 0.0 term
    for dist in ([5], {"only": Fraction(3, 7)}, [0, 2, 0]):
        assert repr(partition_entropy(dist)) == repr(
            partition_entropy_oracle(dist)) == "-0.0"


# distinct weights of one law: ints and Fractions, equal values merged
distinct_weights = st.lists(
    st.one_of(st.integers(0, 40), st.fractions(0, 5, max_denominator=12)),
    min_size=1, max_size=6, unique=True)


@settings(max_examples=60, deadline=None)
@given(distinct_weights, st.data(), st.booleans())
def test_partition_entropy_matches_oracle(distinct, data, as_mapping):
    """One term per distinct weight changes no bit, zero's sign included."""
    weights = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    dist = {f"w{i}": w for i, w in enumerate(weights)} if as_mapping else weights
    if not sum(weights):
        with pytest.raises(McaLabError, match="positive total"):
            partition_entropy(dist)
        return
    assert repr(partition_entropy(dist)) == repr(partition_entropy_oracle(dist))


def test_window_entropy_is_the_oracle_sum():
    """A WindowMeasure gives the bits of its own probability list."""
    sixths = MeasureSpec("bernoulli", 3, probs=[HALF, Fraction(1, 3), Fraction(1, 6)])
    q = 2 ** 61 - 1
    wide = MeasureSpec("bernoulli", 3, probs=[Fraction(q // 3, q), Fraction(q // 4, q),
                                              Fraction(q - q // 3 - q // 4, q)])
    windows = [sixths.window_measure(0, 4), sixths.window_measure(0, 6),
               wide.window_measure(0, 2)]
    assert windows[-1].num.dtype == object and windows[-1].den >= 2 ** 62
    for m in windows:
        want = repr(partition_entropy_oracle(probs(m)))
        assert repr(partition_entropy(m)) == repr(m.entropy_bits()) == want
        assert repr(partition_entropy(probs(m))) == want


def test_shift_entropy_is_the_oracle_sum():
    config = json.loads((ROOT / "perfbench" / "configs"
                         / "entropy_metacyclic.json").read_text())
    laws = [[HALF, Fraction(1, 3), Fraction(1, 6)],
            [Fraction(7, 10), Fraction(3, 10)],
            [Fraction(p) for p in config["measure"]["probs"]]]
    for law in laws:
        spec = MeasureSpec("bernoulli", len(law), probs=law)
        assert repr(spec.shift_entropy_bits()) == repr(partition_entropy_oracle(law))


def scaled_sum_rule(G, k):
    """k·x_{-1} + k·x_1 on the cyclic group G."""
    times_k = GroupMap(G, G, [k * x % G.order for x in G.elements()], True)
    return McaRule(G, -1, 1, [(-1, times_k), (1, times_k)])


def test_uniform_trajectory_count_is_the_oracle_sum(monkeypatch):
    """Rules under a uniform law count preimages."""
    z6, z9 = make_cyclic(6), make_cyclic(9)
    doubled = scaled_sum_rule(z6, 2)
    cases = [(doubled, 6), (scaled_sum_rule(z9, 3), 9)]
    wants = [partition_entropy_oracle(trajectory_oracle(op, MeasureSpec("uniform", s), 2))
             for op, s in cases]

    def joint_law(*args):
        raise AssertionError("a uniform law built the joint law")

    monkeypatch.setattr(measures, "trajectory_joint_distribution", joint_law)
    for (op, s), want in zip(cases, wants):
        got = trajectory_partition_entropy(op, MeasureSpec("uniform", s), 2)
        assert repr(got) == repr(want), (op, s)


def test_non_uniform_trajectory_entropy_reads_one_joint_law(monkeypatch):
    """Any other law takes its entropy from exactly one joint law."""
    rule = sum_rule(3)
    specs = [MeasureSpec("bernoulli", 3,
                         probs=[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
             MeasureSpec("markov", 3, transition=[[HALF, HALF, 0], [0, HALF, HALF],
                                                  [HALF, 0, HALF]],
                         initial=[Fraction(1, 3)] * 3)]
    joint, calls = measures.trajectory_joint_distribution, []

    def spy(*args, **kwargs):
        calls.append(args)
        return joint(*args, **kwargs)

    monkeypatch.setattr(measures, "trajectory_joint_distribution", spy)
    for spec in specs:
        calls.clear()
        got = trajectory_partition_entropy(rule, spec, 3)
        assert len(calls) == 1, spec.kind
        assert repr(got) == repr(partition_entropy_oracle(
            trajectory_oracle(rule, spec, 3))), spec.kind


def test_metacyclic_trajectory_entropy_holds_one_weight_array():
    """The benchmark's Z/5⋊Z/4 rule and Bernoulli law at N = 2, 20^4
    observation words: the law and its entropy stay within a few int32
    arrays of 20^4 weights (640 kB each)."""
    cfg = load_experiment(str(ROOT / "perfbench" / "configs" / "entropy_metacyclic.json"))
    spec = parse_measure(cfg.group.order, cfg.param("measure"))
    got, peak = traced_peak(trajectory_partition_entropy, cfg.rule, spec, 2)
    assert repr(got) == "16.683802377818676"
    assert peak < 4_000_000


@pytest.mark.parametrize("den, length", [(2 ** 62 - 1, 3), (10 ** 16, 16)])
def test_measure_sums_weights_exactly_past_int64(den, length):
    """Past size·den = 2**63 an int64 sum of the weights can wrap; they are
    summed exactly instead.  An exact sum is accepted, one off either way
    is refused, and so is a sum that passes den by 2**64 with every weight
    at most den, or one that does so through weights above den."""
    n = 2 ** length
    assert n * den >= 2 ** 63
    even = np.full(n, den // n, dtype=np.int64)
    even[-1] += den % n
    assert WindowMeasure(2, 0, length, even, den).num.tolist() == even.tolist()
    k, r = divmod(2 ** 64 + den, den)
    wrapped, above = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    wrapped[:k + 1] = [den] * k + [r]
    above[:3] = [2 ** 63 - 1, 2 ** 63 - 1, den + 2]
    bad = [wrapped, above]
    for delta in (-1, 1):
        bad.append(even.copy())
        bad[-1][n // 2] += delta
    for num in bad:
        assert int(num.sum()) in (den - 1, den, den + 1)   # as int64 wraps it
        with pytest.raises(McaLabError, match="sum exactly"):
            WindowMeasure(2, 0, length, num, den)


def test_trajectory_law_past_int64_weights():
    """A window denominator of at least 2**62 keeps Python-int weights."""
    q = 2 ** 61 - 1
    rule = sum_rule(3)
    spec = MeasureSpec("bernoulli", 3,
                       probs=[Fraction(1, q), Fraction(5, q), Fraction(q - 6, q)])
    assert spec.window_measure(0, 3).num.dtype == object
    want = trajectory_oracle(rule, spec, 3)
    law = trajectory_joint_distribution(rule, spec, 3)
    assert law.num.dtype == object
    joint = law_items(law)
    assert joint == want and list(joint) == sorted(joint)
    assert repr(trajectory_partition_entropy(rule, spec, 3)) == repr(
        partition_entropy_oracle(want))


@pytest.mark.parametrize("chunk", [1, 40])
def test_trajectory_law_is_independent_of_the_chunk(monkeypatch, chunk):
    rule = sum_rule(3)
    spec = MeasureSpec("bernoulli", 3,
                       probs=[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    want = law_items(trajectory_joint_distribution(rule, spec, 4))   # 81 words
    assert want == trajectory_oracle(rule, spec, 4)
    monkeypatch.setattr(measures, "_CHUNK", chunk)
    joint = law_items(trajectory_joint_distribution(rule, spec, 4))
    assert joint == want and list(joint) == list(want) == sorted(joint)


@pytest.mark.parametrize("chunk", [1 << 16, 7])
def test_exact_paths_step_only_past_the_first_step(monkeypatch, chunk):
    """A push-forward and a trajectory law over up to two time steps read
    the image off local-table terms and never call ``step_cells``; a third
    time step steps the time-1 cells once per chunk, in one workspace."""
    rule, spec = sum_rule(3), MeasureSpec(
        "bernoulli", 3, probs=[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    step, works = measures.step_cells, []

    def spy(op, cells, cap, work=None):
        works.append(work)
        return step(op, cells, cap, work)

    monkeypatch.setattr(measures, "step_cells", spy)
    monkeypatch.setattr(measures, "_CHUNK", chunk)
    push_forward(rule, spec.window_measure(0, 6, rule.group))
    for n_steps in (1, 2):
        trajectory_joint_distribution(rule, spec, n_steps)
    assert works == []
    # 3^3 input words: one chunk, or nine of 3 words when a chunk holds 7
    assert law_items(trajectory_joint_distribution(rule, spec, 3)) == trajectory_oracle(
        rule, spec, 3)
    assert len(works) == (1 if chunk > 27 else 9)
    assert works[0] is not None and all(w is works[0] for w in works)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.booleans())
def test_push_forward_conserves_mass(k, use_collapsing):
    G = make_cyclic(4)
    ident = GroupMap.identity(G)
    double = GroupMap(G, G, [G.power(x, 2) for x in G.elements()], True)
    rule = McaRule(G, 0, 1, [(0, ident), (1, double if use_collapsing else ident)])
    cells = [Fraction(k, 16), Fraction(8 - k, 16), Fraction(3, 16),
             Fraction(5, 16)]
    m = MeasureSpec("bernoulli", 4, probs=cells).window_measure(0, 3, G)
    out = push_forward(rule, m)
    assert sum(probs(out)) == 1


def test_entropy_routes_leave_numpy_ma_unimported():
    """Neither entropy route imports ``numpy.ma``: numpy 2.4 imports it on a
    bare ``np.unique``, which ``measures`` never calls (each of its calls
    asks for counts or inverse indices)."""
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from mcalab import (GroupMap, McaRule, MeasureSpec, make_cyclic,
                            trajectory_partition_entropy)
        G = make_cyclic(4)
        double = GroupMap(G, G, [0, 2, 0, 2], True)
        rule = McaRule(G, 0, 1, [(0, double), (1, double)])
        law = MeasureSpec("bernoulli", 4, probs=[Fraction(1, 2), Fraction(1, 4),
                                                 Fraction(1, 8), Fraction(1, 8)])
        for spec in (MeasureSpec("uniform", 4), law):
            print(trajectory_partition_entropy(rule, spec, 2))
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(measures.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    # 3 bits: 2x0 + 2x1 takes two values, so the uniform route is not the
    # bijective closed form (4 bits)
    assert out[0] == "3.0" and float(out[1]) < 3.5
    assert out[2] == "False"


def test_digit_automaton_diffusion_leaves_numpy_ma_unimported(tmp_path):
    """A ``diffuse`` run on the digit-automaton route (xor to j = 4096) does
    not import ``numpy.ma`` either: ``spectral._digit_ranks`` finds the
    nonempty residue classes with ``np.bincount``, not a bare ``np.unique``."""
    config = json.loads((ROOT / "demos" / "configs" / "diffuse_xor.json").read_text())
    path = tmp_path / "diffuse.json"
    path.write_text(json.dumps({**config, "j_max": 4096}))
    code = textwrap.dedent(f"""
        import sys
        from mcalab import cli, spectral
        routed = []
        digit_ranks = spectral._digit_ranks
        spectral._digit_ranks = lambda *args: routed.append(args[3]) or digit_ranks(*args)
        status = cli.main(["diffuse", "--config", {str(path)!r}, "--out", {str(tmp_path)!r}])
        print(status, routed, "numpy.ma" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(measures.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[-1] == "0 [2] False"
    # rank 2^popcount(j) at j = 4096
    assert (tmp_path / "diffuse.csv").read_text().splitlines()[-1] == "4096,2"
