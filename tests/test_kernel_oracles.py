"""The table-lookup window kernel against the scalar oracles in ``oracles``.

Every exhaustive path (push-forward, marginal, the star product measure,
trajectory laws, recomposition) is compared exactly with a word-by-word
enumeration through ``eval_local``/``apply_window``/``star_compose``, on
random rules over Q8, Z/5⋊Z/4 and S3 = Z/3⋊Z/2; the bit-sliced kernel
is compared with the table kernel and ``apply_window`` on 2-groups up to
order 16, and a star law's plane map with ``b_of``.  The array dual action
is compared bit for bit with a cell-by-cell step on abelian groups, and
the integer fibre ranks with a ``Fraction`` finite-difference reading.
"""
import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcalab import (Character, Config, GroupMap, LinearRuleDual, McaRule,
                    MeasureSpec, Subgroup, WindowMeasure,
                    abelian_invariants, apply_window, center, central_split,
                    decompose_mca, diffusion_report, dual_action,
                    enumerate_endomorphisms, fibre_rank_independence,
                    generated_subgroup,
                    make_cyclic, make_direct_sum, make_frame, make_quaternion,
                    local_table, make_semidirect, nilpotent_tower, push_forward,
                    recompose_check, star_product_measure,
                    trajectory_joint_distribution,
                    trajectory_partition_entropy)
from mcalab import McaLabError, measures, spectral
from mcalab.measures import StarLaw
from mcalab.errors import CapExceededError, TableInvalidError, WindowError
from mcalab.rules import (_plane_program, algebraic_normal_form, from_planes,
                          plane_map, step_buffers, step_cells, step_planes,
                          to_planes)
from mcalab.util import digit_planes, iter_words

from conftest import dihedral, drawn, heisenberg, quaternion16, traced_peak

from oracles import (dual_action_oracle, fibre_oracle, fibre_rank_oracle,
                     fibre_trajectory_entropy_oracle, marginal_oracle,
                     law_items, partition_entropy_oracle, probs,
                     sample_words_oracle,
                     push_forward_oracle, recompose_oracle,
                     star_product_oracle, tower_oracle, trajectory_oracle,
                     weight_dtype_oracle, word_weight)

# oracle loops stay under this many words per example
MAX_WORDS = 8000


@cache
def group(name):
    if name == "Q8":
        return make_quaternion()
    if name == "Z5:Z4":
        return make_semidirect(make_cyclic(5), make_cyclic(4),
                               [[pow(2, c, 5) * a % 5 for a in range(5)]
                                for c in range(4)])
    return make_semidirect(make_cyclic(3), make_cyclic(2),
                           [[0, 1, 2], [0, 2, 1]])


@cache
def frame(name):
    G = group(name)
    if name == "Q8":
        return make_frame(G, center(G))
    # the normal cyclic factor, at indices a·|acting| in normal-major layout
    step = 4 if name == "Z5:Z4" else 2
    return make_frame(G, Subgroup(G, list(range(0, G.order, step))))


@cache
def coefficients(name, inner_only):
    """Endomorphisms, or only conjugations (which keep every normal subgroup)."""
    G = group(name)
    if inner_only:
        return [GroupMap(G, G, [G.conjugate(g, x) for x in G.elements()], True)
                for g in G.elements()]
    return enumerate_endomorphisms(G)


def max_len(order):
    return int(math.log(MAX_WORDS) / math.log(order) + 1e-9)


group_names = st.sampled_from(["Q8", "Z5:Z4", "S3"])


@st.composite
def rules(draw, name, v_lo, v_hi, inner_only=False):
    G = group(name)
    coeffs = coefficients(name, inner_only)
    factors = [(draw(st.integers(v_lo, v_hi)), draw(st.sampled_from(coeffs)))
               for _ in range(draw(st.integers(1, 4)))]
    return McaRule(G, v_lo, v_hi, factors, draw(st.integers(0, G.order - 1)))


@st.composite
def neighborhoods(draw, max_width):
    v_lo = draw(st.integers(-1, 0))
    return v_lo, v_lo + draw(st.integers(1, max_width)) - 1


def random_weights(seed, size, scale=1):
    """Nonnegative integer weights with a positive sum, times ``scale``."""
    rng = np.random.default_rng(seed)
    w = [int(x) * scale for x in rng.integers(0, 4, size)]
    w[int(rng.integers(size))] += scale
    return w


def random_measure(seed, size, lo, length, scale=1):
    num = random_weights(seed, size ** length, scale)
    return WindowMeasure(size, lo, lo + length, tuple(num), sum(num))


def assert_push_forward_matches_oracle(data, name, seed):
    G = group(name)
    v_lo, v_hi = data.draw(neighborhoods(max_len(G.order)))
    length = data.draw(st.integers(v_hi - v_lo + 1, max_len(G.order)))
    m = random_measure(seed, G.order, data.draw(st.integers(-2, 2)), length)
    out_cells = range(m.lo - v_lo, m.hi - v_hi)
    op = data.draw(rules(name, v_lo, v_hi))
    out = push_forward(op, m)
    assert (out.lo, out.hi, out.den) == (out_cells.start, out_cells.stop, m.den)
    assert out.num.tolist() == push_forward_oracle(op, m)


@settings(max_examples=30, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1))
def test_push_forward_matches_oracle(data, name, seed):
    assert_push_forward_matches_oracle(data, name, seed)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=20, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1))
def test_push_forward_matches_oracle_across_chunks(chunk, data, name, seed):
    """A chunk of one word, or of 7, fixes leading cells inside the window
    of some image cell, whose local-table term is then indexed by them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_CHUNK", chunk)
        assert_push_forward_matches_oracle(data, name, seed)


def test_step_cells_matches_oracle_from_any_integer_dtype():
    # |Z/6|**6 = 46656 > 2**15, so the window codes need int32
    G = make_cyclic(6)
    endos = enumerate_endomorphisms(G)
    rule_a = McaRule(G, -2, 3, [(p, endos[(p + 2) % len(endos)])
                                for p in range(-2, 4)], 1)
    rule_b = McaRule(G, -2, 3, [(3, endos[1]), (-2, endos[5]), (0, endos[2])])
    words = np.random.default_rng(0).integers(0, 6, (200, 9))
    for op in (rule_a, rule_b):
        want = [list(apply_window(op, Config(G, 0, w)).word)
                for w in words.tolist()]
        for cells in (words, words.astype(np.uint8)):
            got = step_cells(op, cells.T)
            assert got.dtype == np.int32
            assert got.T.tolist() == want


def random_rule(G, v_lo, v_hi, rng):
    """A rule with 1..5 endomorphism factors at random window positions."""
    endos = enumerate_endomorphisms(G)
    factors = [(int(rng.integers(v_lo, v_hi + 1)), endos[rng.integers(len(endos))])
               for _ in range(int(rng.integers(1, 6)))]
    return McaRule(G, v_lo, v_hi, factors, int(rng.integers(G.order)))


# (group, window, code dtype): widths 2, 3, 5 and 6 leave a Horner
# remainder after the doublings, width 4 is doublings only
KERNEL_CASES = [
    ("Z/2", (0, 1), np.int8), ("Z/2", (-1, 1), np.int8),
    ("Z/2", (-2, 2), np.int8), ("Z/2", (-2, 3), np.int8),
    ("Q8", (-1, 1), np.int16), ("Q8", (-1, 2), np.int16),
    ("Z/6", (0, 4), np.int16), ("Z/6", (-2, 3), np.int32)]


@pytest.mark.parametrize("name, window, code", KERNEL_CASES)
@pytest.mark.parametrize("caller_work", [False, True, "chain"])
def test_cell_major_step_cells_matches_apply_window(name, window, code,
                                                    caller_work):
    """Chains of steps agree with ``apply_window``: on fresh workspaces, on
    the caller's :func:`step_buffers` for each step, whose output buffer is
    the result, or ("chain") in place in one workspace sized for the
    chain's first block."""
    G = make_quaternion() if name == "Q8" else make_cyclic(int(name[2:]))
    (v_lo, v_hi), lo, steps = window, -3, 5
    rng = np.random.default_rng(G.order * 100 + v_hi - v_lo)
    width = v_hi - v_lo + 1
    words = rng.integers(0, G.order, (40, steps * (width - 1) + 2))
    op = random_rule(G, v_lo, v_hi, rng)
    chains = [Config(G, lo, w) for w in words.tolist()]
    want = []
    for _ in range(steps):
        chains = [apply_window(op, c) for c in chains]
        want.append([list(c.word) for c in chains])
    # cell-major blocks: uint8 and int64, contiguous and transposed views
    for cells in (np.ascontiguousarray(words.T, dtype=np.uint8),
                  np.ascontiguousarray(words.T), words.T,
                  words.astype(np.uint8).T):
        chain = step_buffers(op, cells.shape)
        for n in range(steps):
            work = (chain if caller_work == "chain" else
                    step_buffers(op, cells.shape) if caller_work else None)
            cells = step_cells(op, cells, work=work)
            assert cells.dtype == code and cells.flags.c_contiguous
            assert cells.T.tolist() == want[n]
            assert not caller_work or np.shares_memory(cells, work[-1])
            assert caller_work is not True or cells is work[-1]
    # a 1-D block is one word
    assert step_cells(op, words[0]).tolist() == want[0][0]
    with pytest.raises(WindowError, match="narrower than the rule"):
        step_cells(op, words.T[:width - 2])
    assert step_cells(op, words.T[:width - 1]).shape == (0, len(words))


@pytest.mark.parametrize("name, window, code", KERNEL_CASES)
def test_one_workspace_steps_every_block_in_place(name, window, code):
    """One :func:`step_buffers` workspace, made for a block of 3-D trailing
    shape, runs a 5-step chain in place and then a shorter block's chain,
    both as ``apply_window`` does; a step fed a view of the workspace's own
    output equals the same step on a copy; a block that does not fit is a
    ``WindowError`` naming the workspace."""
    G = make_quaternion() if name == "Q8" else make_cyclic(int(name[2:]))
    (v_lo, v_hi), steps = window, 5
    rng = np.random.default_rng(G.order * 1000 + v_hi - v_lo)
    spread, ident = v_hi - v_lo, GroupMap.identity(G)
    # every cell in shuffled order: no rule constant in a cell hides a clobber
    op = McaRule(G, v_lo, v_hi, [(int(p), ident) for p in
                                 rng.permutation(range(v_lo, v_hi + 1))],
                 int(rng.integers(G.order)))
    words = rng.integers(0, G.order, (12, steps * spread + 3))
    work = step_buffers(op, (words.shape[1], 3, 4))
    for length in (words.shape[1], words.shape[1] - 1):
        chains = [Config(G, 0, w[:length]) for w in words.tolist()]
        cells = words[:, :length].T.reshape(length, 3, 4)
        for n in range(steps):
            chains = [apply_window(op, c) for c in chains]
            cells = step_cells(op, cells, work=work)
            assert cells.dtype == code and np.shares_memory(cells, work[-1])
            assert cells.reshape(len(cells), 12).T.tolist() == [
                list(c.word) for c in chains]
    # in place, at full width and on leading cells, as on a fresh copy
    for length in (len(work[-1]), len(work[-1]) - 1):
        block = work[-1][:length]
        want = step_cells(op, block.copy())
        assert np.array_equal(step_cells(op, block, work=work), want)
    # other trailing axes, an image one cell too long, a block narrower
    # than the rule
    fits = f"does not fit the workspace of output shape {re.escape(str(work[-1].shape))}"
    for shape in ((len(words.T), 12), (len(words.T), 4, 3),
                  (len(work[-1]) + spread + 1, 3, 4), (spread - 1, 3, 4)):
        with pytest.raises(WindowError, match=fits):
            step_cells(op, np.zeros(shape, dtype=np.int64), work=work)


# 2-groups, each element a b-bit code; Q16 is built from its table
PLANE_GROUPS = {
    "Z/2": lambda: make_cyclic(2), "Z/4": lambda: make_cyclic(4),
    "Z/8": lambda: make_cyclic(8), "(Z/2)^3": lambda: make_direct_sum([2, 2, 2]),
    "Q8": make_quaternion, "D8": lambda: dihedral(4),
    "D16": lambda: dihedral(8), "Q16": quaternion16}


@pytest.mark.parametrize("width, name", [
    *((w, n) for w in (2, 3, 4) for n in sorted(PLANE_GROUPS)),
    *((w, n) for w in (5, 6) for n in ("Z/2", "Z/4"))])
def test_step_planes_matches_step_cells_and_apply_window(name, width):
    """Bit-sliced steps agree with the table kernel on every window word
    and on sample counts around the 64-sample lane, and the first samples
    of each chain agree with the scalar oracle; packing round-trips.  The
    width-6 Z/4 rule shares an XOR that reaches more than one cell."""
    G = PLANE_GROUPS[name]()
    bits = G.order.bit_length() - 1
    rng = np.random.default_rng(G.order * 10 + width)
    extra = random_rule(G, -1, width - 2, rng)
    # a product of every cell in shuffled order, then random factors
    ident = GroupMap.identity(G)
    op = McaRule(G, -1, width - 2,
                 [(int(p), ident) for p in rng.permutation(range(-1, width - 1))]
                 + list(extra.factors), extra.bias)
    shared, _ = _plane_program(op)
    assert (width, name) != (6, "Z/4") or max(reach for *_, reach in shared) > 1
    # every window word as one sample: the normal form is the local table
    every = digit_planes(np.arange(G.order ** width), G.order, width)
    planes = step_planes(op, to_planes(every.astype(np.uint8), bits))
    assert planes.shape == (bits, 1, -(-len(every) // 64))
    assert np.array_equal(from_planes(planes, len(every))[:, 0], local_table(op))
    steps, length = 3, 3 * (width - 1) + 2
    for count in (1, 63, 64, 65, 3000, (1 << 14) + 1500):
        words = rng.integers(0, G.order, (count, length)).astype(np.uint8)
        planes = to_planes(words, bits)
        assert planes.shape == (bits, length, -(-count // 64))
        assert np.array_equal(from_planes(planes, count), words)
        cells = words.T
        for _ in range(steps):
            planes = step_planes(op, planes)
            cells = step_cells(op, cells)
            assert planes.dtype == np.uint64 and planes.flags.c_contiguous
            assert np.array_equal(from_planes(planes, count), cells.T)
        for word, got in zip(words[:4].tolist(), from_planes(planes, count)):
            config = Config(G, 0, word)
            for _ in range(steps):
                config = apply_window(op, config)
            assert got.tolist() == list(config.word)
    with pytest.raises(WindowError, match="narrower than the rule"):
        step_planes(op, to_planes(words[:, :width - 2], bits))


def test_to_planes_holds_its_planes_and_two_slabs():
    """Packing one Monte-Carlo chunk of the Q8 run (16384 samples of 193
    cells) allocates its planes and two 32-cell slabs, a byte copy and its
    work buffer, and no full-size copy of the words."""
    words = np.random.default_rng(7).integers(0, 8, (1 << 14, 193), dtype=np.uint8)
    planes, peak = traced_peak(to_planes, words, 3)
    assert np.array_equal(from_planes(planes, len(words)), words)
    assert peak <= planes.nbytes + 2 * 32 * len(words) + (4 << 10)


def test_planes_refuse_what_they_cannot_encode():
    """Bit planes need a group of order 2**b and codes of at most 8 bits."""
    with pytest.raises(TableInvalidError, match="order 6 is not a power of two"):
        algebraic_normal_form(McaRule(make_cyclic(6), 0, 1, []))
    with pytest.raises(TableInvalidError, match="not 9-bit ones"):
        to_planes(np.zeros((1, 1), dtype=np.uint16), 9)


@pytest.mark.parametrize("name", sorted(PLANE_GROUPS))
def test_star_codes_map_to_b_planes_as_b_of_does(name):
    """Over every frame of a 2-group B on a normal subgroup of at most two
    generators, and on the trivial subgroup and B itself, a star law's
    plane map sends every star code x·|C| + y to ``b_of[x, y]``: packed as
    cells of 1000 samples, not a multiple of 64, and unpacked again."""
    G = PLANE_GROUPS[name]()
    bits = G.order.bit_length() - 1
    subgroups = {tuple(generated_subgroup(G, pair).members)
                 for pair in itertools.combinations_with_replacement(range(G.order), 2)}
    count, cells = 1000, 2 * G.order
    for members in sorted(subgroups | {tuple(range(G.order))}):
        sub = Subgroup(G, members)
        if not sub.is_normal():
            continue
        fr = make_frame(G, sub)
        law = StarLaw(fr, MeasureSpec("uniform", fr.a_group.order),
                      MeasureSpec("uniform", fr.C.order))
        # each cell's codes run through every code, shifted by its cell
        codes = (np.arange(count)[:, None] + np.arange(cells)) % G.order
        planes = to_planes(codes.astype(np.uint8), bits)
        assert np.array_equal(from_planes(planes, count), codes)
        got = from_planes(law.b_planes(planes), count)
        assert np.array_equal(got, np.asarray(fr.b_of).ravel()[codes])
        cached = law._plane_map   # built once per law
        law.b_planes(planes)
        assert law._plane_map is cached


def test_q8_star_codes_map_by_a_bit_permutation_or_with_an_and():
    """Over its centre Q8's ``b_of`` moves each code bit to one output bit;
    over <j> (element 4) one output bit is the degree-2 x0·x2 ⊕ x1."""
    q8 = make_quaternion()
    form = plane_map(np.asarray(make_frame(q8, center(q8)).b_of).ravel())
    assert sorted(form) == [((0,),), ((1,),), ((2,),)]
    form = plane_map(np.asarray(make_frame(q8, generated_subgroup(q8, [4])).b_of).ravel())
    assert form == (((1,), (0, 2)), ((0,),), ((2,),))


def assert_product_matches_oracle(data, name, seed, scale=1):
    fr = frame(name)
    A, C = fr.a_group.order, fr.C.order
    length = data.draw(st.integers(0, max_len(fr.B.order)))
    lo = data.draw(st.integers(-2, 2))
    a = random_measure(seed, A, lo, length, scale)
    c = random_measure(seed + 1, C, lo, length)
    star = star_product_measure(fr, a, c)
    assert (star.size, star.den, star.group) == (fr.B.order, a.den * c.den, fr.B)
    assert star.num.dtype == weight_dtype_oracle(star.den)
    assert star.num.tolist() == star_product_oracle(fr, a, c)


@settings(max_examples=30, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1))
def test_products_match_oracle(data, name, seed):
    assert_product_matches_oracle(data, name, seed)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=30, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1), st.booleans())
def test_products_match_oracle_across_chunks(chunk, data, name, seed, big):
    """A chunk of one word, or of 7 (no power of any |B|), fills the star
    product in many pieces; a fibre factor whose denominator passes 2**62
    takes the same route in Python ints."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_CHUNK", chunk)
        assert_product_matches_oracle(data, name, seed,
                                      2**62 + 2**31 + 1 if big else 1)


def assert_trajectory_law_matches_oracle(data, name, seed, kind):
    """n_steps 1 to 3: with three, the time-1 cells are stepped once more."""
    G = group(name)
    n_steps = data.draw(st.integers(1, 3))
    v_lo, v_hi = data.draw(neighborhoods(3).filter(
        lambda nb: (max(nb[1], 0) - min(nb[0], 0)) * n_steps <= max_len(G.order)))
    if kind == "uniform rule":
        spec = MeasureSpec("uniform", G.order)
    else:
        w = random_weights(seed, G.order)
        spec = MeasureSpec("bernoulli", G.order,
                           probs=[Fraction(x, sum(w)) for x in w])
    op = data.draw(rules(name, v_lo, v_hi))
    want = trajectory_oracle(op, spec, n_steps)
    law = trajectory_joint_distribution(op, spec, n_steps)
    # one cell per observation, over the input law's denominator
    assert (law.size, law.lo, law.hi, law.group) == (
        G.order, 0, op.overlap * n_steps, op.group)
    assert law.den == spec.window_measure(0, law.length).den
    assert law.num.dtype == weight_dtype_oracle(law.den)
    assert law_items(law) == want
    got = trajectory_partition_entropy(op, spec, n_steps)
    if kind == "uniform rule":
        assert math.isclose(got, partition_entropy_oracle(want), rel_tol=1e-12,
                            abs_tol=1e-12)
    else:
        assert repr(got) == repr(partition_entropy_oracle(want))


@settings(max_examples=30, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1),
       st.sampled_from(["rule", "uniform rule"]))
def test_trajectory_law_matches_oracle(data, name, seed, kind):
    assert_trajectory_law_matches_oracle(data, name, seed, kind)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=20, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1),
       st.sampled_from(["rule", "uniform rule"]))
def test_trajectory_law_matches_oracle_across_chunks(chunk, data, name, seed, kind):
    """Chunks of one word or of 7 split the generating window between
    leading and tail cells inside the terms' windows, before and after
    the stepping boundary at three time steps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_CHUNK", chunk)
        assert_trajectory_law_matches_oracle(data, name, seed, kind)


@settings(max_examples=25, deadline=None)
@given(st.data(), group_names, st.sampled_from(["none", "error term", "missing",
                                                "other rule"]))
def test_recompose_witness_matches_oracle(data, name, tamper):
    fr = frame(name)
    v_lo, v_hi = data.draw(neighborhoods(min(3, max_len(fr.B.order))))
    dec = decompose_mca(data.draw(rules(name, v_lo, v_hi, inner_only=True)), fr)
    rule = None
    if tamper == "other rule":
        rule = data.draw(rules(name, v_lo, v_hi, inner_only=True))
    elif tamper != "none":
        key = data.draw(st.sampled_from(sorted(dec.error_map)))
        if tamper == "missing":
            dec = replace(dec, error_map={w: e for w, e in dec.error_map.items()
                                          if w != key})
        else:
            shift = data.draw(st.integers(1, fr.a_group.order - 1))
            dec = replace(dec, error_map={
                **dec.error_map, key: (dec.error_map[key] + shift) % fr.a_group.order})
    got, want = recompose_check(dec, rule), recompose_oracle(dec, rule)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    if tamper in ("error term", "missing"):
        assert not got.ok


def assert_fibres_match_oracle(dec):
    for w in iter_words(dec.frame.C.order, dec.rule.width):
        got, want = dec.fibre(w), fibre_oracle(dec, w)
        assert (got.bias, got.factors) == (want.bias, want.factors)
        assert local_table(got).dtype == local_table(want).dtype
        assert local_table(got).tolist() == local_table(want).tolist()


@settings(max_examples=25, deadline=None)
@given(st.data(), group_names)
def test_fibres_match_oracle(data, name):
    """Every fibre of the one-pass builder equals the composed-map oracle,
    over central (Q8) and non-central frames, and again in a copy with an
    error term changed: built on first use, then rebuilt by a check."""
    fr = frame(name)
    v_lo, v_hi = data.draw(neighborhoods(min(3, max_len(fr.B.order))))
    dec = decompose_mca(data.draw(rules(name, v_lo, v_hi, inner_only=True)), fr)
    assert_fibres_match_oracle(dec)
    key = data.draw(st.sampled_from(sorted(dec.error_map)))
    shift = data.draw(st.integers(1, fr.a_group.order - 1))
    changed = replace(dec, error_map={
        **dec.error_map, key: (dec.error_map[key] + shift) % fr.a_group.order})
    assert_fibres_match_oracle(changed)
    changed = replace(changed)
    assert not recompose_check(changed)
    assert_fibres_match_oracle(changed)


@settings(max_examples=20, deadline=None)
@given(st.data(), group_names, st.integers(0, 2**32 - 1))
def test_object_weights_marginal_and_push_forward(data, name, seed):
    """Denominators at or above 2**62 keep Python-int weights, still exact."""
    G = group(name)
    v_lo, v_hi = data.draw(neighborhoods(max_len(G.order)))
    length = data.draw(st.integers(v_hi - v_lo + 1, max_len(G.order)))
    m = random_measure(seed, G.order, 0, length, scale=2**62 + 2**31 + 1)
    assert m.num.dtype == object and m.den >= 2**62
    lo = data.draw(st.integers(0, length))
    hi = data.draw(st.integers(lo, length))
    sub = m.marginal(lo, hi)
    assert sub.den == m.den and sub.num.tolist() == marginal_oracle(m, lo, hi)
    op = data.draw(rules(name, v_lo, v_hi))
    out = push_forward(op, m)
    assert out.num.dtype == object
    assert out.num.tolist() == push_forward_oracle(op, m)


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.booleans())
def test_window_weights_match_word_weights(seed, length, markov):
    """Integer cell weights give word_weight on every word, over the lcm."""
    if markov:
        spec = MeasureSpec("markov", 2,
                           transition=[[HALF, HALF], [QUARTER, 3 * QUARTER]],
                           initial=[Fraction(1, 3), Fraction(2, 3)])
    else:
        w = random_weights(seed, 3)
        spec = MeasureSpec("bernoulli", 3, probs=[Fraction(x, sum(w)) for x in w])
    m = spec.window_measure(1, 1 + length)
    want = [word_weight(spec, word) for word in iter_words(spec.size, length)]
    assert probs(m) == want
    assert m.den == math.lcm(*(p.denominator for p in want))


# each boundary between two weight dtypes: int8 | int16 | int32 | int64 | object
DTYPE_BOUNDARIES = [2**7, 2**15, 2**31, 2**62]


@st.composite
def boundary_measures(draw, size, lo, length):
    """A law whose denominator sits one below, at or one above a dtype
    boundary, given as a tuple or as a read-only int64/object array (which
    the measure keeps as it is when that dtype holds the denominator)."""
    den = draw(st.sampled_from(DTYPE_BOUNDARIES)) + draw(st.integers(-1, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # n - 1 cuts of [0, den]: nonnegative weights summing to den
    cuts = sorted(int(x) for x in rng.integers(0, den + 1, size ** length - 1))
    num = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    if draw(st.booleans()):
        num = np.array(num, dtype=object if den >= 2**62 else np.int64)
        num.setflags(write=False)
    m = WindowMeasure(size, lo, lo + length, num, den)
    assert m.num.dtype == (num.dtype if isinstance(num, np.ndarray)
                           else weight_dtype_oracle(den))
    return m


@settings(max_examples=40, deadline=None)
@given(st.data(), group_names)
def test_products_across_weight_dtypes_match_oracle(data, name):
    """Factors of different weight dtypes, either side of each boundary,
    multiply into the dtype of the product's own denominator."""
    fr = frame(name)
    length = data.draw(st.integers(0, max_len(fr.B.order)))
    lo = data.draw(st.integers(-2, 2))
    a = data.draw(boundary_measures(fr.a_group.order, lo, length))
    c = data.draw(boundary_measures(fr.C.order, lo, length))
    star = star_product_measure(fr, a, c)
    assert star.den == a.den * c.den
    assert star.num.dtype == weight_dtype_oracle(star.den)
    assert star.num.tolist() == star_product_oracle(fr, a, c)


@settings(max_examples=40, deadline=None)
@given(st.data(), group_names)
def test_marginal_and_push_forward_across_weight_dtypes(data, name):
    """Sums of weights next to each dtype boundary stay exact, in the
    dtype of the denominator they share with the input."""
    G = group(name)
    v_lo, v_hi = data.draw(neighborhoods(max_len(G.order)))
    length = data.draw(st.integers(v_hi - v_lo + 1, max_len(G.order)))
    m = data.draw(boundary_measures(G.order, 0, length))
    lo = data.draw(st.integers(0, length))
    hi = data.draw(st.integers(lo, length))
    sub = m.marginal(lo, hi)
    assert sub.den == m.den and sub.num.dtype == weight_dtype_oracle(m.den)
    assert sub.num.tolist() == marginal_oracle(m, lo, hi)
    op = data.draw(rules(name, v_lo, v_hi))
    out = push_forward(op, m)
    assert out.den == m.den and out.num.dtype == weight_dtype_oracle(m.den)
    assert out.num.tolist() == push_forward_oracle(op, m)


# (cell denominator d, cells n): d**n one below and at or above each boundary
BOUNDARY_WINDOWS = [(127, 1), (2, 7), (11, 2), (12, 2), (181, 2), (8, 5),
                    (182, 2), (46340, 2), (46341, 2), (2**31 - 1, 2), (2**31, 2)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BOUNDARY_WINDOWS), st.integers(0, 2**32 - 1))
def test_window_weights_across_dtype_boundaries(window, seed):
    """A Bernoulli window over d**n stores its weights in that
    denominator's dtype, and each is the word's exact probability."""
    d, n = window
    k = int(np.random.default_rng(seed).integers(1, d))
    # k prime to d: no word weight shares a factor with all the others
    k = k if math.gcd(k, d) == 1 else 1
    spec = MeasureSpec("bernoulli", 2, probs=[Fraction(k, d), Fraction(d - k, d)])
    m = spec.window_measure(0, n)
    want = [word_weight(spec, word) for word in iter_words(2, n)]
    assert probs(m) == want
    assert m.den == d ** n == math.lcm(*(p.denominator for p in want))
    assert m.num.dtype == weight_dtype_oracle(m.den)


def test_window_weights_narrow_with_their_lowest_denominator():
    """The lcm of the cell weights, 3·4**3 = 192, needs int16; every word
    weight is even, so the window's denominator is 96 and fits int8."""
    spec = MeasureSpec("markov", 2,
                       transition=[[HALF, HALF], [QUARTER, 3 * QUARTER]],
                       initial=[Fraction(1, 3), Fraction(2, 3)])
    m = spec.window_measure(0, 4)
    assert (m.den, m.num.dtype) == (96, np.int8)
    assert probs(m) == [word_weight(spec, word) for word in iter_words(2, 4)]


ABELIAN = {"Z4": (4,), "Z2+Z4": (2, 4), "Z3+Z3": (3, 3), "Z2+Z2+Z2": (2, 2, 2)}
# elementary abelian groups, where rank series come off the digits of j
# while the position matrices commute, next to ABELIAN's other two
RANK_GROUPS = {**ABELIAN, "Z2": (2,), "Z3": (3,), "Z5": (5,), "Z2+Z2": (2, 2)}


@cache
def abelian_endomorphisms(name):
    G = make_direct_sum(list(RANK_GROUPS[name]))
    return G, enumerate_endomorphisms(G)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(sorted(ABELIAN)))
def test_dual_action_matches_oracle(data, name):
    """30 dual steps agree with the cell-by-cell oracle, phase bits included."""
    G, endos = abelian_endomorphisms(name)
    v_lo = data.draw(st.integers(-2, 0))
    v_hi = data.draw(st.integers(v_lo, v_lo + 2))
    # up to four factors on at most three positions, so positions repeat
    factors = [(data.draw(st.integers(v_lo, v_hi)), data.draw(st.sampled_from(endos)))
               for _ in range(data.draw(st.integers(1, 4)))]
    rule = McaRule(G, v_lo, v_hi, factors, data.draw(st.integers(0, G.order - 1)))
    dual = LinearRuleDual.from_rule(rule)
    orders = dual.coords.orders
    # unreduced coefficients (one past int64) that the constructor reduces,
    # signed-zero phases, and a far cell that a dense row span could not hold
    support = []
    for cell in data.draw(st.lists(st.sampled_from([-3, -1, 0, 1, 2, 5, 10**12]),
                                   unique=True, max_size=3)):
        coeff = tuple(data.draw(st.integers(-2 * n, 3 * n) | st.just(2**70 + 1))
                      for n in orders)
        if any(c % n for c, n in zip(coeff, orders)):
            support.append((cell, coeff))
    phase = complex(data.draw(st.sampled_from([1.0, -1.0, 0.6, -0.0])),
                    data.draw(st.sampled_from([0.0, -0.0, 0.8])))
    chi = Character(orders, tuple(support), phase, dual.coords)
    got, want, ranks = chi, chi, [chi.rank]
    for _ in range(30):
        got, want = dual_action(dual, got), dual_action_oracle(dual, want)
        assert got.support == want.support
        assert got.phase == want.phase
        assert repr(got.phase) == repr(want.phase)  # the signs of zeros too
        ranks.append(want.rank)
    assert diffusion_report(dual, chi, 30).ranks == ranks


def test_dual_action_phase_keeps_every_factor_at_zero_bias():
    """Each factor is then 1+0j, which still flips the signs of zero parts."""
    G, _ = abelian_endomorphisms("Z4")
    ident = GroupMap.identity(G)
    dual = LinearRuleDual.from_rule(McaRule(G, -1, 1, [(-1, ident), (1, ident)]))
    assert not any(dual.bias_coords)
    for phase in (complex(1.0, -0.0), complex(-0.0, -0.0), complex(-1.0, 0.0)):
        chi = Character.make(dual.coords, {0: (1,), 2: (3,)}, phase)
        got, want = dual_action(dual, chi), dual_action_oracle(dual, chi)
        assert repr(got.phase) == repr(want.phase)


def biased_chain_case():
    """(dual, seed) on Z/2⊕Z/4: three positions, a mixing middle
    endomorphism and bias (0, 3), so every support cell folds a factor
    other than 1 into the phase."""
    G, endos = abelian_endomorphisms("Z2+Z4")
    ident = GroupMap.identity(G)
    dual = LinearRuleDual.from_rule(
        McaRule(G, -1, 1, [(-1, ident), (0, endos[5]), (1, ident)], 3))
    assert any(dual.bias_coords)
    return dual, Character.make(dual.coords, {0: (1, 1)}, complex(0.6, -0.0))


def test_long_biased_chain_matches_oracle():
    """200 steps of coefficient rows, past rank 64, against the tuple oracle."""
    dual, chi = biased_chain_case()
    got = want = chi
    for _ in range(200):
        got, want = dual_action(dual, got), dual_action_oracle(dual, want)
        assert got.rank == want.rank
        assert got.support == want.support
        assert got.phase == want.phase
        assert repr(got.phase) == repr(want.phase)
    assert max(c.rank for c in spectral._orbit(dual, chi, 200)) > 64


def commute_mod(dual, p):
    """Whether the position matrices commute mod p, in Python integers."""
    mats = [m for _, m in dual.matrices]
    d = len(dual.coords.orders)

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(d)) % p for j in range(d)]
                for i in range(d)]
    return all(mul(x, y) == mul(y, x) for x in mats for y in mats)


def oracle_ranks(dual, chi, j_max):
    ranks = [chi.rank]
    for _ in range(j_max):
        chi = dual_action_oracle(dual, chi)
        ranks.append(chi.rank)
    return ranks


# far cells: 10**12 beside a cell near 0 needs the depth limit; 2**62 - 3
# beside one spreads past 2**62, so it takes the chain; and 2**63 - 3 may
# take the chain past int64, which it refuses
FAR_CELLS = [-3, -1, 0, 1, 2, 5, 10 ** 12, 2 ** 62 - 3, 2 ** 63 - 3]


def assert_rank_series_is_the_chains(dual, chi, j_max):
    """``diffusion_report`` ranks equal the per-step chain's and, to
    j = 300, the cell-by-cell oracle's, or it raises the chain's error.
    (The oracle refuses a nonzero cell past int64, the chain a nonzero
    image row past it, even one that other rows cancel at its target.)"""
    try:
        want = [c.rank for c in spectral._orbit(dual, chi, j_max)]
    except McaLabError as err:
        with pytest.raises(McaLabError, match=re.escape(str(err))):
            diffusion_report(dual, chi, j_max)
        return
    assert diffusion_report(dual, chi, j_max).ranks == want
    assert oracle_ranks(dual, chi, min(j_max, 300)) == want[:301]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("horizon", ["0", "1", "p-1", "p", "p^2", "100"])
@pytest.mark.parametrize("name", sorted(RANK_GROUPS))
def test_rank_series_matches_the_chain_on_either_route(data, name, horizon):
    """Over Z/2, Z/3, Z/5, (Z/2)², (Z/3)² and (Z/2)³ with commuting
    matrices the ranks come off the digits of j; over Z/4, Z/2⊕Z/4 and with
    matrices that do not commute, one step per image.  Both give the
    chain's ranks, at the horizons around p and p², with a trivial seed
    and far cells."""
    G, endos = abelian_endomorphisms(name)
    v_lo = data.draw(st.integers(-2, 0))
    v_hi = data.draw(st.integers(v_lo, v_lo + 3))
    factors = [(data.draw(st.integers(v_lo, v_hi)), data.draw(st.sampled_from(endos)))
               for _ in range(data.draw(st.integers(1, 4)))]
    rule = McaRule(G, v_lo, v_hi, factors, data.draw(st.integers(0, G.order - 1)))
    dual = LinearRuleDual.from_rule(rule)
    orders = dual.coords.orders
    p = orders[0]
    support = {}
    for cell in data.draw(st.lists(st.sampled_from(FAR_CELLS), unique=True,
                                   max_size=3)):
        support[cell] = tuple(data.draw(st.integers(0, n - 1)) for n in orders)
    chi = Character.make(dual.coords, support)
    j_max = {"0": 0, "1": 1, "p-1": p - 1, "p": p, "p^2": p * p,
             "100": 100}[horizon]
    route = spectral._frobenius_route(dual, chi, j_max)
    blocks = set(orders) == {p} and p in (2, 3, 5) and commute_mod(dual, p)
    if not blocks:
        assert route is None
    elif max(map(abs, chi.cells()), default=0) < 10 ** 13:
        assert route is not None
    assert_rank_series_is_the_chains(dual, chi, j_max)


@cache
def noncommuting_pairs(name):
    """Pairs of endomorphisms whose matrices do not commute, the first 50."""
    G, endos = abelian_endomorphisms(name)
    p = RANK_GROUPS[name][0]
    pairs = []
    for x, y in itertools.combinations(endos, 2):
        if not commute_mod(LinearRuleDual.from_rule(
                McaRule(G, 0, 1, [(0, x), (1, y)])), p):
            pairs.append((x, y))
            if len(pairs) == 50:
                return pairs
    return pairs


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from(["Z2+Z2", "Z3+Z3"]))
def test_noncommuting_matrices_take_the_chain(data, name):
    G, _ = abelian_endomorphisms(name)
    x, y = data.draw(st.sampled_from(noncommuting_pairs(name)))
    v = data.draw(st.integers(1, 2))
    dual = LinearRuleDual.from_rule(McaRule(G, 0, v, [(0, x), (v, y)]))
    chi = Character.make(dual.coords, {0: (1, 0), 1: (0, 1)})
    j_max = data.draw(st.sampled_from([1, 4, 9, 40]))
    assert spectral._frobenius_route(dual, chi, j_max) is None
    assert_rank_series_is_the_chains(dual, chi, j_max)


def digit_cases():
    """(rule, seed, j_max) for the digit automaton, by id: three positions
    over Z/3 with a spread seed, at j_max 100 and at 3^7 - 1, where every
    digit of j_max is p - 1 and no pass trims its columns; diagonal
    matrices over (Z/3)² (element 3a + b is (a, b)), which commute; over
    (Z/2)² (element 2a + b is (a, b)) the identity beside ((1, 1), (1, 0)), of order 3, so the levels
    cycle with period 2, and beside the nilpotent ((0, 1), (0, 0)), so a
    later level has a zero tap; and the three-position identity rule over
    Z/5 from cells 0 and 10^12, which only the depth limit keeps small."""
    G, endos = abelian_endomorphisms("Z3")
    ident = GroupMap.identity(G)
    cases = {"Z3-spread-seed": (
        McaRule(G, -1, 1, [(-1, ident), (0, endos[2]), (1, ident)], 1),
        {0: (1,), 4: (2,)}, 100)}
    cases["Z3-spread-seed-full-digits"] = (
        cases["Z3-spread-seed"][0], {0: (1,), 4: (2,)}, 3 ** 7 - 1)
    G, _ = abelian_endomorphisms("Z3+Z3")

    def diagonal(x, y):
        return GroupMap(G, G, [3 * (x * a % 3) + y * b % 3
                               for a in range(3) for b in range(3)], True)
    cases["Z3+Z3-diagonal"] = (
        McaRule(G, 0, 2, [(0, diagonal(1, 1)), (1, diagonal(1, 2)),
                          (2, diagonal(2, 2))]), {0: (1, 2), 1: (0, 1)}, 100)
    G, _ = abelian_endomorphisms("Z2+Z2")

    def linear(m):
        """The endomorphism whose matrix has columns m(1, 0) and m(0, 1)."""
        return GroupMap(G, G, [2 * ((m[0][0] * a + m[0][1] * b) % 2)
                               + (m[1][0] * a + m[1][1] * b) % 2
                               for a in range(2) for b in range(2)], True)
    ident = GroupMap.identity(G)
    cases["Z2+Z2-period-2"] = (
        McaRule(G, 0, 1, [(0, ident), (1, linear(((1, 1), (1, 0))))]),
        {0: (1, 0), 2: (1, 1)}, 300)
    cases["Z2+Z2-nilpotent"] = (
        McaRule(G, 0, 1, [(0, ident), (1, linear(((0, 1), (0, 0))))]),
        {0: (0, 1), 1: (1, 1)}, 300)
    G, _ = abelian_endomorphisms("Z5")
    ident = GroupMap.identity(G)
    cases["Z5-far-seed"] = (
        McaRule(G, -1, 1, [(-1, ident), (0, ident), (1, ident)]),
        {0: (1,), 10 ** 12: (2,)}, 5 ** 5 - 1)
    return cases


@pytest.mark.parametrize("case", sorted(digit_cases()))
def test_digit_ranks_match_the_chain(case):
    rule, support, j_max = digit_cases()[case]
    dual = LinearRuleDual.from_rule(rule)
    chi = Character.make(dual.coords, support)
    assert spectral._frobenius_route(dual, chi, j_max) is not None
    assert_rank_series_is_the_chains(dual, chi, j_max)


def test_level_blocks_need_commuting_matrices():
    """Forced onto the digit automaton, a rule whose matrices do not
    commute gets other ranks than the chain: Frobenius needs the
    commuting hypothesis."""
    G, _ = abelian_endomorphisms("Z2+Z2")
    (x, y), *_ = noncommuting_pairs("Z2+Z2")
    dual = LinearRuleDual.from_rule(McaRule(G, 0, 1, [(0, x), (1, y)]))
    chi = Character.make(dual.coords, {0: (1, 0), 1: (0, 1)})
    assert spectral._frobenius_route(dual, chi, 40) is None
    forced = spectral._digit_ranks(dual, chi, 40, 2)
    assert forced != [c.rank for c in spectral._orbit(dual, chi, 40)]


def test_chain_character_equals_its_tuple_rebuild():
    """A character holding rows and one rebuilt from its support compare
    and hash alike, and ``coords`` takes no part."""
    dual, chi = biased_chain_case()
    for got in spectral._orbit(dual, chi, 40):
        rebuilt = Character(got.invariants, got.support, got.phase, dual.coords)
        assert got == rebuilt and rebuilt == got
        assert hash(got) == hash(rebuilt)
        assert got == Character(got.invariants, got.support, got.phase)
        assert got != Character(got.invariants, got.support, -got.phase)


# central frames over Z/2⊕Z/4 (indices a·4 + b) by the members of A, and Q8's
# centre; A = B gives the trivial quotient and mixed orders (2, 4)
CENTRAL_FRAMES = {"Z2+Z4/Z4": [0, 1, 2, 3], "Z2+Z4/Z2+Z2": [0, 2, 4, 6],
                  "Z2+Z4/Z2": [0, 2], "Z2+Z4/Z2+Z4": list(range(8)),
                  "Q8/centre": None}


@cache
def fibre_rank_case(name):
    """(decomposition, central split, alphas) for one entry of CENTRAL_FRAMES."""
    if name == "Q8/centre":
        G = make_quaternion()
        fr = make_frame(G, center(G))
        endos = [GroupMap.identity(G), GroupMap(G, G, [0, 1, 4, 5, 6, 7, 2, 3], True),
                 GroupMap(G, G, [0, 1, 3, 2, 6, 7, 4, 5], True)]
    else:
        G = make_direct_sum([2, 4])
        members = CENTRAL_FRAMES[name]
        fr = make_frame(G, Subgroup(G, members))
        endos = [e for e in enumerate_endomorphisms(G)
                 if all(e(x) in members for x in members)]
    # repeated and negative positions; a quotient of order 4 gets a
    # narrower window so that j = 2 stays at 4**4 base words
    v_hi = 0 if fr.C.order == 4 else 1
    rule = McaRule(G, -1, v_hi, [(-1, endos[-1]), (0, endos[len(endos) // 3]),
                                 (v_hi, endos[len(endos) // 2]), (-1, endos[1]),
                                 (0, endos[0]), (-1, endos[0])], 3)
    dec = decompose_mca(rule, fr)
    split = central_split(rule, fr, dec=dec)
    coords = abelian_invariants(fr.a_group)
    orders = coords.orders
    # trivial; one cell; the largest order alone; two cells with negative
    # and unreduced coefficients
    alphas = [Character(orders, (), 1.0 + 0j, coords),
              Character.make(coords, {1: [1] * len(orders)}),
              Character.make(coords, {0: [0] * (len(orders) - 1) + [1]}),
              Character(orders, ((-1, tuple(-1 for _ in orders)),
                                 (0, tuple(n + 1 for n in orders))), 1.0 + 0j, coords)]
    return dec, split, alphas


def assert_fibre_ranks_match(name, j):
    dec, split, alphas = fibre_rank_case(name)
    for alpha in alphas:
        got = fibre_rank_independence(dec, split, alpha, j)
        want = fibre_rank_oracle(dec, split, alpha, j)
        assert (got.rank, got.linear_rank, got.all_equal, got.ranks_seen) == (
            want.rank, want.linear_rank, want.all_equal, want.ranks_seen)


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CENTRAL_FRAMES))
def test_fibre_ranks_match_fraction_oracle(name, j):
    """Every ``FibreRankCheck`` field equals the ``Fraction`` reading."""
    assert_fibre_ranks_match(name, j)


@pytest.mark.parametrize("chunk", [1, 40])
def test_fibre_ranks_match_fraction_oracle_across_batches(monkeypatch, chunk):
    """Quotient words run in batches of at most ``_CHUNK`` probe rows; a
    bound of 1 or 40 rows splits every case with j > 0 into many batches."""
    monkeypatch.setattr(spectral, "_CHUNK", chunk)
    for name in sorted(CENTRAL_FRAMES):
        for j in (0, 1, 2):
            assert_fibre_ranks_match(name, j)


def law(kind: str, size: int, weights: list[int], stay: int) -> MeasureSpec:
    """A law on ``size`` symbols: weights give the cell (stationary) law; a
    Markov chain stays put with chance stay/4, else redraws from it."""
    w = weights[:size] if any(weights[:size]) else [1] * size
    pi = [Fraction(x, sum(w)) for x in w]
    if kind == "uniform":
        return MeasureSpec("uniform", size)
    if kind == "bernoulli":
        return MeasureSpec("bernoulli", size, probs=pi)
    s = Fraction(stay, 4)
    T = [[s * (i == j) + (1 - s) * pi[j] for j in range(size)] for i in range(size)]
    return MeasureSpec("markov", size, transition=T, initial=pi)


KINDS = st.sampled_from(["uniform", "bernoulli", "markov"])
WEIGHTS = st.lists(st.integers(0, 5), min_size=5, max_size=5)


@settings(max_examples=30, deadline=None)
@given(frame_name=st.sampled_from(["q8_center_frame", "z20_frame"]),
       kinds=st.tuples(KINDS, KINDS), weights=st.tuples(WEIGHTS, WEIGHTS),
       stays=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       count=st.integers(1, 600), length=st.integers(1, 600),
       seed=st.integers(0, 2 ** 32 - 1))
# count·length of 3.1 and 4.6 pieces of the draw buffer
@example(frame_name="q8_center_frame", kinds=("bernoulli", "markov"),
         weights=([7, 3, 0, 0, 0], [4, 3, 2, 1, 0]), stays=(1, 2),
         count=331, length=619, seed=5)
@example(frame_name="z20_frame", kinds=("markov", "bernoulli"),
         weights=([1, 0, 2, 0, 3], [0, 1, 1, 2, 0]), stays=(3, 0),
         count=509, length=593, seed=6)
def test_sampled_star_words_match_whole_chunk_oracle(
        request, frame_name, kinds, weights, stays, count, length, seed):
    """A star law's streamed draws give the whole-chunk sampler's words bit
    for bit, whatever the laws and however the pieces fall."""
    frame = request.getfixturevalue(frame_name)
    pair = tuple(law(kind, group.order, w, stay) for kind, group, w, stay
                 in zip(kinds, (frame.a_group, frame.C), weights, stays))
    got = drawn(StarLaw(frame, *pair), np.random.default_rng(seed), count, length)
    want = sample_words_oracle(pair, frame, np.random.default_rng(seed),
                               count, length)
    assert got.dtype == np.uint8 and got.shape == (count, length)
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(["Z5:Z4", "Q8"]),
       window=st.sampled_from([(0, 0), (0, 1), (0, 2), (-1, 0), (-1, 1)]),
       n_steps=st.integers(0, 3), kinds=st.tuples(KINDS, KINDS),
       weights=st.tuples(WEIGHTS, WEIGHTS),
       stays=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_fibre_entropy_matches_the_nhca_oracle(data, name, window, n_steps,
                                               kinds, weights, stays):
    """Reading fibre trajectories off the rule's own table gives, bit for
    bit, the entropy of the fibre NHCAs stepped cell by cell: over the
    normal Z/5 of Z/5⋊Z/4 (not central) and over the centre of Q8, under
    uniform, Bernoulli and Markov laws, one- and two-sided windows, in one
    chunk or in chunks of one fibre letter; past the cap, the same refusal
    as before any step."""
    fr = frame(name)
    dec = decompose_mca(data.draw(rules(name, *window)), fr)
    lam, nu = (law(kind, g.order, w, stay) for kind, g, w, stay
               in zip(kinds, (fr.a_group, fr.C), weights, stays))
    length = n_steps * (max(window[1], 0) - min(window[0], 0))
    if fr.B.order ** length > MAX_WORDS:
        with pytest.raises(CapExceededError, match="fibrewise enumeration"):
            measures.fibre_trajectory_entropy(dec, lam, nu, n_steps, cap=MAX_WORDS)
        return
    want = repr(fibre_trajectory_entropy_oracle(dec, lam, nu, n_steps))
    assert repr(measures.fibre_trajectory_entropy(dec, lam, nu, n_steps,
                                                  cap=MAX_WORDS)) == want
    # chunks of one fibre letter per cell: the leading cells' letters too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_CHUNK", fr.a_group.order)
        assert repr(measures.fibre_trajectory_entropy(dec, lam, nu, n_steps,
                                                      cap=MAX_WORDS)) == want


# nilpotent groups of the fixtures, and Z/5⋊Z/4, whose tower has no level
TOWER_GROUPS = {"Q8": make_quaternion, "D8": lambda: dihedral(4),
                "D16": lambda: dihedral(8), "Q16": quaternion16,
                "Heisenberg mod 3": lambda: heisenberg(3),
                "Z5:Z4": lambda: group("Z5:Z4")}


@cache
def tower_group(name):
    G = TOWER_GROUPS[name]()
    return G, [GroupMap(G, G, [G.conjugate(g, x) for x in G.elements()], True)
               for g in G.elements()]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(TOWER_GROUPS)))
def test_tower_recomposes_to_the_local_table(data, name):
    """Each level's fibre rules, composed map by map, and ``star_compose``
    rebuild the top rule's table from the tail rule up, as the tower's own
    check reads it off the fibre batch (windows of at most 4096 words)."""
    G, conjugations = tower_group(name)
    widths = [w for w in (2, 3, 4) if G.order ** w <= 4096]
    width = data.draw(st.sampled_from(widths))
    v_lo = data.draw(st.integers(1 - width, 0))
    factors = [(data.draw(st.integers(v_lo, v_lo + width - 1)),
                data.draw(st.sampled_from(conjugations)))
               for _ in range(data.draw(st.integers(1, 5)))]
    rule = McaRule(G, v_lo, v_lo + width - 1, factors,
                   data.draw(st.integers(0, G.order - 1)))
    assert tower_oracle(nilpotent_tower(rule)) == local_table(rule).tolist()
