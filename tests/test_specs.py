"""Config parsing: construction round trips and diagnostic quality."""
import json
from fractions import Fraction

import pytest

from mcalab import (SpecError, eval_local, load_experiment, parse_character,
                    parse_endo, parse_frame, parse_group, parse_measure,
                    parse_probe, parse_rule, resolve_element)


def test_parse_cyclic_group():
    G = parse_group({"kind": "cyclic", "n": 6})
    assert G.order == 6 and G.is_abelian


def test_parse_direct_sum():
    G = parse_group({"kind": "direct_sum", "orders": [2, 2]})
    assert G.order == 4
    assert all(G.mul(x, x) == 0 for x in G.elements())


def test_parse_quaternion_labels():
    G = parse_group({"kind": "quaternion"})
    assert G.order == 8
    assert "-1" in G.labels and "i" in G.labels


def test_parse_semidirect():
    obj = {"kind": "semidirect",
           "normal": {"kind": "cyclic", "n": 5},
           "acting": {"kind": "cyclic", "n": 4},
           "action": [[(pow(2, c, 5) * a) % 5 for a in range(5)]
                      for c in range(4)]}
    G = parse_group(obj)
    assert G.order == 20 and not G.is_abelian


def test_parse_table_group_round_trip(q8):
    from mcalab import serialize_group
    G = parse_group(serialize_group(q8))
    assert G.order == 8
    assert all(G.mul(a, b) == q8.mul(a, b)
               for a in range(8) for b in range(8))


def test_group_diagnostics_name_the_field():
    with pytest.raises(SpecError, match=r"group\.n"):
        parse_group({"kind": "cyclic", "n": 0})
    with pytest.raises(SpecError, match="unknown group kind"):
        parse_group({"kind": "dihedral", "n": 4})


def test_resolve_element_by_index_and_label(q8):
    assert resolve_element(q8, 3, "x") == 3
    assert resolve_element(q8, "-i", "x") == q8.labels.index("-i")
    with pytest.raises(SpecError, match="booleans"):
        resolve_element(q8, True, "x")
    with pytest.raises(SpecError, match="outside"):
        resolve_element(q8, 99, "x")
    with pytest.raises(SpecError, match="labeled"):
        resolve_element(q8, "w", "x")


def test_parse_endo_kinds(q8):
    ident = parse_endo(q8, "identity", "e")
    assert list(ident.image_of) == list(range(8))
    conj = parse_endo(q8, {"conj": "i"}, "e")
    i = q8.labels.index("i")
    assert all(conj(x) == q8.mul(q8.mul(i, x), q8.inv(i))
               for x in range(8))
    with pytest.raises(SpecError, match="abelian"):
        parse_endo(q8, {"power": 2}, "e")


def test_parse_endo_images_must_be_homomorphic(q8):
    with pytest.raises(SpecError):
        parse_endo(q8, {"images": [0, 2, 1, 3, 4, 5, 6, 7]}, "e")


def test_parse_rule_with_labels_and_exponents(q8):
    obj = {"neighborhood": [0, 1], "bias": "-1",
           "factors": [{"pos": 0, "coeff": "identity"},
                       {"pos": 1, "coeff": "identity"},
                       {"pos": 1, "coeff": "identity"}]}
    rule = parse_rule(q8, obj)
    assert rule.bias == q8.labels.index("-1")
    assert len(rule.factors) == 3
    # g(b) = -1 * b0 * b1^2
    i = q8.labels.index("i")
    assert eval_local(rule, [0, i]) == q8.mul(rule.bias, q8.mul(i, i))


def test_parse_rule_diagnostics(q8):
    with pytest.raises(SpecError, match=r"rule\.neighborhood"):
        parse_rule(q8, {"neighborhood": [0], "factors": []})
    with pytest.raises(SpecError, match=r"rule\.factors"):
        parse_rule(q8, {"neighborhood": [0, 1], "factors": []})


def test_fractions_parse_exactly():
    m = parse_measure(2, {"kind": "bernoulli", "probs": ["9/10", "0.1"]})
    assert m.probs == (Fraction(9, 10), Fraction(1, 10))
    m2 = parse_measure(2, {"kind": "bernoulli", "probs": [[3, 4], [1, 4]]})
    assert m2.probs == (Fraction(3, 4), Fraction(1, 4))


def test_float_probabilities_are_rejected():
    with pytest.raises(SpecError, match="exact"):
        parse_measure(2, {"kind": "bernoulli", "probs": [0.9, 0.1]})


def test_parse_markov_measure():
    m = parse_measure(2, {"kind": "markov",
                          "transition": [["1/2", "1/2"], ["1/4", "3/4"]],
                          "initial": ["1/3", "2/3"]})
    assert m.kind == "markov"


def test_parse_frame_center_keyword(q8):
    frame = parse_frame(q8, {"subgroup": "center"})
    assert frame.a_group.order == 2
    assert frame.a_is_central


def test_parse_frame_explicit_members(z20):
    frame = parse_frame(z20, {"subgroup": [4 * a for a in range(5)],
                              "section": "canonical"})
    assert frame.a_group.order == 5
    assert frame.is_semidirect


def test_parse_probe_requires_a_side(q8, z20):
    with pytest.raises(SpecError, match="at least one"):
        parse_probe({"id": "p"}, "p", fibre_group=z20)
    with pytest.raises(SpecError, match="no quotient"):
        parse_probe({"id": "p", "phi": {"0": [1]}}, "p", fibre_group=z20)


def test_parse_probe_character_arity(q8):
    V4 = parse_group({"kind": "direct_sum", "orders": [2, 2]})
    probe = parse_probe({"id": "p", "phi": {"0": [1, 0], "2": [0, 1]}},
                        "p", quotient_group=V4)
    assert probe.phi.rank == 2
    with pytest.raises(SpecError, match="coefficient"):
        parse_probe({"id": "p", "phi": {"0": [1]}}, "p", quotient_group=V4)
    with pytest.raises(SpecError):
        parse_probe({"id": "p", "alpha": {"0": [1]}}, "p", fibre_group=q8)


def test_parse_character_rejects_a_cell_given_twice():
    Z4 = parse_group({"kind": "cyclic", "n": 4})
    for spec, again in (({"1": [1], " 1": [0]}, "' 1'"),
                        ({"1": [1], "01": [2]}, "'01'")):
        with pytest.raises(SpecError, match=f"alpha: cell key {again} names cell 1 again"):
            parse_character(Z4, spec, "alpha")
    assert parse_character(Z4, {"1": [1], "-1": [2]}, "alpha").rank == 2


def test_load_experiment_reads_text_and_files_without_probing(tmp_path):
    """Long JSON text is parsed, never taken for a file name; a path that
    does not exist is a config error whatever it looks like."""
    text = json.dumps({"group": {"kind": "cyclic", "n": 3},
                       "thresholds": list(range(100))})
    assert len(text) > 255 and load_experiment(text).group.order == 3
    path = tmp_path / "config.json"
    path.write_text(text)
    for source in (path, str(path), path.read_bytes()):
        assert load_experiment(source).param("thresholds") == list(range(100))
    for missing in (tmp_path / "nope.json", "group", "[1]"):
        with pytest.raises(SpecError, match="config: cannot read "):
            load_experiment(missing)


def test_load_experiment_from_text_and_dict():
    text = """{
      "group": {"kind": "cyclic", "n": 2},
      "rule": {"neighborhood": [0, 1], "one_sided": true,
               "factors": [{"pos": 0, "coeff": "identity"},
                           {"pos": 1, "coeff": "identity"}]},
      "n_max": 16
    }"""
    cfg = load_experiment(text)
    assert cfg.group.order == 2
    assert cfg.rule.one_sided
    assert cfg.param("n_max") == 16
    assert load_experiment({"group": {"kind": "cyclic", "n": 3}}).rule is None


def test_load_experiment_json_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": {"kind": "cyclic", "n": 2},}')
    with pytest.raises(SpecError, match="line 1"):
        load_experiment(bad)


def test_load_experiment_rejects_unknown_and_conflicting_keys():
    with pytest.raises(SpecError, match="unknown fields"):
        load_experiment({"group": {"kind": "cyclic", "n": 2}, "rul": {}})
    with pytest.raises(SpecError, match="not both"):
        load_experiment({"group": {"kind": "quaternion"},
                         "frame": {"subgroup": "center"}, "tower": True})
