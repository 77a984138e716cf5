"""End-to-end runs of the command-line driver against temp directories."""
import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from mcalab import cli
from mcalab.cli import build_parser, main

DOUBLING_MOD7 = [[(pow(2, c, 7) * a) % 7 for a in range(7)] for c in range(3)]
DOUBLING_MOD5 = [[(pow(2, c, 5) * a) % 5 for a in range(5)] for c in range(4)]

Z20_GROUP = {"kind": "semidirect",
             "normal": {"kind": "cyclic", "n": 5},
             "acting": {"kind": "cyclic", "n": 4},
             "action": DOUBLING_MOD5}
X1_RULE = {"neighborhood": [0, 2], "one_sided": True,
           "factors": [{"pos": 0, "coeff": "identity"},
                       {"pos": 1, "coeff": "identity"},
                       {"pos": 2, "coeff": "identity"}]}
XOR_CONFIG = {"group": {"kind": "cyclic", "n": 2},
              "rule": {"neighborhood": [0, 1], "one_sided": True,
                       "factors": [{"pos": 0, "coeff": "identity"},
                                   {"pos": 1, "coeff": "identity"}]}}
QUAT_WIDE_RULE = {"neighborhood": [0, 3],
                  "factors": ([{"pos": 3, "coeff": "identity"}]
                              + [{"pos": 0, "coeff": "identity"}] * 3
                              + [{"pos": 2, "coeff": "identity"}] * 5
                              + [{"pos": 1, "coeff": "identity"}] * 3)}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_group_report_on_quaternion(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"group": {"kind": "quaternion"}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "group_report.json")
    assert report["order"] == 8
    assert report["center"] == ["1", "-1"]
    assert report["nilpotent"] is True
    assert report["series_factor_invariants"] == [[2], [2, 2]]
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["command"] == "group"
    assert manifest["outputs"] == ["group_report.json"]
    assert all(manifest["verification"].values())
    assert "order 8" in capsys.readouterr().out


def test_group_report_on_non_nilpotent_group(tmp_path):
    cfgp = write_config(tmp_path, {
        "group": {"kind": "semidirect",
                  "normal": {"kind": "cyclic", "n": 7},
                  "acting": {"kind": "cyclic", "n": 3},
                  "action": DOUBLING_MOD7}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "group_report.json")
    assert report["nilpotent"] is False
    assert report["abelian_invariants"] is None


def test_decompose_frame_mode(tmp_path):
    cfgp = write_config(tmp_path, {
        "group": Z20_GROUP, "rule": X1_RULE,
        "frame": {"subgroup": [4 * a for a in range(5)]}})
    assert main(["decompose", "--config", cfgp, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "decomposition_report.json")
    assert report["verified"] is True
    assert len(report["fibres"]) == 4 ** 3
    assert all(e == 0 for e in report["error_map"].values())
    flags = read_csv(tmp_path / "fibre_flags.csv")
    assert flags[0] == ["c_word", "left_permutative", "right_permutative"]
    assert len(flags) == 1 + 4 ** 3
    assert all(row[2] == "true" for row in flags[1:])


def test_decompose_tower_mode(tmp_path):
    cfgp = write_config(tmp_path, {"group": {"kind": "quaternion"},
                                   "rule": QUAT_WIDE_RULE, "tower": True})
    assert main(["decompose", "--config", cfgp, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "tower_report.json")
    assert report["complete"] is True
    assert report["depth"] == 2
    assert report["factor_invariants"] == [[2], [2, 2]]
    assert report["levels"][0]["subgroup"] == ["1", "-1"]


def test_decompose_tower_fails_on_non_nilpotent_group(tmp_path):
    cfgp = write_config(tmp_path, {
        "group": {"kind": "semidirect",
                  "normal": {"kind": "cyclic", "n": 7},
                  "acting": {"kind": "cyclic", "n": 3},
                  "action": DOUBLING_MOD7},
        "rule": {"neighborhood": [0, 1],
                 "factors": [{"pos": 0, "coeff": "identity"},
                             {"pos": 1, "coeff": "identity"}]},
        "tower": True})
    assert main(["decompose", "--config", cfgp, "--out", str(tmp_path)]) == 1
    report = read_json(tmp_path / "tower_report.json")
    assert report["complete"] is False
    assert report["residue_order"] == 21
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["verification"]["tower_verified"] is False


def test_permute_whole_rule_and_fibres(tmp_path):
    cfgp = write_config(tmp_path, {
        "group": Z20_GROUP, "rule": X1_RULE,
        "frame": {"subgroup": [4 * a for a in range(5)]}})
    assert main(["permute", "--config", cfgp, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "permute.csv")
    assert rows[1] == ["-", "false", "true"]
    assert len(rows) == 2 + 4 ** 3


def test_entropy_rates(tmp_path):
    cfgp = write_config(tmp_path, {**XOR_CONFIG, "n_max": 3})
    assert main(["entropy", "--config", cfgp, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "entropy.csv")
    assert rows[0] == ["N", "joint_entropy_bits", "marginal_entropy_bits",
                       "per_step_rate"]
    for n, row in enumerate(rows[1:], start=1):
        assert int(row[0]) == n
        assert float(row[1]) == pytest.approx(float(n), abs=1e-12)
        assert float(row[3]) == pytest.approx(1.0, abs=1e-12)


def test_diffuse_rank_trajectory(tmp_path):
    cfgp = write_config(tmp_path, {**XOR_CONFIG, "alpha": {"0": [1]},
                                   "j_max": 16, "thresholds": [2]})
    assert main(["diffuse", "--config", cfgp, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "diffuse.csv")
    assert rows[0] == ["j", "rank"]
    for j, row in enumerate(rows[1:]):
        assert int(row[1]) == 2 ** bin(j).count("1")
    report = read_json(tmp_path / "diffuse_report.json")
    assert set(report["densities"]) == {"2"}
    assert report["density_trail"]["2"][-1][0] == 16


def test_randomize_csv_layout_and_determinism(tmp_path):
    cfgp = write_config(tmp_path, {
        **XOR_CONFIG,
        "init": {"kind": "bernoulli", "probs": ["9/10", "1/10"]},
        "probes": [{"id": "x", "alpha": {"0": [1]}}],
        "n_max": 4})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["randomize", "--config", cfgp, "--out", str(out1),
                 "--seed", "7"]) == 0
    assert main(["randomize", "--config", cfgp, "--out", str(out2),
                 "--seed", "7"]) == 0
    body1 = (out1 / "randomize.csv").read_bytes()
    assert body1 == (out2 / "randomize.csv").read_bytes()
    rows = read_csv(out1 / "randomize.csv")
    assert rows[0] == ["n", "probe_id", "coef_abs", "cesaro_mean",
                       "tv_distance", "cesaro_tv", "mode", "samples",
                       "stderr"]
    # per n: one TV row (probe columns empty), then the probe row
    assert [r[1] for r in rows[1:]] == ["", "x"] * 5
    tv0, probe0 = rows[1], rows[2]
    assert float(probe0[2]) == pytest.approx(0.8, abs=1e-12)
    assert float(tv0[4]) == pytest.approx(0.4, abs=1e-12)
    manifest = read_json(out1 / "manifest.json")
    assert manifest["n_exact"] == 4
    assert manifest["coprimality_ok"] is True
    assert manifest["seed"] == 7


def test_randomize_with_factor_measures(tmp_path):
    cfgp = write_config(tmp_path, {
        "group": Z20_GROUP, "rule": X1_RULE,
        "frame": {"subgroup": [4 * a for a in range(5)]},
        "measures": {"lambda": {"kind": "uniform"},
                     "nu": {"kind": "bernoulli",
                            "probs": ["1/2", "1/4", "1/8", "1/8"]}},
        "probes": [{"id": "q", "phi": {"0": [1]}}],
        "n_max": 3})
    assert main(["randomize", "--config", cfgp, "--out", str(tmp_path),
                 "--cap-states", "200000"]) == 0
    rows = read_csv(tmp_path / "randomize.csv")
    modes = {r[6] for r in rows[1:] if r[1] == "q"}
    assert modes == {"exact"}  # quotient probe rides the factorized dual
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["verification"]["recompose_check"] is True


def test_cap_states_config_field_honored_unless_flag_given(tmp_path):
    cfgp = write_config(tmp_path, {
        **XOR_CONFIG,
        "init": {"kind": "bernoulli", "probs": ["9/10", "1/10"]},
        "probes": [{"id": "x", "alpha": {"0": [1]}}],
        "n_max": 6, "cap_states": 16, "seed": 1})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["randomize", "--config", cfgp, "--out", str(out1)]) == 0
    # 2^(1 + n) <= 16 caps the exact TV chain at n = 3
    assert read_json(out1 / "manifest.json")["n_exact"] == 3
    assert read_json(out1 / "manifest.json")["cap_states"] == 16
    assert main(["randomize", "--config", cfgp, "--out", str(out2),
                 "--cap-states", "256"]) == 0
    assert read_json(out2 / "manifest.json")["n_exact"] == 6


# (command, config keys beside XOR_CONFIG, the key named in the error)
MALFORMED_PARAMS = [
    ("randomize", {"n_max": 2, "tv_cells": "x"}, "tv_cells"),
    ("randomize", {"n_max": 2, "tv_cells": 0}, "tv_cells"),
    ("randomize", {"n_max": 2, "mc_samples": "abc"}, "mc_samples"),
    ("randomize", {"n_max": 2, "mc_samples": -1}, "mc_samples"),
    ("randomize", {"n_max": 2, "mc_checkpoints": ["a"]}, "mc_checkpoints"),
    ("randomize", {"n_max": 2, "mc_checkpoints": [0]}, "mc_checkpoints"),
    ("randomize", {"n_max": 2, "mc_checkpoints": 4}, "mc_checkpoints"),
    ("randomize", {"n_max": True}, "n_max"),
    ("entropy", {"n_max": True}, "n_max"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": 4, "thresholds": ["a"]}, "thresholds"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": 4, "thresholds": 3}, "thresholds"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": True}, "j_max"),
    ("group", {"cap_states": True}, "cap_states"),
]


def test_config_errors_exit_2(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 2}})
    assert main(["entropy", "--config", cfgp,
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["group", "--config", missing, "--out", str(tmp_path)]) == 2
    for command, params, key in MALFORMED_PARAMS:
        cfgp = write_config(tmp_path, {**XOR_CONFIG, **params})
        assert main([command, "--config", cfgp, "--out", str(tmp_path)]) == 2, params
        err = capsys.readouterr().err
        assert f"config error: config.{key}: " in err and "Traceback" not in err


def test_workers_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("MCA_LAB_WORKERS", "3")
    args = build_parser().parse_args(["group", "--config", "x"])
    assert args.workers == 3
    monkeypatch.delenv("MCA_LAB_WORKERS")
    args = build_parser().parse_args(["group", "--config", "x"])
    assert args.workers == 1


def test_workers_environment_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MCA_LAB_WORKERS", "abc")
    cfgp = write_config(tmp_path, {"group": {"kind": "quaternion"}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "MCA_LAB_WORKERS" in err
    assert "Traceback" not in err


def test_permute_honours_cap_states(tmp_path, capsys):
    # the width-4 rule over Z/5 x| Z/4 has a 20^4 = 160000-word local table
    rule = {"neighborhood": [0, 3], "one_sided": True,
            "factors": [{"pos": p, "coeff": "identity"}
                        for p in (3, 0, 0, 0, 2, 1, 1)]}
    cfgp = write_config(tmp_path, {"group": Z20_GROUP, "rule": rule})
    assert main(["permute", "--config", cfgp, "--out", str(tmp_path),
                 "--cap-states", "100"]) == 2
    assert "160000 states exceed cap 100" in capsys.readouterr().err


def test_factor_measures_must_be_an_object(tmp_path, capsys):
    cfgp = write_config(tmp_path, {
        "group": Z20_GROUP, "rule": X1_RULE,
        "frame": {"subgroup": [4 * a for a in range(5)]},
        "measures": [{"kind": "uniform"}, {"kind": "uniform"}],
        "n_max": 1})
    assert main(["randomize", "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: config.measures: expected an object, got list" in err


def test_out_of_memory_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, run, args):
        raise MemoryError
    monkeypatch.setitem(cli._COMMANDS, "group", exhausted)
    cfgp = write_config(tmp_path, {"group": {"kind": "quaternion"}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: out of memory: allocation failed (try a lower --cap-states)" in err
    assert "Traceback" not in err


# The README's command-line examples, keyed as in perfbench/digests.json.
README_EXAMPLES = [
    ("readme/g", "group", "group_quaternion.json", []),
    ("readme/t", "decompose", "tower_quaternion.json", []),
    ("readme/d", "decompose", "decompose_metacyclic.json", []),
    ("readme/p", "permute", "decompose_metacyclic.json", []),
    ("readme/e", "entropy", "entropy_xor.json", []),
    ("readme/f", "diffuse", "diffuse_xor.json", []),
    ("readme/r", "randomize", "randomize_xor.json", []),
    ("readme/rm", "randomize", "randomize_metacyclic.json",
     ["--cap-states", "200000"]),
]


def test_readme_examples_match_pinned_digests(tmp_path, monkeypatch):
    """Every README example writes byte-identical outputs (manifest aside)."""
    monkeypatch.delenv("MCA_LAB_WORKERS", raising=False)
    root = Path(__file__).resolve().parent.parent
    pins = read_json(root / "perfbench" / "digests.json")["digests"]
    for key, command, config, extra in README_EXAMPLES:
        out = tmp_path / key.replace("/", "_")
        assert main([command, "--config", str(root / "demos" / "configs" / config),
                     "--out", str(out), *extra]) == 0, key
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        assert got == pins[key], key
