"""End-to-end runs of the command-line driver against temp directories."""
import ast
import copy
import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from mcalab import (CapExceededError, MeasureSpec, cesaro_randomization, cli,
                    groups, make_quaternion)
from mcalab.cli import build_parser, main
from mcalab.rules import local_table
from mcalab.specs import load_experiment, parse_character, parse_measure

from oracles import fourier_coefficient

ROOT = Path(__file__).resolve().parent.parent
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
    assert manifest["config_sha256"] == hashlib.sha256(
        Path(cfgp).read_bytes()).hexdigest()
    assert "order 8" in capsys.readouterr().out


@pytest.mark.parametrize("threads", [None, "3"])
def test_manifest_records_the_blas_threads_in_effect(tmp_path, monkeypatch, threads):
    """``blas_threads`` is ``OPENBLAS_NUM_THREADS`` as the run sees it, or
    null when it is unset."""
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    cfgp = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 2}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["workers"], manifest["blas_threads"]) == (1, threads)


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


def test_randomize_alpha_probe_on_a_frame_off_the_first_indices(tmp_path):
    # A = Z/5 sits at B-indices 0, 4, 8, 12, 16 of Z/5 ⋊ Z/4, so a probe
    # table indexed by A-index must not be read as one indexed by B-element
    cfg = read_json(ROOT / "demos" / "configs" / "randomize_metacyclic.json")
    lam = {"kind": "bernoulli", "probs": ["1/2", "1/4", "1/8", "1/16", "1/16"]}
    cfg["measures"]["lambda"] = lam
    cfg.update(probes=[{"id": "a", "alpha": {"0": [1]}}], n_max=2)
    cfgp = write_config(tmp_path, cfg)
    assert main(["randomize", "--config", cfgp, "--out", str(tmp_path),
                 "--cap-states", "200000"]) == 0
    row0 = next(r for r in read_csv(tmp_path / "randomize.csv")
                if r[:2] == ["0", "a"])
    A = load_experiment(cfgp).frame.a_group
    alpha = parse_character(A, {"0": [1]}, "alpha")
    m = parse_measure(A.order, lam, "lambda").window_measure(0, 1, A)
    assert float(row0[2]) == pytest.approx(abs(fourier_coefficient(alpha, m)),
                                           abs=1e-12)


def test_randomize_prints_a_library_warning_as_one_line(tmp_path, capsys):
    cfgp = write_config(tmp_path, {
        **XOR_CONFIG,
        "rule": {"neighborhood": [0, 1], "one_sided": True,
                 "factors": [{"pos": 1, "coeff": "identity"}] * 2},
        "n_max": 2})
    assert main(["randomize", "--config", cfgp, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (
        "warning: some exponent sum shares a factor with the group order; "
        "the density-one randomization hypothesis fails\n")
    assert read_json(tmp_path / "manifest.json")["coprimality_ok"] is False


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


# (command, config keys beside XOR_CONFIG, the field named in the error)
MALFORMED_PARAMS = [
    ("randomize", {"n_max": 2, "tv_cells": "x"}, "config.tv_cells"),
    ("randomize", {"n_max": 2, "tv_cells": 0}, "config.tv_cells"),
    ("randomize", {"n_max": 2, "mc_samples": "abc"}, "config.mc_samples"),
    ("randomize", {"n_max": 2, "mc_samples": -1}, "config.mc_samples"),
    ("randomize", {"n_max": 2, "mc_checkpoints": ["a"]}, "config.mc_checkpoints"),
    ("randomize", {"n_max": 2, "mc_checkpoints": [0]}, "config.mc_checkpoints"),
    ("randomize", {"n_max": 2, "mc_checkpoints": 4}, "config.mc_checkpoints"),
    ("randomize", {"n_max": True}, "config.n_max"),
    ("entropy", {"n_max": True}, "config.n_max"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": 4, "thresholds": ["a"]}, "config.thresholds"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": 4, "thresholds": 3}, "config.thresholds"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": True}, "config.j_max"),
    ("diffuse", {"alpha": {"0": [1]}, "j_max": -3}, "config.j_max"),
    ("group", {"cap_states": True}, "config.cap_states"),
    ("randomize", {"n_max": 2, "probes": 5}, "config.probes"),
    ("randomize", {"n_max": 2, "probes": {}}, "config.probes"),
    *[("randomize", {"n_max": 2, "mc_samples": 4, "seed": seed}, "config.seed")
      for seed in ("abc", 1.5, -3, True, [1, 2])],
    *[("randomize", {"n_max": 2, "init": {"kind": "bernoulli",
                                          "probs": [pair, "1/2"]}}, "init.probs[0]")
      for pair in ([[1], 2], [1.5, 2], [True, 2])],
    *[("randomize", {"n_max": 2, "init": init}, "init") for init in ([], 0)],
    ("entropy", {"n_max": 1, "measure": []}, "measure"),
    ("decompose", {"tower": "no"}, "config.tower"),
    ("permute", {"rule": {**XOR_CONFIG["rule"], "one_sided": "false"}},
     "rule.one_sided"),
    ("permute", {"rule": {**XOR_CONFIG["rule"], "neighborhood": [False, 1]}},
     "rule.neighborhood"),
    ("permute", {"rule": {**XOR_CONFIG["rule"], "factors": [
        {"pos": True, "coeff": "identity"}]}}, "rule.factors[0].pos"),
    ("group", {"group": {"kind": "cyclic", "n": True}}, "group.n"),
    ("group", {"group": {"kind": "semidirect", "normal": {"kind": "cyclic", "n": 64},
                         "acting": {"kind": "cyclic", "n": 128},
                         "action": [list(range(64))] * 128}}, "group.action"),
    *[("group", {"group": {"table": [[0, 1], [1, 0]], "labels": labels}},
       "group.table") for labels in ([0, 1], ["e", "e"], ["e"])],
    ("group", {"group": {"table": [[1, 0], [0, 1]], "labels": ["a"]}},
     "group.table"),
    ("permute", {"group": {"table": [[0, 1], [1, 0]]},
                 "rule": {**XOR_CONFIG["rule"], "bias": "a"}}, "rule.bias"),
    *[("diffuse", {"alpha": alpha, "j_max": 2}, "alpha")
      for alpha in ({"1": [1], " 1": [0]}, {"1": [1], "01": [1]},
                    {"100000000000000000000": [1]})],
]


def test_config_errors_exit_2(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 2}})
    assert main(["entropy", "--config", cfgp,
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["group", "--config", missing, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config: cannot read ")
    for command, params, where in MALFORMED_PARAMS:
        cfgp = write_config(tmp_path, {**XOR_CONFIG, **params})
        assert main([command, "--config", cfgp, "--out", str(tmp_path)]) == 2, params
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: ") and err.count("\n") == 1, err
    cfgp = write_config(tmp_path, {**XOR_CONFIG, "n_max": 2, "mc_samples": 4})
    assert main(["randomize", "--config", cfgp, "--out", str(tmp_path),
                 "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert "config error: --seed: " in err and "Traceback" not in err
    # --config names a file: a directory, bytes that are not UTF-8 and JSON
    # text (short, or longer than a file name may be) are unreadable configs
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"group": {"kind": "cyclic", "n": 2}, "seed": "\xe9"}')
    inline = json.dumps({"group": {"kind": "cyclic", "n": 3}})
    long_inline = json.dumps({"group": {"kind": "cyclic", "n": 3},
                              "thresholds": list(range(100))})
    fresh = tmp_path / "fresh"
    for config in (str(tmp_path), str(latin1), inline, long_inline):
        assert main(["group", "--config", config, "--out", str(fresh)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: cannot read ")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not fresh.exists()
    # --out naming an existing file
    out_file = tmp_path / "taken"
    out_file.write_text("")
    cfgp = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 2}})
    assert main(["group", "--config", cfgp, "--out", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_file) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_group_summary_prints_the_order_of_the_center(tmp_path, capsys):
    """The stdout line names the center's order; the report lists its members."""
    cfgp = write_config(tmp_path, {"group": {"kind": "direct_sum", "orders": [2, 3]}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "order 6; center order 6; nilpotent: True\n"
    assert len(read_json(tmp_path / "group_report.json")["center"]) == 6


def test_cli_imports_no_private_name_from_specs():
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("specs", "mcalab.specs")
                for alias in node.names]
    assert "load_experiment" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_group_report_on_an_order_1024_direct_sum(tmp_path):
    cfgp = write_config(tmp_path, {"group": {"kind": "direct_sum", "orders": [32, 32]}})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "group_report.json")
    assert report["order"] == 1024 and report["abelian_invariants"] == [32, 32]
    assert len(report["upper_central_series"]) == 2


@pytest.mark.parametrize("group", [{"kind": "quaternion"},
                                   {"kind": "direct_sum", "orders": [2] * 10}])
def test_a_group_run_validates_one_table(tmp_path, monkeypatch, group):
    """The series factors and the abelian invariants are read inside the
    group's own table: no quotient table is built and validated."""
    calls = []
    validate = groups._validate_table
    monkeypatch.setattr(groups, "_validate_table",
                        lambda table: calls.append(len(table)) or validate(table))
    cfgp = write_config(tmp_path, {"group": group})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_a_table_group_without_labels_is_labelled_by_index(tmp_path):
    """The same as the quaternion config, but with only the group's table."""
    table = [[int(x) for x in row] for row in make_quaternion().table]
    cfgp = write_config(tmp_path, {"group": {"table": table}, "frame": {
        "subgroup": "center"}, "rule": QUAT_WIDE_RULE})
    assert main(["group", "--config", cfgp, "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "group_report.json")
    assert report["labels"] == [str(k) for k in range(8)]
    assert report["center"] == ["0", "1"]
    assert main(["permute", "--config", cfgp, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "permute.csv").read_text().splitlines()
    # one row per quotient word, its cosets named by their least members
    assert len(rows) == 2 + 4 ** 4
    assert [r.split(",")[0] for r in rows[2:4]] == ["[0] [0] [0] [0]", "[0] [0] [0] [2]"]


def test_absent_or_null_measure_means_uniform(tmp_path):
    outputs = []
    for init in ({}, {"init": None}, {"init": {"kind": "uniform"}}):
        out = tmp_path / str(len(outputs))
        cfgp = write_config(tmp_path, {**XOR_CONFIG, "n_max": 3, **init})
        assert main(["randomize", "--config", cfgp, "--out", str(out)]) == 0
        outputs.append((out / "randomize.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


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


@pytest.mark.parametrize("env, flag, name", [
    (None, "0", "--workers"), (None, "-3", "--workers"),
    ("0", None, "MCA_LAB_WORKERS"), ("-2", None, "MCA_LAB_WORKERS")])
def test_workers_below_one_are_refused(tmp_path, monkeypatch, capsys, env, flag, name):
    if env is None:
        monkeypatch.delenv("MCA_LAB_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MCA_LAB_WORKERS", env)
    cfgp = write_config(tmp_path, {"group": {"kind": "quaternion"}})
    extra = [] if flag is None else ["--workers", flag]
    assert main(["group", "--config", cfgp, "--out", str(tmp_path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}: need a positive integer")
    assert err.count("\n") == 1
    assert not (tmp_path / "manifest.json").exists()


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


@pytest.mark.parametrize("measures, message", [
    ({"nu": {"kind": "uniform"}}, "config.measures: missing field 'lambda'"),
    ({"lambda": {"kind": "uniform"}}, "config.measures: missing field 'nu'"),
    ({"lambda": {"kind": "uniform"}, "nu": {"kind": "x"}},
     "measures.nu.kind: unknown measure kind 'x'"),
])
def test_factor_measures_name_the_missing_or_bad_law(tmp_path, capsys, measures,
                                                     message):
    cfgp = write_config(tmp_path, {
        "group": Z20_GROUP, "rule": X1_RULE,
        "frame": {"subgroup": [4 * a for a in range(5)]},
        "measures": measures, "n_max": 1})
    assert main(["randomize", "--config", cfgp, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def pinned_digests():
    return read_json(ROOT / "perfbench" / "digests.json")["digests"]


def output_digests(out):
    """SHA-256 of every output file in ``out`` but the manifest."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_readme_examples_match_pinned_digests(tmp_path, monkeypatch):
    """Every README example writes byte-identical outputs (manifest aside)."""
    monkeypatch.delenv("MCA_LAB_WORKERS", raising=False)
    pins = pinned_digests()
    for key, command, config, extra in README_EXAMPLES:
        out = tmp_path / key.replace("/", "_")
        assert main([command, "--config", str(ROOT / "demos" / "configs" / config),
                     "--out", str(out), *extra]) == 0, key
        assert output_digests(out) == pins[key], key


def test_bernoulli_entropy_matches_pinned_digest(tmp_path):
    """Non-uniform entropy through the exact joint law; README's example is uniform."""
    config = ROOT / "perfbench" / "configs" / "entropy_metacyclic.json"
    assert main(["entropy", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert output_digests(tmp_path) == pinned_digests()["entropy_metacyclic"]


# Exact rows end at n = 3 (2^(1+n) window words against cap_states 16), so
# the seed reaches the Monte-Carlo rows at n = 4 and 6.
FUZZ_BASE = {**XOR_CONFIG, "init": {"kind": "bernoulli", "probs": ["3/4", "1/4"]},
             "probes": [{"id": "a", "alpha": {"0": [1]}}], "n_max": 6,
             "tv_cells": 1, "cap_states": 16, "mc_samples": 64, "seed": 0}
FUZZ_PATHS = [(key,) for key in FUZZ_BASE] + [
    ("rule", "neighborhood"), ("rule", "one_sided"), ("rule", "bias"),
    ("rule", "factors", 0, "pos"), ("rule", "factors", 0, "coeff"),
    ("init", "kind"), ("init", "probs", 0), ("probes", 0, "id"),
    ("probes", 0, "alpha")]
FUZZ_VALUES = [None, True, -1, 0, 1.5, "x", [], {}, [[1]], [1.5, 2]]


def with_field(cfg, path, value):
    """A copy of ``cfg`` with the field at ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return cfg


def assert_ends_in_one_line(tmp_path, capsys, command, cfg, case):
    """Exit 0, or exit 2 with exactly one named error line on stderr.

    Returns the exit code and the stderr text.
    """
    cfgp = write_config(tmp_path, cfg)
    try:
        code = main([command, "--config", cfgp, "--out", str(tmp_path)])
    except Exception as exc:
        pytest.fail(f"{case} raised {exc!r}")
    err = capsys.readouterr().err
    assert code in (0, 2), case
    if code == 2:
        assert err.count("\n") == 1, (case, err)
        assert err.startswith(("config error:", "error:")), (case, err)
    return code, err


@pytest.mark.filterwarnings("ignore:some exponent sum shares a factor")
def test_randomize_never_ends_in_a_traceback(tmp_path, capsys):
    for path in FUZZ_PATHS:
        for value in FUZZ_VALUES:
            assert_ends_in_one_line(tmp_path, capsys, "randomize",
                                    with_field(FUZZ_BASE, path, value), (path, value))
    # a rule too wide to step is refused before its window is sampled
    for neighborhood in ([0, 2000], [0, HUGE]):
        cfg = with_field(FUZZ_BASE, ("rule", "neighborhood"), neighborhood)
        code, err = assert_ends_in_one_line(tmp_path, capsys, "randomize", cfg,
                                            neighborhood)
        assert code == 2 and len(err) < 100 and "2**" in err, err


def test_randomize_records_n_reached_and_warns_when_short(tmp_path, capsys):
    """The manifest names the last TV row's n; below n_max, one stderr line."""
    def run(cfg, key, *extra):
        out = tmp_path / key
        assert main(["randomize", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), *extra]) == 0
        return read_json(out / "manifest.json"), capsys.readouterr()

    metacyclic = read_json(ROOT / "demos" / "configs" / "randomize_metacyclic.json")
    manifest, std = run(metacyclic, "short", "--cap-states", "200000")
    assert (manifest["n_exact"], manifest["n_reached"]) == (1, 1)
    assert std.err == ("warning: TV rows stop at n=1, short of n_max 8 "
                       "(cap_states 200000, mc_samples 0)\n")
    assert std.out.startswith("n_exact 1; final cesaro TV ")
    # Monte-Carlo rows reach n_max through the default checkpoints 4 and 6,
    # and stop at 4 when the checkpoints end there
    manifest, std = run(FUZZ_BASE, "mc")
    assert (manifest["n_exact"], manifest["n_reached"], std.err) == (3, 6, "")
    manifest, std = run({**FUZZ_BASE, "mc_checkpoints": [4]}, "mc4")
    assert manifest["n_reached"] == 4
    assert std.err == ("warning: TV rows stop at n=4, short of n_max 6 "
                       "(cap_states 16, mc_samples 64)\n")


def test_monte_carlo_steps_honour_the_run_cap(tmp_path, capsys):
    """A local table within the default cap but over ``cap_states`` is
    refused on the MC path, even once the rule has cached it."""
    cfg = with_field(FUZZ_BASE, ("rule", "neighborhood"), [0, 4])
    code, err = assert_ends_in_one_line(tmp_path, capsys, "randomize", cfg,
                                        "width 5 at cap 16")
    assert (code, err) == (2, "error: local rule table: 32 states exceed cap 16\n")
    # 2**5 table words fit a cap of 32, and the MC rows then run to n_max
    code, _ = assert_ends_in_one_line(tmp_path, capsys, "randomize",
                                      {**cfg, "cap_states": 32}, "cap 32")
    assert code == 0
    assert read_json(tmp_path / "manifest.json")["n_reached"] == 6
    rule = load_experiment(write_config(tmp_path, cfg)).rule
    local_table(rule)
    with pytest.raises(CapExceededError, match="exceed cap 16"):
        cesaro_randomization(rule, MeasureSpec("uniform", 2), 6, cap_states=16,
                             mc_samples=64)


def test_a_failed_run_leaves_a_manifest_naming_its_error(tmp_path, capsys):
    """Past config loading, exit 2 still writes the manifest, with the line."""
    cfg = with_field(FUZZ_BASE, ("rule", "neighborhood"), [0, 4])
    code, err = assert_ends_in_one_line(tmp_path, capsys, "randomize", cfg,
                                        "width 5 at cap 16")
    manifest = read_json(tmp_path / "manifest.json")
    assert code == 2
    assert (manifest["status"], manifest["error"]) == ("error", err.rstrip("\n"))
    assert (manifest["command"], manifest["cap_states"]) == ("randomize", 16)
    code, _ = assert_ends_in_one_line(tmp_path, capsys, "randomize",
                                      {**cfg, "cap_states": 32}, "cap 32")
    manifest = read_json(tmp_path / "manifest.json")
    assert (code, manifest["status"]) == (0, "ok")
    assert "error" not in manifest


HUGE = 10 ** 30
ENTROPY_BASE = {**XOR_CONFIG, "measure": {"kind": "bernoulli", "probs": ["3/4", "1/4"]},
                "n_max": 3, "cap_states": 64}


def markov(transition, initial):
    return {"kind": "markov", "transition": transition, "initial": initial}


ENTROPY_FUZZ = [(("measure",), v) for v in [
    markov([["1/2", "1/2"], ["1/4", "3/4"]], ["1/2", "1/2"]),  # not stationary
    markov([["1", "0"], ["1", "0"]], ["1", "0"]),  # a state of probability 0
    markov([["0", "1"], ["1", "0"]], ["1/2", "1/2"]),
    markov([["1/2", "1/2"]], ["1/2", "1/2"]),
    markov([["1/2", "1/2"], ["1/2", "1/2"]], ["1"]),
    markov([["3/2", "-1/2"], ["1/2", "1/2"]], ["1/2", "1/2"]),
    {"kind": "bernoulli", "probs": ["1"]},
    {"kind": "bernoulli", "probs": ["1/3"] * 3},
    {"kind": "bernoulli", "probs": ["1", "0"]},
    {"kind": "bernoulli", "probs": ["3/2", "-1/2"]},
    {"kind": "bernoulli", "probs": [True, False]},
    {"kind": "bernoulli", "probs": [HUGE, 0]},
    {"kind": "uniform"}, {"kind": "x"}, True, 5]] + [
    (("n_max",), v) for v in (-1, 0, True, 1.5, HUGE, 2 ** 63)] + [
    (("cap_states",), v) for v in (-1, 0, True, 1, HUGE)] + [
    (("rule", "neighborhood"), [1, 0]), (("rule", "neighborhood"), [True, 1]),
    (("rule", "one_sided"), 5)] + [
    (("rule", "factors", 0, "pos"), v) for v in (-1, True, HUGE)] + [
    (("rule", "factors", 0, "coeff"), {"power": v}) for v in (-1, True, HUGE)] + [
    (("rule", "bias"), v) for v in (-1, True, HUGE)] + [
    (("group", "n"), v) for v in (-1, 0, True, 3, HUGE)] + [
    (("group",), {"kind": "direct_sum", "orders": v}) for v in ([2, True], [HUGE])] + [
    (("group",), {"kind": "quaternion"})]


def test_entropy_never_ends_in_a_traceback(tmp_path, capsys):
    for path, value in ENTROPY_FUZZ:
        assert_ends_in_one_line(tmp_path, capsys, "entropy",
                                with_field(ENTROPY_BASE, path, value), (path, value))
    # the cap refuses a wide window before its state count is computed
    for neighborhood in ([0, 2000], [0, HUGE]):
        cfg = with_field(ENTROPY_BASE, ("rule", "neighborhood"), neighborhood)
        code, err = assert_ends_in_one_line(tmp_path, capsys, "entropy", cfg,
                                            neighborhood)
        assert code == 2 and len(err) < 100 and "2**" in err, err
