"""Tests for the benchmark harness: span arithmetic and traced invocations.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import ROOT, output_digests  # noqa: E402


def span(name, start, end, parent=-1, attr=None, error=None):
    return [name, start, end, parent, "inv", error, attr]


# root [0, 10] with children that overlap each other and overrun the root
TREE = [
    span("cli.main", 0.0, 10.0),                        # 0
    span("measures.push_forward", 1.0, 4.0, 0, 100),     # 1
    span("rules.local_table", 2.0, 3.0, 1, True),       # 2
    span("measures.push_forward", 3.0, 6.0, 0, 50),      # 3
    span("rules.local_table", 8.0, 12.0, 0, False),     # 4
]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # root: children cover [1, 6] and [8, 10] -> 7 of its 10 seconds
    assert tracer.self_times(TREE) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_root_time_and_summary():
    assert tracer.root_time(TREE) == pytest.approx(10.0)
    assert tracer.root_time(TREE + [span("cli.import", 11.0, 11.5)]) \
        == pytest.approx(10.5)
    s = tracer.summarize(TREE)
    assert s["measures.push_forward"]["calls"] == 2
    assert s["measures.push_forward"]["total_s"] == pytest.approx(6.0)
    assert s["measures.push_forward"]["self_s"] == pytest.approx(5.0)
    assert s["measures.push_forward"]["attrs"] == [100, 50]


def test_layer_metrics_from_synthetic_spans():
    fibres = [span("decompose.fibre", 20.0 + i, 20.5 + i, -1, key)
              for i, key in enumerate(["a:0", "a:1", "a:0"])]
    m, self_s = run.layer_metrics([(TREE, 12.0), (fibres, 4.0)])
    assert self_s["rules.local_table"] == pytest.approx(5.0)
    assert m["cli.main.self_s"] == pytest.approx(3.0)
    assert m["measures.push_forward.self_s"] == pytest.approx(5.0)
    assert m["measures.push_forward.words_in"] == 150
    assert m["measures.push_forward.words_per_s"] == pytest.approx(150 / 6.0)
    assert m["rules.local_table.calls"] == 2
    assert m["rules.local_table.hit_ratio"] == pytest.approx(0.5)
    assert m["decompose.fibre.calls"] == 3
    assert m["decompose.fibre.reuse_ratio"] == pytest.approx(2 / 3)
    # wall minus root cover: 12 - 10, and 4 - 1.5
    assert m["other.self_s"] == pytest.approx(2.0 + 2.5)
    assert set(m) | {"trace.overhead_s", "failed_frac"} == set(run.PER_LAYER)


def test_reference_seconds_scale_each_slice_by_nearby_probes(monkeypatch):
    monkeypatch.setattr(run, "PROBE_REF_S", 1.0)
    monkeypatch.setattr(run, "PROBE_REACH", 1)
    # slice i sits between probes i and i+1; with a reach of one probe
    # either side the scale is their mean
    assert run.reference_seconds([1.0, 2.0], [0.5, 0.5, 0.25]) \
        == pytest.approx(1.0 / 0.5 + 2.0 / 0.375)
    monkeypatch.setattr(run, "PROBE_REACH", 2)
    # one slow probe in the window does not move the median
    assert run.reference_seconds([1.0], [0.5, 0.5, 9.0, 0.5]) \
        == pytest.approx(2.0)


def test_calibrated_spawn_times_a_stopped_and_resumed_child(tmp_path):
    code = "import time\nt = time.time()\nwhile time.time() - t < 0.5: pass"
    res = run.spawn([sys.executable, "-c", code], tmp_path / "child.log",
                    calibrated=True)
    assert res["rc"] == 0
    slices, probes = res["slices_s"], res["probes_s"]
    assert len(slices) >= 3 and len(probes) == len(slices) + 1
    assert res["wall_s"] == pytest.approx(sum(slices))
    assert res["ref_wall_s"] == pytest.approx(
        run.reference_seconds(slices, probes))
    assert res["ref_cpu_s"] / res["cpu_s"] == pytest.approx(
        res["ref_wall_s"] / res["wall_s"])


def test_wrapper_records_errors_and_reraises():
    t = tracer.Tracer("inv-7")

    def boom(x):
        raise KeyError(x)

    outer = t.wrap("outer", lambda f, x: f(x))
    with pytest.raises(KeyError):
        outer(t.wrap("boom", boom), 3)
    (o, b) = t.spans
    assert (o[tracer.NAME], o[tracer.ERROR], o[tracer.PARENT]) == \
        ("outer", "KeyError", -1)
    assert (b[tracer.NAME], b[tracer.PARENT], b[tracer.INVOCATION]) == \
        ("boom", 0, "inv-7")


CASES = [
    ("randomize", "demos/configs/randomize_metacyclic.json",
     ["--cap-states", "200000", "--seed", "5"],
     "measures.star_product_measure"),
    ("randomize", "demos/configs/randomize_xor.json", [],
     "spectral.cesaro_randomization"),
    ("decompose", "demos/configs/tower_quaternion.json", [],
     "decompose.nilpotent_tower"),
    ("permute", "demos/configs/decompose_metacyclic.json", [],
     "decompose.fibre"),
    ("entropy", "perfbench/configs/entropy_metacyclic.json", [],
     "measures.trajectory_joint_distribution"),
    ("diffuse", "demos/configs/diffuse_xor.json", [],
     "spectral.dual_action"),
]


@pytest.mark.parametrize("command,config,extra,layer", CASES)
def test_traced_invocation_writes_identical_outputs(tmp_path, command,
                                                    config, extra, layer):
    if command == "entropy":  # keep the suite short: same rule, n_max 1
        text = (ROOT / config).read_text().replace('"n_max": 2',
                                                   '"n_max": 1')
        config = str(tmp_path / "entropy.json")
        Path(config).write_text(text)
    env = run.child_env()
    outs = []
    for traced in (False, True):
        out = tmp_path / ("traced" if traced else "plain")
        argv = [command, "--config", config, "--out", str(out),
                "--workers", "1"] + extra
        launcher = ([str(BENCH / "tracer.py"), "--spans",
                     str(tmp_path / "spans.json"), "--"] if traced
                    else ["-m", "mcalab.cli"])
        proc = subprocess.run([sys.executable] + launcher + argv, cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    plain, traced = (output_digests(o) for o in outs)
    assert plain and plain == traced
    spans = __import__("json").loads((tmp_path / "spans.json").read_text())
    names = {s[tracer.NAME] for s in spans["spans"]}
    assert {"cli.import", "cli.main", "specs.load_experiment", layer} <= names
