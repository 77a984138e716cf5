"""mcalab benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload skew-exact --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 1     # every workload
    python3 perfbench/run.py --record-digests               # re-pin outputs

Each workload is a list of CLI invocations (``workloads.py``), each in a
fresh single-threaded ``python -m mcalab.cli`` process.  A run first
measures set-up (``SETUP_REPEATS`` fresh processes that import
``mcalab.cli`` and load the workload's configs), then repeats passes over
the invocations for about ``--seconds``, checking every output of every
pass.

With ``--trace 0`` it reports the end-to-end metrics in reference seconds
(see ``spawn``): each child runs in slices of ``SLICE_S``, and between
slices, with the child stopped, a fixed probe measures the host's current
speed; each slice is scaled by ``PROBE_REF_S`` over the median probe time
near it.  The shared host's speed drifts by up to twofold within
minutes, and this removes most of that drift from the figures.

- ``wall_s``: median over passes of the pass's wall time, launch to exit;
- ``cpu_s``: median over passes of the children's user+sys time (wait4);
- ``setup_s``: median set-up process wall time;
- ``peak_rss_mb``: largest child ``ru_maxrss``.

The raw (unscaled) seconds are printed beside them and kept in the results
file.

With ``--trace 1`` untraced passes alternate with passes launched through
``tracer.py``, all timed raw, and it reports the per-layer metrics of
``layer_metrics`` (medians over traced passes) plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with Python,
numpy and core count, goes to ``.perfbench_out/results/``.  Before the
first run of a source state it byte-compiles ``src/`` and checks the
README's CLI examples against their pinned digests; the outcome is cached
per source state, so later runs repeat neither.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from workloads import (DEFAULT_SEED, DIGESTS, README_EXAMPLES,  # noqa: E402
                       ROOT, WORKLOADS, Invocation, check, load_pins,
                       output_digests)

BENCH = Path(__file__).resolve().parent
BASELINE = BENCH / "baseline.json"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# A timed child runs SLICE_S at a time; between slices it is stopped and
# probe() measures the host's speed.  A second of child time in which the
# probe takes PROBE_REF_S counts as one reference second.
SLICE_S = 0.1
PROBE_REF_S = 0.005
PROBE_REACH = 5  # probes either side of a slice that set its scale
SETUP_CODE = ("import sys, mcalab.cli\n"
              "from mcalab.specs import load_experiment\n"
              "for path in sys.argv[1:]:\n"
              "    load_experiment(path)\n")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; see layer_metrics for how each is computed
PER_LAYER = {
    "cli.import_s": "s",
    "specs.load_experiment.self_s": "s",
    "cli.main.self_s": "s",
    "groups.self_s": "s",
    "pseudo.self_s": "s",
    "rules.local_table.self_s": "s",
    "rules.local_table.calls": "count",
    "rules.local_table.hit_ratio": "ratio",
    "rules.permutativity.self_s": "s",
    "rules.apply_window.self_s": "s",
    "rules.apply_window.calls": "count",
    "decompose.decompose_mca.self_s": "s",
    "decompose.recompose_check.self_s": "s",
    "decompose.recompose_check.pairs": "count",
    "decompose.nilpotent_tower.self_s": "s",
    "decompose.fibre.calls": "count",
    "decompose.fibre.reuse_ratio": "ratio",
    "measures.star_product_measure.self_s": "s",
    "measures.star_product_measure.words": "count",
    "measures.WindowMeasure.validate_s": "s",
    "measures.push_forward.self_s": "s",
    "measures.push_forward.words_in": "count",
    "measures.push_forward.words_per_s": "1/s",
    "measures.marginal.self_s": "s",
    "measures.window_measure.self_s": "s",
    "measures.window_measure.words": "count",
    "measures.trajectory_partition_entropy.self_s": "s",
    "measures.trajectory_partition_entropy.words": "count",
    "measures.trajectory_joint_distribution.self_s": "s",
    "spectral.dual_action.self_s": "s",
    "spectral.dual_action.calls": "count",
    "spectral.dual_action.support_cells": "count",
    "spectral.dual_action.cells_per_s": "1/s",
    "spectral.diffusion_report.self_s": "s",
    "spectral.bernoulli_fourier.self_s": "s",
    "spectral.cesaro_randomization.self_s": "s",
    "spectral.mc.cell_updates_per_s": "1/s",
    "trace.overhead_s": "s",
    "other.self_s": "s",
    "failed_frac": "ratio",
}


@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh work directory under ``OUT``, removed on exit."""
    work = OUT / f"{prefix}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"
    env.pop("MCA_LAB_WORKERS", None)
    return env


_PROBE_IN = np.arange(1 << 20, dtype=np.int64)
_PROBE_OUT = np.empty_like(_PROBE_IN)


def probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    The mix mirrors the program's: a dict-heavy Python loop, and a pass
    over 8 MB integer arrays that counts a third.  Host drift slows the
    loop more than the array pass; of the weights tried on a drifting
    host, a third followed the interpreter-bound and the array-bound
    invocations about equally well.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    t1 = time.perf_counter()
    np.multiply(_PROBE_IN, 3, out=_PROBE_OUT)
    int(_PROBE_OUT.sum())
    return (t1 - t0) + (time.perf_counter() - t1) / 3


def reference_seconds(slices: list[float], probes: list[float]) -> float:
    """Slice durations in reference seconds.

    ``probes[i]`` and ``probes[i + 1]`` were taken just before and just
    after ``slices[i]``.  Each slice is scaled by ``PROBE_REF_S`` over the
    median of the ``2 * PROBE_REACH`` probes nearest it: a single probe can
    be held up by an interrupt, while the host's speed drifts more slowly.
    """
    return sum(d * PROBE_REF_S / statistics.median(
        probes[max(0, i + 1 - PROBE_REACH):i + 1 + PROBE_REACH])
        for i, d in enumerate(slices))


def run_sliced(pid: int, begin: float) -> tuple[list[float], list[float]]:
    """Let a child launched at ``begin`` run SLICE_S at a time until it exits.

    Between slices the child is stopped and the host probed.  Returns the
    slice durations and the probes after each slice; the child is left
    exited but not reaped.
    """
    slices, probes = [], []
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            if select.select([pidfd], [], [], SLICE_S)[0]:
                slices.append(time.perf_counter() - begin)
                break
            end = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            state = os.waitid(os.P_PID, pid,
                              os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            slices.append(end - begin)
            if state.si_code != os.CLD_STOPPED:
                break
            probes.append(probe())
            os.kill(pid, signal.SIGCONT)
            begin = time.perf_counter()
    finally:
        os.close(pidfd)
    probes.append(probe())
    return slices, probes


def spawn(cmd: list[str], log: Path, calibrated: bool = False) -> dict:
    """Run one child to exit and time it.

    Returns its exit code, wall and user+sys seconds and max RSS in MB.  A
    ``calibrated`` child runs under ``run_sliced``, with a probe just before
    its launch; its wall time excludes the stops, and ``ref_wall_s`` and
    ``ref_cpu_s`` give its times in reference seconds.
    """
    with open(log.with_suffix(".stdout"), "wb") as out, \
            open(log.with_suffix(".stderr"), "wb") as err:
        probes = [probe()] if calibrated else []
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err)
        try:
            if calibrated:
                slices, after = run_sliced(proc.pid, t0)
                probes += after
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # SIGKILL also ends a stopped child
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"rc": proc.returncode, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024}
    if calibrated:
        res["wall_s"] = sum(slices)
        scale = reference_seconds(slices, probes) / res["wall_s"]
        res["ref_wall_s"] = res["wall_s"] * scale
        res["ref_cpu_s"] = res["cpu_s"] * scale
        res["slices_s"], res["probes_s"] = slices, probes
    return res


def run_invocation(inv: Invocation, work: Path, seed: int, pins,
                   spans: Path | None = None, calibrated: bool = False
                   ) -> dict:
    """Launch one invocation (traced when ``spans`` is given) and check it."""
    name = inv.id.replace("/", "__")
    out_dir = work / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = inv.argv(out_dir, seed)
    if spans is None:
        cmd = [sys.executable, "-m", "mcalab.cli"] + argv
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans",
               str(spans), "--id", inv.id, "--"] + argv
    log = work / f"{name}.log"
    res = spawn(cmd, log, calibrated)
    stderr = log.with_suffix(".stderr").read_text(errors="replace")
    res["problems"] = check(inv, out_dir, res.pop("rc"), stderr, seed, pins)
    return {"id": inv.id, **res, "out_dir": out_dir}


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(traced: list[tuple[list[list], float]]
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, from (spans, wall) per invocation.

    Also returns the self seconds of every span name, for layer shares.
    """
    agg: dict[str, dict] = {}
    other = 0.0
    fibre_distinct = 0
    for spans, wall in traced:
        other += wall - tracer.root_time(spans)
        summary = tracer.summarize(spans)
        fibre_distinct += len(set(summary.get("decompose.fibre",
                                              {"attrs": []})["attrs"]))
        for name, s in summary.items():
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "attrs": []})
            for key in ("calls", "total_s", "self_s"):
                a[key] += s[key]
            a["attrs"] += s["attrs"]

    def get(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    def attr_sum(name: str) -> float:
        return sum(agg.get(name, {}).get("attrs", []))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {"cli.import_s": get("cli.import", "total_s"),
         "groups.self_s": sum(a["self_s"] for n, a in agg.items()
                              if n.startswith("groups.")),
         "pseudo.self_s": sum(a["self_s"] for n, a in agg.items()
                              if n.startswith("pseudo.")),
         "other.self_s": other}
    for name in ("specs.load_experiment", "cli.main", "rules.local_table",
                 "rules.permutativity", "rules.apply_window",
                 "decompose.decompose_mca", "decompose.recompose_check",
                 "decompose.nilpotent_tower",
                 "measures.star_product_measure", "measures.push_forward",
                 "measures.marginal", "measures.window_measure",
                 "measures.trajectory_partition_entropy",
                 "measures.trajectory_joint_distribution",
                 "spectral.dual_action", "spectral.diffusion_report",
                 "spectral.bernoulli_fourier",
                 "spectral.cesaro_randomization"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("rules.local_table", "rules.apply_window", "decompose.fibre",
                 "spectral.dual_action"):
        m[f"{name}.calls"] = get(name, "calls")
    m["rules.local_table.hit_ratio"] = ratio(attr_sum("rules.local_table"),
                                             get("rules.local_table", "calls"))
    m["decompose.recompose_check.pairs"] = attr_sum("decompose.recompose_check")
    m["decompose.fibre.reuse_ratio"] = ratio(fibre_distinct,
                                             get("decompose.fibre", "calls"))
    m["measures.WindowMeasure.validate_s"] = get(
        "measures.WindowMeasure.validate", "self_s")
    for name in ("measures.star_product_measure", "measures.window_measure",
                 "measures.trajectory_partition_entropy"):
        m[f"{name}.words"] = attr_sum(name)
    m["measures.push_forward.words_in"] = attr_sum("measures.push_forward")
    m["measures.push_forward.words_per_s"] = ratio(
        attr_sum("measures.push_forward"),
        get("measures.push_forward", "total_s"))
    m["spectral.dual_action.support_cells"] = attr_sum("spectral.dual_action")
    m["spectral.dual_action.cells_per_s"] = ratio(
        attr_sum("spectral.dual_action"), get("spectral.dual_action",
                                              "total_s"))
    # a computed count of MC cell updates, over the loop's own time
    m["spectral.mc.cell_updates_per_s"] = ratio(
        attr_sum("spectral.cesaro_randomization"),
        get("spectral.cesaro_randomization", "self_s"))
    return m, {name: a["self_s"] for name, a in agg.items()}


# -- one workload ------------------------------------------------------------------

def measure_setup(configs: list[str], work: Path, calibrated: bool) -> dict:
    res = spawn([sys.executable, "-c", SETUP_CODE] + configs,
                work / "setup.log", calibrated)
    res["ok"] = res.pop("rc") == 0
    return res


TIMES = ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")


def run_pass(invs: list[Invocation], work: Path, seed: int, pins,
             traced: bool, calibrated: bool) -> dict:
    results, spans_of = [], []
    for inv in invs:
        spans = work / (inv.id.replace("/", "__") + ".spans.json") \
            if traced else None
        res = run_invocation(inv, work, seed, pins, spans, calibrated)
        if traced:
            try:
                recorded = json.loads(spans.read_text())["spans"]
            except (OSError, ValueError, KeyError):
                recorded = []
                res["problems"].append("no span file")
            spans_of.append((recorded, res["wall_s"]))
        res.pop("out_dir")
        results.append(res)
    layers, self_s = layer_metrics(spans_of) if traced else (None, None)
    return {"traced": traced,
            **{k: sum(r[k] for r in results) for k in TIMES
               if k in results[0]},
            "rss_mb": max(r["rss_mb"] for r in results),
            "invocations": results, "layers": layers,
            "self_s_by_span": self_s}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pins) -> dict:
    invs = WORKLOADS[name]
    probe()  # fault in the probe's arrays before the first timed probe
    with scratch("work") as work:
        configs = sorted({inv.config for inv in invs})
        setups = [measure_setup(configs, work, not trace)
                  for _ in range(SETUP_REPEATS)]
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(invs, work, seed, pins,
                                   trace and len(passes) % 2 == 1, not trace))
            elapsed = time.perf_counter() - start
            one_more = elapsed + elapsed / len(passes) <= seconds
            if not one_more and (not trace or len(passes) >= 2):
                break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    done = [r for p in passes for r in p["invocations"]]
    failed = sum(bool(r["problems"]) for r in done) \
        + sum(not s["ok"] for s in setups)
    attempted = len(done) + len(setups)
    if trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain))
        layers["failed_frac"] = failed / attempted
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        raw = {}
    else:
        values = {"wall_s": statistics.median(p["ref_wall_s"] for p in plain),
                  "cpu_s": statistics.median(p["ref_cpu_s"] for p in plain),
                  "setup_s": statistics.median(s["ref_wall_s"]
                                               for s in setups),
                  "peak_rss_mb": max(p["rss_mb"] for p in plain)}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        raw = {"wall_s": statistics.median(p["wall_s"] for p in plain),
               "cpu_s": statistics.median(p["cpu_s"] for p in plain),
               "setup_s": statistics.median(s["wall_s"] for s in setups)}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "metrics": metrics,
            "raw_s": raw, "setups": setups, "passes": passes}


# -- preparation ---------------------------------------------------------------------

def source_key() -> str:
    """Digest of everything the README check depends on."""
    h = hashlib.sha256()
    files = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("demos/configs/*"),
                    *BENCH.glob("*.py"), DIGESTS])
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def readme_check(pins) -> list[str]:
    """Problems with the README's CLI examples, cached per source state."""
    stamp = OUT / "readme_check.json"
    key = source_key()
    if stamp.exists():
        cached = json.loads(stamp.read_text())
        if cached.get("key") == key:
            return cached["problems"]
    with scratch("readme") as work:
        problems = [f"{inv.id}: {p}" for inv in README_EXAMPLES
                    for p in run_invocation(inv, work, DEFAULT_SEED,
                                            pins)["problems"]]
    stamp.write_text(json.dumps({"key": key, "problems": problems}) + "\n")
    return problems


def record_digests() -> int:
    """Run every invocation once at the default seed and pin its outputs."""
    digests, bad = {}, []
    with scratch("record") as work:
        for inv in [i for invs in WORKLOADS.values() for i in invs] \
                + README_EXAMPLES:
            res = run_invocation(inv, work, DEFAULT_SEED, None)
            bad += [f"{inv.id}: {p}" for p in res["problems"]]
            digests[inv.id] = output_digests(res["out_dir"])
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(
        {"default_seed": DEFAULT_SEED, "digests": digests},
        indent=2, sort_keys=True) + "\n")
    print(f"pinned the outputs of {len(digests)} invocations in {DIGESTS}")
    return 0


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def report(res: dict) -> None:
    print(f"{res['workload']}: seed {res['seed']}, "
          f"{len(res['passes'])} passes, {res['failed']}/{res['attempted']} "
          f"failed (failed_frac {res['failed_frac']:g})")
    for name, m in res["metrics"].items():
        print(f"  {name:46s} {m['value']:14.6g} {m['unit']}")
    for name, value in res["raw_s"].items():
        print(f"  {name + ' (raw)':46s} {value:14.6g} s")
    for p in res["passes"]:
        for inv in p["invocations"]:
            for problem in inv["problems"]:
                print(f"  FAILED {inv['id']}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "mcalab" / "cli.py").is_file() \
            or not (ROOT / "demos" / "configs").is_dir():
        print(f"no mcalab source tree under {ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    if opts.record_digests:
        return record_digests()
    if opts.workload is None:
        parser.error("--workload is required")
    pins = load_pins()
    baseline = json.loads(BASELINE.read_text())["workloads"] \
        if BASELINE.exists() else {}
    readme_problems = readme_check(pins)
    for problem in readme_problems:
        print(f"README example FAILED {problem}")
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = []
    for name in names:
        res = run_workload(name, opts.seed, opts.seconds, bool(opts.trace),
                           pins)
        res["environment"] = environment()
        res["baseline"] = baseline.get(name)
        res["readme_problems"] = readme_problems
        results.append(res)
        (OUT / "results").mkdir(exist_ok=True)
        (OUT / "results" / f"{name}-seed{opts.seed}-trace{opts.trace}.json"
         ).write_text(json.dumps(res, indent=1) + "\n")
        report(res)
    metrics = {(f"{r['workload']}.{k}" if len(results) > 1 else k): v
               for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and not readme_problems,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
