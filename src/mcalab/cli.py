"""Command-line experiment driver.

Each subcommand parses one JSON config, dispatches to the library, and
persists CSV/JSON results plus a run manifest into --out.  CSV bodies are
byte-identical across reruns with the same config and seed; only manifest
timestamps move.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .errors import McaLabError, SpecError
from .groups import (FiniteGroup, abelian_invariants, center,
                     commutator_subgroup, upper_central_series)
from .rules import permutativity
from .measures import trajectory_partition_entropy
from .decompose import decompose_mca, nilpotent_tower
from .spectral import LinearRuleDual, cesaro_randomization, diffusion_report
from .specs import (ExperimentConfig, load_experiment, parse_character,
                    parse_measure, parse_measure_pair, parse_probe,
                    read_config)
from .util import STATE_CAP, is_integer


# ---------------------------------------------------------------------------
# serialization helpers

def _fmt(x) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _subgroup_labels(G: FiniteGroup, members) -> list[str]:
    return [G.labels[m] for m in sorted(members)]


def _rule_json(rule) -> dict:
    return {
        "neighborhood": [rule.v_lo, rule.v_hi],
        "bias": rule.group.labels[rule.bias],
        "factors": [{"pos": p, "coeff": {"images": list(map(int, c.image_of))}}
                    for p, c in rule.factors],
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    path.write_text(buf.getvalue())


def _int_param(cfg: ExperimentConfig, key: str, default=None, least: int | None = 1,
               many: bool = False):
    """``config.<key>`` as an integer ≥ ``least``, or a list of them with ``many``.

    ``least=None`` sets no bound, and booleans are not integers here.  Any
    other value is a config error naming the key.
    """
    val = cfg.param(key, default)
    items = val if many and isinstance(val, list) else [val]
    if (many and not isinstance(val, list)) or not all(
            is_integer(x) and (least is None or x >= least) for x in items):
        kind = {0: "non-negative integer", 1: "positive integer", None: "integer"}[least]
        need = f"a list of {kind}s" if many else f"a {kind}"
        raise SpecError(f"config.{key}: need {need}")
    return val


def _measure_param(cfg: ExperimentConfig, key: str):
    """``config.<key>`` as a measure on the rule group; absent or null is uniform."""
    obj = cfg.param(key)
    return parse_measure(cfg.group.order,
                         {"kind": "uniform"} if obj is None else obj, key)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Run:
    """Collects outputs and verification statuses, then writes the manifest."""

    def __init__(self, args, command: str, config: bytes):
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.config_path = Path(args.config)
        self.config_sha256 = hashlib.sha256(config).hexdigest()
        self.started = datetime.datetime.now(datetime.timezone.utc)
        self.outputs: list[str] = []
        self.verification: dict[str, bool] = {}
        self.extra: dict = {}

    def add(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out / name

    def verify(self, name: str, ok: bool) -> None:
        self.verification[name] = bool(ok)

    @property
    def ok(self) -> bool:
        return all(self.verification.values())

    def finish(self, args, error: str | None = None) -> int:
        """Write the manifest; ``error`` is the stderr line of a failed run."""
        manifest = {
            "status": "ok" if error is None else "error",
            "command": self.command,
            "config": str(self.config_path),
            "config_sha256": self.config_sha256,
            "tool_version": __version__,
            "started_at": self.started.isoformat(),
            "finished_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "cap_states": args.cap_states,
            "seed": args.seed,
            "workers": args.workers,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "outputs": self.outputs,
            "verification": self.verification,
            **self.extra,
        }
        if error is not None:
            manifest["error"] = error
        else:
            for name in self.outputs:
                p = self.out / name
                if not p.exists() or p.stat().st_size == 0:
                    raise McaLabError(f"output {name} missing or empty")
        _write_json(self.out / "manifest.json", manifest)
        return 0 if self.ok else 1


# ---------------------------------------------------------------------------
# subcommands

def cmd_group(cfg: ExperimentConfig, run: Run, args) -> None:
    G = cfg.group
    series = upper_central_series(G)
    report = {
        "order": G.order,
        "labels": list(G.labels),
        "center": _subgroup_labels(G, center(G).members),
        "commutator_subgroup": _subgroup_labels(
            G, commutator_subgroup(G).members),
        "upper_central_series": [_subgroup_labels(G, sg.members)
                                 for sg in series.chain],
        "nilpotent": series.reaches_group,
        "series_factor_invariants": [list(t)
                                     for t in series.factor_invariants],
        "abelian_invariants": (list(abelian_invariants(G).orders)
                               if G.is_abelian else None),
    }
    _write_json(run.add("group_report.json"), report)
    run.verify("group_constructed", True)
    print(f"order {G.order}; center order {len(report['center'])}; "
          f"nilpotent: {report['nilpotent']}")


def _fibre_flag_rows(dec, cap: int):
    """(c-word labels..., left, right) per fibre, lexicographic order."""
    C = dec.h_rule.group
    rows = []
    for word, rule_c in sorted(dec.fibre_table().items()):
        flags = permutativity(rule_c, cap)
        rows.append([" ".join(C.labels[c] for c in word),
                     flags.left, flags.right])
    return rows


def cmd_decompose(cfg: ExperimentConfig, run: Run, args) -> None:
    if cfg.rule is None:
        raise SpecError("config: decompose needs a rule")
    if cfg.use_tower:
        tower = nilpotent_tower(cfg.rule, cap=args.cap_states)
        report = {
            "depth": tower.depth,
            "complete": tower.is_complete,
            "factor_invariants": [list(t) for t in tower.factor_invariants],
            "residue_order": (tower.residue_group.order
                              if tower.residue_group else None),
            "levels": [{
                "subgroup": _subgroup_labels(lvl.frame.B,
                                             lvl.frame.A.members),
                "quotient_rule": _rule_json(lvl.decomposition.h_rule),
                "verified": bool(lvl.decomposition.verified),
            } for lvl in tower.levels],
        }
        _write_json(run.add("tower_report.json"), report)
        ok = tower.is_complete and all(
            lvl.decomposition.verified for lvl in tower.levels)
        run.verify("tower_verified", ok)
        print(f"tower depth {tower.depth}; complete: {tower.is_complete}")
        return
    if cfg.frame is None:
        raise SpecError("config: decompose needs a frame (or tower: true)")
    dec = decompose_mca(cfg.rule, cfg.frame, cap=args.cap_states)
    A = cfg.frame.a_group
    fibres = [{"c_word": [dec.h_rule.group.labels[c] for c in word],
               "bias": A.labels[rule_a.bias],
               "coeffs": [{"pos": p, "images": list(map(int, m.image_of))}
                          for p, m in rule_a.factors]}
              for word, rule_a in sorted(dec.fibre_table().items())]
    report = {
        "quotient_rule": _rule_json(dec.h_rule),
        "fibres": fibres,
        "error_map": {" ".join(map(str, w)): int(e)
                      for w, e in sorted(dec.error_map.items())},
        "verified": bool(dec.verified),
    }
    _write_json(run.add("decomposition_report.json"), report)
    _write_csv(run.add("fibre_flags.csv"),
               ["c_word", "left_permutative", "right_permutative"],
               _fibre_flag_rows(dec, args.cap_states))
    run.verify("recompose_check", bool(dec.verified))
    print(f"decomposition over |A|={A.order}, |C|={dec.h_rule.group.order}; "
          f"verified: {bool(dec.verified)}")


def cmd_permute(cfg: ExperimentConfig, run: Run, args) -> None:
    if cfg.rule is None:
        raise SpecError("config: permute needs a rule")
    flags = permutativity(cfg.rule, args.cap_states)
    rows = [["-", flags.left, flags.right]]
    if cfg.frame is not None:
        dec = decompose_mca(cfg.rule, cfg.frame, cap=args.cap_states)
        run.verify("recompose_check", bool(dec.verified))
        rows.extend(_fibre_flag_rows(dec, args.cap_states))
    _write_csv(run.add("permute.csv"),
               ["c_word", "left_permutative", "right_permutative"], rows)
    run.verify("permutativity_computed", True)
    print(f"rule left: {flags.left}, right: {flags.right}; "
          f"{len(rows) - 1} fibre rows")


def cmd_entropy(cfg: ExperimentConfig, run: Run, args) -> None:
    if cfg.rule is None:
        raise SpecError("config: entropy needs a rule")
    spec = _measure_param(cfg, "measure")
    n_max = _int_param(cfg, "n_max")
    marginal = trajectory_partition_entropy(cfg.rule, spec, 1,
                                            cap=args.cap_states)
    rows = []
    for n in range(1, n_max + 1):
        joint = marginal if n == 1 else trajectory_partition_entropy(
            cfg.rule, spec, n, cap=args.cap_states)
        rows.append([n, joint, marginal, joint / n])
    _write_csv(run.add("entropy.csv"),
               ["N", "joint_entropy_bits", "marginal_entropy_bits",
                "per_step_rate"], rows)
    run.verify("entropy_computed", True)
    print(f"per-step rate at N={n_max}: {rows[-1][3]:.6f} bits")


def cmd_diffuse(cfg: ExperimentConfig, run: Run, args) -> None:
    if cfg.rule is None:
        raise SpecError("config: diffuse needs a rule")
    alpha_spec = cfg.param("alpha")
    if alpha_spec is None:
        raise SpecError("config.alpha: diffuse needs a seed character")
    chi = parse_character(cfg.group, alpha_spec, "alpha")
    j_max = _int_param(cfg, "j_max")
    thresholds = tuple(_int_param(cfg, "thresholds", [2, 4, 10], least=None,
                                  many=True))
    dual = LinearRuleDual.from_rule(cfg.rule)
    rep = diffusion_report(dual, chi, j_max, thresholds=thresholds)
    _write_csv(run.add("diffuse.csv"), ["j", "rank"],
               list(enumerate(rep.ranks)))
    _write_json(run.add("diffuse_report.json"), {
        "j_max": j_max,
        "thresholds": list(rep.thresholds),
        "densities": {str(t): rep.densities[t] for t in rep.thresholds},
        "density_trail": {str(t): rep.density_trail[t]
                          for t in rep.thresholds},
    })
    run.verify("diffusion_computed", True)
    dens = ", ".join(f">{t}: {rep.densities[t]:.4f}" for t in rep.thresholds)
    print(f"ranks to j={j_max}; density {dens}")


def cmd_randomize(cfg: ExperimentConfig, run: Run, args) -> None:
    if cfg.rule is None:
        raise SpecError("config: randomize needs a rule")
    n_max = _int_param(cfg, "n_max")
    dec = None
    fibre_group = cfg.group if cfg.group.is_abelian else None
    quot_group = None
    if cfg.frame is not None:
        dec = decompose_mca(cfg.rule, cfg.frame, cap=args.cap_states)
        run.verify("recompose_check", bool(dec.verified))
        fibre_group = cfg.frame.a_group
        quot_group = dec.h_rule.group
    if cfg.param("measures") is not None:
        if cfg.frame is None:
            raise SpecError("config.measures: per-factor measures need a "
                            "frame")
        init = parse_measure_pair(cfg.param("measures"),
                                  cfg.frame.a_group.order, quot_group.order)
    else:
        init = _measure_param(cfg, "init")
    probe_specs = cfg.param("probes")
    if not isinstance(probe_specs, (list, type(None))):
        raise SpecError("config.probes: need a list of probe objects")
    probes = [parse_probe(p, f"probes[{i}]", fibre_group, quot_group)
              for i, p in enumerate(probe_specs or [])]
    seed = args.seed
    if seed is None and cfg.param("seed") is not None:
        seed = _int_param(cfg, "seed", least=0)
    run.extra["seed"] = seed  # record the effective seed, flag or config
    mc_samples = _int_param(cfg, "mc_samples", 0, least=0)
    rep = cesaro_randomization(
        cfg.rule, init, n_max, probes=probes, frame=cfg.frame, dec=dec,
        tv_cells=_int_param(cfg, "tv_cells", 1),
        cap_states=args.cap_states,
        mc_samples=mc_samples,
        mc_checkpoints=(None if cfg.param("mc_checkpoints") is None
                        else _int_param(cfg, "mc_checkpoints", many=True)),
        seed=seed, workers=args.workers)
    header = ["n", "probe_id", "coef_abs", "cesaro_mean", "tv_distance",
              "cesaro_tv", "mode", "samples", "stderr"]
    rows = [[t.n, "", "", "", t.tv_distance, t.cesaro_tv, t.mode, t.samples,
             t.stderr] for t in rep.tv_rows]
    rows += [[r.n, r.probe_id, r.coef_abs, r.cesaro_mean, "", "", r.mode,
              r.samples, r.stderr] for r in rep.probe_rows]
    rows.sort(key=lambda row: row[0])  # stable: each n's TV row, then its probes
    _write_csv(run.add("randomize.csv"), header, rows)
    run.verify("randomization_computed", True)
    run.extra["n_exact"] = rep.n_exact
    run.extra["coprimality_ok"] = rep.coprimality_ok
    last_tv = rep.tv_rows[-1]
    run.extra["n_reached"] = last_tv.n  # the last TV row, exact or MC
    if last_tv.n < n_max:
        print(f"warning: TV rows stop at n={last_tv.n}, short of n_max {n_max} "
              f"(cap_states {args.cap_states}, mc_samples {mc_samples})",
              file=sys.stderr)
    print(f"n_exact {rep.n_exact}; final cesaro TV {last_tv.cesaro_tv:.6f} "
          f"({last_tv.mode})")


# ---------------------------------------------------------------------------

_COMMANDS = {
    "group": cmd_group,
    "decompose": cmd_decompose,
    "permute": cmd_permute,
    "entropy": cmd_entropy,
    "diffuse": cmd_diffuse,
    "randomize": cmd_randomize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcalab",
        description="Multiplicative cellular automata experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    env_workers = os.environ.get("MCA_LAB_WORKERS")
    try:
        workers = int(env_workers) if env_workers else 1
    except ValueError:
        raise SpecError(f"MCA_LAB_WORKERS: need an integer, "
                        f"got {env_workers!r}") from None
    if workers < 1:
        raise SpecError(f"MCA_LAB_WORKERS: need a positive integer, "
                        f"got {env_workers!r}")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=workers)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cap-states", dest="cap_states", type=int,
                       default=None)
    return parser


def main(argv=None) -> int:
    run = None
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            args = build_parser().parse_args(argv)
            if args.seed is not None and args.seed < 0:
                raise SpecError("--seed: need a non-negative integer")
            if args.workers < 1:
                raise SpecError("--workers: need a positive integer")
            config = read_config(args.config)  # read once: parsed and hashed
            cfg = load_experiment(config)
            if args.cap_states is None:  # flag beats config beats default
                args.cap_states = _int_param(cfg, "cap_states", STATE_CAP)
            run = Run(args, args.command, config)
            _COMMANDS[args.command](cfg, run, args)
            return run.finish(args)
    except SpecError as exc:
        line = f"config error: {exc}"
    except (McaLabError, OSError) as exc:
        line = f"error: {exc}"
    except MemoryError as exc:
        line = (f"error: out of memory: {str(exc) or 'allocation failed'} "
                "(try a lower --cap-states)")
    print(line, file=sys.stderr)
    if run is not None:
        # a failed run still leaves a manifest saying why; a manifest that
        # cannot be written leaves the one stderr line
        try:
            run.finish(args, error=line)
        except OSError:
            pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
