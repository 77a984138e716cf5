"""The benchmark's CLI invocations and the checks on what they write.

Every invocation runs ``mcalab SUBCOMMAND --config CFG --out DIR --workers 1``
in a fresh process.  Its outputs are checked four ways: exit code and a
clean stderr, the expected output files, an all-true ``verification`` map
in ``manifest.json``, and the SHA-256 of every CSV and report against
``digests.json``.  Some invocations also carry an oracle: a closed form
computed from the config alone, independent of the digests.

Monte-Carlo invocations take the benchmark seed as ``--seed``; their
digests are pinned only at ``DEFAULT_SEED``, while oracles and the
verification map apply at every seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
MANIFEST = "manifest.json"

# -- oracles -------------------------------------------------------------------
# Each takes (output dir, parsed config) and returns a list of problems.


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want, rel: float = 1e-9) -> bool:
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=1e-300)


def _probs(spec: dict, size: int | None = None) -> list[Fraction]:
    """Exact cell distribution of a uniform or Bernoulli measure spec."""
    if spec["kind"] == "uniform":
        if size is None:
            raise ValueError("oracle needs the alphabet size of a uniform law")
        return [Fraction(1, size)] * size
    if spec["kind"] != "bernoulli":
        raise ValueError(f"oracle has no closed form for {spec['kind']!r}")
    return [Fraction(p) if isinstance(p, str) else Fraction(*p)
            for p in spec["probs"]]


def _entropy_bits(probs: list[Fraction]) -> float:
    return -math.fsum(float(p) * math.log2(p) for p in probs if p)


def skew_row0(out: Path, cfg: dict) -> list[str]:
    """Row n=0 of a (λ, ν) run: the initial law is the product λ×ν.

    TV = ½·Σ_{a,c} |λ(a)ν(c) − 1/|B||, and a quotient-only probe with
    coefficient k on a cyclic quotient reads |Σ_c ν(c)·e^{2πikc/|C|}|.
    """
    subgroup = cfg["frame"]["subgroup"]
    lam = _probs(cfg["measures"]["lambda"],
                 len(subgroup) if isinstance(subgroup, list) else None)
    nu = _probs(cfg["measures"]["nu"])
    order = len(lam) * len(nu)
    tv = Fraction(1, 2) * sum(abs(a * c - Fraction(1, order))
                              for a in lam for c in nu)
    rows = [r for r in _rows(out / "randomize.csv") if r["n"] == "0"]
    problems = []
    tv_rows = [r for r in rows if not r["probe_id"]]
    if len(tv_rows) != 1 or not _close(tv_rows[0]["tv_distance"], tv, 1e-12):
        problems.append(f"n=0 TV is not {tv}")
    for probe in cfg.get("probes", []):
        phi = probe.get("phi")
        if "alpha" in probe or phi is None or list(phi) != ["0"] \
                or len(phi["0"]) != 1:
            continue
        k = phi["0"][0]
        angle = [2 * math.pi * k * c / len(nu) for c in range(len(nu))]
        want = abs(complex(
            math.fsum(float(p) * math.cos(t) for p, t in zip(nu, angle)),
            math.fsum(float(p) * math.sin(t) for p, t in zip(nu, angle))))
        got = [r for r in rows if r["probe_id"] == probe["id"]]
        if len(got) != 1 or not _close(got[0]["coef_abs"], want):
            problems.append(f"n=0 probe {probe['id']} is not {want}")
    return problems


def xor_exact_rows(out: Path, cfg: dict) -> list[str]:
    """Every exact row of xor from a Bernoulli start.

    The cell at time n is the xor of 2^popcount(n) independent cells
    (Lucas), so with b = |p0 − p1| the probe reads b^(2^popcount n) and
    TV = ½·b^(2^popcount n).  MC rows are not checked here: their Cesàro
    TV mixes exact and sampled checkpoints (a known defect).
    """
    p0, p1 = _probs(cfg["init"])
    b = abs(p0 - p1)
    problems, checked = [], 0
    for r in _rows(out / "randomize.csv"):
        if r["mode"] != "exact":
            continue
        want = b ** (2 ** bin(int(r["n"])).count("1"))
        if r["probe_id"]:
            ok = _close(r["coef_abs"], want)
        else:
            want = want / 2
            ok = _close(r["tv_distance"], want, 1e-12)
        checked += 1
        if not ok:
            problems.append(f"exact row n={r['n']} {r['probe_id'] or 'TV'} "
                            f"is not {want}")
    if not checked:
        problems.append("no exact rows")
    return problems


def xor_ranks(out: Path, cfg: dict) -> list[str]:
    """Rank at dual iterate j is 2^popcount(j) for a one-cell xor character."""
    rows = _rows(out / "diffuse.csv")
    if len(rows) != cfg["j_max"] + 1:
        return [f"{len(rows)} rank rows for j_max {cfg['j_max']}"]
    bad = [r["j"] for r in rows
           if int(r["rank"]) != 2 ** bin(int(r["j"])).count("1")]
    return [f"rank is not 2^popcount(j) at j={bad[:5]}"] if bad else []


def entropy_rate(out: Path, cfg: dict) -> list[str]:
    """A one-sided right-permutative rule has per-step rate R·H(ν) at every N."""
    v_lo, v_hi = cfg["rule"]["neighborhood"]
    want = (max(0, v_hi) - min(v_lo, 0)) * _entropy_bits(_probs(cfg["measure"]))
    rows = _rows(out / "entropy.csv")
    if len(rows) != cfg["n_max"]:
        return [f"{len(rows)} entropy rows for n_max {cfg['n_max']}"]
    return [f"per-step rate at N={r['N']} is not {want}"
            for r in rows if not _close(r["per_step_rate"], want)]


def tower_complete(out: Path, cfg: dict) -> list[str]:
    report = json.loads((out / "tower_report.json").read_text())
    return [] if report.get("complete") is True else ["tower is not complete"]


# -- invocations ---------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    id: str                       # unique across the benchmark
    command: str                  # CLI subcommand
    config: str                   # path relative to the repo root
    outputs: tuple[str, ...]      # files it must write besides the manifest
    seeded: bool = False          # Monte-Carlo: takes the benchmark seed
    extra: tuple[str, ...] = ()   # further CLI flags
    oracle: Callable[[Path, dict], list[str]] | None = None

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        argv = [self.command, "--config", self.config, "--out", str(out_dir)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + list(self.extra)


_DEMO = "demos/configs/"
_OWN = "perfbench/configs/"
_W1 = ("--workers", "1")
_RANDOMIZE = ("randomize.csv",)
_DIFFUSE = ("diffuse.csv", "diffuse_report.json")
_DECOMPOSE = ("decomposition_report.json", "fibre_flags.csv")

# Four workloads, each a sequence of invocations; each kernel runs on one
# side only, so a change that helps one and costs another shows:
# - skew-exact: the exact chain on 20^5-word windows of Z/5:Z/4
#   (star_product_measure, large integer arrays, 280 MB); the dual chain
#   and Monte-Carlo never run.
# - skew-mc: the Monte-Carlo loop over Q8 (a probe on both factors, so no
#   dual fast path); the exact chain is negligible.
# - abelian-spectral: the xor dual chain to j=4096 and the Fraction window
#   weights of randomize_xor; no star products or nonabelian MC.
# - structure-entropy: structure and entropy over Q8 and Z/5:Z/4 through
#   per-word Python paths on small windows (apply_window,
#   recompose_check, fibre rebuilding); five process start-ups weigh on
#   setup_s.
WORKLOADS: dict[str, list[Invocation]] = {
    "skew-exact": [
        Invocation("randomize_metacyclic", "randomize",
                   _DEMO + "randomize_metacyclic.json", _RANDOMIZE,
                   extra=_W1, oracle=skew_row0),
    ],
    "skew-mc": [
        Invocation("randomize_q8", "randomize", _OWN + "skew_mc.json",
                   _RANDOMIZE, seeded=True, extra=_W1, oracle=skew_row0),
    ],
    "abelian-spectral": [
        Invocation("diffuse_xor_4096", "diffuse",
                   _OWN + "diffuse_xor_long.json", _DIFFUSE, extra=_W1,
                   oracle=xor_ranks),
        Invocation("randomize_xor", "randomize",
                   _DEMO + "randomize_xor.json", _RANDOMIZE, seeded=True,
                   extra=_W1, oracle=xor_exact_rows),
    ],
    "structure-entropy": [
        Invocation("group_quaternion", "group",
                   _DEMO + "group_quaternion.json", ("group_report.json",),
                   extra=_W1),
        Invocation("tower_quaternion", "decompose",
                   _DEMO + "tower_quaternion.json", ("tower_report.json",),
                   extra=_W1, oracle=tower_complete),
        Invocation("decompose_w4", "decompose",
                   _OWN + "decompose_metacyclic_w4.json", _DECOMPOSE,
                   extra=_W1),
        Invocation("permute_w4", "permute",
                   _OWN + "decompose_metacyclic_w4.json", ("permute.csv",),
                   extra=_W1),
        Invocation("entropy_metacyclic", "entropy",
                   _OWN + "entropy_metacyclic.json", ("entropy.csv",),
                   extra=_W1, oracle=entropy_rate),
    ],
}

# The eight CLI examples of the README's command-line section, as written
# there (output directories aside).
README_EXAMPLES: list[Invocation] = [
    Invocation("readme/g", "group", _DEMO + "group_quaternion.json",
               ("group_report.json",)),
    Invocation("readme/t", "decompose", _DEMO + "tower_quaternion.json",
               ("tower_report.json",), oracle=tower_complete),
    Invocation("readme/d", "decompose", _DEMO + "decompose_metacyclic.json",
               _DECOMPOSE),
    Invocation("readme/p", "permute", _DEMO + "decompose_metacyclic.json",
               ("permute.csv",)),
    Invocation("readme/e", "entropy", _DEMO + "entropy_xor.json",
               ("entropy.csv",)),
    Invocation("readme/f", "diffuse", _DEMO + "diffuse_xor.json", _DIFFUSE,
               oracle=xor_ranks),
    Invocation("readme/r", "randomize", _DEMO + "randomize_xor.json",
               _RANDOMIZE, oracle=xor_exact_rows),
    Invocation("readme/rm", "randomize", _DEMO + "randomize_metacyclic.json",
               _RANDOMIZE, extra=("--cap-states", "200000"),
               oracle=skew_row0),
]


# -- checking one invocation ---------------------------------------------------


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the run wrote, the manifest excepted."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != MANIFEST}


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() \
        else {}


def check(inv: Invocation, out_dir: Path, returncode: int, stderr: str,
          seed: int, pins: dict[str, dict[str, str]] | None) -> list[str]:
    """Everything wrong with one finished invocation (empty when correct).

    ``pins`` of None skips the digest comparison (used while recording).
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    missing = [n for n in inv.outputs + (MANIFEST,)
               if not (out_dir / n).is_file()
               or (out_dir / n).stat().st_size == 0]
    if missing:
        return problems + [f"missing output {', '.join(missing)}"]
    verification = json.loads((out_dir / MANIFEST).read_text()).get(
        "verification") or {}
    if not verification or not all(v is True for v in verification.values()):
        problems.append(f"verification map {verification}")
    if pins is not None and (not inv.seeded or seed == DEFAULT_SEED):
        want = pins.get(inv.id)
        if want is None:
            problems.append("no pinned digests")
        elif output_digests(out_dir) != want:
            problems.append("output digests differ from the pinned ones")
    if inv.oracle is not None:
        cfg = json.loads((ROOT / inv.config).read_text())
        try:
            problems += inv.oracle(out_dir, cfg)
        except (KeyError, ValueError, OSError) as exc:
            problems.append(f"oracle could not read the output: {exc!r}")
    return problems
