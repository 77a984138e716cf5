"""Span tracer for one mcalab CLI invocation, plus span arithmetic.

Run as a launcher in place of ``python -m mcalab.cli``::

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json --id INV -- \
        randomize --config demos/configs/randomize_xor.json --out out/r

It times ``import mcalab.cli`` as the ``cli.import`` span, wraps the layer
entry points listed in ``WRAPPED`` in every ``mcalab`` namespace that binds
them, runs ``mcalab.cli.main`` and exits with its code.  Spans stay in
memory and are written to ``--spans`` when the invocation ends, whatever
the outcome.  Nothing under ``src/`` is modified; per-element helpers
(``eval_local``, ``star_compose``, ``FiniteGroup.mul``,
``GroupMap.__call__``) are left unwrapped because they run millions of
times per invocation.

Importing this module patches nothing; ``install`` does.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# span fields, in storage order
NAME, START, END, PARENT, INVOCATION, ERROR, ATTR = range(7)


class Tracer:
    """Collects spans for one process; one stack, as the CLI is single-threaded."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.invocation, None,
                           None])

    def wrap(self, name: str, fn, probe=None):
        """``fn`` inside a span; ``probe(args, kwargs, result)`` sets its attr.

        A probe whose value must be read before the call (a cache state)
        is given as ``(before, after)``: ``before(args, kwargs)`` runs
        first and its value is handed to ``after(state, result)``.
        """
        spans, stack, inv = self.spans, self._stack, self.invocation
        clock = time.perf_counter
        before, after = probe if isinstance(probe, tuple) else (None, probe)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, inv, None,
                    None]
            stack.append(len(spans))
            spans.append(span)
            state = before(args, kwargs) if before is not None else None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if before is not None:
                span[ATTR] = after(state, result)
            elif after is not None:
                span[ATTR] = after(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"invocation": self.invocation, "spans": self.spans},
                      fh, separators=(",", ":"))


# -- what is wrapped -----------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _pairs(args, kwargs, result):
    """Σ|B|^width of one recompose_check: its (c-word, a-word) pairs."""
    dec = _arg(args, kwargs, 0, "dec")
    rule = (args[1] if len(args) > 1 else kwargs.get("rule")) or dec.rule
    return dec.frame.B.order ** rule.width


def _fibre_key(args, kwargs, result):
    word = _arg(args, kwargs, 1, "c_word")
    return f"{id(args[0])}:{','.join(map(str, word))}"


def _words_out(args, kwargs, result):
    return len(result.num)


def _words_in(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "m").num)


def _trajectory_words(args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    n_steps = _arg(args, kwargs, 2, "n_steps")
    left, right = -min(op.v_lo, 0), max(0, op.v_hi)
    return op.group.order ** (n_steps * (left + right))


def _support_cells(args, kwargs, result):
    return _arg(args, kwargs, 1, "chi").rank


def _mc_cell_updates(args, kwargs, result):
    """Cells the MC loop computes, from the call and the checkpoints reached.

    Mirrors the checkpoint policy of ``cesaro_randomization``: every MC
    checkpoint n samples a window of (output width + n·spread) cells and
    evolves it n steps, each step shrinking it by the rule's spread.
    """
    rule = _arg(args, kwargs, 0, "rule")
    probes = args[3] if len(args) > 3 else kwargs.get("probes", ())
    tv_cells = kwargs.get("tv_cells", 1)
    samples = kwargs.get("mc_samples", 0)
    cells = {c for p in probes for c in p.cells()} | set(range(tv_cells))
    width = max(cells) + 1 - min(cells)
    spread = rule.spread
    total = 0
    for row in result.tv_rows:
        if row.mode == "mc":
            n = row.n
            total += samples * sum(width + (n - k) * spread
                                   for k in range(1, n + 1))
    return total


def _table_cached(args, kwargs):
    return _arg(args, kwargs, 0, "rule")._table is not None


# module -> public entry points; groups and pseudo are reported as sums
_GROUPS = ["make_cyclic", "make_direct_sum", "make_quaternion",
           "make_semidirect", "from_table", "serialize_group",
           "generated_subgroup", "center", "commutator_subgroup",
           "enumerate_endomorphisms", "enumerate_automorphisms",
           "is_fully_characteristic", "quotient", "upper_central_series",
           "is_nilpotent", "abelian_invariants"]
_PSEUDO = ["make_frame", "conj_auto", "cocycle_zeta", "is_polymorph",
           "split_endo"]

# (module, attribute path, span name, probe)
WRAPPED = (
    [("groups", f, f"groups.{f}", None) for f in _GROUPS]
    + [("pseudo", f, f"pseudo.{f}", None) for f in _PSEUDO]
    + [
        ("specs", "load_experiment", "specs.load_experiment", None),
        ("cli", "main", "cli.main", None),
        ("rules", "local_table", "rules.local_table",
         (_table_cached, lambda hit, result: hit)),
        ("rules", "permutativity", "rules.permutativity", None),
        ("rules", "apply_window", "rules.apply_window", None),
        ("decompose", "decompose_mca", "decompose.decompose_mca", None),
        ("decompose", "recompose_check", "decompose.recompose_check", _pairs),
        ("decompose", "nilpotent_tower", "decompose.nilpotent_tower", None),
        ("decompose", "SkewDecomposition.fibre", "decompose.fibre",
         _fibre_key),
        ("measures", "star_product_measure", "measures.star_product_measure",
         _words_out),
        ("measures", "WindowMeasure.__post_init__",
         "measures.WindowMeasure.validate", None),
        ("measures", "push_forward", "measures.push_forward", _words_in),
        ("measures", "WindowMeasure.marginal", "measures.marginal", None),
        ("measures", "MeasureSpec.window_measure", "measures.window_measure",
         _words_out),
        ("measures", "trajectory_partition_entropy",
         "measures.trajectory_partition_entropy", _trajectory_words),
        ("measures", "trajectory_joint_distribution",
         "measures.trajectory_joint_distribution", None),
        ("spectral", "dual_action", "spectral.dual_action", _support_cells),
        ("spectral", "diffusion_report", "spectral.diffusion_report", None),
        ("spectral", "bernoulli_fourier", "spectral.bernoulli_fourier", None),
        ("spectral", "cesaro_randomization", "spectral.cesaro_randomization",
         _mc_cell_updates),
    ])


def install(tracer: Tracer) -> None:
    """Wrap every entry point in ``WRAPPED``.

    Module-level functions are replaced in every loaded ``mcalab`` module
    that binds the same object (``from .x import f`` copies), methods on
    their class.
    """
    modules = [m for name, m in sys.modules.items()
               if (name == "mcalab" or name.startswith("mcalab."))
               and m is not None]
    for mod_name, path, span_name, probe in WRAPPED:
        home = importlib.import_module(f"mcalab.{mod_name}")
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, cls.__dict__[meth],
                                           probe))
            continue
        original = getattr(home, path)
        traced = tracer.wrap(span_name, original, probe)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, traced)


# -- span arithmetic -----------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return [sp[END] - sp[START]
            - _covered(children.get(i, []), sp[START], sp[END])
            for i, sp in enumerate(spans)]


def root_time(spans: list[list]) -> float:
    """Time covered by root spans (those without a parent)."""
    roots = [(sp[START], sp[END]) for sp in spans if sp[PARENT] < 0]
    if not roots:
        return 0.0
    return _covered(roots, min(a for a, _ in roots), max(b for _, b in roots))


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and its attrs."""
    out: dict[str, dict] = {}
    for sp, own in zip(spans, self_times(spans)):
        agg = out.setdefault(sp[NAME], {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "errors": 0,
                                        "attrs": []})
        agg["calls"] += 1
        agg["total_s"] += sp[END] - sp[START]
        agg["self_s"] += own
        agg["errors"] += sp[ERROR] is not None
        if sp[ATTR] is not None:
            agg["attrs"].append(sp[ATTR])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span file to write")
    parser.add_argument("--id", default="0", help="invocation id")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] \
        else opts.cli_args
    tracer = Tracer(opts.id)
    t0 = time.perf_counter()
    import mcalab.cli
    tracer.record("cli.import", t0, time.perf_counter())
    install(tracer)
    try:
        return mcalab.cli.main(cli_args)
    finally:
        tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
