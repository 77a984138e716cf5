"""The package namespace: each public name is declared once, in its module,
and each public function is reached outside the tests; the scalar evaluator
stays inside ``rules``, character rows inside ``spectral``, and no module
names a per-cell rule family.  Loading the CLI starts one thread."""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcalab

MODULES = ("groups", "pseudo", "rules", "decompose", "measures", "spectral",
           "specs", "errors")
ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_exactly_the_modules_public_names():
    union = {"__version__"}
    for name in MODULES:
        union |= set(importlib.import_module(f"mcalab.{name}").__all__)
    assert sorted(mcalab.__all__) == sorted(union)
    namespace: dict = {}
    exec("from mcalab import *", namespace)
    assert set(namespace) - {"__builtins__"} == union
    with pytest.raises(mcalab.InvalidOrderError):
        mcalab.make_cyclic(0)


def test_every_group_table_is_validated():
    """``FiniteGroup`` takes a table and labels, and no knob to skip validation."""
    assert list(inspect.signature(mcalab.FiniteGroup).parameters) == ["table", "labels"]


def test_only_rules_names_the_scalar_evaluator():
    """Every other module evaluates local maps through ``local_table`` or
    ``step_cells``; ``eval_local``/``apply_window`` remain test oracles."""
    scalar = {"eval_local", "apply_window"}
    offenders = []
    for path in sorted(Path(mcalab.__file__).parent.glob("*.py")):
        if path.name == "rules.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                    else None)
            if name in scalar:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders


def test_every_library_step_passes_a_workspace():
    """Outside ``rules`` every ``step_cells`` call passes a ``step_buffers``
    workspace, as its fourth positional argument or as ``work=``, so no
    stepping loop allocates fresh buffers per step."""
    calls, offenders = 0, []
    for path in sorted(Path(mcalab.__file__).parent.glob("*.py")):
        if path.name == "rules.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "step_cells":
                continue
            calls += 1
            work = node.args[3:4] + [k.value for k in node.keywords if k.arg == "work"]
            if not work or (isinstance(work[0], ast.Constant) and work[0].value is None):
                offenders.append(f"{path.name}:{node.lineno}")
    assert calls >= 3 and not offenders


def test_no_module_names_a_nonhomogeneous_family():
    """Every step in the library applies one ``McaRule``: no module builds
    or reads a per-cell family (``NhcaSequence``, ``rule_at``), which live
    on only as test oracles."""
    offenders = []
    for path in sorted(Path(mcalab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias, ast.FunctionDef,
                                                        ast.ClassDef))
                    else None)
            if name in ("NhcaSequence", "rule_at"):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders


def test_only_spectral_reads_character_rows():
    """``Character``'s coefficient rows stay behind ``spectral``: nothing
    else in the library or the benchmark harness reads them."""
    offenders = []
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "perfbench").rglob("*.py")]):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_cells", "_coeffs"):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.attr}")
    assert not offenders


def test_only_decompose_reads_the_fibre_batch():
    """A decomposition's fibre batch stays behind ``decompose``: everything
    else reads fibres through ``SkewDecomposition.fibre``."""
    offenders = []
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "perfbench").rglob("*.py")]):
        if path.name == "decompose.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_batch", "_fibres"):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.attr}")
    assert not offenders


def test_only_measures_builds_and_draws_laws():
    """Every law's weights and samples come from the law itself: outside
    ``measures`` no library module calls ``star_product_measure`` or
    ``_draw``."""
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "measures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("star_product_measure", "_draw"):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not offenders


def _names_used(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names, attributes and imported names in ``tree``; with ``strings``,
    also the parts of each dotted-identifier string, such as a name the
    benchmark tracer wraps."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
            used.add(node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute) else node.name)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier() for part in node.value.split("."))):
            used.update(node.value.split("."))
    return used


def test_every_public_function_is_reached_outside_the_tests():
    """Each function in a module's ``__all__`` is reached from ``demos/``,
    ``perfbench/`` or ``src/`` code outside the public functions; a reference
    inside one counts once that function is reached, so test-only API
    cannot grow back, alone or in a chain.  Classes are exempt: they are the
    types reachable functions return."""
    package = Path(mcalab.__file__).parent
    public = {name for name in mcalab.__all__
              if inspect.isfunction(getattr(mcalab, name))}
    reached, bodies = set(), {}
    for path in [*(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        reached |= _names_used(ast.parse(path.read_text()), strings=True)
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                bodies[node.name] = _names_used(node)
            else:
                reached |= _names_used(node)
    while any(not bodies[name] <= reached for name in public & reached):
        for name in public & reached:
            reached |= bodies[name]
    unreached = sorted(public - reached)
    assert not unreached, f"only tests reach {unreached}"


def _fresh_interpreter(code: str, **env: str) -> str:
    """stdout of ``code`` in a new Python that finds this ``mcalab``, with
    ``OPENBLAS_NUM_THREADS`` as ``env`` gives it or else unset (this
    process has it set by its own import of ``mcalab``)."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child.update(env, PYTHONPATH=str(Path(mcalab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=child, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux procfs")
def test_the_cli_starts_on_one_thread():
    """Loading the CLI starts no OpenBLAS pool and no thread-pool machinery:
    its matrix products are integer, and ``--workers`` is its only
    parallelism."""
    out = _fresh_interpreter(
        "import os, sys; import mcalab.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'], "
        "'concurrent.futures' in sys.modules, 'logging' in sys.modules)")
    assert out == "1 1 False False"


def test_blas_threads_are_capped_only_when_mcalab_loads_numpy():
    """A caller's own ``OPENBLAS_NUM_THREADS`` wins, and once numpy is
    loaded the variable, too late to matter, is left alone."""
    show = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_interpreter(f"import mcalab; {show}", OPENBLAS_NUM_THREADS="2") == "2"
    assert _fresh_interpreter(f"import numpy, mcalab; {show}") == "None"
