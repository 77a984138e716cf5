"""The package namespace: each public name is declared once, in its module,
the scalar local-map evaluator stays inside ``rules``, and character rows
inside ``spectral``."""
import ast
import importlib
from pathlib import Path

import pytest

import mcalab

MODULES = ("groups", "pseudo", "rules", "decompose", "measures", "spectral",
           "specs", "errors")


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


def test_only_spectral_reads_character_rows():
    """``Character``'s coefficient rows stay behind ``spectral``: nothing
    else in the library or the benchmark harness reads them."""
    root = Path(__file__).resolve().parents[1]
    offenders = []
    for path in sorted([*(root / "src").rglob("*.py"),
                        *(root / "perfbench").rglob("*.py")]):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_cells", "_coeffs"):
                offenders.append(f"{path.relative_to(root)}:{node.lineno} {node.attr}")
    assert not offenders
