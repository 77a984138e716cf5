"""The package namespace: each public name is declared once, in its module."""
import importlib

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
