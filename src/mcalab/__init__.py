"""Multiplicative cellular automata over finite groups.

Structure theory (product frames, skew decompositions, nilpotent towers),
exact entropy via permutativity, and harmonic-analysis experiments showing
Cesàro convergence of iterated measures toward the uniform measure.
"""
from __future__ import annotations

import os
import sys

__version__ = "0.1.0"

# The only matrix products are spectral's int64 ``@`` (_bias_table, dual_action,
# _frobenius_route, _digit_ranks), never BLAS: one thread will do
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Every module loads here, not per subcommand: ``import mcalab.cli`` must load
# each module that perfbench/tracer.py wraps, because ``tracer.install`` lists
# ``sys.modules`` before it imports the wrapped modules, so a module first
# loaded there keeps the unwrapped functions it imported
from . import decompose, errors, groups, measures, pseudo, rules, specs, spectral
from .groups import *
from .pseudo import *
from .rules import *
from .decompose import *
from .measures import *
from .spectral import *
from .specs import *
from .errors import *

__all__ = [*groups.__all__, *pseudo.__all__, *rules.__all__,
           *decompose.__all__, *measures.__all__, *spectral.__all__,
           *specs.__all__, *errors.__all__, "__version__"]
