"""The executable semantics: C-subset frontend plus evaluators (S4).

Cerberus expresses ISO C as an elaboration into a small Core language
plus a memory object model.  This package now reproduces that
architecture end to end: the typed AST is *elaborated*
(:mod:`repro.core.elaborate`) into an explicit-effect Core IR
(:mod:`repro.core.coreir`) executed by an iterative evaluator with an
explicit frame stack (:mod:`repro.core.coreeval`), whose
direct-threaded twin (:mod:`repro.core.compile`) is the process
default and is held byte-identical to it.  As in Cerberus, *all*
memory-related semantics lives in :mod:`repro.memory`; this package
only performs typing, conversions, control flow, and the explicit
capability-derivation elaboration of S4.4.
"""

from repro.core.coreeval import (
    CoreEvaluator,
    default_evaluator,
    set_default_evaluator,
)
from repro.core.coreir import CoreProgram, render_core
from repro.core.elaborate import ElaborationError, elaborate_program
from repro.core.cparser import parse_program

__all__ = [
    "CoreEvaluator",
    "CoreProgram",
    "ElaborationError",
    "default_evaluator",
    "elaborate_program",
    "parse_program",
    "render_core",
    "set_default_evaluator",
]
