"""Static analysis & runtime invariants for the reproduction.

This package exports the runtime half only
(:mod:`repro.analysis.invariants`: the integer-ns clock and guarded
Optional state checks the engine calls), so running a simulation never
imports an AST analyzer.  *simlint*, the static half, is
:mod:`repro.analysis.linter` with its catalog
:mod:`repro.analysis.rules`, run as ``tools/simlint.py`` or
``cebinae-repro lint``.
"""

from .invariants import (InvariantViolation, require, require_int_ns,
                         set_debug, unwrap)

__all__ = ["InvariantViolation", "require", "require_int_ns",
           "set_debug", "unwrap"]
