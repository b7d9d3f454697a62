"""AST helpers of the simlint module checker: the trailing name of a
call target and the unit a name's suffix implies."""

from __future__ import annotations

import ast
from typing import Optional, Tuple

#: Unit suffixes, longest first so ``_ns`` does not match inside
#: ``_seconds`` etc.  Maps suffix -> canonical unit.
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_seconds", "s"), ("_secs", "s"), ("_sec", "s"),
    ("_bytes", "bytes"), ("_bits", "bits"), ("_bps", "bps"),
    ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
)


def call_name(func: ast.expr) -> Optional[str]:
    """The trailing identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def name_dim(name: Optional[str]) -> Optional[str]:
    """The dimension a name's unit suffix implies, if any.

    Rate-shaped names (``bytes_per_sec``, ``events_per_s``) are
    excluded: their trailing ``_sec``/``_s`` is a denominator, not a
    seconds-valued quantity.
    """
    if not name:
        return None
    if "_per_" in name:
        return None
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return unit
    return None
