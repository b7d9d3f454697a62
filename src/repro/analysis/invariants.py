"""Runtime invariant checkers backing the static rules.

simlint (:mod:`repro.analysis.linter`) catches contract violations it
can see syntactically; these helpers enforce the same contracts at
runtime where static analysis cannot reach (values crossing dynamic
call boundaries, ``Optional`` state guarded by protocol rather than
control flow).

They are dependency-free on purpose: the simulation engine imports
:func:`require_int_ns` on its hot path, and the TCP stack uses
:func:`unwrap` to discharge ``Optional`` state whose presence is
guaranteed by the CCA state machines.

Validation-only checkers are *debug-gated*: the engine consults the
module-level :data:`DEBUG` flag before calling :func:`require_int_ns`
per event, so release runs pay zero per-event validation cost.  The
flag defaults on under pytest (the whole suite runs with the contract
armed) and off otherwise; ``REPRO_DEBUG=1`` / ``REPRO_DEBUG=0`` in the
environment overrides both.  Gating never changes simulation results —
the checkers either raise or do nothing — which
``tests/test_engine_ordering.py`` pins down by replaying a
scenario under both settings.

:func:`unwrap` and :func:`require` are *not* gated: their return value
and raise are part of normal control flow, not optional validation.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, TypeVar

T = TypeVar("T")


def _default_debug() -> bool:
    """Initial value of :data:`DEBUG`.

    ``REPRO_DEBUG`` wins when set; otherwise debug is armed exactly
    when pytest is driving the process (imported before us), so tests
    always exercise the validated path and production sweeps never pay
    for it.
    """
    env = os.environ.get("REPRO_DEBUG")
    if env is not None:
        return env.strip().lower() not in ("", "0", "false", "no", "off")
    return "pytest" in sys.modules or "PYTEST_CURRENT_TEST" in os.environ


#: Whether per-event validation (``require_int_ns`` at the engine's
#: schedule sites) is armed.  Reassign (or monkeypatch) at runtime to
#: toggle; read dynamically by the engine on every schedule call.
DEBUG: bool = _default_debug()


def set_debug(enabled: bool) -> bool:
    """Set :data:`DEBUG`, returning the previous value."""
    global DEBUG
    previous = DEBUG
    DEBUG = enabled
    return previous


class InvariantViolation(AssertionError):
    """A runtime contract of the simulator was broken.

    Subclasses :class:`AssertionError` so existing test harnesses that
    treat assertion failures as bugs (not environmental errors) keep
    doing the right thing.
    """


def require(condition: bool, message: str) -> None:
    """Assert an invariant with a message; never stripped by ``-O``."""
    if not condition:
        raise InvariantViolation(message)


def unwrap(value: Optional[T], message: str = "unexpected None") -> T:
    """Return ``value``, asserting it is not None.

    The runtime companion to a ``# guarded by state machine`` comment:
    it both narrows the type for mypy --strict and turns a protocol
    violation into a diagnosable error instead of an AttributeError
    three frames later.
    """
    if value is None:
        raise InvariantViolation(message)
    return value


def require_probability(value: object, what: str) -> float:
    """Enforce that ``value`` is a probability in ``[0, 1]``.

    The fault-injection layer draws per-packet and per-round outcomes
    against configured probabilities; a rate outside the unit interval
    silently biases every draw, so specs validate their fields through
    this checker at construction time (not per event — never gated).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvariantViolation(
            f"{what} must be a probability in [0, 1], got {value!r} "
            f"({type(value).__name__})")
    if not 0.0 <= value <= 1.0:
        raise InvariantViolation(
            f"{what} must be a probability in [0, 1], got {value!r}")
    return float(value)


def require_int_ns(value: object, what: str) -> int:
    """Enforce the integer-nanosecond clock contract on ``value``.

    Rejects floats (drifting rotation boundaries) and bools (a
    ``True`` delay is almost certainly a bug, not a 1 ns wait).
    Returns the value typed as ``int``.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvariantViolation(
            f"{what} must be an integer number of nanoseconds, "
            f"got {value!r} ({type(value).__name__}); convert with "
            f"int()/round() or repro.netsim.engine.seconds()")
    return value
