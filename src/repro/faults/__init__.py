"""Deterministic fault injection and graceful degradation.

Cebinae's core claim is that each router augments fairness
*independently*: the control plane must reconfigure LBF rates and ⊤
membership within the deadline ``L`` every round, links flap, and long
sweeps wedge.  This package makes all of that *testable* without giving
up the repo's determinism contract:

* :class:`~repro.faults.spec.FaultSpec` — a frozen, JSON-able
  description of every fault a run may inject (link flaps, stochastic
  loss/corruption/reordering, node freezes, control-plane delay/drop).
  It fingerprints like any other run parameter, so the result cache
  distinguishes faulted from unfaulted runs.
* :class:`~repro.faults.schedule.FaultSchedule` — the seed-driven
  interpreter: it derives one ``random.Random`` stream per fault target
  (stable SHA-256 seed derivation, never Python's randomised ``hash``),
  schedules fault events through the simulation engine in integer
  nanoseconds, and keeps a deterministic timeline for reporting.  Two
  runs with the same spec are byte-identical, on either scheduler
  backend, with debug validation on or off.
* :class:`~repro.faults.watchdog.RunAborted` and
  :class:`~repro.faults.watchdog.WallClockWatchdog` — executor-level
  guards that terminate wedged runs with partial-result capture instead
  of hanging a sweep's process pool.

With no spec installed every hook is a single attribute test on the hot
path and simulation results are byte-identical to a build without this
package.
"""

from .schedule import ControlPlaneFaults, FaultSchedule, derive_seed
from .spec import FaultSpec
from .watchdog import RunAborted, WallClockWatchdog

__all__ = [
    "ControlPlaneFaults",
    "FaultSchedule",
    "FaultSpec",
    "RunAborted",
    "WallClockWatchdog",
    "derive_seed",
]
