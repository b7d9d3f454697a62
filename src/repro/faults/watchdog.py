"""Run watchdogs: convert wedged runs into diagnosable failures.

A sweep is only as robust as its slowest point: one simulation stuck in
a scheduling loop (or simply mis-sized) used to hang the whole process
pool.  Two guards bound every run:

* an **event budget** — ``Simulator.run(max_events=...)`` already
  raises once a run executes more events than any healthy simulation
  of its size could need;
* a **wall-clock watchdog** — :class:`WallClockWatchdog` is handed to
  ``Simulator.run(watchdog=...)`` and checked every few thousand
  events, so a wedged run aborts within milliseconds of its deadline
  without adding wall-clock reads to the per-event hot path.

Both guards raise :class:`RunAborted`, which carries a *partial result*
payload (events executed, simulated time reached, per-flow progress) so
the executor can record what the run achieved before it was terminated.
The watchdog reads the host clock by design — it measures the *runner*,
never the simulation — and a healthy run behaves identically with or
without one installed: the watchdog callback either raises or does
nothing.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Optional


class RunAborted(RuntimeError):
    """A run was terminated by a watchdog or budget guard.

    ``partial`` is a JSON-able snapshot of whatever the run had
    produced when it was stopped; the parallel executor copies it into
    the :class:`~repro.experiments.parallel.FailedRun` sentinel.
    Aborted runs are deterministic casualties (the same spec wedges the
    same way), so the executor does not retry them.
    """

    def __init__(self, reason: str,
                 partial: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.partial = partial

    def __reduce__(self) -> "tuple[type, tuple[str, Optional[Dict[str, Any]]]]":
        # Exceptions cross the process-pool boundary by pickle; the
        # default reduction would drop the ``partial`` payload.
        return (type(self), (self.reason, self.partial))


class WallClockWatchdog:
    """Raise :class:`RunAborted` once a run exceeds its wall budget.

    Instances are callables for ``Simulator.run(watchdog=...)``.  The
    clock is injectable for tests; the default is ``time.monotonic``
    (never ``time.time``, which can step under NTP).
    """

    def __init__(self, limit_s: float,
                 partial: Optional[Callable[[], Dict[str, Any]]] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        # A NaN limit would never reach its deadline: no watchdog.
        if not (limit_s > 0 and math.isfinite(limit_s)):
            raise ValueError("watchdog limit must be positive and "
                             f"finite, got {limit_s!r}")
        if clock is None:
            # The host clock by design: the watchdog measures the
            # runner, never the simulation.
            clock = time.monotonic
        self.limit_s = limit_s
        self._clock = clock
        self._partial = partial
        self._deadline = clock() + limit_s

    def reset(self) -> None:
        """Restart the budget from now (e.g. before a second run)."""
        self._deadline = self._clock() + self.limit_s

    @property
    def remaining_s(self) -> float:
        return self._deadline - self._clock()

    def __call__(self) -> None:
        if self._clock() >= self._deadline:
            partial = self._partial() if self._partial is not None \
                else None
            raise RunAborted(
                f"wall-clock watchdog: run exceeded {self.limit_s:.3g}s",
                partial=partial)
