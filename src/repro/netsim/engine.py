"""Discrete-event simulation engine.

The engine is the substrate every other component builds on.  It keeps a
priority queue of timestamped callbacks and executes them in order.  Time
is an integer number of nanoseconds to keep event ordering exact and
reproducible (floating point time makes rotation boundaries and
control-plane deadlines drift, which matters for Cebinae's real-time
queue-rotation protocol).

Typical use::

    sim = Simulator()
    sim.post(MILLISECOND, callback, arg1, arg2)
    timer = sim.schedule(SECOND, on_timeout)   # only to cancel() it
    sim.run(until_ns=10 * SECOND)

Pending events live in one binary heap of ``(time_ns, seq, callback,
args)`` tuples (:class:`HeapScheduler`).  Tuple entries keep
comparisons in C (int compares) instead of calling a Python ``__lt__``
per sift, and the unique ``(time_ns, seq)`` prefix is the total order:
nondecreasing time, FIFO among ties.  ``post``/``post_at`` push the
callback itself and return nothing.  ``schedule``/``schedule_at`` are
for the three timers that get cancelled (TCP RTO and pacing, the UDP
sender): they return an :class:`Event` handle and push ``(time_ns,
seq, None, event)``, so only those entries pay for an object and a
cancelled check.  All kinds share the one heap and the one seq
counter.  ``tests/test_engine_ordering.py`` checks that order against a
stable sort.

Three per-packet callers push onto ``_heap`` themselves, drawing
``_next_seq()`` and running the DEBUG check of the method they stand
in for: :class:`~repro.netsim.link.Link` (its two per-packet events,
as ``post``), :meth:`Host.send <repro.netsim.node.Host.send>` (the
jittered release, as ``post_at``) and the TCP sender's RTO re-arm (as
``cancel()`` + ``schedule``, still one :class:`Event` per re-arm).
Each builds exactly the entry the method would, so no event and no
order changes.  The clock ``now_ns`` is a plain attribute that only
this module writes (``tests/test_engine.py`` checks ``src/`` for other
writers).

Per-event argument validation (:func:`repro.analysis.invariants
.require_int_ns`) is debug-gated: it runs when
``repro.analysis.invariants.DEBUG`` is on (always under pytest, or with
``REPRO_DEBUG=1``) and is skipped entirely in release runs, which pay
zero validation cost per event without weakening the determinism
contract — all times are ints either way; debug merely *proves* it.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ..analysis import invariants
from ..analysis.invariants import require_int_ns
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from .profiling import component_of

if TYPE_CHECKING:
    from ..core.units import Seconds, TimeNs

#: One nanosecond, the base time unit of the engine.
NANOSECOND = 1
#: Nanoseconds in a microsecond.
MICROSECOND = 1_000
#: Nanoseconds in a millisecond.
MILLISECOND = 1_000_000
#: Nanoseconds in a second.
SECOND = 1_000_000_000
#: The bound of an unbounded ``run``: an int (so the per-event compare
#: stays int against int) beyond any time or event count a run reaches.
_NEVER = 1 << 256


def seconds(value: Seconds) -> TimeNs:
    """Convert a duration in (possibly fractional) seconds to nanoseconds."""
    return int(round(value * SECOND))


def to_seconds(value_ns: TimeNs) -> Seconds:
    """Convert a duration in nanoseconds to float seconds."""
    return value_ns / SECOND


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A cancellable scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be
    cancelled.  Cancelled events stay in the scheduler but are skipped
    when they surface, which keeps cancellation O(1).  Callers that
    never cancel use :meth:`Simulator.post` and get no handle.
    """

    __slots__ = ("time_ns", "seq", "callback", "args", "cancelled")

    def __init__(self, time_ns: TimeNs, seq: int,
                 callback: Callable[..., None],
                 args: Tuple[Any, ...]) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_ns}ns, {state}, {self.callback!r})"


#: A scheduler entry ``(time_ns, seq, callback, args)``; a cancellable
#: one is ``(time_ns, seq, None, event)``.  The (time_ns, seq) prefix is
#: the total order; the rest is never compared because the prefix is
#: unique.
Entry = Tuple[int, int, Optional[Callable[..., None]], Any]


class HeapScheduler(List[Entry]):
    """The pending-event set: a list kept in heap order by ``heapq``."""

    __slots__ = ()


class Simulator:
    """An event-driven simulator with an integer-nanosecond clock."""

    def __init__(self) -> None:
        # Link, Host.send and TcpSender._arm_rto push entries onto
        # _heap themselves, as post()/post_at()/schedule() would.
        self._heap = HeapScheduler()
        # post()/schedule() run once per event, so the seq counter's
        # __next__ is resolved here instead of per call.
        self._next_seq = itertools.count().__next__
        #: The current simulation time in nanoseconds.  A plain
        #: attribute, read once or more per event: only this module
        #: writes it (``tests/test_engine.py`` holds src/ to that).
        self.now_ns: int = 0
        self._running = False
        self._processed = 0

    @property
    def now_seconds(self) -> Seconds:
        """The current simulation time in float seconds (for reporting)."""
        return self.now_ns / SECOND

    @property
    def processed_events(self) -> int:
        """The number of events executed so far (for diagnostics)."""
        return self._processed

    # scheduler/batched: read only by benchmarks/ledger/run.py's env block.
    @property
    def scheduler(self) -> HeapScheduler:
        """The pending-event heap."""
        return self._heap

    @property
    def batched(self) -> bool:
        """Always False: the run loop pops one event per iteration."""
        return False

    def post(self, delay_ns: TimeNs, callback: Callable[..., None],
             *args: Any) -> None:
        """Run ``callback(*args)`` ``delay_ns`` from now; not cancellable."""
        if invariants.DEBUG:
            require_int_ns(delay_ns, "post() delay_ns")
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        heappush(self._heap, (self.now_ns + delay_ns, self._next_seq(),
                              callback, args))

    def post_at(self, time_ns: TimeNs, callback: Callable[..., None],
                *args: Any) -> None:
        """Run ``callback(*args)`` at absolute ``time_ns``; not cancellable."""
        if invariants.DEBUG:
            require_int_ns(time_ns, "post_at() time_ns")
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self.now_ns}ns")
        heappush(self._heap, (time_ns, self._next_seq(), callback, args))

    def schedule(self, delay_ns: TimeNs, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Like :meth:`post`, returning a handle that can be cancelled."""
        if invariants.DEBUG:
            require_int_ns(delay_ns, "schedule() delay_ns")
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        time_ns = self.now_ns + delay_ns
        seq = self._next_seq()
        event = Event(time_ns, seq, callback, args)
        heappush(self._heap, (time_ns, seq, None, event))
        return event

    def schedule_at(self, time_ns: TimeNs, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Like :meth:`post_at`, returning a handle that can be cancelled."""
        if invariants.DEBUG:
            require_int_ns(time_ns, "schedule_at() time_ns")
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self.now_ns}ns")
        seq = self._next_seq()
        event = Event(time_ns, seq, callback, args)
        heappush(self._heap, (time_ns, seq, None, event))
        return event

    def peek_time_ns(self) -> Optional[TimeNs]:
        """The time of the next pending event, or None if none remain."""
        heap = self._heap
        while heap:
            time_ns, _, callback, args = heap[0]
            if callback is not None or not args.cancelled:
                return time_ns
            heappop(heap)
        return None

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time_ns, _, callback, args = heappop(heap)
            if callback is None:
                if args.cancelled:
                    continue
                callback, args = args.callback, args.args
            self.now_ns = time_ns
            self._processed += 1
            callback(*args)
            return True
        return False

    def run(self, until_ns: Optional[TimeNs] = None,
            max_events: Optional[int] = None,
            watchdog: Optional[Callable[[], None]] = None,
            watchdog_interval: int = 8192) -> None:
        """Run events in order.

        Args:
            until_ns: stop once the clock would pass this time; events at
                exactly ``until_ns`` are executed.  The clock is advanced
                to ``until_ns`` on return so that post-run measurements
                cover the full interval.
            max_events: safety valve for runaway simulations.
            watchdog: called every ``watchdog_interval`` executed events;
                may raise to abort the run (see
                :class:`repro.faults.watchdog.WallClockWatchdog`).  The
                hot path pays one ``is not None`` test per event and the
                modulo only when a watchdog is installed.
            watchdog_interval: events between watchdog checks.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until_ns is not None:
            # A float here would be silently written into the clock on
            # return, poisoning every later timestamp.  (Always checked:
            # this is once per run, not per event.)
            require_int_ns(until_ns, "run() until_ns")
        self._running = True
        span = obs_spans.open_span("engine", "events")
        # The one aggregate observer: with a registry installed the
        # loop counts each event under its callback's owner, without
        # one it pays a single ``is not None`` test per event.
        registry = obs_metrics.current()
        counts: Dict[str, int] = {}
        wall_start = obs_spans.wall_now() if registry is not None else 0.0
        start_ns = self.now_ns
        # The loop below is the simulator's hot path: one heappop, one
        # unpack, two int compares and the callback per event; only a
        # cancellable entry (callback None) is looked into.  The
        # executed count reaches ``_processed`` in ``finally`` and
        # before each watchdog call, which may read it mid-run.
        heap = self._heap
        pop = heappop
        limit = _NEVER if until_ns is None else until_ns
        budget = _NEVER if max_events is None else max_events
        executed = 0
        synced = 0
        try:
            while heap:
                entry = pop(heap)
                time_ns, _, callback, args = entry
                if callback is None:
                    if args.cancelled:
                        continue
                    callback, args = args.callback, args.args
                if time_ns > limit:
                    heappush(heap, entry)
                    break
                if executed >= budget:
                    heappush(heap, entry)
                    raise SimulationError(
                        f"exceeded max_events={max_events}")
                executed += 1
                self.now_ns = time_ns
                if (watchdog is not None
                        and not executed % watchdog_interval):
                    self._processed += executed - synced
                    synced = executed
                    watchdog()
                if registry is not None:
                    owner = component_of(callback)
                    counts[owner] = counts.get(owner, 0) + 1
                callback(*args)
            if until_ns is not None and until_ns > self.now_ns:
                self.now_ns = until_ns
        finally:
            self._processed += executed - synced
            self._running = False
            if span is not None:
                span.count = executed
                obs_spans.close_span(span)
            if registry is not None:
                registry.record_run(self.now_ns - start_ns,
                                    obs_spans.wall_now() - wall_start,
                                    counts)
