"""The trace bus: topic-routed event delivery with a zero-cost off state.

Architecture (mirrors :mod:`repro.netsim.profiling`): a module-level
*active* bus that instrumented components consult **once, at
construction time**.  Each component asks for an emitter for its topic:

* no bus installed, or no sink subscribed to the topic → the emitter is
  ``None`` and the component's per-event cost is a single
  ``is not None`` test on an instance attribute (the same pattern as
  ``Link._on_transmit``);
* a sink is subscribed → the emitter is a bound closure that fans the
  frozen record out to every sink, in subscription order.

Because binding happens at construction, the bus (with its sinks) must
be installed *before* the simulation is built — the obs CLI and the
tests do exactly that.  This is what makes the disabled path free: a
run without a bus executes the identical instruction stream it executed
before this subsystem existed, preserving byte-identical
``ScenarioResult`` JSON.

The bus never schedules events, draws randomness, or reads wall
clocks, so enabling it cannot perturb the simulation itself — only
observe it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Protocol, Union)

from .events import TOPICS, TraceRecord

#: The signature components hold: ``emit(record)``.
Emitter = Callable[[TraceRecord], None]


class TraceSink(Protocol):
    """Anything that can accept (and eventually persist) records."""

    def accept(self, record: TraceRecord) -> None: ...

    def close(self) -> None: ...


class _SimClock(Protocol):
    """The slice of ``Simulator`` the bus needs (avoids an import cycle)."""

    @property
    def now_ns(self) -> int: ...


class TraceBus:
    """Topic-routed delivery of frozen trace records to sinks."""

    def __init__(self) -> None:
        self._sinks: Dict[str, List[TraceSink]] = {}
        self._all_sinks: List[TraceSink] = []
        self._clock: Optional[_SimClock] = None
        #: Events delivered per topic (cheap run summary; deterministic).
        self.counts: Dict[str, int] = {}

    # -- wiring ------------------------------------------------------------
    def subscribe(self, topics: Union[str, Iterable[str]],
                  sink: TraceSink) -> None:
        """Route ``topics`` (a name, or an iterable of names) to ``sink``."""
        if isinstance(topics, str):
            topics = (topics,)
        for topic in topics:
            if topic not in TOPICS:
                raise ValueError(
                    f"unknown trace topic {topic!r}; choose from "
                    f"{list(TOPICS)}")
            self._sinks.setdefault(topic, []).append(sink)
        if sink not in self._all_sinks:
            self._all_sinks.append(sink)

    def set_clock(self, sim: _SimClock) -> None:
        """Bind the simulation clock (for producers that lack a ``sim``)."""
        self._clock = sim

    def now_ns(self) -> int:
        """The bound simulation time, or 0 before a clock is bound."""
        clock = self._clock
        return clock.now_ns if clock is not None else 0

    # -- production --------------------------------------------------------
    def emitter(self, topic: str) -> Optional[Emitter]:
        """A per-topic emit closure, or None when the topic is off.

        Components bind the result to an instance attribute at
        construction; a ``None`` binding keeps their hot path at one
        attribute test per potential event.
        """
        if topic not in TOPICS:
            raise ValueError(f"unknown trace topic {topic!r}")
        sinks = self._sinks.get(topic)
        if not sinks:
            return None
        counts = self.counts

        def emit(record: TraceRecord) -> None:
            counts[topic] = counts.get(topic, 0) + 1
            for sink in sinks:
                sink.accept(record)

        return emit

    def close(self) -> None:
        """Flush and close every subscribed sink (idempotent per sink)."""
        for sink in self._all_sinks:
            sink.close()


#: The installed bus, consulted by components at construction time.
_ACTIVE: Optional[TraceBus] = None


def install(bus: TraceBus) -> TraceBus:
    """Make ``bus`` the active bus for subsequently built components."""
    global _ACTIVE
    _ACTIVE = bus
    return bus


def uninstall() -> Optional[TraceBus]:
    """Deactivate tracing; returns the previously active bus."""
    global _ACTIVE
    bus, _ACTIVE = _ACTIVE, None
    return bus


def current() -> Optional[TraceBus]:
    """The active bus, or None when tracing is disabled (the default)."""
    return _ACTIVE


def emitter_for(topic: str) -> Optional[Emitter]:
    """Shorthand used by instrumented constructors: active-bus emitter."""
    bus = _ACTIVE
    if bus is None:
        return None
    return bus.emitter(topic)


@contextmanager
def tracing(bus: TraceBus) -> Iterator[TraceBus]:
    """Scope a bus around simulation *construction and execution*."""
    install(bus)
    try:
        yield bus
    finally:
        uninstall()
