"""Labelled metrics: counters and gauges with JSON snapshots.

Complements the trace bus: where a trace answers *what happened, in
order*, metrics answer *how much, in total*.  A
:class:`MetricsRegistry` holds named instruments, each instantiated per
label set (``registry.counter("sim_component_events_total",
component="Link")``), and snapshots to a versioned, deterministic JSON
document that round-trips through :func:`load_snapshot`.

Two producers write here: the engine (``sim_*`` counters, below) and
the sweep fabric (``sweep_*`` counters and gauges,
:func:`record_sweep`).  A run's results stay in its ``ScenarioResult``;
they are not copied into the registry.

Like the bus, activation is module-level and the disabled path is
free: the engine looks the registry up once per ``Simulator.run``,
counts each executed event under its callback's owner while one is
installed, and folds the run in with one :meth:`MetricsRegistry
.record_run` call.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Version of the metrics snapshot layout.  Bump on rename/retype/removal.
#: Version 2 removed the ``histograms`` table.
METRICS_SCHEMA_VERSION = 2

#: Nanoseconds per second (local to avoid importing the engine).
_NS_PER_SEC = 1_000_000_000

#: Canonical label encoding: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class MetricsRegistry:
    """Named, labelled instruments with a deterministic JSON snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        #: When the snapshot this registry was loaded from was taken
        #: (host-monotonic seconds), or None for a live registry.
        self.captured_at: Optional[float] = None
        #: Wall seconds spent inside ``Simulator.run``.  Kept out of
        #: :meth:`snapshot`, which stays byte-identical across reruns.
        self.wall_s = 0.0

    # -- instrument accessors (create on first use) ------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    # -- ingestion ---------------------------------------------------------
    def record_run(self, sim_advance_ns: int, wall_s: float,
                   component_events: Mapping[str, int]) -> None:
        """Fold one completed ``Simulator.run`` into the registry.

        ``component_events`` is the run's executed-event count per
        callback owner (``Link``, ``Host``, ``CebinaeControlPlane``,
        ...); its sum is the run's event count.
        """
        self.counter("sim_runs_total").inc()
        self.counter("sim_events_total").inc(
            sum(component_events.values()))
        self.counter("sim_time_seconds_total").inc(
            sim_advance_ns / _NS_PER_SEC)
        for component, count in component_events.items():
            self.counter("sim_component_events_total",
                         component=component).inc(count)
        self.wall_s += wall_s

    @property
    def component_events(self) -> Dict[str, int]:
        """Executed events per callback owner, over every run so far."""
        return {dict(labels)["component"]: int(counter.value)
                for (name, labels), counter in self._counters.items()
                if name == "sim_component_events_total"}

    # -- snapshot / round-trip ---------------------------------------------
    def snapshot(self,
                 captured_at: Optional[float] = None) -> Dict[str, Any]:
        """A versioned, deterministically ordered JSON document.

        ``captured_at`` (host-monotonic seconds) stamps when the
        snapshot was taken, so readers of periodically rewritten files
        — the sweep workers' live metrics — can judge staleness.  The
        key is present only when a stamp is given: default snapshots
        stay byte-stable and old snapshots (no stamp) still load.
        """

        def rows(table: Dict[Tuple[str, LabelKey], Any],
                 render: Any) -> List[Dict[str, Any]]:
            out: List[Dict[str, Any]] = []
            for (name, labels), instrument in sorted(table.items()):
                row: Dict[str, Any] = {"name": name,
                                       "labels": dict(labels)}
                row.update(render(instrument))
                out.append(row)
            return out

        document: Dict[str, Any] = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": rows(self._counters,
                             lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
        }
        if captured_at is not None:
            document["captured_at"] = float(captured_at)
        return document

    def write_json(self, path: str,
                   captured_at: Optional[float] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(captured_at=captured_at), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")


def load_snapshot(data: Mapping[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot` output.

    Tolerates the optional ``captured_at`` stamp's absence (pre-stamp
    snapshots merge unchanged); when present it is surfaced as a
    ``captured_at`` attribute on the returned registry.
    """
    version = data.get("schema_version")
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"metrics snapshot schema_version {version!r} is not "
            f"{METRICS_SCHEMA_VERSION}")
    registry = MetricsRegistry()
    stamp = data.get("captured_at")
    if isinstance(stamp, (int, float)) and not isinstance(stamp, bool):
        registry.captured_at = float(stamp)
    for row in data.get("counters", ()):
        registry.counter(row["name"], **row["labels"]).inc(row["value"])
    for row in data.get("gauges", ()):
        registry.gauge(row["name"], **row["labels"]).set(row["value"])
    return registry


#: Sweep-fabric event names accepted by :func:`record_sweep`.  One
#: counter per event, labelled by worker: tasks completed/quarantined,
#: graceful interrupts, and resume invocations.  The worker's busy
#: time, ``sweep_task_wall_seconds_total``, is a counter it adds each
#: completed task's wall seconds to.
SWEEP_EVENTS = ("tasks_completed", "tasks_quarantined", "interrupts",
                "resumes")

#: Sweep-fabric *gauge* names accepted by :func:`record_sweep`:
#: point-in-time state the watch view renders.  ``last_task_index`` is
#: the manifest index of the worker's most recently completed task (the
#: watch view maps it back to the task's fingerprint and label).  The
#: shards a worker holds are read from the live locks, not from a gauge.
SWEEP_GAUGES = ("last_task_index",)


def record_sweep(registry: MetricsRegistry, event: str,
                 worker: str = "", amount: float = 1) -> None:
    """Fold one sweep-fabric event into ``registry``.

    The fabric's counters live here (rather than inside ``repro.sweep``)
    so every metric name across the stack is declared in one module and
    snapshots stay schema-stable; an unknown event is a programming
    error, not a new time series.  Names in :data:`SWEEP_EVENTS`
    increment a ``sweep_<event>_total`` counter by ``amount``; names in
    :data:`SWEEP_GAUGES` *set* the ``sweep_<event>`` gauge to it.
    """
    labels = {"worker": worker} if worker else {}
    if event in SWEEP_GAUGES:
        registry.gauge(f"sweep_{event}", **labels).set(amount)
        return
    if event not in SWEEP_EVENTS:
        raise ValueError(
            f"unknown sweep event {event!r}; known: "
            f"{list(SWEEP_EVENTS) + list(SWEEP_GAUGES)}")
    registry.counter(f"sweep_{event}_total", **labels).inc(amount)


#: The active registry, consulted once per Simulator.run by the engine.
_ACTIVE: Optional[MetricsRegistry] = None


def enable() -> MetricsRegistry:
    """Install (and return) a fresh global registry."""
    global _ACTIVE
    _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> Optional[MetricsRegistry]:
    """Uninstall the global registry, returning it for reporting."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


def current() -> Optional[MetricsRegistry]:
    """The installed registry, or None when metrics are off."""
    return _ACTIVE


@contextmanager
def collected() -> Iterator[MetricsRegistry]:
    """Scope a registry around a block of simulation code."""
    registry = enable()
    try:
        yield registry
    finally:
        disable()


__all__ = [
    "Counter", "Gauge", "METRICS_SCHEMA_VERSION", "MetricsRegistry",
    "collected", "current", "SWEEP_EVENTS", "SWEEP_GAUGES", "disable",
    "enable", "load_snapshot", "record_sweep",
]
