"""Labelled metrics: counters, gauges, and histograms with JSON snapshots.

Complements the trace bus: where a trace answers *what happened, in
order*, metrics answer *how much, in total*.  A
:class:`MetricsRegistry` holds named instruments, each instantiated per
label set (``registry.counter("queue_drops", port="cebinae0",
reason="lbf")``), and snapshots to a versioned, deterministic JSON
document that round-trips through :func:`load_snapshot`.

The experiment runner folds every finished
:class:`~repro.experiments.runner.ScenarioResult` into the active
registry (:func:`record_scenario`).

Like the bus, activation is module-level and the disabled path is
free: the engine looks the registry up once per ``Simulator.run``,
counts each executed event under its callback's owner while one is
installed, and folds the run in with one :meth:`MetricsRegistry
.record_run` call.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from typing import (Any, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

#: Version of the metrics snapshot layout.  Bump on rename/retype/removal.
METRICS_SCHEMA_VERSION = 1

#: Nanoseconds per second (local to avoid importing the engine).
_NS_PER_SEC = 1_000_000_000

#: Canonical label encoding: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: powers of four from 1 — wide enough for
#: byte counts and event counts alike without per-metric tuning.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(4.0 ** i for i in range(16))


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


class Histogram:
    """Observations bucketed by fixed upper bounds (plus +inf overflow)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = ordered
        #: counts[i] observes value <= bounds[i]; counts[-1] is overflow.
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def to_dict(self) -> Dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.total, "count": self.count}


class MetricsRegistry:
    """Named, labelled instruments with a deterministic JSON snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
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

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
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
            "histograms": rows(self._histograms,
                               lambda h: h.to_dict()),
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
    for row in data.get("histograms", ()):
        histogram = registry.histogram(row["name"], bounds=row["bounds"],
                                       **row["labels"])
        histogram.counts = list(row["counts"])
        histogram.total = row["sum"]
        histogram.count = row["count"]
    return registry


def record_scenario(registry: MetricsRegistry, result: Any) -> None:
    """Fold a finished ``ScenarioResult`` into ``registry``.

    Duck-typed over the runner's result object (``name``,
    ``discipline``, ``jfi``, ``throughput_bps``, ``goodputs_bps``, the
    LBF drop counters) so obs never imports the experiments layer.
    """
    discipline = getattr(result, "discipline", None)
    labels = {"scenario": str(getattr(result, "name", "scenario")),
              "discipline": str(getattr(discipline, "value", discipline))}
    registry.counter("scenarios_total").inc()
    registry.gauge("scenario_jain_index", **labels).set(result.jfi)
    registry.gauge("scenario_throughput_bps", **labels).set(
        result.throughput_bps)
    registry.counter("scenario_lbf_drops_total", **labels).inc(
        result.lbf_drops)
    registry.counter("scenario_lbf_delays_total", **labels).inc(
        result.lbf_delays)
    registry.counter("scenario_buffer_drops_total", **labels).inc(
        result.buffer_drops)
    goodput_hist = registry.histogram(
        "scenario_flow_goodput_bps",
        bounds=tuple(10.0 ** i for i in range(3, 13)), **labels)
    for index, goodput in enumerate(result.goodputs_bps):
        registry.gauge("scenario_goodput_bps", flow=str(index),
                       **labels).set(goodput)
        goodput_hist.observe(goodput)


def record_hybrid(registry: MetricsRegistry, report: Any,
                  scenario: str = "", discipline: str = "") -> None:
    """Fold a hybrid-backend ``FluidPhaseReport`` into ``registry``.

    Duck-typed over the fluid module's report object (``mode``,
    ``reason``, ``epochs``, ``extensions``, ``fluid_s``,
    ``divergence``) so obs never imports the netsim layer.  A
    ``mode="fluid"`` report counts a demotion (handoff to fluid
    granularity); a ``mode="packet"`` report with reason
    ``"unstable"`` counts a promotion (the warmup never went steady).
    """
    labels = {"scenario": scenario, "discipline": discipline}
    registry.counter("hybrid_runs_total", mode=str(report.mode),
                     **labels).inc()
    if report.mode == "fluid":
        registry.counter("hybrid_demotions_total", **labels).inc()
        registry.counter("hybrid_fluid_epochs_total",
                         **labels).inc(report.epochs)
        registry.gauge("hybrid_fluid_seconds", **labels).set(
            report.fluid_s)
    elif report.reason:
        registry.counter("hybrid_promotions_total",
                         reason=str(report.reason), **labels).inc()
    if report.extensions:
        registry.counter("hybrid_warmup_extensions_total",
                         **labels).inc(report.extensions)
    if report.divergence is not None:
        registry.gauge("hybrid_divergence", **labels).set(
            report.divergence)


#: Sweep-fabric event names accepted by :func:`record_sweep`.  One
#: counter per event, labelled by worker: tasks completed/quarantined,
#: graceful interrupts, and resume invocations.
SWEEP_EVENTS = ("tasks_completed", "tasks_quarantined", "interrupts",
                "resumes")

#: Sweep-fabric *gauge* names accepted by :func:`record_sweep`:
#: point-in-time state the watch view renders.  ``quarantine_depth`` is
#: the worker's running quarantined count, ``last_task_index`` the
#: manifest index of its most recently completed task (the watch view
#: maps it back to the task's fingerprint and label).  The shards a
#: worker holds are read from the live locks, not from a gauge.
SWEEP_GAUGES = ("quarantine_depth", "last_task_index")


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
    "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
    "METRICS_SCHEMA_VERSION", "MetricsRegistry", "collected", "current",
    "SWEEP_EVENTS", "SWEEP_GAUGES", "disable", "enable",
    "load_snapshot", "record_hybrid", "record_scenario", "record_sweep",
]
