"""repro.obs: stack-wide observability (trace bus, metrics, sinks).

Six modules:

* :mod:`repro.obs.bus` — the :class:`~repro.obs.bus.TraceBus`, a
  topic-routed delivery path for typed, frozen trace records that is a
  no-op when no bus is installed (the default);
* :mod:`repro.obs.events` — the record taxonomy and JSONL schema;
* :mod:`repro.obs.metrics` — labelled counters and gauges with
  versioned JSON snapshots: the engine's per-component event counts
  and the sweep fabric's progress counters;
* :mod:`repro.obs.sinks` — the deterministic JSONL file sink (trace
  and span files) and the in-memory sink;
* :mod:`repro.obs.spans` — hierarchical lifecycle spans (sweep →
  shard → task → run → phase / engine / round) with deterministic
  tree-position ids, carried on the bus's ``span`` topic;
* :mod:`repro.obs.aggregate` — cross-worker snapshot merging and the
  fleet view ``cebinae-repro sweep watch`` renders.

This package never imports the simulator, the experiments layer or the
suite layer (``repro.obs.cli`` is the one exception and must be
imported explicitly), so any component can depend on it without
cycles.
"""

from . import aggregate, bus, events, metrics, sinks, spans
from .aggregate import AGGREGATE_SCHEMA_VERSION, fleet_view, merge_snapshots
from .bus import TraceBus, tracing
from .events import (TRACE_SCHEMA_VERSION, TOPICS, SchemaError,
                     SpanEvent, TraceRecord, canonical_dict,
                     validate_record)
from .metrics import METRICS_SCHEMA_VERSION, MetricsRegistry, collected
from .sinks import JsonlTraceSink, MemorySink
from .spans import span, span_tree

__all__ = [
    "AGGREGATE_SCHEMA_VERSION", "METRICS_SCHEMA_VERSION", "TOPICS",
    "TRACE_SCHEMA_VERSION", "JsonlTraceSink", "MemorySink",
    "MetricsRegistry", "SchemaError", "SpanEvent", "TraceBus", "TraceRecord", "aggregate",
    "bus", "canonical_dict", "collected", "events", "fleet_view",
    "merge_snapshots", "metrics", "sinks", "span", "span_tree",
    "spans", "tracing", "validate_record",
]
