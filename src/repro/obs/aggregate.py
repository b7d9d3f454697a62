"""Cross-worker aggregation: one fleet view over a sweep directory.

The PR 9 sweep fabric leaves N per-worker
:class:`~repro.obs.metrics.MetricsRegistry` snapshots under
``<sweep>/metrics/``; this module folds them — plus the sweep's
on-disk status and held shard locks — into a single canonical
*aggregate document* that ``cebinae-repro sweep watch`` renders and
tests/CI consume via ``watch --once --json``.

Two layers:

* :func:`merge_snapshots` — the registry-level merge: counters sum,
  gauges take the maximum (a deterministic resolution that is
  independent of input order; in practice per-worker labels keep gauge
  rows disjoint anyway).
* :func:`fleet_view` — the sweep-level document: progress counts,
  per-worker throughput rows, cache hit ratio, an ETA derived from
  manifest size minus cached results, and the lost/duplicated-result
  integrity check the chaos drill asserts on.

Everything is computed from the directory alone (the fabric's design
invariant), so the document is byte-stable on a finished sweep: no
held shards, remaining work 0 ⇒ ETA 0.0, and every other field comes
from immutable or atomically written files.

``sweep`` arguments are duck-typed over
:class:`~repro.sweep.manifest.SweepDir` (``status()``,
``load_manifest()``, ``metrics_dir``, ``cache_dir``) — this package
never imports the sweep layer (see the package docstring), the sweep
CLI imports us.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import (METRICS_SCHEMA_VERSION, SWEEP_EVENTS, LabelKey,
                      MetricsRegistry, _label_key)

#: Version of the aggregate document layout.  Bump on rename/removal.
#: Version 2 removed the worker rows' ``quarantine_depth``.
AGGREGATE_SCHEMA_VERSION = 2


def merge_snapshots(
        documents: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Merge snapshot documents into one registry (see module doc).

    Raises :class:`ValueError` on a snapshot whose ``schema_version``
    does not match — callers reading from disk should pre-filter
    (:func:`read_worker_snapshots` does).
    """
    merged = MetricsRegistry()
    gauges: Dict[Tuple[str, LabelKey], float] = {}
    for document in documents:
        version = document.get("schema_version")
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"cannot merge snapshot with schema_version "
                f"{version!r} (expected {METRICS_SCHEMA_VERSION})")
        for row in document.get("counters", ()):
            merged.counter(row["name"],
                           **row["labels"]).inc(row["value"])
        for row in document.get("gauges", ()):
            key = (str(row["name"]), _label_key(row["labels"]))
            value = float(row["value"])
            previous = gauges.get(key)
            gauges[key] = value if previous is None \
                else max(previous, value)
    for (name, labels), value in gauges.items():
        merged.gauge(name, **dict(labels)).set(value)
    return merged


def read_worker_snapshots(
        metrics_dir: Any) -> Tuple[Dict[str, Dict[str, Any]],
                                   List[str]]:
    """Worker name → snapshot document from a sweep's metrics dir.

    Unreadable, torn, foreign-schema or malformed files (a row
    without a string name, string labels and a numeric value) are
    skipped and returned by name in the second element — the watch
    view must degrade, not crash.
    """
    snapshots: Dict[str, Dict[str, Any]] = {}
    errors: List[str] = []
    directory = Path(metrics_dir)
    if not directory.is_dir():
        return snapshots, errors
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            errors.append(path.name)
            continue
        if (not isinstance(document, dict) or
                document.get("schema_version")
                != METRICS_SCHEMA_VERSION or
                not _well_formed(document)):
            errors.append(path.name)
            continue
        snapshots[path.stem] = document
    return snapshots, errors


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _row_well_formed(row: Any) -> bool:
    return (isinstance(row, dict) and isinstance(row.get("name"), str)
            and isinstance(row.get("labels"), dict)
            and all(isinstance(value, str)
                    for value in row["labels"].values())
            and _is_number(row.get("value")))


def _well_formed(document: Mapping[str, Any]) -> bool:
    """Whether every row has the shape :func:`merge_snapshots` reads."""
    for table in ("counters", "gauges"):
        rows = document.get(table, [])
        if not isinstance(rows, list) or not all(
                map(_row_well_formed, rows)):
            return False
    return True


# -- per-snapshot readers (operate on the JSON rows directly) -----------

def _rows(document: Mapping[str, Any], table: str,
          name: str) -> List[Mapping[str, Any]]:
    return [row for row in document.get(table, ())
            if row.get("name") == name]


def _counter_total(document: Mapping[str, Any], name: str) -> float:
    return float(sum(row["value"]
                     for row in _rows(document, "counters", name)))


def _gauge_value(document: Mapping[str, Any],
                 name: str) -> Optional[float]:
    rows = _rows(document, "gauges", name)
    return float(rows[0]["value"]) if rows else None


def _worker_row(worker: str, document: Mapping[str, Any],
                manifest_tasks: List[Any],
                shards: List[str]) -> Dict[str, Any]:
    completed = _counter_total(document, "sweep_tasks_completed_total")
    busy_s = _counter_total(document, "sweep_task_wall_seconds_total")
    # Throughput over *busy* time (clock-free, hence byte-stable on a
    # finished sweep), not over an uptime the snapshot doesn't record.
    tasks_per_min = round(completed / (busy_s / 60.0), 3) \
        if busy_s > 0 else None
    last_task: Optional[Dict[str, Any]] = None
    last_index = _gauge_value(document, "sweep_last_task_index")
    if last_index is not None and \
            0 <= int(last_index) < len(manifest_tasks):
        task = manifest_tasks[int(last_index)]
        last_task = {"index": int(last_index),
                     "label": task.label,
                     "fingerprint": task.fingerprint}
    return {
        "worker": worker,
        "completed": int(completed),
        "quarantined": int(_counter_total(
            document, "sweep_tasks_quarantined_total")),
        "busy_s": round(busy_s, 3),
        "tasks_per_min": tasks_per_min,
        # From the live locks, which die with their holder: a killed
        # worker's last snapshot cannot leave a stale count here.
        "inflight_shards": len(shards),
        "last_task": last_task,
        "captured_at": document.get("captured_at"),
        "shards": shards,
    }


def fleet_view(sweep: Any) -> Dict[str, Any]:
    """The canonical aggregate document for one sweep directory.

    Each worker's ``shards`` are the shard locks it holds now, from
    ``status()["lease_info"]``.  Raises
    :class:`~repro.sweep.manifest.ManifestError` via ``sweep.status()``
    when the directory holds no readable manifest.
    """
    status = sweep.status()
    manifest = sweep.load_manifest()
    held: Dict[str, List[str]] = {}
    for info in status["lease_info"]:
        held.setdefault(info["worker"], []).append(info["key"])
    snapshots, errors = read_worker_snapshots(sweep.metrics_dir)
    merged = merge_snapshots(snapshots.values()).snapshot()

    workers = [_worker_row(worker, document, manifest.tasks,
                           sorted(held.get(worker, [])))
               for worker, document in sorted(snapshots.items())]
    totals = {event: int(_counter_total(merged,
                                        f"sweep_{event}_total"))
              for event in SWEEP_EVENTS}

    counts = status["counts"]
    done = counts["done"]
    completed_by_workers = totals["tasks_completed"]
    # Done results nobody here computed came from the shared
    # fingerprint cache (warm starts, prior sweeps): the fleet's
    # cache hit ratio.  Worker snapshots accumulate over resumes.
    cache_hit_ratio = round(
        max(0, done - completed_by_workers) / done, 4) \
        if done else None

    remaining = counts["pending"] + counts["leased"]
    busy_total = _counter_total(merged, "sweep_task_wall_seconds_total")
    active_workers = len(held)
    if remaining == 0:
        eta_s: Optional[float] = 0.0
    elif completed_by_workers > 0 and busy_total > 0:
        mean_task_s = busy_total / completed_by_workers
        eta_s = round(remaining * mean_task_s
                      / max(1, active_workers), 3)
    else:
        eta_s = None    # No throughput sample yet: unknowable.

    fingerprints = {task.fingerprint for task in manifest.tasks}
    cache_entries = {path.stem
                     for path in Path(sweep.cache_dir).glob("*.json")}
    integrity = {
        # Manifest tasks with no result anywhere (cache or
        # quarantine).  0 on a finished sweep — the chaos drill's
        # "zero lost" assertion.
        "missing_results": remaining,
        # Cache entries no manifest task owns — "zero duplicated".
        "orphan_results": len(cache_entries - fingerprints),
    }

    return {
        "aggregate_version": AGGREGATE_SCHEMA_VERSION,
        "sweep": status["name"],
        "total": status["total"],
        "counts": dict(counts),
        "totals": totals,
        "cache_hit_ratio": cache_hit_ratio,
        "eta_s": eta_s,
        "integrity": integrity,
        "workers": workers,
        "snapshot_errors": errors,
    }


__all__ = [
    "AGGREGATE_SCHEMA_VERSION", "fleet_view", "merge_snapshots",
    "read_worker_snapshots",
]
