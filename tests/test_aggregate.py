"""Cross-worker aggregation: snapshot merging and the fleet view."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.aggregate import (AGGREGATE_SCHEMA_VERSION, fleet_view,
                                 merge_snapshots, read_worker_snapshots)
from repro.obs.metrics import MetricsRegistry
from repro.sweep.worker import worker_metrics


class TestMergeSnapshots:
    def test_empty_input_is_empty_registry(self):
        merged = merge_snapshots([])
        assert merged.snapshot() == MetricsRegistry().snapshot()

    def test_empty_registry_snapshot_merges(self):
        merged = merge_snapshots([MetricsRegistry().snapshot()])
        assert merged.snapshot() == MetricsRegistry().snapshot()

    def test_single_worker_identity(self):
        registry = MetricsRegistry()
        registry.counter("sweep_tasks_completed_total",
                         worker="w0").inc(3)
        registry.counter("sweep_task_wall_seconds_total",
                         worker="w0").inc(1.5)
        registry.gauge("sweep_last_task_index", worker="w0").set(1)
        snapshot = registry.snapshot()
        assert merge_snapshots([snapshot]).snapshot() == snapshot

    def test_counters_sum_and_disjoint_labels_survive(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.counter("sweep_tasks_completed_total", worker="w0").inc(2)
        one.counter("sim_runs_total").inc(5)
        two.counter("sweep_tasks_completed_total", worker="w1").inc(3)
        two.counter("sim_runs_total").inc(7)
        merged = merge_snapshots([one.snapshot(), two.snapshot()])
        assert merged.counter("sim_runs_total").value == 12
        assert merged.counter("sweep_tasks_completed_total",
                              worker="w0").value == 2
        assert merged.counter("sweep_tasks_completed_total",
                              worker="w1").value == 3

    def test_gauges_merge_by_max_order_independent(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.gauge("sweep_last_task_index").set(4)
        two.gauge("sweep_last_task_index").set(1)
        forward = merge_snapshots([one.snapshot(), two.snapshot()])
        backward = merge_snapshots([two.snapshot(), one.snapshot()])
        assert forward.gauge("sweep_last_task_index").value == 4
        assert forward.snapshot() == backward.snapshot()

    def test_foreign_schema_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            merge_snapshots([{"schema_version": 99}])


class TestReadWorkerSnapshots:
    def test_missing_directory_is_empty(self, tmp_path):
        snapshots, errors = read_worker_snapshots(tmp_path / "nope")
        assert snapshots == {} and errors == []

    def test_reads_skips_and_reports(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim_runs_total").inc(1)
        registry.write_json(str(tmp_path / "w0.json"))
        (tmp_path / "torn.json").write_text('{"schema_version": 1, "co')
        (tmp_path / "foreign.json").write_text(
            json.dumps({"schema_version": 99}))
        # In-progress atomic writes never match the *.json glob.
        (tmp_path / "w1.json.tmp-123").write_text("{}")
        snapshots, errors = read_worker_snapshots(tmp_path)
        assert list(snapshots) == ["w0"]
        assert sorted(errors) == ["foreign.json", "torn.json"]

    def test_version_1_snapshot_is_foreign(self, tmp_path):
        # Version 1 carried the busy time as a histogram; a worker id
        # that runs again starts afresh from such a snapshot.
        old = {"schema_version": 1, "counters": [], "gauges": [],
               "histograms": [{"name": "sweep_task_wall_seconds",
                               "labels": {"worker": "w0"},
                               "bounds": [1.0], "counts": [1, 0],
                               "sum": 0.5, "count": 1}]}
        (tmp_path / "w0.json").write_text(json.dumps(old))
        assert read_worker_snapshots(tmp_path) == ({}, ["w0.json"])
        sweep = SimpleNamespace(
            metrics_path=lambda worker: tmp_path / f"{worker}.json")
        assert worker_metrics(sweep, "w0").snapshot() == \
            MetricsRegistry().snapshot()

    @pytest.mark.parametrize("table, row", [
        ("counters", {"name": "c", "value": 1}),
        ("counters", {"name": "c", "labels": {"w": 1}, "value": 1}),
        ("counters", {"name": 3, "labels": {}, "value": 1}),
        ("gauges", {"name": "g", "labels": {}, "value": "high"}),
        ("gauges", ["g", {}, 1]),
        ("counters", None),
    ])
    def test_malformed_rows_are_snapshot_errors(self, tmp_path, table,
                                                row):
        registry = MetricsRegistry()
        registry.counter("sim_runs_total").inc(1)
        registry.write_json(str(tmp_path / "w0.json"))
        document = registry.snapshot()
        document[table] = row if row is None else [row]
        (tmp_path / "bad.json").write_text(json.dumps(document))
        snapshots, errors = read_worker_snapshots(tmp_path)
        assert list(snapshots) == ["w0"] and errors == ["bad.json"]
        # What is left merges: the watch view degrades, not crashes.
        merge_snapshots(snapshots.values())


def fake_sweep(tmp_path, counts, lease_info, fingerprints,
               quarantined=None):
    (tmp_path / "metrics").mkdir(exist_ok=True)
    (tmp_path / "cache").mkdir(exist_ok=True)
    tasks = [SimpleNamespace(index=i, label=f"t{i}", fingerprint=f,
                             lease_key=f"task-{i:05d}")
             for i, f in enumerate(fingerprints)]
    status = {"name": "fake", "total": len(tasks),
              "counts": counts, "lease_info": lease_info}
    return SimpleNamespace(
        metrics_dir=tmp_path / "metrics",
        cache_dir=tmp_path / "cache",
        status=lambda: dict(status),
        quarantined=lambda: dict(quarantined or {}),
        load_manifest=lambda: SimpleNamespace(tasks=tasks))


class TestFleetView:
    def test_aggregates_workers_leases_and_integrity(self, tmp_path):
        sweep = fake_sweep(
            tmp_path,
            counts={"done": 2, "pending": 0, "leased": 2,
                    "quarantined": 0},
            lease_info=[{"key": "task-00002", "worker": "w0"},
                        {"key": "task-00003", "worker": "w1"}],
            fingerprints=["f0", "f1", "f2", "f3"])
        for name in ("f0", "f1", "orphan"):
            (tmp_path / "cache" / f"{name}.json").write_text("{}")
        registry = MetricsRegistry()
        registry.counter("sweep_tasks_completed_total",
                         worker="w0").inc(2)
        registry.counter("sweep_task_wall_seconds_total",
                         worker="w0").inc(6.0)
        registry.gauge("sweep_last_task_index", worker="w0").set(1)
        registry.write_json(str(tmp_path / "metrics" / "w0.json"),
                            captured_at=12.5)

        doc = fleet_view(sweep)
        assert doc["aggregate_version"] == AGGREGATE_SCHEMA_VERSION
        assert doc["sweep"] == "fake" and doc["total"] == 4
        assert doc["totals"]["tasks_completed"] == 2
        # Both done results were computed here: no cache warm start.
        assert doc["cache_hit_ratio"] == 0.0
        # 2 remaining tasks / 2 lock-holding workers at 3 s/task mean.
        assert doc["eta_s"] == pytest.approx(3.0)
        assert doc["integrity"] == {"missing_results": 2,
                                    "orphan_results": 1}
        assert doc["snapshot_errors"] == []
        (row,) = doc["workers"]
        assert row["worker"] == "w0"
        assert row["completed"] == 2
        assert row["busy_s"] == pytest.approx(6.0)
        assert row["tasks_per_min"] == pytest.approx(20.0)
        assert row["last_task"] == {"index": 1, "label": "t1",
                                    "fingerprint": "f1"}
        assert row["captured_at"] == 12.5
        assert row["running"] == "t2"
        assert sorted(row) == ["busy_s", "captured_at", "completed",
                               "last_task", "quarantined", "running",
                               "tasks_per_min", "worker"]
        assert doc["quarantined"] == []

    def test_finished_sweep_is_byte_stable(self, tmp_path):
        sweep = fake_sweep(
            tmp_path,
            counts={"done": 1, "pending": 0, "leased": 0,
                    "quarantined": 0},
            lease_info=[], fingerprints=["f0"])
        (tmp_path / "cache" / "f0.json").write_text("{}")
        registry = MetricsRegistry()
        registry.counter("sweep_tasks_completed_total",
                         worker="w0").inc(1)
        registry.write_json(str(tmp_path / "metrics" / "w0.json"))
        first = json.dumps(fleet_view(sweep), sort_keys=True)
        second = json.dumps(fleet_view(sweep), sort_keys=True)
        assert first == second
        doc = json.loads(first)
        assert doc["eta_s"] == 0.0
        assert doc["integrity"] == {"missing_results": 0,
                                    "orphan_results": 0}

    def test_no_snapshots_yet(self, tmp_path):
        sweep = fake_sweep(
            tmp_path,
            counts={"done": 0, "pending": 2, "leased": 0,
                    "quarantined": 0},
            lease_info=[], fingerprints=["f0", "f1"])
        doc = fleet_view(sweep)
        assert doc["workers"] == []
        assert doc["cache_hit_ratio"] is None
        assert doc["eta_s"] is None    # no throughput sample yet
        assert doc["totals"]["tasks_completed"] == 0

    def test_lists_parked_tasks_with_their_errors(self, tmp_path):
        # What the sweep counts as quarantined: parked and not done,
        # in manifest order; a record no task owns is not listed.
        sweep = fake_sweep(
            tmp_path,
            counts={"done": 1, "pending": 1, "leased": 0,
                    "quarantined": 2},
            lease_info=[], fingerprints=["f0", "f1", "f2", "f3"],
            quarantined={
                "f3": {"failed": {"error": "boom"}},
                "f1": {"failed": {}},
                "f2": {"failed": {"error": "healed"}},
                "stray": {"failed": {"error": "foreign"}}})
        (tmp_path / "cache" / "f2.json").write_text("{}")
        assert fleet_view(sweep)["quarantined"] == [
            {"label": "t1", "error": "?"},
            {"label": "t3", "error": "boom"}]

    def test_cache_hits_counted(self, tmp_path):
        # 3 done, only 1 computed by a live worker: 2 warm-start hits.
        sweep = fake_sweep(
            tmp_path,
            counts={"done": 3, "pending": 0, "leased": 0,
                    "quarantined": 0},
            lease_info=[], fingerprints=["f0", "f1", "f2"])
        for name in ("f0", "f1", "f2"):
            (tmp_path / "cache" / f"{name}.json").write_text("{}")
        registry = MetricsRegistry()
        registry.counter("sweep_tasks_completed_total",
                         worker="w0").inc(1)
        registry.write_json(str(tmp_path / "metrics" / "w0.json"))
        doc = fleet_view(sweep)
        assert doc["cache_hit_ratio"] == pytest.approx(2 / 3, abs=1e-4)


class TestRecordSweepGauges:
    def test_gauges_set_not_summed(self):
        registry = MetricsRegistry()
        obs_metrics.record_sweep(registry, "last_task_index",
                                 worker="w0", amount=3)
        obs_metrics.record_sweep(registry, "last_task_index",
                                 worker="w0", amount=0)
        assert registry.gauge("sweep_last_task_index",
                              worker="w0").value == 0

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep event"):
            obs_metrics.record_sweep(MetricsRegistry(), "nonsense")
