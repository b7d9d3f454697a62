"""The crash-resumable sweep fabric: manifests, leases, workers, CLIs.

Covers the fabric contract piece by piece: a manifest rebuilds the
pool's own tasks (and fingerprints) from its JSON alone, the lease
protocol hands each shard to exactly one live worker and frees it
the moment that worker lets go or dies, the worker streams results /
retries transients / quarantines poison tasks, and the ``sweep`` and
``cache gc`` CLIs report state computed from the directory alone.
The end-to-end kill -9 drills live in ``test_sweep_resume.py``.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.parallel import (FailedRun, ResultCache, Task,
                                        TerminateSweep, run_tasks)
from repro.faults.watchdog import RunAborted
from repro.obs.aggregate import fleet_view
from repro.suite import SuiteRegistry, SuiteSpec
from repro.sweep import tasks as sweep_tasks
from repro.sweep.lease import LeaseStore
from repro.sweep.manifest import (ManifestError, SweepDir, SweepManifest,
                                  manifest_from_callables,
                                  manifest_from_specs)
import repro.sweep.cli as sweep_cli
from repro.sweep.cli import EXIT_INTERRUPTED
from repro.sweep.cli import main as sweep_main
from repro.sweep.worker import IDLE_FLOOR_S, SweepWorker, WorkerConfig

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")

PARKING_DOC = {
    "schema_version": 1, "name": "lot", "topology": "parking_lot",
    "parking_lot": {"rate_bps": 5e6, "buffer_mtus": 40, "num_long": 2,
                    "long_cca": "newreno",
                    "cross_mix": [["vegas", 2], ["cubic", 1]],
                    "duration_s": 1.0, "tau": 0.06},
    "disciplines": ["fifo", "cebinae"]}


def tiny_doc(name, **overrides):
    """A two-flow dumbbell suite document at simulator scale."""
    doc = {"schema_version": 1, "name": name,
           "scenario": {"rate_bps": 100e6, "rtts_ms": [20, 30],
                        "buffer_mtus": 60,
                        "cca_mix": [["newreno", 1], ["newreno", 1]],
                        "duration_s": 0.5},
           "policy": {"target_rate_bps": 5e6, "max_rate_bps": 5e6},
           "disciplines": ["fifo"]}
    doc.update(overrides)
    return doc


def write_suite(directory, *docs):
    directory.mkdir()
    for doc in docs:
        (directory / f"{doc['name']}.json").write_text(json.dumps(doc))
    return directory


def callable_manifest(name="demo", count=4, shard_size=1, rounds=5):
    return manifest_from_callables(name, [
        {"label": f"task-{i}",
         "fn": "repro.sweep.tasks:checksum",
         "kwargs": {"label": f"task-{i}", "seed": i, "rounds": rounds}}
        for i in range(count)], shard_size=shard_size)


class TestManifest:
    def test_round_trip_and_shards(self):
        manifest = callable_manifest(count=5, shard_size=2)
        rebuilt = SweepManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict())))
        assert [t.to_dict() for t in rebuilt.tasks] == \
            [t.to_dict() for t in manifest.tasks]
        shards = rebuilt.shards()
        assert sorted(shards) == [0, 1, 2]
        assert [len(v) for _, v in sorted(shards.items())] == [2, 2, 1]

    def test_callable_task_rebuilds_and_runs(self):
        manifest = callable_manifest(count=1)
        task = manifest.task(manifest.tasks[0])
        value = task.fn(**task.kwargs)
        assert value["label"] == "task-0"
        assert len(value["digest"]) == 64

    def test_runspec_manifest_preserves_fingerprints(self):
        spec = SuiteSpec.from_dict(
            tiny_doc("fp", disciplines=["fifo", "cebinae"]))
        manifest = manifest_from_specs("fp", [spec])
        runs = spec.compile()
        assert len(manifest.tasks) == len(runs) == 2
        for entry, run in zip(manifest.tasks, runs):
            assert entry.fingerprint == run.fingerprint()
            assert manifest.task(entry).fingerprint == run.fingerprint()

    def test_suite_tasks_are_the_pools_tasks(self, tmp_path):
        # Every rebuilt task is the one run_compiled hands the pool
        # (fn, kwargs, kind, fingerprint), under the spec:run label.
        suite = write_suite(
            tmp_path / "suite",
            tiny_doc("grid", grid={"rtts_ms": [[20], [20, 40]]},
                     repeats=2, faults={"seed": 3, "loss_rate": 0.01},
                     disciplines=["fifo", "cebinae"]),
            PARKING_DOC)
        sweep_dir = tmp_path / "sweep"
        assert sweep_main(["init", str(sweep_dir), "--suite",
                           str(suite)]) == 0
        manifest = SweepDir(sweep_dir).load_manifest()
        specs = list(SuiteRegistry.from_directory(suite))
        pooled = [dataclasses.replace(run.task(),
                                      label=f"{spec.name}:{run.label}")
                  for spec in specs for run in spec.compile()]
        assert len(manifest.tasks) == len(pooled) == 10
        assert [manifest.task(entry) for entry in manifest.tasks] == \
            pooled
        # One document per spec; tasks only name a spec and a run.
        document = json.loads((sweep_dir / "manifest.json").read_text())
        assert set(document) == {"manifest_version", "cache_version",
                                 "name", "specs", "tasks"}
        assert document["specs"] == {spec.name: spec.to_dict()
                                     for spec in specs}
        assert {tuple(sorted(task["source"]))
                for task in document["tasks"]} == {("run", "spec",
                                                    "type")}

    def test_wrong_version_refused(self):
        data = callable_manifest().to_dict()
        data["manifest_version"] = 99
        with pytest.raises(ManifestError, match="manifest_version"):
            SweepManifest.from_dict(data)
        data = callable_manifest().to_dict()
        data["cache_version"] = 99
        with pytest.raises(ManifestError, match="cache_version"):
            SweepManifest.from_dict(data)

    def test_retired_parking_source_refused(self, tmp_path, capsys):
        # Source types of earlier manifests, the parking lot's own and
        # the RunSpec codec's: refused, never misread.
        for retired in ("parking", "runspec"):
            data = callable_manifest(count=1).to_dict()
            data["tasks"][0]["source"] = {"type": retired}
            with pytest.raises(ManifestError, match=f"'{retired}'"):
                SweepManifest.from_dict(data)
            sweep = SweepDir(tmp_path / retired)
            sweep.root.mkdir()
            sweep.manifest_path.write_text(json.dumps(data))
            assert sweep_main(["status", str(sweep.root)]) == 2
            assert f"'{retired}'" in capsys.readouterr().err

    def test_label_collision_refused(self):
        data = callable_manifest(count=2).to_dict()
        data["tasks"][1]["label"] = data["tasks"][0]["label"]
        with pytest.raises(ManifestError, match="collide"):
            SweepManifest.from_dict(data)

    def test_reinit_refuses_differing_manifest(self, tmp_path):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=2))
        sweep.initialise(callable_manifest(count=2))   # Same: fine.
        with pytest.raises(ManifestError, match="--force"):
            sweep.initialise(callable_manifest(count=3))
        sweep.initialise(callable_manifest(count=3), force=True)
        assert len(sweep.load_manifest().tasks) == 3


def hold_in_child(lease_dir, key):
    """A child process that claims ``key`` and sleeps holding it."""
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from repro.sweep.lease import LeaseStore\n"
         "lease = LeaseStore(sys.argv[1]).claim(sys.argv[2], 'peer')\n"
         "print('held' if lease else 'busy', flush=True)\n"
         "time.sleep(600)\n",
         str(lease_dir), key],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_DIR] + os.environ.get("PYTHONPATH", "")
            .split(os.pathsep))),
        stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline().strip() == "held"
    return child


class TestLeaseStore:
    def test_claim_conflict_release(self, tmp_path):
        store = LeaseStore(tmp_path)
        lease = store.claim("shard-00000", "alice")
        assert lease is not None
        assert store.claim("shard-00000", "bob") is None
        assert store.claim("shard-00001", "bob") is not None
        store.release(lease)
        store.release(lease)        # Idempotent.
        assert store.claim("shard-00000", "bob") is not None

    def test_holders_probes_locks_not_files(self, tmp_path):
        store = LeaseStore(tmp_path)
        lease = store.claim("shard-00000", "alice")
        # The probe is right inside the holder's own process.
        assert store.holders() == {
            "shard-00000": {"worker": "alice", "pid": os.getpid()}}
        # The record is for display only: damage shows worker "?".
        (tmp_path / "shard-00000.lock").write_text("{garbage")
        assert store.holders() == {"shard-00000": {"worker": "?"}}
        # Released, the lock file stays behind and counts as free, as
        # do an unlocked file's stale record and older lease files.
        store.release(lease)
        (tmp_path / "shard-00001.lock").write_text(
            json.dumps({"worker": "crashed", "pid": 1}))
        (tmp_path / "shard-00002.lease").write_text("{}")
        assert store.holders() == {}
        assert (tmp_path / "shard-00000.lock").exists()
        assert store.claim("shard-00001", "bob") is not None

    def test_lock_dies_with_its_holder(self, tmp_path):
        store = LeaseStore(tmp_path)
        child = hold_in_child(tmp_path, "shard-00000")
        try:
            assert store.holders() == {
                "shard-00000": {"worker": "peer", "pid": child.pid}}
            assert store.claim("shard-00000", "bob") is None
        finally:
            child.kill()
            child.wait()
        # SIGKILL ran no cleanup; the kernel dropped the lock anyway.
        assert store.holders() == {}
        assert store.claim("shard-00000", "bob") is not None


class TestWorker:
    def run_worker(self, sweep, **config):
        config.setdefault("worker_id", "test-w0")
        worker = SweepWorker(sweep, WorkerConfig(**config))
        return worker.run()

    def test_completes_manifest_and_streams_results(self, tmp_path):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=4, shard_size=2))
        report = self.run_worker(sweep)
        assert report.completed == 4
        assert report.quarantined == 0
        cache = sweep.cache()
        for task in sweep.load_manifest().tasks:
            payload = cache.load(task.fingerprint)
            assert payload["label"] == task.label
        # Every shard released; metrics snapshot written.
        assert LeaseStore(sweep.lease_dir).holders() == {}
        assert (sweep.metrics_dir / "test-w0.json").exists()

    def test_rerun_is_idempotent(self, tmp_path):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=3))
        assert self.run_worker(sweep).completed == 3
        before = {p.name: p.read_bytes()
                  for p in sweep.cache_dir.glob("*.json")}
        again = self.run_worker(sweep, worker_id="test-w1")
        assert again.completed == 0
        after = {p.name: p.read_bytes()
                 for p in sweep.cache_dir.glob("*.json")}
        assert after == before

    def test_max_tasks_parks_midway(self, tmp_path):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=4))
        assert self.run_worker(sweep, max_tasks=2).completed == 2
        assert sweep.status()["counts"]["done"] == 2
        assert self.run_worker(sweep, worker_id="w2").completed == 2
        assert sweep.status()["counts"]["pending"] == 0

    def test_quarantines_poison_task_and_keeps_going(self, tmp_path):
        manifest = manifest_from_callables("poison", [
            {"label": "bad", "fn": "repro.sweep.tasks:always_fails",
             "kwargs": {"label": "bad"}},
            {"label": "good", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "good", "seed": 1, "rounds": 5}}])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        report = self.run_worker(sweep, retries=1,
                                 backoff_base_s=0.001)
        assert report.completed == 1
        assert report.quarantined == 1
        record = sweep.quarantined()
        (fingerprint,) = record
        assert record[fingerprint]["label"] == "bad"
        failed = record[fingerprint]["failed"]
        assert failed["attempts"] == 2
        assert len(failed["backoff_s"]) == 1
        # A later worker skips the quarantined task instead of
        # re-poisoning itself.
        assert self.run_worker(sweep, worker_id="w2").completed == 0
        counts = sweep.status()["counts"]
        assert counts == {"done": 1, "quarantined": 1, "leased": 0,
                          "pending": 0}

    @pytest.mark.parametrize("kind, reason", [
        ("suite", "rate_bps"), ("callable", "no_such_module")])
    def test_damaged_manifest_entry_is_quarantined_not_fatal(
            self, tmp_path, capsys, kind, reason):
        # One entry whose source cannot be rebuilt (a hand-edited or
        # bit-rotted manifest) costs that task, never the sweep.
        if kind == "suite":
            manifest = manifest_from_specs("damaged", [
                SuiteSpec.from_dict(tiny_doc(name))
                for name in ("damaged", "intact")])
        else:
            manifest = callable_manifest(count=3)
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        document = json.loads(sweep.manifest_path.read_text())
        if kind == "suite":
            del document["specs"]["damaged"]["scenario"]["rate_bps"]
        else:
            document["tasks"][0]["source"]["fn"] = \
                "repro.no_such_module:checksum"
        sweep.manifest_path.write_text(json.dumps(document))
        loaded = sweep.load_manifest()
        with pytest.raises(ManifestError, match=reason):
            loaded.task(loaded.tasks[0])

        report = self.run_worker(sweep)
        assert report.completed == len(manifest.tasks) - 1
        assert report.quarantined == 1
        damaged, *rest = sweep.outcomes()
        assert [entry["status"] for entry in rest] == \
            ["done"] * len(rest)
        assert damaged["status"] == "quarantined"
        assert damaged["failed"]["attempts"] == 0
        assert reason in damaged["failed"]["error"]
        assert damaged["label"] in damaged["failed"]["error"]
        # A later worker skips it; status lists it with its reason.
        assert self.run_worker(sweep, worker_id="w2").quarantined == 0
        capsys.readouterr()
        assert sweep_main(["status", str(sweep.root)]) == 0
        out = capsys.readouterr().out
        assert f"quarantined {damaged['label']}" in out
        assert reason in out

    def test_drifted_spec_document_is_quarantined_not_fatal(self,
                                                            tmp_path):
        # A stored document that no longer compiles to the recorded
        # fingerprints costs its own spec's tasks, never the sweep.
        manifest = manifest_from_specs("drift", [
            SuiteSpec.from_dict(tiny_doc("drifted",
                                         disciplines=["fifo", "fq"])),
            SuiteSpec.from_dict(tiny_doc("intact"))])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        document = json.loads(sweep.manifest_path.read_text())
        document["specs"]["drifted"]["base_seed"] = 7
        sweep.manifest_path.write_text(json.dumps(document))
        drifted = {f"drifted:{run.label}": run.fingerprint()
                   for run in SuiteSpec.from_dict(
                       document["specs"]["drifted"]).compile()}

        report = self.run_worker(sweep)
        assert (report.completed, report.quarantined) == (1, 2)
        *parked, intact = sweep.outcomes()
        assert intact["label"] == "intact:intact/fifo"
        assert intact["status"] == "done"
        assert [entry["label"] for entry in parked] == sorted(drifted)
        for entry in parked:
            assert entry["status"] == "quarantined"
            assert entry["failed"]["attempts"] == 0
            assert entry["fingerprint"] in entry["failed"]["error"]
            assert drifted[entry["label"]] in entry["failed"]["error"]
            assert drifted[entry["label"]] != entry["fingerprint"]

    def test_transient_failure_heals_via_retry(self, tmp_path):
        counter = tmp_path / "attempts"
        manifest = manifest_from_callables("flaky", [
            {"label": "flaky", "fn": "repro.sweep.tasks:flaky",
             "kwargs": {"label": "flaky", "counter": str(counter),
                        "fail_first": 1}}])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        report = self.run_worker(sweep, retries=2,
                                 backoff_base_s=0.001)
        assert report.completed == 1
        assert report.quarantined == 0
        assert counter.read_text() == "2"

    def test_sigterm_releases_lease_and_keeps_results(self, tmp_path):
        marker = tmp_path / "first-done"
        manifest = manifest_from_callables("term", [
            {"label": "ok", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "ok", "seed": 0, "rounds": 5}},
            {"label": "boom", "fn": "tests.test_sweep_fabric:_self_term",
             "kwargs": {"marker": str(marker)}}])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        worker = SweepWorker(sweep, WorkerConfig(worker_id="term-w0"))
        report = worker.run()
        assert report.interrupted
        assert report.completed == 1
        counts = sweep.status()["counts"]
        assert counts["done"] == 1 and counts["leased"] == 0
        # The handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_sigterm_mid_backoff_releases_and_quarantines_nothing(
            self, tmp_path, monkeypatch):
        def sigterm_mid_sleep(delay):
            os.kill(os.getpid(), signal.SIGTERM)
            # The signal is delivered at a bytecode boundary; force one.
            time.sleep(1.0)
            raise AssertionError("SIGTERM was not delivered")

        monkeypatch.setattr(parallel, "_sleep", sigterm_mid_sleep)
        manifest = manifest_from_callables("term", [
            {"label": "bad", "fn": "repro.sweep.tasks:always_fails",
             "kwargs": {"label": "bad"}}])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        report = self.run_worker(sweep, retries=1)
        assert report.interrupted
        assert (report.completed, report.quarantined) == (0, 0)
        assert sweep.quarantined() == {}
        assert LeaseStore(sweep.lease_dir).holders() == {}
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_outcomes_and_merge_read_the_sweep_back_in_order(
            self, tmp_path):
        manifest = manifest_from_callables("mixed", [
            {"label": "bad", "fn": "repro.sweep.tasks:always_fails",
             "kwargs": {"label": "bad"}},
            {"label": "good", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "good", "seed": 1, "rounds": 5}},
            {"label": "later", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "later", "seed": 2, "rounds": 5}}])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        # Parks "bad", finishes "good", stops short of "later".
        report = self.run_worker(sweep, max_tasks=1,
                                 backoff_base_s=0.001)
        assert (report.completed, report.quarantined) == (1, 1)
        bad, good, later = manifest.tasks
        parked = json.loads(
            sweep.quarantine_path(bad.fingerprint).read_text())
        expected = [
            {"label": "bad", "fingerprint": bad.fingerprint,
             "status": "quarantined", "failed": parked["failed"]},
            {"label": "good", "fingerprint": good.fingerprint,
             "status": "done",
             "payload": sweep_tasks.checksum("good", 1, 5)},
            {"label": "later", "fingerprint": later.fingerprint,
             "status": "missing"}]
        assert sweep.outcomes() == expected
        # The merged document is those entries, byte for byte.
        out = tmp_path / "merged.json"
        assert sweep_main(["merge", str(sweep.root),
                           "--out", str(out)]) == 1
        assert out.read_text() == json.dumps(
            {"sweep": "mixed", "results": expected},
            indent=2, sort_keys=True) + "\n"

    def test_idle_backs_off_to_poll_s_and_resets_on_claim(self,
                                                          tmp_path):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=3))
        peer = LeaseStore(sweep.lease_dir)
        held = {key: peer.claim(key, "peer")
                for key in ("shard-00001", "shard-00002")}
        delays = []

        def idle_sleep(delay):
            # The live peer lets go of one shard after six idle scans
            # and of the other after three more.
            delays.append(delay)
            if len(delays) == 6:
                peer.release(held["shard-00001"])
            elif len(delays) == 9:
                peer.release(held["shard-00002"])

        worker = SweepWorker(
            sweep, WorkerConfig(worker_id="idle-w0", poll_s=0.02),
            idle_sleep=idle_sleep)
        report = worker.run()
        assert report.completed == 3
        floor = IDLE_FLOOR_S
        assert delays[:6] == [floor, 2 * floor, 4 * floor,
                              0.02, 0.02, 0.02]
        # Claiming shard 1 reset the back-off for the wait on shard 2.
        assert delays[6:] == [floor, 2 * floor, 4 * floor]
        assert max(delays) <= 0.02

    def test_idle_worker_claims_a_dead_holders_shard(self, tmp_path):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=1))
        peer = hold_in_child(sweep.lease_dir, "shard-00000")
        delays = []

        def idle_sleep(delay):
            # The peer dies without releasing anything.
            delays.append(delay)
            if len(delays) == 4:
                peer.kill()
                peer.wait()

        try:
            report = SweepWorker(
                sweep, WorkerConfig(worker_id="idle-w0"),
                idle_sleep=idle_sleep).run()
        finally:
            peer.kill()
            peer.wait()
        assert len(delays) == 4
        assert report.completed == 1

    def test_sigkilled_worker_holds_no_shard_in_the_fleet_view(
            self, tmp_path):
        # One shard: a quick task, then one the kill lands in.
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest_from_callables("kill", [
            {"label": "quick", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "quick", "seed": 0, "rounds": 5}},
            {"label": "stuck", "fn": "repro.sweep.tasks:slow_checksum",
             "kwargs": {"label": "stuck", "seed": 1, "rounds": 5,
                        "wall_s": 60.0}}], shard_size=2))
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep.cli", "work",
             str(sweep.root), "--worker-id", "victim"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [SRC_DIR] + os.environ.get("PYTHONPATH", "")
                .split(os.pathsep))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60  # simlint: allow[D103] subprocess watchdog
            rows = []
            while time.monotonic() < deadline:  # simlint: allow[D103] subprocess watchdog
                rows = fleet_view(sweep)["workers"]
                if rows and rows[0]["completed"] == 1:
                    break
                time.sleep(0.02)  # simlint: allow[D103] subprocess poll pacing
            assert [row["shards"] for row in rows] == [["shard-00000"]]
            assert rows[0]["inflight_shards"] == 1
        finally:
            victim.kill()
            victim.wait()
        # The kernel dropped the lock; the last snapshot still says
        # one task done, and no shard is in flight.
        row, = fleet_view(sweep)["workers"]
        assert (row["worker"], row["completed"]) == ("victim", 1)
        assert row["shards"] == [] and row["inflight_shards"] == 0


def _self_term(marker):
    """Sweep task that SIGTERMs its own worker process."""
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("here")
    os.kill(os.getpid(), signal.SIGTERM)
    # The signal is delivered at a bytecode boundary; force one.
    import time
    time.sleep(1.0)  # simlint: allow[D103] waiting for own SIGTERM
    raise AssertionError("SIGTERM was not delivered")


def _exit_worker(code):
    """Sweep task that takes its whole worker process down."""
    os._exit(code)


def _noop():
    return {"ok": True}


def _log_run(label, log):
    """Sweep task that appends one line per execution to ``log``."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{label}\n".encode())
    finally:
        os.close(fd)
    return {"label": label}


def _report_sigterm_disposition(marker):
    """Pool task: is this worker's SIGTERM back at its default?"""
    default = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("reported")
    return {"sigterm_default": default}


def _term_parent_after(marker):
    """Pool task: SIGTERM the sweep's parent once ``marker`` exists."""
    import time
    while not os.path.exists(marker):
        time.sleep(0.02)  # simlint: allow[D103] waiting for sibling task
    # Let the parent collect the sibling's result before the signal.
    time.sleep(1.0)  # simlint: allow[D103] waiting for sibling collection
    os.kill(os.getppid(), signal.SIGTERM)
    time.sleep(60.0)  # simlint: allow[D103] waiting for Pool.terminate()
    raise AssertionError("the pool never terminated this worker")


def _raise_value_error():
    raise ValueError("deterministic boom")


def _raise_run_aborted():
    raise RunAborted("watchdog fired", partial={"events": 9})


class TestOneLifecycle:
    """The serial path, the pool and the sweep worker settle a task
    through the same attempt -> retry -> store loop."""

    @pytest.mark.parametrize("case", ["checksum", "flaky",
                                      "always_fails", "aborted"])
    def test_every_executor_ends_a_task_the_same_way(self, tmp_path,
                                                     case):
        counter = tmp_path / "attempts"
        fn, kwargs = {
            "checksum": ("repro.sweep.tasks:checksum",
                         {"label": "c", "seed": 3, "rounds": 5}),
            "flaky": ("repro.sweep.tasks:flaky",
                      {"label": "f", "counter": str(counter),
                       "fail_first": 1}),
            "always_fails": ("repro.sweep.tasks:always_fails",
                             {"label": "bad"}),
            "aborted": ("tests.test_sweep_fabric:_raise_run_aborted",
                        {})}[case]
        # A second task, so that ``workers=2`` really starts a pool.
        manifest = manifest_from_callables(case, [
            {"label": case, "fn": fn, "kwargs": kwargs},
            {"label": "peer", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "peer", "seed": 0, "rounds": 5}}])
        ends = {}
        for executor in ("serial", "pool", "worker"):
            if counter.exists():
                counter.unlink()
            sweep = SweepDir(tmp_path / executor)
            sweep.initialise(manifest)
            if executor == "worker":
                SweepWorker(sweep, WorkerConfig(
                    worker_id="parity-w0", retries=1,
                    backoff_base_s=0.001)).run()
                failed = [record["failed"] for record
                          in sweep.quarantined().values()]
            else:
                results = run_tasks(
                    [manifest.task(task) for task in manifest.tasks],
                    workers=1 if executor == "serial" else 2,
                    cache_dir=sweep.cache_dir, retries=1,
                    backoff_base_s=0.001, progress=None)
                failed = [result.to_dict() for result in results
                          if isinstance(result, FailedRun)]
            stored = {path.name: path.read_bytes()
                      for path in sweep.cache_dir.glob("*.json")}
            ends[executor] = (stored, failed)
        assert ends["serial"] == ends["pool"] == ends["worker"]

        stored, failed = ends["serial"]
        entry = f"{manifest.tasks[0].fingerprint}.json"
        if case in ("checksum", "flaky"):
            assert entry in stored and failed == []
        else:
            assert entry not in stored
            (verdict,) = failed
            assert verdict["label"] == case
        if case == "flaky":
            assert counter.read_text() == "2"
        if case == "always_fails":
            assert verdict["attempts"] == 2
            assert len(verdict["backoff_s"]) == 1
            assert not verdict["timed_out"]
            assert verdict["partial"] is None
        if case == "aborted":
            assert verdict["attempts"] == 1
            assert verdict["backoff_s"] == []
            assert verdict["timed_out"]
            assert verdict["partial"] == {"events": 9}


class TestRunTasksSigterm:
    """``run_tasks`` keeps what it collected on SIGTERM, as on ^C."""

    def make_tasks(self, tmp_path, labels):
        def ok(label):
            return {"label": label}
        tasks = []
        for label in labels:
            fn = ok if label != "boom" else \
                (lambda label: _self_term(str(tmp_path / "marker")))
            tasks.append(Task(
                fn=fn, kwargs={"label": label}, label=label,
                fingerprint=parallel.fingerprint(
                    "demo", {"label": label}),
                kind="demo", encode=lambda v: v, decode=lambda v: v))
        return tasks

    def test_sigterm_flushes_completed_results(self, tmp_path):
        tasks = self.make_tasks(tmp_path, ["a", "b", "boom"])
        with pytest.raises(TerminateSweep):
            run_tasks(tasks, workers=1, cache_dir=tmp_path / "cache")
        cache = ResultCache(tmp_path / "cache")
        assert cache.load(tasks[0].fingerprint) == {"label": "a"}
        assert cache.load(tasks[1].fingerprint) == {"label": "b"}
        assert cache.load(tasks[2].fingerprint) is None
        # The previous SIGTERM disposition came back.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_pool_workers_get_default_sigterm(self, tmp_path):
        """Workers must die on ``Pool.terminate()``'s SIGTERM, while the
        parent still converts its own SIGTERM and flushes."""
        marker = str(tmp_path / "marker")
        tasks = [
            Task(fn=fn, kwargs={"marker": marker}, label=label,
                 fingerprint=parallel.fingerprint("demo",
                                                  {"label": label}),
                 kind="demo", encode=lambda v: v, decode=lambda v: v)
            for label, fn in (("probe", _report_sigterm_disposition),
                              ("term", _term_parent_after))]
        with pytest.raises(TerminateSweep):
            run_tasks(tasks, workers=2, cache_dir=tmp_path / "cache",
                      progress=None)
        cache = ResultCache(tmp_path / "cache")
        assert cache.load(tasks[0].fingerprint) == \
            {"sigterm_default": True}
        assert cache.load(tasks[1].fingerprint) is None
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_backoff_records_actual_sleep_on_interrupt(self, tmp_path,
                                                       monkeypatch):
        """Satellite: interrupted backoff logs slept time, not the plan."""
        def explode(*args, **kwargs):
            raise KeyboardInterrupt()
        monkeypatch.setattr(parallel, "_sleep", explode)
        task = Task(fn=_raise_value_error, kwargs={}, label="fail",
                    fingerprint="", kind="demo",
                    encode=lambda v: v, decode=lambda v: v)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            run_tasks([task], workers=1, retries=2,
                      backoff_base_s=10.0)
        failed = excinfo.value.failed_run
        assert failed.interrupted
        assert failed.attempts == 1
        # The planned delay was ~10s+; none of it was actually slept.
        assert len(failed.backoff_s) == 1
        assert failed.backoff_s[0] < 1.0
        assert "interrupted during retry backoff" in failed.error
        assert json.loads(json.dumps(failed.to_dict()))["interrupted"]


class TestResumeWorkers:
    """``resume --workers N``: workers started from this process."""

    def test_finishes_quietly_with_every_workers_metrics(
            self, tmp_path, monkeypatch, capfd):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=6))
        process = multiprocessing.get_context().Process
        real_start = process.start
        threads_at_start = []

        def start(self):
            threads_at_start.append(threading.active_count())
            real_start(self)

        monkeypatch.setattr(process, "start", start)
        assert sweep_main(["resume", str(sweep.root), "--workers", "2",
                           "--quiet"]) == 0
        # Forking is safe only while this process has one thread.
        assert threads_at_start == [1, 1]
        counts = sweep.status()["counts"]
        assert counts == {"done": 6, "quarantined": 0, "leased": 0,
                          "pending": 0}
        assert LeaseStore(sweep.lease_dir).holders() == {}
        for worker_id in ("resume-w0", "resume-w1"):
            assert (sweep.metrics_dir / f"{worker_id}.json").exists()
        # --quiet reaches the started workers: no per-task narration.
        assert "[resume-w" not in capfd.readouterr().err
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_starts_no_more_workers_than_unfinished_tasks(
            self, tmp_path, monkeypatch):
        # Process constructions are counted; nothing is started.
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=2))
        started = []
        idle = types.SimpleNamespace(start=lambda: None, join=lambda: None,
                                     pid=None, exitcode=0)
        monkeypatch.setattr(
            sweep_cli.multiprocessing, "get_context",
            lambda: types.SimpleNamespace(Process=lambda name, **kwargs:
                                          started.append(name) or idle))
        assert sweep_cli.start_workers(str(sweep.root), 8, WorkerConfig(
            worker_id="resume-w0"), quiet=True) == 0
        assert started == ["resume-w0", "resume-w1"]

    def test_without_quiet_workers_narrate(self, tmp_path, capfd):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=2))
        assert sweep_main(["resume", str(sweep.root),
                           "--workers", "2"]) == 0
        err = capfd.readouterr().err
        assert "done   task-0" in err and "done   task-1" in err

    def test_more_workers_than_cores_run_each_task_once(self, tmp_path):
        # Four workers race for 40 one-task shards while this process
        # keeps probing the locks: exactly one execution per task.
        log = tmp_path / "runs.log"
        labels = [f"t{i}" for i in range(40)]
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest_from_callables("stress", [
            {"label": label, "fn": "tests.test_sweep_fabric:_log_run",
             "kwargs": {"label": label, "log": str(log)}}
            for label in labels]))
        repo_root = os.path.dirname(SRC_DIR)
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep.cli", "resume",
             str(sweep.root), "--workers", "4", "--quiet"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [SRC_DIR, repo_root] + os.environ.get("PYTHONPATH", "")
                .split(os.pathsep))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        store = LeaseStore(sweep.lease_dir)
        try:
            deadline = time.monotonic() + 120  # simlint: allow[D103] subprocess watchdog
            while (parent.poll() is None
                   and time.monotonic() < deadline):  # simlint: allow[D103] subprocess watchdog
                store.holders()
        finally:
            if parent.poll() is None:
                parent.kill()
            code = parent.wait(timeout=30)
        assert code == 0
        assert sorted(log.read_text().split()) == sorted(labels)
        assert store.holders() == {}

    def test_propagates_a_workers_exit_code(self, tmp_path):
        # Two tasks: one would run in this process, and take it down.
        manifest = manifest_from_callables("dies", [
            {"label": f"dies-{i}",
             "fn": "tests.test_sweep_fabric:_exit_worker",
             "kwargs": {"code": 7}} for i in range(2)])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        assert sweep_main(["resume", str(sweep.root), "--workers", "2",
                           "--quiet"]) == 7

    def test_tolerates_interrupted_workers(self, tmp_path):
        manifest = manifest_from_callables("term", [
            {"label": "ok", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "ok", "seed": 0, "rounds": 5}},
            {"label": "boom", "fn": "tests.test_sweep_fabric:_self_term",
             "kwargs": {"marker": str(tmp_path / "marker")}}])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        # Each worker that meets "boom" SIGTERMs itself, releases its
        # lock and exits EXIT_INTERRUPTED; resume reports the hole
        # (exit 1) instead of passing that code on.
        assert sweep_main(["resume", str(sweep.root), "--workers", "2",
                           "--quiet"]) == 1
        counts = sweep.status()["counts"]
        assert counts == {"done": 1, "quarantined": 0, "leased": 0,
                          "pending": 1}

    def test_sigterm_to_the_parent_stops_and_reaps_workers(
            self, tmp_path):
        manifest = manifest_from_callables("slow", [
            {"label": f"slow-{i}",
             "fn": "repro.sweep.tasks:slow_checksum",
             "kwargs": {"label": f"slow-{i}", "seed": i, "rounds": 5,
                        "wall_s": 60.0}} for i in range(2)])
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_DIR] + os.environ.get("PYTHONPATH", "")
            .split(os.pathsep)))
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep.cli", "resume",
             str(sweep.root), "--workers", "2", "--quiet"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            store = LeaseStore(sweep.lease_dir)
            deadline = time.monotonic() + 60  # simlint: allow[D103] subprocess watchdog
            while time.monotonic() < deadline:  # simlint: allow[D103] subprocess watchdog
                pids = [record.get("pid")
                        for record in store.holders().values()]
                if len(pids) == 2 and None not in pids:
                    break
                assert parent.poll() is None
                time.sleep(0.02)
            assert len(pids) == 2 and parent.pid not in pids
            parent.send_signal(signal.SIGTERM)
            assert parent.wait(timeout=30) == EXIT_INTERRUPTED
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=30)
        # Both workers released their locks and were joined: the
        # parent left no live (or zombie) child behind.
        assert store.holders() == {}
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestColdStart:
    def test_import_repro_loads_neither_numpy_nor_networkx(self):
        """What every CLI call and fresh-interpreter worker pays."""
        probe = ("import sys, repro, repro.sweep.cli, "
                 "repro.experiments.cli; "
                 "print(sorted({'numpy', 'networkx'} "
                 "& set(sys.modules)))")
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True,
            text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "[]"


class TestCachePrune:
    def seed_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store("aaaa", "demo", "good-1", {"x": 1})
        cache.store("bbbb", "demo", "good-2", {"x": 2})
        return cache

    def test_prune_removes_corrupt_and_truncated(self, tmp_path):
        cache = self.seed_cache(tmp_path)
        root = tmp_path / "cache"
        (root / "cccc.json").write_text("{\"cache_version\": 1, tru")
        (root / "dddd.json").write_text(json.dumps(
            {"cache_version": 99, "payload": {}}))
        (root / "eeee.json.tmp").write_text("orphaned temp")
        report = cache.prune()
        assert report["kept"] == 2
        assert sorted(report["removed"]) == [
            "cccc.json", "dddd.json", "eeee.json.tmp"]
        assert report["reclaimed_bytes"] > 0
        assert cache.load("aaaa") == {"x": 1}
        assert cache.load("bbbb") == {"x": 2}
        # Idempotent: a second pass finds nothing to do.
        assert cache.prune()["removed"] == []

    def test_cache_gc_cli(self, tmp_path, capsys):
        self.seed_cache(tmp_path)
        (tmp_path / "cache" / "zzzz.json").write_text("not json")
        from repro.experiments.cli import main
        assert main(["cache", "gc", "--cache-dir",
                     str(tmp_path / "cache"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kept"] == 2
        assert report["removed"] == ["zzzz.json"]


class TestSweepCli:
    @pytest.fixture
    def suite_dir(self, tmp_path):
        return write_suite(tmp_path / "suite", tiny_doc("tiny"))

    def test_init_work_status_merge(self, tmp_path, suite_dir, capsys):
        from repro.sweep.cli import main
        sweep_dir = str(tmp_path / "sweep")
        assert main(["init", sweep_dir, "--suite",
                     str(suite_dir)]) == 0
        assert main(["status", sweep_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"] == {"done": 0, "quarantined": 0,
                                    "leased": 0, "pending": 1}
        # merge before completion: exit 1, the hole is reported.
        out = tmp_path / "merged.json"
        assert main(["merge", sweep_dir, "--out", str(out)]) == 1
        document = json.loads(out.read_text())
        assert document["results"][0]["status"] == "missing"
        assert main(["work", sweep_dir, "--worker-id", "cli-w0"]) == 0
        assert main(["status", sweep_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"]["done"] == 1
        assert main(["merge", sweep_dir, "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["results"][0]["status"] == "done"
        assert document["results"][0]["payload"]["discipline"] == "fifo"

    def test_resume_completes_pending(self, tmp_path, suite_dir):
        from repro.sweep.cli import main
        sweep_dir = str(tmp_path / "sweep")
        assert main(["init", sweep_dir, "--suite",
                     str(suite_dir)]) == 0
        assert main(["resume", sweep_dir, "--quiet"]) == 0
        assert SweepDir(sweep_dir).status()["counts"]["done"] == 1
        # Resume metrics got recorded, in the snapshot of the worker
        # every resume runs.
        metrics = json.loads(
            SweepDir(sweep_dir).metrics_path("resume-w0").read_text())
        names = {m["name"] for m in metrics["counters"]}
        assert "sweep_resumes_total" in names

    def test_fleet_counts_accumulate_over_resumes(self, tmp_path,
                                                  suite_dir, capsys):
        # Every resume reuses the worker ids resume-w<i>: a later one
        # must carry the earlier snapshots on, not overwrite them.
        from repro.sweep.cli import main
        sweep_dir = str(tmp_path / "sweep")
        assert main(["run", sweep_dir, "--suite", str(suite_dir),
                     "--workers", "2", "--quiet"]) == 0
        for _ in range(2):
            assert main(["resume", sweep_dir, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["watch", sweep_dir, "--once", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["tasks_completed"] == doc["total"] == 1
        assert doc["totals"]["resumes"] == 3
        assert doc["cache_hit_ratio"] == 0.0

    @pytest.mark.parametrize("command", ["init", "run"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--shard-size", "0", "shard_size must be >= 1"),
        ("--backend", "bogus", "invalid choice: 'bogus'")])
    def test_usage_errors_exit_2_without_a_traceback(
            self, tmp_path, suite_dir, capsys, command, flag, value,
            message):
        from repro.sweep.cli import main
        try:
            code = main([command, str(tmp_path / "sweep"), "--suite",
                         str(suite_dir), flag, value])
        except SystemExit as exc:    # argparse's own usage errors
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "error:" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("command, workers",
                             [("resume", "0"), ("run", "-3")])
    def test_workers_below_one_is_a_usage_error(
            self, tmp_path, suite_dir, capsys, command, workers):
        suite = ["--suite", str(suite_dir)] if command == "run" else []
        with pytest.raises(SystemExit, match="2"):
            sweep_main([command, str(tmp_path / "sweep"), "--workers",
                        workers] + suite)
        assert "argument --workers: must be an integer of at least 1" \
            in capsys.readouterr().err.strip().splitlines()[-1]
        assert not (tmp_path / "sweep").exists()

    def test_watch_once_json_byte_stable(self, tmp_path, suite_dir,
                                         capsys):
        from repro.sweep.cli import main
        sweep_dir = str(tmp_path / "sweep")
        assert main(["init", sweep_dir, "--suite",
                     str(suite_dir)]) == 0
        assert main(["resume", sweep_dir, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["watch", sweep_dir, "--once", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["watch", sweep_dir, "--once", "--json"]) == 0
        second = capsys.readouterr().out
        # The canonical aggregate document: byte-stable on a finished
        # sweep (no live leases, wall clock out of the picture).
        assert first == second
        doc = json.loads(first)
        assert doc["counts"]["done"] == doc["total"] == 1
        assert doc["eta_s"] == 0.0
        assert doc["integrity"] == {"missing_results": 0,
                                    "orphan_results": 0}
        assert doc["snapshot_errors"] == []
        completed = {row["worker"]: row["completed"]
                     for row in doc["workers"]}
        # One row per worker that ran; the resume count is no worker.
        assert completed == {"resume-w0": 1}

    def test_watch_json_requires_once(self, tmp_path, suite_dir,
                                      capsys):
        from repro.sweep.cli import main
        sweep_dir = str(tmp_path / "sweep")
        assert main(["init", sweep_dir, "--suite",
                     str(suite_dir)]) == 0
        assert main(["watch", sweep_dir, "--json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("interval", ["-1", "0", "nan", "inf"])
    def test_watch_bad_interval_is_a_usage_error(self, tmp_path,
                                                 capsys, interval):
        from repro.sweep.cli import main
        # No sweep directory at all: the value is refused before the
        # manifest would be read.
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(tmp_path / "nowhere"), "--interval",
                  interval])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --interval" in err
        assert "Traceback" not in err

    def test_watch_text_renders_fleet(self, tmp_path, suite_dir,
                                      capsys):
        from repro.sweep.cli import main
        sweep_dir = str(tmp_path / "sweep")
        assert main(["init", sweep_dir, "--suite",
                     str(suite_dir)]) == 0
        assert main(["resume", sweep_dir, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["watch", sweep_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out
        assert "worker" in out

    def test_status_prints_lock_holders(self, tmp_path, suite_dir,
                                        capsys):
        from repro.sweep.cli import main
        sweep_dir = tmp_path / "sweep"
        assert main(["init", str(sweep_dir), "--suite",
                     str(suite_dir)]) == 0
        store = LeaseStore(sweep_dir / "leases")
        lease = store.claim("shard-00000", "lock-w0")
        status = SweepDir(sweep_dir).status()
        assert status["lease_info"] == [{"key": "shard-00000",
                                         "worker": "lock-w0"}]
        assert status["counts"]["leased"] == 1
        assert status["shards"]["0"]["worker"] == "lock-w0"
        capsys.readouterr()
        assert main(["status", str(sweep_dir)]) == 0
        assert "worker=lock-w0" in capsys.readouterr().out
        # Released: the shard is pending again, with no holder.
        store.release(lease)
        status = SweepDir(sweep_dir).status()
        assert status["lease_info"] == []
        assert status["counts"]["pending"] == 1
        assert main(["status", str(sweep_dir)]) == 0
        assert "worker=" not in capsys.readouterr().out

    def test_merge_exits_1_on_a_quarantined_task(self, tmp_path,
                                                 capsys):
        # A pipeline `sweep run && sweep merge && report` must stop at
        # a parked task, not only at a missing one.
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(manifest_from_callables("holes", [
            {"label": "bad", "fn": "repro.sweep.tasks:always_fails",
             "kwargs": {"label": "bad"}},
            {"label": "good", "fn": "repro.sweep.tasks:checksum",
             "kwargs": {"label": "good", "seed": 1, "rounds": 5}}]))
        assert sweep_main(["resume", str(sweep.root), "--quiet",
                           "--retries", "0"]) == 0
        out = tmp_path / "merged.json"
        assert sweep_main(["merge", str(sweep.root),
                           "--out", str(out)]) == 1
        assert "0 missing, 1 quarantined" in capsys.readouterr().err
        statuses = [entry["status"] for entry
                    in json.loads(out.read_text())["results"]]
        assert statuses == ["quarantined", "done"]

    @pytest.mark.parametrize("command", ["status", "work", "resume",
                                         "merge"])
    @pytest.mark.parametrize("damage, message", [
        ("no_source", "entry 1 has no object 'source'"),
        ("bad_index", "entry 1: invalid literal"),
        ("list", "not a list"),
        ("bad_entry", "entry 0 is not an object"),
    ])
    def test_malformed_manifest_exits_2_without_a_traceback(
            self, tmp_path, capsys, command, damage, message):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=2))
        document = json.loads(sweep.manifest_path.read_text())
        if damage == "no_source":
            del document["tasks"][1]["source"]
        elif damage == "bad_index":
            document["tasks"][1]["index"] = "x"
        elif damage == "bad_entry":
            document["tasks"][0] = 7
        else:
            document = document["tasks"]
        sweep.manifest_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert sweep_main([command, str(sweep.root)]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and message in errors[0], captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("record", [
        "[1, 2]", '{"label": "bad"}', '{"failed": "boom"}', '{"fai'])
    def test_malformed_quarantine_record_is_still_a_quarantine(
            self, tmp_path, capsys, record):
        sweep = SweepDir(tmp_path / "s")
        sweep.initialise(callable_manifest(count=2))
        parked = sweep.load_manifest().tasks[0]
        sweep.quarantine_path(parked.fingerprint).write_text(record)
        assert sweep.status()["counts"]["quarantined"] == 1
        assert sweep_main(["resume", str(sweep.root)]) == 0
        assert "unreadable quarantine record" in capsys.readouterr().err
        assert sweep_main(["status", str(sweep.root)]) == 0
        assert "unreadable quarantine record" in capsys.readouterr().out
        out = tmp_path / "merged.json"
        assert sweep_main(["merge", str(sweep.root),
                           "--out", str(out)]) == 1
        entry, done = json.loads(out.read_text())["results"]
        assert entry["status"] == "quarantined"
        assert entry["failed"]["error"].startswith(
            "unreadable quarantine record: ")
        assert done["status"] == "done"

    def test_hybrid_override_keeps_afq_specs_packet(self, tmp_path,
                                                    capsys):
        # sweep init applies suite's --backend rule: a spec running
        # AFQ stays packet, the others go hybrid, same runs either way.
        from repro.suite.cli import main as suite_main
        suite = write_suite(
            tmp_path / "suite",
            tiny_doc("afq_mix", disciplines=["fifo", "afq"]),
            tiny_doc("cebinae_mix", disciplines=["fifo", "cebinae"]))
        assert suite_main([str(suite), "--backend", "hybrid",
                           "--list"]) == 0
        listed = [tuple(line.split())
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  ")]
        sweep_dir = tmp_path / "sweep"
        assert sweep_main(["init", str(sweep_dir), "--suite", str(suite),
                           "--backend", "hybrid"]) == 0
        document = json.loads((sweep_dir / "manifest.json").read_text())
        assert "backend" not in document["specs"]["afq_mix"]
        assert document["specs"]["cebinae_mix"]["backend"] == "hybrid"
        assert [(task["label"].split(":", 1)[1], task["fingerprint"])
                for task in document["tasks"]] == listed
        assert len(listed) == 4
