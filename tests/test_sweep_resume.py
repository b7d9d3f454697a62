"""Kill-resume property: a murdered sweep resumes byte-identically.

The fabric's headline guarantee is that SIGKILLing a worker at *any*
point — between tasks, mid-task, holding a task lock — loses nothing:
the kernel drops the dead worker's lock, ``sweep resume`` re-runs
whatever lacks a cache entry, and the merged result document is
byte-identical to an uninterrupted run, because results are keyed by
deterministic fingerprints and written atomically.

Hypothesis drives the kill point (how many tasks the victim completes
before the SIGKILL).  The victim is a real
``python -m repro.sweep.cli work`` subprocess so the kill exercises the
honest path: a lock held by a process that dies, no graceful flush.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep.cli import main as sweep_main
from repro.sweep.lease import LeaseStore
from repro.sweep.manifest import SweepDir, manifest_from_callables

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")

TASK_COUNT = 6

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="POSIX-only chaos drill")


def small_manifest():
    return manifest_from_callables("resume-drill", [
        {"label": f"task-{i}",
         "fn": "repro.sweep.tasks:checksum",
         "kwargs": {"label": f"task-{i}", "seed": i, "rounds": 50}}
        for i in range(TASK_COUNT)])


def merged_document(sweep_dir):
    manifest = SweepDir(sweep_dir).load_manifest()
    cache = SweepDir(sweep_dir).cache()
    payloads = [cache.load(task.fingerprint)
                for task in manifest.tasks]
    return json.dumps(payloads, sort_keys=True)


def worker_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_DIR] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def run_victim(sweep_dir, max_tasks):
    """A real worker subprocess, SIGKILLed after ``max_tasks`` tasks.

    ``--max-tasks`` parks the worker at an exact progress point (it
    idles afterwards only because it exits); killing it right after
    makes dying with a task locked plausible but not required — the
    property must hold either way.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.sweep.cli", "work",
         str(sweep_dir), "--worker-id", "victim",
         "--max-tasks", str(max_tasks)],
        env=worker_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60  # simlint: allow[D103] subprocess watchdog
    while time.monotonic() < deadline:  # simlint: allow[D103] subprocess watchdog
        done = SweepDir(sweep_dir).status()["counts"]["done"]
        if done >= max_tasks or proc.poll() is not None:
            break
        time.sleep(0.02)  # simlint: allow[D103] subprocess poll pacing
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()
    # Dead, so it holds nothing: the kernel dropped its lock.
    assert LeaseStore(SweepDir(sweep_dir).lease_dir).holders() == {}


class TestKillResume:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(kill_after=st.integers(min_value=0,
                                  max_value=TASK_COUNT - 1))
    def test_resume_after_sigkill_is_byte_identical(
            self, tmp_path_factory, kill_after):
        root = tmp_path_factory.mktemp("drill")
        baseline_dir = root / "baseline"
        murdered_dir = root / "murdered"
        for directory in (baseline_dir, murdered_dir):
            SweepDir(directory).initialise(small_manifest())

        # Uninterrupted reference run, in-process.
        assert sweep_main(["resume", str(baseline_dir),
                           "--quiet"]) == 0
        baseline = merged_document(baseline_dir)

        # The victim completes ``kill_after`` tasks, then dies hard
        # (either SIGKILLed mid-idle or already exited at its budget —
        # both leave a sweep that must resume cleanly).
        run_victim(murdered_dir, kill_after)
        status = SweepDir(murdered_dir).status()
        assert status["counts"]["done"] >= kill_after

        # Resume (nothing to break or wait out) and demand
        # byte-identity.
        assert sweep_main(["resume", str(murdered_dir),
                           "--quiet"]) == 0
        counts = SweepDir(murdered_dir).status()["counts"]
        assert counts["done"] == TASK_COUNT
        assert counts["pending"] == 0
        assert counts["quarantined"] == 0
        assert merged_document(murdered_dir) == baseline
        assert LeaseStore(murdered_dir / "leases").holders() == {}


class TestScenarioKillResume:
    """One non-property drill over *real simulations*.

    The callable drill above proves the fabric machinery; this proves
    the byte-identity claim for actual ScenarioResult payloads.
    """

    def test_partial_sweep_resumes_to_reference(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "drill.json").write_text(json.dumps({
            "schema_version": 1, "name": "drill",
            "scenario": {"rate_bps": 100e6, "rtts_ms": [20, 30],
                         "buffer_mtus": 60,
                         "cca_mix": [["newreno", 1], ["newreno", 1]],
                         "duration_s": 2.0},
            "policy": {"target_rate_bps": 5e6, "max_rate_bps": 5e6},
            "disciplines": ["fifo", "cebinae"], "repeats": 1}))
        baseline_dir = tmp_path / "baseline"
        partial_dir = tmp_path / "partial"
        for directory in (baseline_dir, partial_dir):
            assert sweep_main(["init", str(directory), "--suite",
                               str(suite)]) == 0
        assert sweep_main(["resume", str(baseline_dir),
                           "--quiet"]) == 0
        # Simulate a crash after one task: run with a budget, then
        # leave what a dead or damaged holder would: an unlocked lock
        # file with a garbage record, and a lease file of the older
        # format whose timestamp lies in the future.
        assert sweep_main(["work", str(partial_dir), "--worker-id",
                           "crashed", "--max-tasks", "1"]) == 0
        store_dir = partial_dir / "leases"
        (store_dir / "task-00001.lock").write_text('{"worker": "cra')
        (store_dir / "task-00001.lease").write_text(json.dumps({
            "key": "task-00001", "worker_id": "ghost",
            "renewed_unix": 4e9}))
        # Neither is held, so resume finishes at once.
        done = subprocess.run(
            [sys.executable, "-m", "repro.sweep.cli", "resume",
             str(partial_dir), "--quiet"],
            env=worker_env(), capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert merged_document(partial_dir) == \
            merged_document(baseline_dir)
