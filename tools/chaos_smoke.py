#!/usr/bin/env python3
"""CI chaos drill for the sweep fabric (the ``chaos-smoke`` job).

Proves the fabric's end-to-end recovery guarantee on real simulations:

1. Build a small suite (12 scenario points) in a temp directory and
   run it once, uninterrupted, for the reference merged document.
2. ``sweep init`` a second sweep over the same suite and launch three
   worker subprocesses against it.
3. Murder the fleet mid-flight: SIGKILL worker 0 (no flush; the
   kernel must drop its shard lock at once, checked before any
   resume), SIGTERM worker 1 (graceful: lock released, completed
   results flushed), and SIGTERM worker 2 a little later.
4. ``sweep resume --workers 2`` and assert: zero pending, zero
   quarantined, no shard held, no duplicate or missing fingerprints,
   and a merged result document **byte-identical** to the
   uninterrupted reference.

Artifacts (manifest, final status, worker/resume metrics, both merged
documents) are copied to ``--out-dir`` for CI upload.

Exit status 0 on success; any violated guarantee raises.

Usage: PYTHONPATH=src python tools/chaos_smoke.py [--out-dir DIR]
                                                  [--duration 6.0]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sweep.cli import main as sweep_main           # noqa: E402
from repro.sweep.lease import LeaseStore                 # noqa: E402
from repro.sweep.manifest import SweepDir                # noqa: E402

#: (cca_mix, disciplines) axes: 12 points = 6 scenarios x 2 disciplines.
MIXES = (
    [["newreno", 1], ["newreno", 1]],
    [["newreno", 2], ["vegas", 1]],
    [["cubic", 1], ["newreno", 1]],
)


def write_suite(directory: Path, duration_s: float) -> None:
    directory.mkdir(parents=True)
    for index, mix in enumerate(MIXES):
        (directory / f"chaos{index}.json").write_text(json.dumps({
            "schema_version": 1,
            "name": f"chaos{index}",
            "scenario": {"rate_bps": 100e6,
                         "rtts_ms": [20, 30],
                         "buffer_mtus": 60,
                         "cca_mix": mix,
                         "duration_s": duration_s},
            "policy": {"target_rate_bps": 5e6, "max_rate_bps": 5e6},
            "disciplines": ["fifo", "cebinae"],
            "repeats": 2,
        }, indent=2))


def spawn_worker(sweep_dir: Path, worker_id: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.sweep.cli", "work",
         str(sweep_dir), "--worker-id", worker_id],
        env=env)


def wait_for_done(sweep_dir: Path, minimum: int, timeout_s: float,
                  procs) -> int:
    """Block until ``minimum`` tasks are done (or every worker exited)."""
    deadline = time.monotonic() + timeout_s  # simlint: allow[D103] chaos-drill orchestration
    while time.monotonic() < deadline:  # simlint: allow[D103] chaos-drill orchestration
        done = SweepDir(sweep_dir).status()["counts"]["done"]
        if done >= minimum:
            return done
        if all(proc.poll() is not None for proc in procs):
            return done
        time.sleep(0.05)
    raise AssertionError(
        f"timed out waiting for {minimum} completed task(s)")


def watch_json(sweep_dir: Path):
    """One ``sweep watch --once --json`` pass: (document, raw text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = sweep_main(["watch", str(sweep_dir), "--once", "--json"])
    assert code == 0, f"watch of {sweep_dir} exited {code}"
    text = buffer.getvalue()
    return json.loads(text), text


def merge(sweep_dir: Path, out: Path) -> dict:
    code = sweep_main(["merge", str(sweep_dir), "--out", str(out)])
    assert code == 0, f"merge of {sweep_dir} exited {code}"
    return json.loads(out.read_text())


def run_drill(root: Path, out_dir: Path, duration_s: float) -> None:
    suite = root / "suite"
    write_suite(suite, duration_s)

    # 1. Uninterrupted reference.
    reference_dir = root / "reference"
    assert sweep_main(["init", str(reference_dir), "--suite",
                       str(suite)]) == 0
    assert sweep_main(["resume", str(reference_dir), "--quiet"]) == 0
    reference = merge(reference_dir, out_dir / "merged_reference.json")
    total = len(reference["results"])
    print(f"[chaos] reference sweep done: {total} task(s)")

    # 2. The victim sweep + three workers.
    victim_dir = root / "victim"
    assert sweep_main(["init", str(victim_dir), "--suite",
                       str(suite)]) == 0
    workers = [spawn_worker(victim_dir, f"chaos-w{i}")
               for i in range(3)]

    # 3. Murder schedule: SIGKILL w0 early (no flush), SIGTERM w1
    #    right after (graceful flush), SIGTERM w2 a beat later.
    done_at_kill = wait_for_done(victim_dir, 2, 120.0, workers)
    workers[0].send_signal(signal.SIGKILL)
    workers[0].wait()
    print(f"[chaos] SIGKILLed chaos-w0 at {done_at_kill} done")
    # The kernel dropped the dead worker's lock: no resume, no wait.
    held = LeaseStore(victim_dir / "leases").holders()
    assert all(record["worker"] != "chaos-w0"
               for record in held.values()), held
    workers[1].send_signal(signal.SIGTERM)
    wait_for_done(victim_dir, min(total, done_at_kill + 2), 120.0,
                  [workers[2]])
    workers[2].send_signal(signal.SIGTERM)
    exit_codes = [proc.wait() for proc in workers]
    print(f"[chaos] worker exit codes: {exit_codes}")
    assert exit_codes[0] == -signal.SIGKILL
    # SIGTERMed workers exit 3 (interrupted) — or 0 if the signal
    # landed after their final scan.
    assert exit_codes[1] in (0, 3) and exit_codes[2] in (0, 3)

    interrupted = SweepDir(victim_dir).status()
    print(f"[chaos] post-murder status: {interrupted['counts']}")
    assert interrupted["counts"]["done"] < total, \
        "murder schedule failed to interrupt the sweep; raise --duration"

    # Mid-flight fleet view: the watch aggregate must agree with the
    # sweep's own status even over a half-murdered metrics directory.
    watch_mid, watch_mid_text = watch_json(victim_dir)
    assert watch_mid["counts"] == interrupted["counts"], \
        (watch_mid["counts"], interrupted["counts"])
    assert watch_mid["total"] == total
    (out_dir / "watch_post_murder.json").write_text(watch_mid_text)

    # 4. Resume and verify every guarantee.
    assert sweep_main(["resume", str(victim_dir), "--workers", "2",
                       "--quiet"]) == 0
    final = SweepDir(victim_dir).status()
    assert final["counts"]["done"] == total, final
    assert final["counts"]["pending"] == 0, final
    assert final["counts"]["quarantined"] == 0, final
    assert LeaseStore(victim_dir / "leases").holders() == {}

    # No duplicated or missing results: one cache entry per manifest
    # fingerprint, exactly.
    manifest = SweepDir(victim_dir).load_manifest()
    fingerprints = {task.fingerprint for task in manifest.tasks}
    entries = {path.stem
               for path in (victim_dir / "cache").glob("*.json")}
    assert entries == fingerprints, (
        f"cache entries != manifest: extra={entries - fingerprints} "
        f"missing={fingerprints - entries}")

    # Post-resume fleet view: nothing lost, nothing duplicated, and
    # the canonical --once --json document is byte-stable on a
    # quiescent sweep (no shard held, wall clock out of the picture).
    watch_final, watch_final_text = watch_json(victim_dir)
    assert watch_final["counts"] == final["counts"], \
        (watch_final["counts"], final["counts"])
    assert watch_final["counts"]["done"] == total
    assert watch_final["integrity"] == {"missing_results": 0,
                                        "orphan_results": 0}, \
        watch_final["integrity"]
    assert watch_final["snapshot_errors"] == []
    _, watch_again_text = watch_json(victim_dir)
    assert watch_again_text == watch_final_text, \
        "watch --once --json is not byte-stable on a finished sweep"
    (out_dir / "watch_final.json").write_text(watch_final_text)
    print(f"[chaos] watch aggregate: 0 lost, 0 duplicated "
          f"({total} task(s) accounted for)")

    merged = merge(victim_dir, out_dir / "merged_resumed.json")
    assert merged["results"] == reference["results"], \
        "resumed merge differs from the uninterrupted reference"
    identical = (out_dir / "merged_resumed.json").read_bytes() == \
        (out_dir / "merged_reference.json").read_bytes()
    assert identical, "merged documents are not byte-identical"
    print(f"[chaos] resumed sweep merged byte-identically "
          f"({total} task(s), 0 lost, 0 duplicated)")

    # 5. Ship the artifacts.
    shutil.copy(victim_dir / "manifest.json",
                out_dir / "manifest.json")
    (out_dir / "status_final.json").write_text(
        json.dumps(final, indent=2, sort_keys=True) + "\n")
    (out_dir / "status_post_murder.json").write_text(
        json.dumps(interrupted, indent=2, sort_keys=True) + "\n")
    metrics_out = out_dir / "metrics"
    if (victim_dir / "metrics").is_dir():
        shutil.copytree(victim_dir / "metrics", metrics_out,
                        dirs_exist_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos drill: murder sweep workers, resume, "
                    "demand byte-identical results.")
    parser.add_argument("--out-dir", default="CHAOS_artifacts",
                        help="artifact directory for CI upload")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="simulated seconds per scenario point; "
                             "longer widens the mid-task kill window")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as root:
        run_drill(Path(root), out_dir, args.duration)
    print("[chaos] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
