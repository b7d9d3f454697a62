"""``repro.sweep``: the crash-resumable sweep fabric.

A *sweep* is a directory on disk that fully describes a parameter
study and its progress — no Python state survives anywhere else:

* ``manifest.json`` — the versioned, fsynced list of fingerprinted
  tasks and the suite documents they compile from
  (:mod:`repro.sweep.manifest`), written once at init;
* ``cache/`` — the standard fingerprint-keyed
  :class:`~repro.experiments.parallel.ResultCache` that results stream
  into as they finish (a task is *done* iff its entry exists);
* ``leases/`` — one lock file per task, held under ``flock`` by the
  worker running it (:mod:`repro.sweep.lease`), so N independent worker
  processes on one host share the manifest without a coordinator;
* ``quarantine/`` — deterministic failures, parked after the retry
  budget instead of wedging the sweep;
* ``metrics/`` — one labelled metrics snapshot per worker.

Workers (:mod:`repro.sweep.worker`, CLI ``cebinae-repro sweep work``)
are crash-isolated: the kernel drops a SIGKILLed worker's task lock,
so any survivor or a later ``sweep resume`` re-claims the task;
because results are keyed by the same fingerprints the single-pool
executor uses, re-execution after a crash is idempotent and the merged
result set is byte-identical to an uninterrupted run.
"""

from .lease import Lease, LeaseStore
from .manifest import (MANIFEST_VERSION, ManifestTask, SweepDir,
                       SweepManifest, manifest_from_specs)
from .worker import SweepWorker, WorkerConfig, WorkerReport

__all__ = [
    "Lease", "LeaseStore", "MANIFEST_VERSION", "ManifestTask",
    "SweepDir", "SweepManifest", "SweepWorker", "WorkerConfig",
    "WorkerReport", "manifest_from_specs",
]
