"""Sweep manifests: the on-disk task list a sweep is resumed from.

The manifest is the fabric's source of truth.  It is written once at
``sweep init`` by :func:`~repro.experiments.parallel.write_durably`
(write-to-temp, fsync, atomic rename), as cache entries are, and never
mutated afterwards: *progress* lives in the result cache (done), the
quarantine directory (parked), and the task locks under ``leases/``
(in flight while held), so any process
can compute the sweep's exact state from the directory alone — which
is what ``sweep watch`` and ``sweep resume`` do after a ``kill -9``.

Each task entry records its index, its label, its cache
``fingerprint`` (shared with the single-pool executor, so warm
figure-sweep caches satisfy sweep tasks and vice versa), and a
``source`` from which :meth:`SweepManifest.task` rebuilds the executable
:class:`~repro.experiments.parallel.Task`:

``{"type": "suite", "spec": name, "run": label}``
    One compiled run of a suite spec, dumbbell or parking lot.  The
    manifest's top-level ``specs`` holds each spec's
    :meth:`~repro.suite.spec.SuiteSpec.to_dict` document once; a
    worker parses and compiles it again, so it runs the task the pool
    runs, and refuses the task if the run's fingerprint is no longer
    the one recorded here.
``{"type": "callable", "fn": "pkg.mod:name", "kwargs": {...}}``
    A generic deterministic function of JSON-able kwargs returning a
    JSON-able value.  It exists so the fabric's tests can run poison,
    flaky and slow tasks (:mod:`repro.sweep.tasks`) in worker
    subprocesses; every paper sweep is a suite sweep.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Union)

from ..experiments.parallel import (CACHE_VERSION, FailedRun, ResultCache,
                                    Task, write_durably)

if TYPE_CHECKING:
    from ..suite.spec import CompiledRun, SuiteSpec

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 3

#: Source documents a manifest task may carry.
SOURCE_TYPES = ("suite", "callable")


class ManifestError(ValueError):
    """A manifest document failed validation or could not be loaded."""


def _atomic_write_json(path: Path, document: Dict[str, Any]) -> None:
    """Durably write ``document`` indented, sorted, newline-terminated."""
    write_durably(path, json.dumps(document, indent=2, sort_keys=True)
                  + "\n")


def resolve_callable(spec: str) -> Callable[..., Any]:
    """Import ``"pkg.mod:qualname"`` back into the function object."""
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ManifestError(
            f"callable spec {spec!r} must look like 'pkg.mod:name'")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ManifestError(f"{spec!r} resolved to non-callable {obj!r}")
    return obj


def _identity(payload: Dict[str, Any]) -> Dict[str, Any]:
    return payload


@dataclass(frozen=True)
class ManifestTask:
    """One fingerprinted unit of sweep work."""

    index: int
    label: str
    fingerprint: str
    kind: str
    source: Dict[str, Any]

    @property
    def lease_key(self) -> str:
        """The name of this task's lock under ``leases/``."""
        return f"task-{self.index:05d}"

    def to_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "label": self.label,
                "fingerprint": self.fingerprint, "kind": self.kind,
                "source": self.source}

    @classmethod
    def from_dict(cls, data: Any, position: int) -> "ManifestTask":
        """Entry ``position`` of a manifest's task list, validated."""
        where = f"manifest task entry {position}"
        if not isinstance(data, dict):
            raise ManifestError(f"{where} is not an object")
        source = data.get("source")
        if not isinstance(source, dict):
            raise ManifestError(f"{where} has no object 'source'")
        if source.get("type") not in SOURCE_TYPES:
            raise ManifestError(
                f"{where} ({data.get('label')!r}): unknown source type "
                f"{source.get('type')!r}; known: {list(SOURCE_TYPES)}")
        try:
            return cls(index=int(data["index"]),
                       label=str(data["label"]),
                       fingerprint=str(data["fingerprint"]),
                       kind=str(data["kind"]), source=dict(source))
        except KeyError as exc:
            raise ManifestError(f"{where} has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{where}: {exc}") from None


@dataclass
class SweepManifest:
    """The immutable task list of one sweep and its suite documents."""

    name: str
    tasks: List[ManifestTask] = field(default_factory=list)
    #: Spec name → its suite document, the source of every suite task.
    specs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Spec name → its compiled runs by label, built on first use.
    _runs: Dict[str, Dict[str, CompiledRun]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {"manifest_version": MANIFEST_VERSION,
                "cache_version": CACHE_VERSION,
                "name": self.name,
                "specs": self.specs,
                "tasks": [task.to_dict() for task in self.tasks]}

    @classmethod
    def from_dict(cls, data: Any) -> "SweepManifest":
        if not isinstance(data, dict):
            raise ManifestError(
                f"a manifest is a JSON object, not a "
                f"{type(data).__name__}")
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"manifest_version {version!r} is not "
                f"{MANIFEST_VERSION}; re-init the sweep")
        if data.get("cache_version") != CACHE_VERSION:
            raise ManifestError(
                f"manifest was built for cache_version "
                f"{data.get('cache_version')!r}, this build uses "
                f"{CACHE_VERSION}; its fingerprints would never match "
                f"— re-init the sweep")
        entries, specs = data.get("tasks", []), data.get("specs", {})
        if not isinstance(entries, list) or not isinstance(specs, dict):
            raise ManifestError(
                "manifest 'tasks' must be a list and 'specs' an object")
        tasks = [ManifestTask.from_dict(entry, position)
                 for position, entry in enumerate(entries)]
        labels = [task.label for task in tasks]
        if len(set(labels)) != len(labels):
            raise ManifestError("manifest task labels collide")
        return cls(name=str(data.get("name", "sweep")), tasks=tasks,
                   specs=dict(specs))

    def _compiled(self, spec_name: str) -> Dict[str, CompiledRun]:
        """One stored spec document, parsed and compiled once."""
        runs = self._runs.get(spec_name)
        if runs is None:
            from ..suite.spec import SuiteSpec
            spec = SuiteSpec.from_dict(
                self.specs[spec_name],
                source=f"manifest specs[{spec_name!r}]")
            runs = self._runs[spec_name] = {
                run.label: run for run in spec.compile()}
        return runs

    def task(self, entry: ManifestTask) -> Task:
        """Rebuild the executable pool task of one manifest entry.

        A suite entry is the pool's task for its run, under the
        manifest label, and only while the run still compiles to the
        recorded fingerprint.  An entry that cannot be rebuilt (a
        damaged document, a callable that no longer imports, a drifted
        fingerprint) raises :class:`ManifestError` naming the task, so
        a worker can park this task and run the rest.
        """
        source = entry.source
        try:
            if source["type"] == "callable":
                return Task(fn=resolve_callable(source["fn"]),
                            kwargs=dict(source.get("kwargs", {})),
                            label=entry.label,
                            fingerprint=entry.fingerprint,
                            kind=entry.kind, encode=_identity,
                            decode=_identity)
            run = self._compiled(source["spec"])[source["run"]]
        except (KeyError, TypeError, ValueError, AttributeError,
                ImportError) as exc:
            raise ManifestError(
                f"task {entry.label!r}: its manifest source cannot be "
                f"rebuilt: {type(exc).__name__}: {exc}") from exc
        if run.fingerprint() != entry.fingerprint:
            raise ManifestError(
                f"task {entry.label!r}: its spec document now compiles "
                f"to fingerprint {run.fingerprint()}, not the "
                f"manifest's {entry.fingerprint}; re-init the sweep")
        return dataclasses.replace(run.task(), label=entry.label)


def manifest_from_specs(name: str,
                        specs: Iterable[SuiteSpec]) -> SweepManifest:
    """Compile :class:`~repro.suite.spec.SuiteSpec`s into one manifest.

    Each spec's document is stored once, and each task's fingerprint
    is the one that stored document compiles to, the one a worker
    checks.  Tasks go spec by spec, each spec's runs in compile order,
    and each label is prefixed with its owning spec's name so runs of
    different specs cannot collide.
    """
    documents = [(spec.name, spec.to_dict()) for spec in specs]
    manifest = SweepManifest(name=name, specs=dict(documents))
    if len(manifest.specs) != len(documents):
        raise ManifestError("suite spec names collide")
    runs = [(spec_name, run) for spec_name in manifest.specs
            for run in manifest._compiled(spec_name).values()]
    manifest.tasks = [
        ManifestTask(index=index, label=f"{spec_name}:{run.label}",
                     fingerprint=run.fingerprint(),
                     kind="ScenarioResult",
                     source={"type": "suite", "spec": spec_name,
                             "run": run.label})
        for index, (spec_name, run) in enumerate(runs)]
    return manifest


def manifest_from_callables(name: str,
                            entries: Iterable[Dict[str, Any]]
                            ) -> SweepManifest:
    """A manifest of generic ``pkg.mod:fn`` tasks.

    Each entry needs ``label``, ``fn``, and ``kwargs``; the fingerprint
    is derived from them with the executor's canonical scheme so equal
    entries dedup across sweeps exactly like scenario points do.
    """
    from ..experiments.parallel import fingerprint as _fingerprint
    tasks: List[ManifestTask] = []
    for index, entry in enumerate(entries):
        kwargs = dict(entry.get("kwargs", {}))
        tasks.append(ManifestTask(
            index=index, label=str(entry["label"]),
            fingerprint=_fingerprint(
                "callable", {"fn": entry["fn"], "kwargs": kwargs}),
            kind="callable",
            source={"type": "callable", "fn": str(entry["fn"]),
                    "kwargs": kwargs}))
    return SweepManifest(name=name, tasks=tasks)


# --------------------------------------------------------------------------
# The sweep directory: manifest + cache + leases + quarantine + metrics.
# --------------------------------------------------------------------------

class SweepDir:
    """Filesystem layout and derived state of one sweep directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths -------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def lease_dir(self) -> Path:
        return self.root / "leases"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def metrics_dir(self) -> Path:
        return self.root / "metrics"

    def metrics_path(self, worker_id: str) -> Path:
        """Where worker ``worker_id`` publishes its metrics snapshot."""
        return self.metrics_dir / f"{worker_id}.json"

    # -- lifecycle ---------------------------------------------------------
    def initialise(self, manifest: SweepManifest) -> None:
        """Create the directory tree and persist the manifest.

        Re-initialising over an existing manifest is refused unless the
        task lists agree (same labels and fingerprints) — progress made
        under the old manifest would otherwise be silently misread.
        """
        if self.manifest_path.exists():
            existing = self.load_manifest()
            ours = [(t.label, t.fingerprint) for t in manifest.tasks]
            theirs = [(t.label, t.fingerprint) for t in existing.tasks]
            if ours != theirs:
                raise ManifestError(
                    f"{self.manifest_path} already holds a different "
                    f"manifest ({len(theirs)} task(s)); point at a "
                    f"fresh directory")
        for directory in (self.root, self.cache_dir, self.lease_dir,
                          self.quarantine_dir, self.metrics_dir):
            directory.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.manifest_path, manifest.to_dict())

    def load_manifest(self) -> SweepManifest:
        try:
            with open(self.manifest_path, "r",
                      encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise ManifestError(
                f"no manifest at {self.manifest_path}; run "
                f"'cebinae-repro sweep init' first") from None
        except ValueError as exc:
            raise ManifestError(
                f"{self.manifest_path}: corrupt manifest: {exc}"
                ) from exc
        return SweepManifest.from_dict(data)

    def cache(self) -> ResultCache:
        return ResultCache(self.cache_dir)

    # -- derived task state ------------------------------------------------
    def is_done(self, fingerprint: str) -> bool:
        """Done == the atomic cache entry exists (complete by construction)."""
        return (self.cache_dir / f"{fingerprint}.json").exists()

    def quarantine_path(self, fingerprint: str) -> Path:
        return self.quarantine_dir / f"{fingerprint}.json"

    def is_quarantined(self, fingerprint: str) -> bool:
        return self.quarantine_path(fingerprint).exists()

    def quarantine(self, task: ManifestTask, failed: FailedRun,
                   worker_id: str) -> None:
        """Park a deterministic failure (atomic, idempotent)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.quarantine_path(task.fingerprint), {
            "quarantine_version": 1,
            "label": task.label,
            "fingerprint": task.fingerprint,
            "worker_id": worker_id,
            "failed": failed.to_dict()})

    def quarantined(self) -> Dict[str, Dict[str, Any]]:
        """Fingerprint → quarantine record, each with an object ``failed``.

        A record that cannot be read, is not an object or has no object
        ``failed`` still parks its task, as its file's existence does
        for :meth:`is_quarantined`: its ``failed`` becomes ``{"error":
        "unreadable quarantine record: ..."}``, so ``watch``, ``merge``
        and ``resume`` agree on it.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.quarantine_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                if not isinstance(record.get("failed"), dict):
                    raise ValueError("no object 'failed'")
            except (OSError, ValueError) as exc:
                record = {"failed": {
                    "error": f"unreadable quarantine record: {exc}"}}
            out[path.stem] = record
        return out

    def outcomes(self) -> List[Dict[str, Any]]:
        """How each manifest task ended, in manifest order.

        One ``{"label", "fingerprint", "status"}`` entry per task, with
        the cached ``payload`` when ``status`` is ``"done"``, the
        quarantine record's ``failed`` when it is ``"quarantined"``,
        and neither when the task is still ``"missing"``.  The one
        read-back of a sweep directory: ``sweep merge`` writes these
        entries out and ``sweep resume`` names the quarantined ones.
        """
        cache = self.cache()
        quarantined = self.quarantined()
        entries: List[Dict[str, Any]] = []
        for task in self.load_manifest().tasks:
            entry: Dict[str, Any] = {"label": task.label,
                                     "fingerprint": task.fingerprint}
            payload = cache.load(task.fingerprint)
            if payload is not None:
                entry["status"] = "done"
                entry["payload"] = payload
            elif task.fingerprint in quarantined:
                entry["status"] = "quarantined"
                entry["failed"] = quarantined[task.fingerprint]["failed"]
            else:
                entry["status"] = "missing"
            entries.append(entry)
        return entries

    def status(self) -> Dict[str, Any]:
        """The sweep's progress, computed from the directory alone.

        A task is ``leased`` while a live worker holds its lock;
        ``lease_info`` lists each held lock's ``key`` (a task's
        :attr:`~ManifestTask.lease_key`) and the ``worker`` its lock
        file names.
        """
        from .lease import LeaseStore
        manifest = self.load_manifest()
        leased = {key: str(record["worker"]) for key, record
                  in LeaseStore(self.lease_dir).holders().items()}
        counts = {"done": 0, "quarantined": 0, "leased": 0,
                  "pending": 0}
        for task in manifest.tasks:
            if self.is_done(task.fingerprint):
                state = "done"
            elif self.is_quarantined(task.fingerprint):
                state = "quarantined"
            elif task.lease_key in leased:
                state = "leased"
            else:
                state = "pending"
            counts[state] += 1
        return {"name": manifest.name,
                "total": len(manifest.tasks),
                "counts": counts,
                "lease_info": [{"key": key, "worker": worker}
                               for key, worker in sorted(leased.items())]}
