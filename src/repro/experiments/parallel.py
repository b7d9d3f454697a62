"""Parallel scenario execution with deterministic replay and caching.

Every point of the paper's evaluation — a Table 2 row under one
discipline, one RTT of Figure 9's sweep, one threshold of Figure 12 —
is an independent simulation, so the sweeps are embarrassingly
parallel.  This module fans them out over a ``multiprocessing`` pool
and memoises finished runs in an on-disk JSON cache so a re-run of a
figure script only simulates the points whose parameters changed.

Three properties make this safe:

* **Determinism** — a run is a pure function of its parameters: the
  engine orders events by ``(time_ns, seq)``, every RNG is seeded from
  the scenario, and no module-level mutable state leaks between runs
  (``tests/test_determinism.py`` pins this down).  A parallel sweep is
  therefore bit-for-bit identical to the serial one.
* **Round-trippable results** — :class:`ScenarioResult` serialises to
  JSON and back without loss, so a cache hit is indistinguishable from
  a fresh simulation.  Fresh results are passed through the same
  encode/decode pair before being returned, guaranteeing parity.
* **Stable keys** — cache entries are keyed by a SHA-256 fingerprint
  of the *complete* run configuration (scenario spec, Cebinae
  parameters, discipline, seed, collection flags) plus a cache-schema
  version, so stale entries can never be confused for current ones.

Typical use::

    specs = [RunSpec(scaled, discipline)
             for discipline in (Discipline.FIFO, Discipline.CEBINAE)]
    comparison, = run_grid(specs, workers=4, cache_dir=".cebinae-cache")
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import random
import signal
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..faults.spec import FaultSpec
from ..faults.watchdog import RunAborted
from .runner import Discipline, ScenarioResult, run_scenario
from .scenarios import ScaledScenario

#: Bump when simulation semantics change in a result-relevant way;
#: invalidates every existing cache entry.
CACHE_VERSION = 1


# --------------------------------------------------------------------------
# Fingerprinting: stable hashes of run parameters.
# --------------------------------------------------------------------------

def _canonical(value: Any) -> Any:
    """Reduce a parameter structure to canonical JSON-able primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _canonical(getattr(value, name))
                for name in sorted(f.name for f in
                                   dataclasses.fields(value))}
    if isinstance(value, Discipline):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} "
                    f"for fingerprinting: {value!r}")


def fingerprint(kind: str, params: Mapping[str, Any]) -> str:
    """A stable hex digest of one run's complete configuration."""
    blob = json.dumps({"cache_version": CACHE_VERSION, "kind": kind,
                       "params": _canonical(dict(params))},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


# --------------------------------------------------------------------------
# Run specifications and failure sentinels.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One (scenario, discipline) point of a sweep."""

    scaled: ScaledScenario
    discipline: Discipline
    collect_series: bool = False
    record_history: bool = False
    seed: int = 0
    #: Deterministic fault injection for this point (None = fault-free).
    faults: Optional[FaultSpec] = None
    #: Simulation backend ("packet" or "hybrid"); see run_scenario.
    backend: str = "packet"
    #: Per-run guards (see run_scenario); they bound execution without
    #: changing what a completed run produces, so they are not part of
    #: the cache fingerprint.
    wall_limit_s: Optional[float] = None
    max_events: Optional[int] = None

    @property
    def label(self) -> str:
        base = f"{self.scaled.spec.name}/{self.discipline.value}"
        if self.seed != 0:
            base = f"{base}@seed{self.seed}"
        if self.faults is not None and self.faults.enabled:
            blob = json.dumps(self.faults.to_dict(), sort_keys=True)
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            base = f"{base}+faults:{digest[:6]}"
        if self.backend != "packet":
            base = f"{base}~{self.backend}"
        return base

    def params(self) -> Dict[str, Any]:
        params: Dict[str, Any] = {
            "scaled": self.scaled, "discipline": self.discipline,
            "collect_series": self.collect_series,
            "record_history": self.record_history,
            "seed": self.seed}
        if self.faults is not None:
            # Included only when set: fault-free fingerprints must stay
            # identical to those minted before fault injection existed,
            # or every populated cache would silently go cold.
            params["faults"] = self.faults
        if self.backend != "packet":
            # Same cache-compat rule: packet-backend fingerprints must
            # match those minted before the hybrid backend existed.
            params["backend"] = self.backend
        return params

    def fingerprint(self) -> str:
        return fingerprint("ScenarioResult", self.params())


@dataclass
class FailedRun:
    """Sentinel recorded when a run kept failing after its retry.

    Sweeps degrade gracefully: one crashing point is logged and
    recorded as a :class:`FailedRun` instead of killing the pool.
    ``timed_out`` marks watchdog/pool-timeout casualties (deterministic
    failures, never retried), ``backoff_s`` records the delay *actually
    slept* before each retry attempt (under an early interrupt the last
    entry is the measured partial sleep, not the planned schedule),
    ``interrupted`` marks a run cut short by SIGINT/SIGTERM rather than
    its own failure, and ``partial`` carries whatever progress snapshot
    an aborted run managed to produce.
    """

    label: str
    error: str
    attempts: int
    timed_out: bool = False
    backoff_s: List[float] = field(default_factory=list)
    partial: Optional[Dict[str, Any]] = None
    interrupted: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready payload (reports persist failures with data)."""
        return {"label": self.label, "error": self.error,
                "attempts": self.attempts, "timed_out": self.timed_out,
                "backoff_s": list(self.backoff_s),
                "partial": self.partial,
                "interrupted": self.interrupted}


class RunFailed(RuntimeError):
    """What :func:`require` raises for a :class:`FailedRun`."""


def require(result: Union[Any, FailedRun]) -> Any:
    """Unwrap a run result, raising :class:`RunFailed` if the run
    failed."""
    if isinstance(result, FailedRun):
        raise RunFailed(
            f"run {result.label!r} failed after {result.attempts} "
            f"attempts: {result.error}")
    return result


# --------------------------------------------------------------------------
# The on-disk result cache.
# --------------------------------------------------------------------------

def write_durably(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so that a reader, possibly in
    another process, sees either the old file or the whole new one,
    never a torn write, even across a crash.

    Write-to-temp beside ``path`` + fsync + ``os.replace``; the temp
    file is unlinked if any step fails.
    """
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, suffix=".tmp", delete=False,
        encoding="utf-8")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of ``<fingerprint>.json`` result payloads."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, fp: str) -> Path:
        return self.directory / f"{fp}.json"

    def load(self, fp: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``fp``, or None (counts hit/miss).

        A corrupted, truncated, or foreign-schema entry is a miss, not
        an error: the run is simply re-simulated and the entry
        overwritten.  ``ValueError`` covers ``json.JSONDecodeError``;
        the rest covers entries that parse but have the wrong shape.
        The payload must be an object, the rule :meth:`prune` deletes
        by, so no entry is both unloadable and kept.
        """
        path = self._path(fp)
        payload = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("cache_version") == CACHE_VERSION:
                payload = entry["payload"]
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError):
            pass
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, fp: str, kind: str, label: str,
              payload: Dict[str, Any]) -> None:
        """Atomically persist one result payload (:func:`write_durably`:
        a reader sees no entry or a complete one)."""
        entry = {"cache_version": CACHE_VERSION, "kind": kind,
                 "label": label, "payload": payload}
        # dumps, not dump: dump always takes json's pure-Python encoder,
        # slower and leaving its closures in a cycle per call; the bytes
        # are the same.
        write_durably(self._path(fp), json.dumps(entry))

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def prune(self) -> Dict[str, Any]:
        """Remove entries :meth:`load` could never return, reclaiming disk.

        A corrupted, truncated, or foreign-schema entry is silently a
        *miss* on the read path — correct, but it lingers on disk
        forever and inflates the cache.  Pruning deletes those entries
        (plus ``*.tmp`` droppings from stores that crashed before their
        atomic rename) and reports what was reclaimed.  Safe alongside
        live writers: stores are atomic (a reader sees either no entry
        or a complete one), so only entries that were *already* broken
        on disk can ever fail validation and be deleted.
        """
        removed: List[str] = []
        reclaimed = 0
        kept = 0
        for path in sorted(self.directory.glob("*.json")):
            valid = False
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                valid = (isinstance(entry, dict)
                         and entry.get("cache_version") == CACHE_VERSION
                         and isinstance(entry.get("payload"), dict))
            except (OSError, ValueError):
                valid = False
            if valid:
                kept += 1
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue  # Vanished underneath us; nothing to reclaim.
            removed.append(path.name)
            reclaimed += size
        for path in sorted(self.directory.glob("*.tmp")):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed.append(path.name)
            reclaimed += size
        return {"kept": kept, "removed": removed,
                "reclaimed_bytes": reclaimed}


# --------------------------------------------------------------------------
# The generic task executor.
# --------------------------------------------------------------------------

@dataclass
class Task:
    """One unit of pool work.

    ``fn(**kwargs)`` must be picklable (a module-level function with
    picklable arguments) and deterministic in its arguments.  ``encode``
    maps its return value to a JSON payload and ``decode`` maps the
    payload back; both run in the parent, and *every* result — cached
    or fresh — passes through them so the two sources are identical.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any]
    label: str
    fingerprint: str = ""          # "" disables caching for this task.
    kind: str = "result"
    encode: Callable[[Any], Dict[str, Any]] = dataclasses.asdict
    decode: Callable[[Dict[str, Any]], Any] = lambda payload: payload


def _call_task(fn: Callable[..., Any],
               kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side wrapper: run one task and time it."""
    started = time.perf_counter()  # simlint: allow[D103] worker timing
    value = fn(**kwargs)
    elapsed = time.perf_counter() - started  # simlint: allow[D103] worker timing
    return {"elapsed_s": elapsed, "value": value}


def _emit(progress: Optional[Callable[[str], None]],
          message: str) -> None:
    if progress is not None:
        progress(message)


def print_progress(message: str) -> None:
    """The default narration sink: one line on stderr, unbuffered."""
    print(message, file=sys.stderr, flush=True)


def positive_seconds(text: str) -> float:
    """argparse ``type=`` for a span of seconds: positive and finite,
    so a bad value is a usage error before anything runs."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, not {text!r}")
    return value


def positive_count(text: str) -> int:
    """argparse ``type=`` for a worker count: an integer of at least 1,
    so a bad value is a usage error before anything runs."""
    if not text.lstrip("+").isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, not {text!r}")
    return int(text)


#: Indirection so tests can observe retry pacing without sleeping.
_sleep = time.sleep


class TerminateSweep(KeyboardInterrupt):
    """SIGTERM, converted to an exception so cleanup runs.

    Subclasses :class:`KeyboardInterrupt` deliberately: every caller
    that already handles Ctrl-C on a sweep (release leases, write
    metrics, re-raise) handles cluster-style kills — CI cancellation,
    batch timeouts, the OOM reaper's polite first pass — identically,
    with no new except-clauses.  It is the one stop exception of both
    schedulers: :func:`run_tasks` and the sweep worker.
    """


@contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Convert SIGTERM to :class:`TerminateSweep` for a with-block.

    Installed only in the main thread of the main interpreter (the
    only place Python accepts signal handlers); elsewhere this is a
    no-op and SIGTERM keeps its default kill semantics.  The previous
    handler is restored on exit, even on error.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum: int, frame: Any) -> None:
        raise TerminateSweep()

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:      # Non-main interpreter or exotic host.
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _default_sigterm_in_worker() -> None:
    """Pool initializer: undo the inherited SIGTERM conversion.

    Fork-started workers inherit :func:`sigterm_as_interrupt`'s
    handler, and ``Pool.terminate()`` stops workers with SIGTERM then
    joins them without a timeout; a worker that turns the signal into
    an exception instead of dying can leave that join waiting for ever.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _backoff_delays(key: str, retries: int, base_s: float) -> List[float]:
    """Exponential backoff delays with deterministic seeded jitter.

    Delays grow as ``base_s * 2**attempt``, each stretched by up to
    +50% jitter from an RNG seeded by SHA-256 of the task's fingerprint
    (or label).  Jitter de-synchronises retries that would otherwise
    stampede a shared resource, and seeding it makes a re-run of the
    same sweep schedule byte-identical retry timing.
    """
    seed = int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
    rng = random.Random(seed)
    return [base_s * (2 ** attempt) * (1.0 + 0.5 * rng.random())
            for attempt in range(retries)]


def _no_retry(exc: BaseException) -> bool:
    """Failures that are deterministic verdicts, not transient crashes.

    A watchdog abort or pool timeout will recur on every attempt (the
    same spec wedges the same way), so retrying only burns wall clock.
    """
    return isinstance(exc, (RunAborted, multiprocessing.TimeoutError))


def _attempt(task: Task) -> Union[Dict[str, Any], Exception]:
    """One in-process attempt: its timed envelope, or what it raised."""
    try:
        return _call_task(task.fn, task.kwargs)
    except Exception as exc:  # noqa: BLE001 - triaged by settle().
        return exc


def settle(task: Task,
           first_attempt: Union[Dict[str, Any], BaseException,
                                None] = None,
           cache: Optional[ResultCache] = None, retries: int = 1,
           backoff_base_s: float = 0.05,
           progress: Optional[Callable[[str], None]] = None
           ) -> Union[Dict[str, Any], FailedRun]:
    """Carry one task from its first attempt to a stored payload or a verdict.

    The one task lifecycle every scheduler shares — the serial path and
    the pool of :func:`run_tasks`, and the sweep worker.
    ``first_attempt`` is the envelope :func:`_call_task` returned, or
    the exception the attempt raised; None makes the first attempt
    here, in-process.  A transient failure is retried in-process (so a
    crashing pool worker cannot take the sweep down with it) after a
    seeded backoff (:func:`_backoff_delays`); a deterministic casualty
    (:func:`_no_retry`) or an exhausted retry budget ends in a
    :class:`FailedRun`.  Success returns ``{"payload", "elapsed_s"}``
    with the encoded payload **already stored** in ``cache`` (when the
    task is fingerprinted): nothing that happens to the caller
    afterwards — an interrupt, a ``kill -9`` — can lose it.

    ``progress`` receives the ``retry`` lines, without a prefix.  An
    interrupt that lands mid-backoff records the *measured* partial
    sleep (not the planned schedule) in a :class:`FailedRun` attached
    to the exception as ``failed_run``, so post-mortems of killed
    sweeps are truthful about what actually happened.
    """
    envelope = _attempt(task) if first_attempt is None else first_attempt
    attempts = 1
    delays = _backoff_delays(task.fingerprint or task.label, retries,
                             backoff_base_s)
    slept: List[float] = []
    while (isinstance(envelope, BaseException) and attempts <= retries
           and not _no_retry(envelope)):
        delay = delays[attempts - 1]
        _emit(progress, f"retry  {task.label} after "
                        f"{type(envelope).__name__}: {envelope} "
                        f"(backoff {delay * 1e3:.0f}ms)")
        # Host-side retry pacing, not simulation time.
        started = time.monotonic()  # simlint: allow[D103] retry pacing
        try:
            _sleep(delay)
        except BaseException as interrupt:
            slept.append(min(
                delay,
                time.monotonic() - started))  # simlint: allow[D103] retry pacing
            setattr(interrupt, "failed_run", FailedRun(
                label=task.label,
                error=f"interrupted during retry backoff after "
                      f"{type(envelope).__name__}: {envelope}",
                attempts=attempts, backoff_s=slept, interrupted=True))
            raise
        slept.append(delay)
        attempts += 1
        envelope = _attempt(task)
    if isinstance(envelope, BaseException):
        # The deterministic verdicts are exactly the timeouts: a pool
        # timeout, or a watchdog abort with its progress snapshot.
        return FailedRun(
            label=task.label,
            error=str(envelope) or type(envelope).__name__,
            attempts=attempts, timed_out=_no_retry(envelope),
            backoff_s=slept,
            partial=envelope.partial
            if isinstance(envelope, RunAborted) else None)
    payload = task.encode(envelope["value"])
    if cache is not None and task.fingerprint:
        cache.store(task.fingerprint, task.kind, task.label, payload)
    return {"payload": payload, "elapsed_s": envelope["elapsed_s"]}


def _describe(result: Any, elapsed_s: float) -> str:
    extra = ""
    events = getattr(result, "events", None)
    duration = getattr(result, "duration_s", None)
    if events is not None and elapsed_s > 0:
        extra += f"  {events / elapsed_s / 1e3:.0f}k ev/s"
    if duration is not None and elapsed_s > 0:
        extra += f"  sim-rate {duration / elapsed_s:.2f}x"
    return f"wall {elapsed_s:.2f}s{extra}"


def run_tasks(tasks: Sequence[Task], workers: Optional[int] = None,
              cache_dir: Union[str, Path, None] = None,
              use_cache: bool = True, retries: int = 1,
              progress: Optional[Callable[[str], None]] = print_progress,
              timeout_s: Optional[float] = None,
              backoff_base_s: float = 0.05
              ) -> List[Union[Any, FailedRun]]:
    """Execute ``tasks``, in order, over a process pool with caching.

    Returns one entry per task, in task order: the decoded result, or a
    :class:`FailedRun` sentinel if the task raised on every attempt.
    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` runs
    serially in-process (no pool).  Either way each task's first
    attempt is handed to :func:`settle` the moment it is collected, so
    its result is in the cache before the next one is looked at: an
    interrupt, a SIGTERM (converted to :class:`TerminateSweep` for the
    duration of the call so cluster-style kills behave like Ctrl-C) or
    a hard kill of this process loses only the points not yet
    collected.

    ``timeout_s`` bounds each pooled task's wall clock from the parent
    side (a backstop for the in-run watchdog; a timed-out task becomes
    a :class:`FailedRun` with ``timed_out`` set and is never retried).
    """
    cache = None
    if cache_dir is not None:
        cache = cache_dir if isinstance(cache_dir, ResultCache) \
            else ResultCache(cache_dir)
    results: List[Union[Any, FailedRun]] = [None] * len(tasks)
    pending: List[int] = []
    for index, task in enumerate(tasks):
        payload = None
        if cache is not None and use_cache and task.fingerprint:
            payload = cache.load(task.fingerprint)
        if payload is not None:
            try:
                results[index] = task.decode(payload)
            except (KeyError, TypeError, ValueError, AttributeError):
                # An object, but not this task's schema: a miss like
                # any other unreadable entry.  Re-simulating overwrites
                # it.
                cache.hits -= 1
                cache.misses += 1
                _emit(progress, f"[parallel] stale  {task.label}")
            else:
                _emit(progress, f"[parallel] cached {task.label}")
                continue
        pending.append(index)

    if not pending:
        return results

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), len(pending)))

    def narrate(message: str) -> None:
        _emit(progress, f"[parallel] {message}")

    def finish(index: int, first_attempt: Any = None) -> None:
        task = tasks[index]
        outcome = settle(task, first_attempt, cache, retries,
                         backoff_base_s, narrate)
        if isinstance(outcome, FailedRun):
            narrate(f"FAILED {task.label}: {outcome.error}")
            results[index] = outcome
            return
        results[index] = task.decode(outcome["payload"])
        narrate(f"done   {task.label}  "
                + _describe(results[index], outcome["elapsed_s"]))

    with sigterm_as_interrupt():
        if workers == 1:
            for index in pending:
                narrate(f"start  {tasks[index].label}")
                finish(index)
        else:
            context = multiprocessing.get_context()
            with context.Pool(
                    processes=workers,
                    initializer=_default_sigterm_in_worker) as pool:
                handles = {}
                for index in pending:
                    task = tasks[index]
                    narrate(f"start  {task.label}")
                    handles[index] = pool.apply_async(
                        _call_task, (task.fn, task.kwargs))
                for index in pending:
                    try:
                        first_attempt = handles[index].get(
                            timeout=timeout_s)
                    except Exception as exc:  # noqa: BLE001 - settled.
                        first_attempt = exc
                    finish(index, first_attempt)
    return results


# --------------------------------------------------------------------------
# The scenario-level API.
# --------------------------------------------------------------------------

def scenario_task(spec: RunSpec) -> Task:
    """The pool :class:`Task` for one scenario point.

    Public so other layers (the declarative suite runner) can mix
    scenario points with their own task kinds in a single
    :func:`run_tasks` call while sharing the same cache fingerprints.
    """
    kwargs: Dict[str, Any] = {
        "scaled": spec.scaled,
        "discipline": spec.discipline,
        "collect_series": spec.collect_series,
        "record_history": spec.record_history,
        "seed": spec.seed}
    if spec.faults is not None:
        kwargs["faults"] = spec.faults
    if spec.backend != "packet":
        kwargs["backend"] = spec.backend
    if spec.wall_limit_s is not None:
        kwargs["wall_limit_s"] = spec.wall_limit_s
    if spec.max_events is not None:
        kwargs["max_events"] = spec.max_events
    return Task(fn=run_scenario,
                kwargs=kwargs,
                label=spec.label,
                fingerprint=spec.fingerprint(),
                kind="ScenarioResult",
                encode=ScenarioResult.to_dict,
                decode=ScenarioResult.from_dict)


def run_many(specs: Sequence[RunSpec], workers: Optional[int] = None,
             cache_dir: Union[str, Path, None] = None,
             use_cache: bool = True, retries: int = 1,
             progress: Optional[Callable[[str], None]] = print_progress,
             timeout_s: Optional[float] = None
             ) -> List[Union[ScenarioResult, FailedRun]]:
    """Run independent scenario points over a process pool.

    Results come back in spec order, each either a
    :class:`ScenarioResult` (identical, field for field, to what the
    serial :func:`~repro.experiments.runner.run_scenario` produces) or
    a :class:`FailedRun` sentinel.  With ``cache_dir`` set, previously
    simulated fingerprints are loaded from disk instead of re-run.
    """
    tasks = [scenario_task(spec) for spec in specs]
    return run_tasks(tasks, workers=workers, cache_dir=cache_dir,
                     use_cache=use_cache, retries=retries,
                     progress=progress, timeout_s=timeout_s)


# --------------------------------------------------------------------------
# A table or figure is a list of RunSpecs, grouped by scenario.
# --------------------------------------------------------------------------

#: The paper's three-way comparison, in its tables' column order.
THREE_WAY = (Discipline.FIFO, Discipline.FQ, Discipline.CEBINAE)


@dataclass
class Comparison:
    """One scaled scenario and its runs under each discipline.

    ``runs`` holds each discipline's results in repeat order, one per
    seed of the point (a suite document's ``repeats``); ``results`` is
    the repeat-0 view every one-repeat report reads.
    """

    scaled: ScaledScenario
    runs: Dict[Discipline, List[ScenarioResult]]

    @property
    def results(self) -> Dict[Discipline, ScenarioResult]:
        return {discipline: runs[0]
                for discipline, runs in self.runs.items()}


def run_grid(specs: Sequence[RunSpec], **pool: Any) -> List[Comparison]:
    """Run declared points and group their results by scenario.

    ``pool`` is :func:`run_many`'s; a failed point raises
    (:func:`require`).  One :class:`Comparison` per distinct
    :class:`ScaledScenario`, in declaration order; scenarios that
    differ only in Cebinae parameters (Figure 12's axis) are distinct.
    Points that share a scenario and a discipline but not a seed are
    repeats of one point, kept in declaration order; two points that
    share all three raise ``ValueError`` before anything runs.
    """
    seen: Dict[Tuple[ScaledScenario, Discipline, int], RunSpec] = {}
    for spec in specs:
        earlier = seen.setdefault(
            (spec.scaled, spec.discipline, spec.seed), spec)
        if earlier is not spec:
            raise ValueError(
                f"run_grid keeps one result per scenario, discipline "
                f"and seed; {earlier.label!r} and {spec.label!r} "
                f"share all three")
    comparisons: Dict[ScaledScenario, Comparison] = {}
    for spec, result in zip(specs, run_many(specs, **pool)):
        comparison = comparisons.setdefault(
            spec.scaled, Comparison(spec.scaled, {}))
        comparison.runs.setdefault(spec.discipline, []).append(
            require(result))
    return list(comparisons.values())
