"""The ledger's four workloads: inputs, bodies, and their output checks.

Each workload is a closed loop with one client (the benchmark
process): the next operation starts when the previous one returned.
An *operation* is one scenario run or one sweep task.  A workload has

* ``make_inputs(seed, quick, work_root)`` -- everything derived from
  the seed; the program under test only ever sees these inputs;
* ``direct(inputs, clock)`` -- the simulations called one by one
  through the public run function, each timed through ``clock``
  (hostclock.py), returning an :class:`Outcome`; this is what the
  span-phase arithmetic needs, and for the simulation workloads it is
  the body;
* ``pooled(inputs, workers, clock)`` -- ``sweep_fabric``'s body: the
  same simulations through the pool and the sweep fabric; ``workers``
  = 1 keeps every task in this process so ``cProfile`` sees it.

Why these four, and which layer each one loads, is recorded next to
each definition and in README.md.

Sizes are the issue's, shrunk to fit the benchmark contract's time
cap (92 runs in 3420 s): the Table 2 rows run 5 (Cebinae) and 2.5
(baselines) simulated seconds instead of 20, the heavy-tailed hybrid
run has 500 flows instead of 1000 with a 3 s packet phase instead of
11.7 s, and every body is repeated for ``--seconds`` of host time
instead of a fixed N.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import hostclock
from repro.experiments.parallel import ResultCache, RunSpec
from repro.experiments.runner import (Discipline, ScenarioResult,
                                      run_scenario)
from repro.experiments.scenarios import (DEFAULT_POLICY, ScalePolicy,
                                         ScenarioSpec)
from repro.experiments.table2 import TABLE2_ROWS
from repro.netsim.fluid import HybridPolicy
from repro.suite import golden
from repro.suite.registry import SuiteRegistry
from repro.sweep import cli as sweep_cli

#: Simulated seconds per Table 2 run.  The baselines make four runs a
#: body where Cebinae makes two, at half the length each, so that both
#: bodies cost the same host time (about 2 s here).
CEBINAE_DURATION_S = 5.0
BASELINE_DURATION_S = 2.5
#: Indices into TABLE2_ROWS: row 10 (8 Vegas + 8 NewReno + 2 Cubic, 18
#: flows, three CCAs on one RTT) and row 15 (128 NewReno + 2 BBR,
#: flow-scaled to 40): the widest CCA coverage two rows can give.
DUMBBELL_ROWS = (9, 14)

HYBRID_FLOWS = 500
HYBRID_DURATION_S = 30.0
#: The handoff rules are loosened so that *every seed takes the same
#: path*: one warmup, exactly one stability probe, then the fluid
#: phase.  With the default tolerance the probe extends the packet
#: phase on some seeds and not others (measured: 0-2 extensions over 12
#: seeds at this size), which makes wall-clock a property of the seed
#: rather than of the code.  The probe's arithmetic still runs in full;
#: only its verdict is fixed.  Fidelity of the handoff is the tests'
#: business, not this benchmark's.
HYBRID_POLICY = HybridPolicy(settle_rtts=2.0, min_warmup_s=1.5,
                             measure_s=1.5, stability_tol=0.5,
                             max_extensions=0)

#: The committed suites `sweep_fabric` replays, relative to the root.
SUITE_DIRS = ("examples/suites/tier1", "examples/suites/workloads")
GOLDEN_DIR = "tests/golden"


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


@dataclass
class Op:
    """One operation's outcome."""

    label: str
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    #: False for a cache hit: nothing was simulated, so its events and
    #: simulated seconds do not count as work done.
    executed: bool = True
    #: The paper's JFI for this run, where Table 2 has one.
    paper_jfi: Optional[float] = None


@dataclass
class Outcome:
    """What one body (or direct pass) did."""

    ops: List[Op] = field(default_factory=list)
    #: Sums over the timed public calls: host seconds and CPU seconds
    #: (children included), raw and in reference-host seconds.
    raw_s: float = 0.0
    wall_s: float = 0.0
    cpu_raw_s: float = 0.0
    cpu_s: float = 0.0
    #: Reference-host seconds of single public calls, by metric name
    #: (plus the body's own counts: cache hits, quarantined tasks).
    timers: Dict[str, float] = field(default_factory=dict)
    #: Output checks the body itself made: (name, ok, detail).
    checks: List[Any] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def timed(self, clock: Any, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Call ``fn`` through the clock and add it to the sums.

        Returns ``(result, reference-host seconds)``; an exception
        comes back as the result, for the caller to record.
        """
        def call() -> Any:
            cpu_before = _cpu_seconds()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - a failed op is a datum.
                result = exc
            return result, _cpu_seconds() - cpu_before

        (result, cpu), raw, factor = clock.time(call)
        self.raw_s += raw
        self.wall_s += raw * factor
        self.cpu_raw_s += cpu
        self.cpu_s += cpu * factor
        return result, raw * factor


@dataclass
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, bool, Path], Any]
    direct: Callable[[Any, Any], Outcome]
    pooled: Optional[Callable[[Any, int, Any], Outcome]] = None

    def body(self, inputs: Any, workers: int, clock: Any) -> Outcome:
        """One repetition of the workload."""
        if self.pooled is None:
            return self.direct(inputs, clock)
        return self.pooled(inputs, workers, clock)


def _timed_op(outcome: Outcome, clock: Any, label: str,
              fn: Callable[..., Any], kwargs: Dict[str, Any],
              paper_jfi: Optional[float] = None) -> None:
    """Run one operation, recording its result or its failure."""
    result, _ = outcome.timed(clock, fn, **kwargs)
    if isinstance(result, Exception):
        outcome.ops.append(
            Op(label, error=f"{type(result).__name__}: {result}"))
    else:
        outcome.ops.append(Op(label, result=result, paper_jfi=paper_jfi))


# --------------------------------------------------------------------------
# dumbbell_cebinae / dumbbell_baselines
# --------------------------------------------------------------------------

def _dumbbell_inputs(disciplines: List[Discipline], full_duration_s: float
                     ) -> Callable[[int, bool, Path], Any]:
    def make(seed: int, quick: bool, work_root: Path) -> Any:
        duration_s = full_duration_s / (10.0 if quick else 1.0)
        calls = []
        for index in DUMBBELL_ROWS:
            row = TABLE2_ROWS[index]
            scaled = DEFAULT_POLICY.apply(row.spec, duration_s=duration_s)
            for discipline in disciplines:
                calls.append({
                    "label": f"{row.spec.name}/{discipline.value}",
                    "paper_jfi": row.paper(discipline).jfi,
                    "kwargs": {"scaled": scaled,
                               "discipline": discipline,
                               "seed": seed}})
        return calls
    return make


def _direct_calls(calls: Any, clock: Any) -> Outcome:
    outcome = Outcome()
    for call in calls:
        _timed_op(outcome, clock, call["label"], run_scenario,
                  call["kwargs"], paper_jfi=call.get("paper_jfi"))
    return outcome


# --------------------------------------------------------------------------
# hybrid_scale
# --------------------------------------------------------------------------

def _hybrid_inputs(seed: int, quick: bool, work_root: Path) -> Any:
    """A heavy-tailed Cubic dumbbell (the shape of bench_scalability's
    `_heavy_tailed_scenario`): 80/15/4/1 % of the flows over a
    256/384/512/768 ms RTT ladder at the paper's 2 Gbps."""
    flows = HYBRID_FLOWS // (10 if quick else 1)
    ladder = ((256.0, 0.80), (384.0, 0.15), (512.0, 0.04),
              (768.0, 0.01))
    counts = [max(1, round(flows * share)) for _, share in ladder]
    counts[0] += flows - sum(counts)
    spec = ScenarioSpec(
        name=f"ledger-hybrid-{flows}", rate_bps=2e9,
        rtts_ms=tuple(rtt for rtt, _ in ladder), buffer_mtus=29_000,
        cca_mix=tuple(("cubic", count) for count in counts),
        duration_s=HYBRID_DURATION_S)
    scaled = ScalePolicy(max_flows=flows, max_rate_bps=2e9).apply(spec)
    return [{"label": f"{spec.name}/cebinae~hybrid",
             "kwargs": {"scaled": scaled,
                        "discipline": Discipline.CEBINAE,
                        "seed": seed, "backend": "hybrid",
                        "hybrid_policy": HYBRID_POLICY}}]


def _direct_hybrid(calls: Any, clock: Any) -> Outcome:
    outcome = _direct_calls(calls, clock)
    for op in outcome.ops:
        if op.result is not None:
            summary = op.result.hybrid_summary or {}
            outcome.check("hybrid.mode_fluid",
                          summary.get("mode") == "fluid",
                          f"{op.label}: {summary}")
    return outcome


# --------------------------------------------------------------------------
# sweep_fabric
# --------------------------------------------------------------------------

@dataclass
class SweepInputs:
    root: Path
    work_root: Path
    suites_dir: Path
    specs: List[Any]
    runs: List[Any]
    labels: List[str]
    compile_s: float
    check_golden: bool


def _sweep_inputs(seed: int, quick: bool, work_root: Path) -> SweepInputs:
    """Shift every committed suite's base seed, write the shifted
    documents out as the sweep's input directory, and compile them.

    Seed 1 leaves the suites as committed, so it is the one seed whose
    digests can be (and are) compared with tests/golden.  The shift
    wraps at 2**32 so that seed 0 (or a negative one) still gives the
    non-negative base seeds a suite accepts.
    """
    root = Path(__file__).resolve().parents[2]
    shift = (seed - 1) % 2**32
    specs = []
    for directory in SUITE_DIRS:
        for spec in SuiteRegistry.from_directory(root / directory):
            spec = dataclasses.replace(
                spec, base_seed=spec.base_seed + shift)
            if quick:
                spec = _shorten(spec)
            specs.append(spec)
    # The sweep CLI reads one directory and orders specs by name.
    specs.sort(key=lambda spec: spec.name)
    suites_dir = Path(tempfile.mkdtemp(prefix="suites-", dir=work_root))
    for spec in specs:
        with open(suites_dir / f"{spec.name}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
    started = hostclock.now()
    runs, labels = [], []
    for spec in specs:
        for run in spec.compile():
            runs.append(run)
            labels.append(f"{spec.name}:{run.label}")
    compile_s = hostclock.now() - started
    return SweepInputs(root=root, work_root=work_root,
                       suites_dir=suites_dir, specs=specs, runs=runs,
                       labels=labels, compile_s=compile_s,
                       check_golden=(seed == 1 and not quick))


def _shorten(spec: Any) -> Any:
    """--quick: a tenth of the simulated time, arrivals scaled along."""
    if spec.parking is not None:
        return dataclasses.replace(spec, parking=dataclasses.replace(
            spec.parking, duration_s=spec.parking.duration_s / 10.0))
    scenario = spec.scenario
    starts = scenario.start_times_s
    return dataclasses.replace(spec, scenario=dataclasses.replace(
        scenario, duration_s=scenario.duration_s / 10.0,
        start_times_s=None if starts is None
        else tuple(start / 10.0 for start in starts)))


@contextlib.contextmanager
def _stderr_to(path: Path) -> Iterator[None]:
    """Send this process's and its children's stderr to a file.

    The sweep workers narrate every task on stderr and the pool's
    workers print a traceback when the pool is torn down; at 31 tasks
    a pass that drowns the benchmark's own output.  The log lives in
    the body's temp dir and goes with it.
    """
    sys.stderr.flush()
    saved = os.dup(2)
    with open(path, "ab") as handle:
        os.dup2(handle.fileno(), 2)
        try:
            yield
        finally:
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)


def _canonical(results: List[ScenarioResult]) -> List[str]:
    return [golden.canonical_result_json(result) for result in results]


def _run_sweep(inputs: SweepInputs, workers: int, clock: Any) -> Outcome:
    outcome = Outcome(timers={"suite.compile_s": inputs.compile_s})
    with tempfile.TemporaryDirectory(prefix="sweep-",
                                     dir=inputs.work_root) as tmp:
        scratch = Path(tmp)
        with _stderr_to(scratch / "stderr.log"):
            _sweep_passes(inputs, workers, clock, scratch, outcome)
    return outcome


def _sweep_passes(inputs: SweepInputs, workers: int, clock: Any,
                  scratch: Path, outcome: Outcome) -> None:
    labels = inputs.labels
    timers = outcome.timers
    cache = ResultCache(scratch / "pool-cache")
    # The two calls that keep `workers` processes busy are calibrated
    # by the kernel run in as many processes.
    busy_clock = clock.for_workers(workers)
    # (a) cold pool pass, (b) the same call again, warm.
    cold, timers["parallel.cold_s"] = outcome.timed(
        busy_clock, golden.run_compiled, inputs.runs, workers=workers,
        cache_dir=cache)
    if isinstance(cold, Exception):    # A FailedRun surfaced.
        outcome.ops.extend(
            Op(label, error=f"{type(cold).__name__}: {cold}")
            for label in labels)
        return
    outcome.ops.extend(Op(f"pool-cold:{label}", result=result)
                       for label, result in zip(labels, cold))
    hits_before = cache.hits
    warm, timers["parallel.warm_s"] = outcome.timed(
        clock, golden.run_compiled, inputs.runs, workers=workers,
        cache_dir=cache)
    hits = cache.hits - hits_before
    timers["parallel.cache_hits"] = hits
    outcome.ops.extend(
        Op(f"pool-warm:{label}", result=result, executed=False)
        for label, result in zip(labels, warm))
    outcome.check("sweep.warm_all_cache_hits", hits == len(labels),
                  f"{hits} hits for {len(labels)} tasks")
    outcome.check("sweep.warm_payloads_identical",
                  _canonical(warm) == _canonical(cold))

    # (c) the same tasks through the sweep fabric.
    sweep_dir = str(scratch / "sweep")
    merged_path = scratch / "merged.json"
    codes = {}
    for step, argv in (
            ("init", ["init", sweep_dir, "--suite",
                      str(inputs.suites_dir)]),
            ("work", ["resume", sweep_dir, "--workers", str(workers),
                      "--quiet"]),
            ("merge", ["merge", sweep_dir, "--out", str(merged_path)])):
        codes[step], timers[f"sweep.{step}_s"] = outcome.timed(
            busy_clock if step == "work" else clock, sweep_cli.main, argv)
    outcome.check("sweep.cli_exit_codes",
                  all(code == 0 for code in codes.values()), str(codes))
    entries = []
    if merged_path.exists():
        with open(merged_path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)["results"]
    by_label = {entry["label"]: entry for entry in entries}
    quarantined = 0
    identical = True
    for label, pooled in zip(labels, cold):
        entry = by_label.get(label, {"status": "missing"})
        if entry["status"] != "done":
            quarantined += entry["status"] == "quarantined"
            outcome.ops.append(Op(f"fabric:{label}",
                                  error=entry["status"]))
            continue
        if entry["payload"] != pooled.to_dict():
            identical = False
        outcome.ops.append(Op(
            f"fabric:{label}",
            result=ScenarioResult.from_dict(entry["payload"])))
    timers["sweep.quarantined"] = quarantined
    outcome.check("sweep.fabric_equals_pool", identical)

    if inputs.check_golden:
        mismatches = _golden_mismatches(inputs, cold)
        outcome.check("sweep.matches_tests_golden", not mismatches,
                      "; ".join(mismatches[:3]))


def _golden_mismatches(inputs: SweepInputs,
                       results: List[ScenarioResult]) -> List[str]:
    digests: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for label, run, result in zip(inputs.labels, inputs.runs, results):
        spec_name = label.split(":", 1)[0]
        entry = {"fingerprint": run.fingerprint()}
        entry.update(golden.result_digest(result))
        digests.setdefault(spec_name, {})[run.label] = entry
    mismatches: List[str] = []
    for spec in inputs.specs:
        mismatches.extend(golden.check_golden(
            inputs.root / GOLDEN_DIR, spec, digests[spec.name]))
    return mismatches


def _direct_sweep(inputs: SweepInputs, clock: Any) -> Outcome:
    """The sweep's tasks called serially, no pool, cache or fabric."""
    outcome = Outcome()
    for label, run in zip(inputs.labels, inputs.runs):
        task = run.task()
        _timed_op(outcome, clock, f"direct:{label}", task.fn, task.kwargs)
    return outcome


def fingerprintable(inputs: Any) -> List[Any]:
    """The body's run specifications, as objects with `fingerprint()`."""
    if isinstance(inputs, SweepInputs):
        return list(inputs.runs)
    return [RunSpec(scaled=call["kwargs"]["scaled"],
                    discipline=call["kwargs"]["discipline"],
                    seed=call["kwargs"]["seed"],
                    backend=call["kwargs"].get("backend", "packet"))
            for call in inputs]


# --------------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "dumbbell_cebinae",
        "Paper headline path: Table 2 rows 10 and 15 under Cebinae; "
        "the only packet workload where core.lbf/queue_disc/"
        "control_plane and heavyhitter.hashpipe do work.",
        _dumbbell_inputs([Discipline.CEBINAE], CEBINAE_DURATION_S),
        _direct_calls),
    Workload(
        "dumbbell_baselines",
        "Same two rows under FIFO and FQ: bare forwarding and "
        "fq_codel with core.* idle, so a Cebinae data-plane change "
        "must not move it while an engine/link/tcp change must.",
        _dumbbell_inputs([Discipline.FIFO, Discipline.FQ],
                         BASELINE_DURATION_S),
        _direct_calls),
    Workload(
        "hybrid_scale",
        "500-flow heavy-tailed hybrid run: deep scheduler, per-flow "
        "build/collect cost, stability probe, then netsim.fluid + "
        "fairness epochs; where sim-seconds per wall-second is won.",
        _hybrid_inputs, _direct_hybrid),
    Workload(
        "sweep_fabric",
        "31 tiny committed suite runs through the pool cold and warm "
        "and through sweep init/work/merge: executor, cache, lease "
        "and (de)serialisation overhead dominate the event loop.",
        _sweep_inputs, _direct_sweep, _run_sweep),
)}
