"""Run watchdogs and executor robustness.

The guards that keep one bad point from taking a sweep down: the
wall-clock watchdog and event budget convert a wedged run into a
:class:`RunAborted` carrying a partial-result snapshot; the parallel
executor turns that (or a pool timeout) into a :class:`FailedRun`
without retrying a deterministic casualty; transient crashes back off
with deterministic seeded jitter; every result is in the cache the
moment it is collected, so neither Ctrl-C nor a hard kill of the sweep
loses a finished point; and a corrupted cache entry is a miss, never a
crash.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (CACHE_VERSION, FailedRun,
                                        ResultCache, RunSpec, Task,
                                        _backoff_delays, require,
                                        run_tasks)
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import (DEFAULT_POLICY, ParkingLotSpec,
                                         ScalePolicy, ScenarioSpec)
from repro.faults.watchdog import RunAborted, WallClockWatchdog
from repro.netsim.engine import Simulator

TINY_POLICY = ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6)


def tiny_scaled(name="guarded", duration_s=2.0):
    spec = ScenarioSpec(name=name, rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    return TINY_POLICY.apply(spec)


class FakeClock:
    """An injectable monotonic clock advanced by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# -- the wall-clock watchdog -------------------------------------------------

class TestWallClockWatchdog:
    def test_quiet_until_the_deadline_then_raises_with_partial(self):
        clock = FakeClock()
        watchdog = WallClockWatchdog(
            limit_s=5.0, partial=lambda: {"events": 42}, clock=clock)
        watchdog()                       # Well inside the budget.
        clock.now += 4.9
        watchdog()                       # Still inside.
        assert watchdog.remaining_s == pytest.approx(0.1)
        clock.now += 0.2
        with pytest.raises(RunAborted) as excinfo:
            watchdog()
        assert excinfo.value.partial == {"events": 42}
        assert "5" in excinfo.value.reason

    def test_reset_restarts_the_budget(self):
        clock = FakeClock()
        watchdog = WallClockWatchdog(limit_s=1.0, clock=clock)
        clock.now += 10.0
        watchdog.reset()
        watchdog()                       # Fresh budget: no raise.
        clock.now += 1.0
        with pytest.raises(RunAborted) as excinfo:
            watchdog()
        assert excinfo.value.partial is None

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            WallClockWatchdog(limit_s=0)

    @pytest.mark.parametrize("limit_s", [float("nan"), float("inf")])
    def test_nonfinite_limit_rejected(self, limit_s):
        # NaN never compares at or past a deadline: no watchdog at all.
        with pytest.raises(ValueError, match="finite"):
            WallClockWatchdog(limit_s=limit_s, clock=FakeClock())


class TestRunAborted:
    def test_pickle_preserves_the_partial_payload(self):
        original = RunAborted("wedged", partial={"events": 7,
                                                 "flows": [1, 2]})
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, RunAborted)
        assert clone.reason == "wedged"
        assert clone.partial == {"events": 7, "flows": [1, 2]}
        assert str(clone) == "wedged"

    def test_is_never_retried(self):
        assert parallel._no_retry(RunAborted("wedged"))
        assert parallel._no_retry(multiprocessing.TimeoutError())
        assert not parallel._no_retry(ValueError("transient"))


# -- the engine hook ---------------------------------------------------------

class TestEngineWatchdogHook:
    @staticmethod
    def _chain(sim, count):
        """Schedule ``count`` events, each 1 ns apart."""
        remaining = [count]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1, tick)

        sim.schedule(1, tick)

    def test_called_once_per_interval(self):
        sim = Simulator()
        self._chain(sim, 10)
        calls = []
        sim.run(watchdog=lambda: calls.append(sim.now_ns),
                watchdog_interval=4)
        assert len(calls) == 2           # After events 4 and 8.

    def test_a_raising_watchdog_aborts_the_run(self):
        sim = Simulator()
        self._chain(sim, 100)

        def abort():
            raise RunAborted("enough")

        with pytest.raises(RunAborted):
            sim.run(watchdog=abort, watchdog_interval=10)
        assert sim.processed_events < 100

    def test_a_quiet_watchdog_changes_nothing(self):
        plain = Simulator()
        self._chain(plain, 50)
        plain.run()
        watched = Simulator()
        self._chain(watched, 50)
        watched.run(watchdog=lambda: None, watchdog_interval=1)
        assert watched.processed_events == plain.processed_events
        assert watched.now_ns == plain.now_ns


class TestScenarioGuards:
    def test_event_budget_aborts_with_a_partial_snapshot(self):
        with pytest.raises(RunAborted) as excinfo:
            run_scenario(tiny_scaled(), Discipline.CEBINAE,
                         max_events=2000)
        partial = excinfo.value.partial
        assert partial is not None
        assert partial["events"] <= 2000
        assert 0 <= partial["sim_time_ns"] < partial["duration_ns"]
        assert partial["delivered_bytes"]
        assert json.loads(json.dumps(partial)) == partial

    def test_event_budget_guards_a_parking_lot_too(self):
        lot = ParkingLotSpec(
            name="guarded-lot", rate_bps=5e6, buffer_mtus=40,
            num_long=2, long_cca="newreno",
            cross_mix=(("vegas", 2), ("cubic", 1)), duration_s=2.0)
        with pytest.raises(RunAborted) as excinfo:
            run_scenario(lot.scaled(DEFAULT_POLICY), Discipline.CEBINAE,
                         max_events=500)
        partial = excinfo.value.partial
        assert partial["events"] <= 500
        assert 0 <= partial["sim_time_ns"] < partial["duration_ns"]
        assert len(partial["delivered_bytes"]) == 2 + 2 + 1

    def test_wall_limit_aborts_a_long_run(self):
        # The first watchdog check (8192 events in) is already past a
        # nanosecond budget, so this aborts deterministically.
        with pytest.raises(RunAborted) as excinfo:
            run_scenario(tiny_scaled(duration_s=30.0),
                         Discipline.CEBINAE, wall_limit_s=1e-9)
        assert excinfo.value.partial["events"] > 0

    def test_generous_guards_do_not_perturb_the_run(self):
        plain = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                             collect_series=True)
        guarded = run_scenario(tiny_scaled(), Discipline.CEBINAE,
                               collect_series=True, wall_limit_s=600.0,
                               max_events=10 ** 9)
        assert json.dumps(guarded.to_dict(), sort_keys=True) == \
            json.dumps(plain.to_dict(), sort_keys=True)


# -- the executor ------------------------------------------------------------

def _ok(value):
    return {"value": value}


def _wedged(duration_s):
    time.sleep(duration_s)
    return {"value": "never"}


def _passthrough_task(fn, label, fingerprint="", **kwargs):
    return Task(fn=fn, kwargs=kwargs, label=label,
                fingerprint=fingerprint,
                encode=lambda v: v, decode=lambda p: p)


class TestPoolTimeout:
    def test_a_wedged_task_becomes_a_failed_run_not_a_hang(self):
        tasks = [_passthrough_task(_wedged, "wedged", duration_s=60.0),
                 _passthrough_task(_ok, "fast", value=3)]
        start = time.monotonic()
        results = run_tasks(tasks, workers=2, timeout_s=1.0,
                            progress=None)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0            # The pool did not wait 60 s.
        failed = results[0]
        assert isinstance(failed, FailedRun)
        assert failed.timed_out
        assert failed.attempts == 1      # Deterministic: never retried.
        assert failed.backoff_s == []
        assert results[1] == {"value": 3}

    def test_run_aborted_carries_partial_into_failed_run(self):
        def wedge():
            raise RunAborted("watchdog fired", partial={"events": 9})

        results = run_tasks([_passthrough_task(wedge, "aborted")],
                            workers=1, progress=None)
        failed = results[0]
        assert isinstance(failed, FailedRun)
        assert failed.timed_out
        assert failed.attempts == 1
        assert failed.partial == {"events": 9}
        assert "watchdog fired" in failed.error


class TestFailedRunSerialisation:
    def test_require_unwraps_or_raises(self):
        assert require({"value": 1}) == {"value": 1}
        with pytest.raises(RuntimeError, match="p1"):
            require(FailedRun(label="p1", error="boom", attempts=1))


class TestBackoff:
    def test_delays_are_deterministic_and_exponential(self):
        delays = _backoff_delays("some-key", retries=4, base_s=0.05)
        assert delays == _backoff_delays("some-key", 4, 0.05)
        assert delays != _backoff_delays("other-key", 4, 0.05)
        for attempt, delay in enumerate(delays):
            floor = 0.05 * (2 ** attempt)
            assert floor <= delay <= floor * 1.5

    def test_retry_sleeps_exactly_the_recorded_delays(self, monkeypatch):
        slept = []
        monkeypatch.setattr(parallel, "_sleep", slept.append)

        def boom():
            raise ValueError("always")

        results = run_tasks([_passthrough_task(boom, "boom")],
                            workers=1, retries=2, progress=None)
        failed = results[0]
        assert isinstance(failed, FailedRun)
        assert failed.attempts == 3
        assert slept == failed.backoff_s == \
            _backoff_delays("boom", 2, 0.05)

    def test_transient_failure_backs_off_once_then_succeeds(
            self, monkeypatch):
        slept = []
        monkeypatch.setattr(parallel, "_sleep", slept.append)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("transient")
            return {"value": 5}

        results = run_tasks([_passthrough_task(flaky, "flaky")],
                            workers=1, progress=None)
        assert results == [{"value": 5}]
        assert slept == _backoff_delays("flaky", 1, 0.05)


def _interrupt():
    raise KeyboardInterrupt


class TestKeyboardInterrupt:
    def test_completed_results_are_flushed_before_reraising(
            self, tmp_path):
        tasks = [_passthrough_task(_ok, "first", fingerprint="fp-first",
                                   value=1),
                 _passthrough_task(_interrupt, "ctrl-c",
                                   fingerprint="fp-ctrl-c")]
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, workers=1, cache_dir=tmp_path,
                      progress=None)
        # A rerun replays the stored task from cache without calling it.
        def must_not_run(value):
            raise AssertionError("should have been cached")

        rerun = run_tasks(
            [_passthrough_task(must_not_run, "first",
                               fingerprint="fp-first", value=1)],
            workers=1, cache_dir=tmp_path, progress=None)
        assert rerun == [{"value": 1}]


def _hard_kill(cache_dir, sweep_pid):
    """Task: take the process running ``run_tasks`` down, no cleanup.

    Serially that is this process.  In a pool worker it is the parent,
    killed once it has collected both siblings (or, where it never
    stores them while the sweep is live, after a deadline).
    """
    if os.getpid() != sweep_pid:
        deadline = time.monotonic() + 10.0
        while (len(list(Path(cache_dir).glob("*.json"))) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os.kill(sweep_pid, signal.SIGKILL)
    os._exit(9)


def _crash_probe(cache_dir, workers):
    """Subprocess body: a sweep whose third task kills it outright."""
    tasks = [_passthrough_task(_ok, "first", fingerprint="fp-first",
                               value=1),
             _passthrough_task(_ok, "second", fingerprint="fp-second",
                               value=2),
             _passthrough_task(_hard_kill, "third",
                               fingerprint="fp-third",
                               cache_dir=cache_dir,
                               sweep_pid=os.getpid())]
    run_tasks(tasks, workers=workers, cache_dir=cache_dir,
              progress=None)


class TestHardKill:
    """No signal handler runs on ``kill -9``, ``os._exit`` or the OOM
    reaper: only what is already on disk survives."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_results_survive_a_hard_kill(self, tmp_path,
                                                  workers):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tests.test_watchdog import _crash_probe; "
             "_crash_probe(sys.argv[1], int(sys.argv[2]))",
             str(tmp_path), str(workers)],
            env=env, timeout=120, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        assert done.returncode == (9 if workers == 1
                                   else -signal.SIGKILL)
        cache = ResultCache(tmp_path)
        assert cache.load("fp-first") == {"value": 1}
        assert cache.load("fp-second") == {"value": 2}
        assert cache.load("fp-third") is None

        # A rerun calls only the task that never finished.
        calls = []

        def record(value):
            calls.append(value)
            return {"value": value}

        rerun = run_tasks(
            [_passthrough_task(record, label, fingerprint=f"fp-{label}",
                               value=value)
             for value, label in enumerate(("first", "second", "third"),
                                           start=1)],
            workers=1, cache_dir=tmp_path, progress=None)
        assert rerun == [{"value": 1}, {"value": 2}, {"value": 3}]
        assert calls == [3]


class TestCorruptedCache:
    def test_round_trip_counts_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("fp", "result", "label", {"value": 1})
        assert cache.load("fp") == {"value": 1}
        assert (cache.hits, cache.misses) == (1, 0)

    @pytest.mark.parametrize("content", [
        "",                                        # Truncated to nothing.
        "{\"cache_version\": 1, \"payl",           # Torn mid-write.
        "[1, 2, 3]",                               # Wrong JSON shape.
        "42",                                      # Not even an object.
        json.dumps({"cache_version": CACHE_VERSION}),   # No payload.
        json.dumps({"cache_version": CACHE_VERSION - 1,
                    "payload": {"value": 1}}),     # Foreign schema.
    ])
    def test_bad_entries_are_misses_not_errors(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        (tmp_path / "fp.json").write_text(content, encoding="utf-8")
        assert cache.load("fp") is None
        assert cache.misses == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("absent") is None
        assert cache.misses == 1

    def test_a_corrupted_entry_is_resimulated_and_overwritten(
            self, tmp_path):
        task = _passthrough_task(_ok, "point", fingerprint="fp-point",
                                 value=7)
        (tmp_path / "fp-point.json").write_text("{torn",
                                                encoding="utf-8")
        results = run_tasks([task], workers=1, cache_dir=tmp_path,
                            progress=None)
        assert results == [{"value": 7}]
        entry = json.loads((tmp_path / "fp-point.json").read_text())
        assert entry["payload"] == {"value": 7}


class TestRunSpecGuards:
    def test_guards_flow_into_the_scenario_task(self):
        spec = RunSpec(tiny_scaled(), Discipline.CEBINAE,
                       wall_limit_s=2.5, max_events=1000)
        task = parallel.scenario_task(spec)
        assert task.kwargs["wall_limit_s"] == 2.5
        assert task.kwargs["max_events"] == 1000
        plain = parallel.scenario_task(
            RunSpec(tiny_scaled(), Discipline.CEBINAE))
        assert "wall_limit_s" not in plain.kwargs
        assert "max_events" not in plain.kwargs

    def test_event_budget_surfaces_as_failed_run_via_run_many(self):
        spec = RunSpec(tiny_scaled(), Discipline.CEBINAE,
                       max_events=2000)
        results = parallel.run_many([spec], workers=1, progress=None)
        failed = results[0]
        assert isinstance(failed, FailedRun)
        assert failed.timed_out
        assert failed.partial is not None
        assert failed.partial["events"] <= 2000
