"""The on-disk result cache: round-trips, hits, and --no-cache.

The cache contract is ``from_dict(to_dict(r)) == r`` through real JSON
text, a warm cache replays results without simulating anything, and
``use_cache=False`` re-simulates every point even when entries exist.
"""

import gc
import json

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.parallel import (FailedRun, ResultCache, RunSpec,
                                        require, run_many)
from repro.experiments.runner import (Discipline, ScenarioResult,
                                      run_scenario)
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec

TINY_POLICY = ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6)


def tiny_scaled(name="cache", duration_s=2.0):
    spec = ScenarioSpec(name=name, rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    return TINY_POLICY.apply(spec)


class TestRoundTrip:
    def test_scenario_result_survives_json(self):
        # The richest shape: per-second series, start times, and the
        # Cebinae control-plane history (nested dataclasses + sets).
        scaled = tiny_scaled()
        result = run_scenario(scaled, Discipline.CEBINAE,
                              collect_series=True, record_history=True)
        text = json.dumps(result.to_dict())
        rebuilt = ScenarioResult.from_dict(json.loads(text))
        assert rebuilt == result
        assert rebuilt.to_dict() == result.to_dict()

    def test_minimal_result_survives_json(self):
        result = run_scenario(tiny_scaled(), Discipline.FIFO)
        assert result.goodput_series_bps is None
        assert result.cp_history is None
        rebuilt = ScenarioResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result


@pytest.fixture
def specs():
    return [RunSpec(tiny_scaled(), Discipline.FIFO),
            RunSpec(tiny_scaled(), Discipline.CEBINAE,
                    record_history=True)]


class TestCacheHits:
    def test_warm_cache_skips_simulation(self, tmp_path, specs,
                                         monkeypatch):
        first = [require(r) for r in
                 run_many(specs, workers=1, cache_dir=tmp_path,
                          progress=None)]
        assert len(ResultCache(tmp_path)) == len(specs)

        # Any attempt to simulate now blows up; a warm cache must not
        # need to.  (FailedRun would surface the blow-up: run_tasks
        # converts exhausted retries into sentinels, not raises.)
        def refuse(**kwargs):
            raise AssertionError("cache hit should not simulate")

        monkeypatch.setattr(parallel, "run_scenario", refuse)
        replayed = run_many(specs, workers=1, cache_dir=tmp_path,
                            progress=None)
        assert not any(isinstance(r, FailedRun) for r in replayed)
        assert replayed == first

    def test_hit_and_miss_counters(self, tmp_path, specs):
        cache = ResultCache(tmp_path)
        run_many(specs, workers=1, cache_dir=cache, progress=None)
        assert (cache.hits, cache.misses) == (0, len(specs))
        run_many(specs, workers=1, cache_dir=cache, progress=None)
        assert cache.hits == len(specs)

    def test_stale_cache_version_is_ignored(self, tmp_path, specs):
        run_many(specs, workers=1, cache_dir=tmp_path, progress=None)
        for path in tmp_path.glob("*.json"):
            entry = json.loads(path.read_text())
            entry["cache_version"] = -1
            path.write_text(json.dumps(entry))
        cache = ResultCache(tmp_path)
        assert cache.load(specs[0].fingerprint()) is None
        assert cache.misses == 1


class TestNoCache:
    def test_use_cache_false_forces_resimulation(self, tmp_path, specs,
                                                 monkeypatch):
        first = [require(r) for r in
                 run_many(specs, workers=1, cache_dir=tmp_path,
                          progress=None)]

        calls = []

        def counting(**kwargs):
            calls.append(kwargs)
            return run_scenario(**kwargs)

        monkeypatch.setattr(parallel, "run_scenario", counting)
        again = [require(r) for r in
                 run_many(specs, workers=1, cache_dir=tmp_path,
                          use_cache=False, progress=None)]
        # Every point re-simulated despite a warm cache — and
        # determinism makes the fresh results identical to the cached
        # ones.
        assert len(calls) == len(specs)
        assert again == first


class TestStore:
    """An entry is the one-shot ``json.dumps`` text of its envelope, and
    writing it leaves nothing for the cyclic collector."""

    PAYLOAD = {"name": "t", "series": [[1, 2.5], [3, None]],
               "nested": {"flag": True, "label": "xé"}}

    def test_file_is_the_json_dumps_text(self, tmp_path):
        ResultCache(tmp_path).store("fp", "ScenarioResult", "label",
                                    self.PAYLOAD)
        entry = {"cache_version": parallel.CACHE_VERSION,
                 "kind": "ScenarioResult", "label": "label",
                 "payload": self.PAYLOAD}
        assert (tmp_path / "fp.json").read_text(encoding="utf-8") == \
            json.dumps(entry)

    def test_stores_leave_no_cyclic_garbage(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("warm", "ScenarioResult", "label", self.PAYLOAD)
        gc.collect()
        gc.disable()
        try:
            for index in range(20):
                cache.store(f"fp{index}", "ScenarioResult", "label",
                            self.PAYLOAD)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestUndecodableEntry:
    """An entry that parses but is not this task's schema is a miss,
    never a traceback: re-simulated, overwritten, counted once."""

    @pytest.mark.parametrize("payload, narrated", [
        ([], False),                # Not an object: load's miss.
        ({"name": "t"}, True),      # An object decode cannot read.
    ])
    def test_resimulated_and_overwritten(self, tmp_path, specs,
                                         payload, narrated):
        spec = specs[0]
        fresh = require(run_many([spec], workers=1, progress=None)[0])
        cache = ResultCache(tmp_path)
        cache.store(spec.fingerprint(), "ScenarioResult", "x", payload)
        lines = []
        result = run_many([spec], workers=1, cache_dir=cache,
                          progress=lines.append)[0]
        assert result == fresh
        assert (cache.hits, cache.misses) == (0, 1)
        assert any("stale" in line for line in lines) == narrated
        assert not any("cached" in line for line in lines)
        stored = cache.load(spec.fingerprint())
        assert ScenarioResult.from_dict(stored) == fresh

    def test_null_payload_counts_a_miss(self, tmp_path, specs):
        cache = ResultCache(tmp_path)
        cache.store(specs[0].fingerprint(), "ScenarioResult", "x", None)
        assert cache.load(specs[0].fingerprint()) is None
        assert (cache.hits, cache.misses) == (0, 1)
