"""The generic executor: fingerprints, retries, and failure sentinels.

Covers the machinery under ``run_many``: stable cache keys that react
to every result-relevant parameter, a retry that rescues transient
failures, and graceful degradation to :class:`FailedRun` sentinels
that never take the rest of the sweep down.
"""

import dataclasses

import pytest

from repro.experiments import cli, parallel
from repro.experiments.parallel import (FailedRun, RunSpec, Task,
                                        fingerprint, require, run_grid,
                                        run_many, run_tasks)
from repro.experiments.runner import Discipline
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec
from repro.suite import SuiteSpec

TINY_POLICY = ScalePolicy(target_rate_bps=5e6, max_rate_bps=5e6)


def tiny_scaled(name="fp", duration_s=2.0, tau=0.01):
    spec = ScenarioSpec(name=name, rate_bps=100e6, rtts_ms=(20, 30),
                        buffer_mtus=60,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    scaled = TINY_POLICY.apply(spec)
    return dataclasses.replace(
        scaled, cebinae=dataclasses.replace(scaled.cebinae, tau=tau))


def repeated_document():
    """Two grid points, two disciplines, three seeds each."""
    return SuiteSpec.from_dict({
        "name": "grid_rep",
        "scenario": {"rate_bps": 5e6, "rtts_ms": [20.0, 30.0],
                     "buffer_mtus": 60,
                     "cca_mix": [["newreno", 1], ["newreno", 1]],
                     "duration_s": 1.0},
        "grid": {"buffer_mtus": [40, 60]},
        "disciplines": ["fifo", "cebinae"],
        "repeats": 3, "base_seed": 5})


class TestFingerprints:
    def test_identical_specs_share_a_fingerprint(self):
        a = RunSpec(tiny_scaled(), Discipline.FIFO)
        b = RunSpec(tiny_scaled(), Discipline.FIFO)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("other", [
        RunSpec(tiny_scaled(), Discipline.CEBINAE),
        RunSpec(tiny_scaled(), Discipline.FIFO, seed=1),
        RunSpec(tiny_scaled(), Discipline.FIFO, collect_series=True),
        RunSpec(tiny_scaled(duration_s=3.0), Discipline.FIFO),
        RunSpec(tiny_scaled(tau=0.2), Discipline.FIFO),
    ])
    def test_any_parameter_change_changes_the_fingerprint(self, other):
        base = RunSpec(tiny_scaled(), Discipline.FIFO)
        assert other.fingerprint() != base.fingerprint()

    def test_kind_partitions_the_key_space(self):
        params = {"x": 1}
        assert fingerprint("A", params) != fingerprint("B", params)

    def test_unserialisable_params_are_rejected(self):
        with pytest.raises(TypeError):
            fingerprint("A", {"fn": object()})


def _ok(value):
    return {"value": value}


def _passthrough_task(fn, label, **kwargs):
    return Task(fn=fn, kwargs=kwargs, label=label,
                encode=lambda v: v, decode=lambda p: p)


class TestFailureHandling:
    def test_persistent_failure_becomes_a_sentinel(self):
        def boom(value):
            raise ValueError(f"no {value}")

        tasks = [_passthrough_task(_ok, "good-0", value=0),
                 _passthrough_task(boom, "bad", value=1),
                 _passthrough_task(_ok, "good-2", value=2)]
        results = run_tasks(tasks, workers=1, progress=None)
        # The sweep survives: neighbours of the crashing task complete.
        assert results[0] == {"value": 0}
        assert results[2] == {"value": 2}
        failed = results[1]
        assert isinstance(failed, FailedRun)
        assert failed.label == "bad"
        assert failed.attempts == 2  # first try + one retry
        assert "no 1" in failed.error
        with pytest.raises(RuntimeError, match="bad"):
            require(failed)

    def test_retry_rescues_a_transient_failure(self):
        attempts = []

        def flaky(value):
            attempts.append(value)
            if len(attempts) == 1:
                raise OSError("transient")
            return {"value": value}

        messages = []
        results = run_tasks([_passthrough_task(flaky, "flaky", value=9)],
                            workers=1, progress=messages.append)
        assert results == [{"value": 9}]
        assert len(attempts) == 2
        assert any("retry" in message for message in messages)

    def test_retries_zero_fails_immediately(self):
        def boom():
            raise ValueError("nope")

        results = run_tasks([_passthrough_task(boom, "boom")],
                            workers=1, retries=0, progress=None)
        assert isinstance(results[0], FailedRun)
        assert results[0].attempts == 1


class TestCliFlags:
    def test_pool_flags_reach_run_experiment(self, monkeypatch, capsys):
        seen = {}

        def fake_run(name, **kwargs):
            seen.update(kwargs, name=name)
            return "ok"

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert cli.main(["table3", "--workers", "2", "--no-cache"]) == 0
        assert seen["name"] == "table3"
        assert seen["workers"] == 2
        assert seen["use_cache"] is False
        assert seen["cache_dir"] == ".cebinae-cache"
        assert "ok" in capsys.readouterr().out

    def test_cache_enabled_by_default(self, monkeypatch, capsys):
        seen = {}
        monkeypatch.setattr(
            cli, "run_experiment",
            lambda name, **kwargs: seen.update(kwargs) or "ok")
        cli.main(["table3", "--cache-dir", "/tmp/somewhere"])
        assert seen["use_cache"] is True
        assert seen["cache_dir"] == "/tmp/somewhere"


class TestRunGrid:
    def test_one_comparison_per_scenario_in_declaration_order(self):
        two_way = (Discipline.CEBINAE, Discipline.FIFO)
        specs = [RunSpec(tiny_scaled(name, duration_s=1.0), discipline)
                 for name in ("grid_b", "grid_a")
                 for discipline in two_way]
        comparisons = run_grid(specs, workers=1, progress=None)
        assert [c.scaled.spec.name for c in comparisons] == \
            ["grid_b", "grid_a"]
        for comparison in comparisons:
            assert list(comparison.results) == list(two_way)
            for discipline, result in comparison.results.items():
                assert result.discipline is discipline
                assert result.name == comparison.scaled.spec.name

    def test_scenarios_differing_only_in_cebinae_stay_apart(self):
        taus = (0.01, 0.2)
        specs = [RunSpec(tiny_scaled(duration_s=1.0, tau=tau),
                         Discipline.CEBINAE) for tau in taus]
        comparisons = run_grid(specs, workers=1, progress=None)
        assert [c.scaled.cebinae.tau for c in comparisons] == list(taus)

    def test_a_failed_point_raises_naming_its_label(self):
        specs = [RunSpec(tiny_scaled("grid_fail", duration_s=1.0),
                         Discipline.FIFO, max_events=1)]
        with pytest.raises(RuntimeError, match="grid_fail/fifo"):
            run_grid(specs, workers=1, progress=None)

    def test_repeats_of_a_point_share_its_comparison(self):
        # A document's repeats reach run_grid as one point per seed;
        # each discipline keeps every seed's run, repeat 0 first.
        document = repeated_document()
        runs = document.compile()
        comparisons = run_grid([run.runspec for run in runs], workers=1,
                               progress=None)
        names = list(dict.fromkeys(run.label.split("/")[0]
                                   for run in runs))
        assert len(comparisons) == len(names) == 2
        for name, comparison in zip(names, comparisons):
            seeds = document.seeds(name)
            assert len(seeds) == 3 and seeds[0] == document.base_seed
            for discipline, results in comparison.runs.items():
                assert results == run_many(
                    [RunSpec(comparison.scaled, discipline, seed=seed)
                     for seed in seeds], workers=1, progress=None)
        fifo = comparisons[0].runs[Discipline.FIFO]
        assert fifo[0].goodputs_bps != fifo[1].goodputs_bps

    def test_a_repeated_comparison_keys_every_discipline(self):
        # Each point's Comparison holds the document's disciplines in
        # order, three runs apiece, and results is the repeat-0 view.
        comparisons = run_grid(
            [run.runspec for run in repeated_document().compile()],
            workers=1, progress=None)
        for comparison in comparisons:
            assert list(comparison.runs) == [Discipline.FIFO,
                                             Discipline.CEBINAE]
            assert list(comparison.results) == list(comparison.runs)
            for discipline, results in comparison.runs.items():
                assert len(results) == 3
                assert comparison.results[discipline] is results[0]

    def test_a_warm_cache_replays_every_repeat(self, tmp_path,
                                               monkeypatch):
        specs = [run.runspec for run in repeated_document().compile()]
        first = run_grid(specs, workers=1, progress=None,
                         cache_dir=tmp_path)

        def simulated(**kwargs):
            raise AssertionError("a warm cache must not simulate")

        monkeypatch.setattr(parallel, "run_scenario", simulated)
        assert run_grid(specs, workers=1, progress=None,
                        cache_dir=tmp_path) == first

    def test_a_point_repeated_with_its_seed_is_refused_before_running(
            self, monkeypatch):
        # A second run of one seed would be counted as an independent
        # repeat, narrowing the interval for nothing.
        def ran(*args, **kwargs):
            raise AssertionError("nothing may run")

        monkeypatch.setattr(parallel, "run_many", ran)
        scaled = tiny_scaled("grid_rep", duration_s=1.0)
        specs = [RunSpec(scaled, Discipline.CEBINAE, seed=seed)
                 for seed in (0, 7, 7)]
        with pytest.raises(ValueError,
                           match=r"'grid_rep/cebinae@seed7' and "
                                 r"'grid_rep/cebinae@seed7'"):
            run_grid(specs, workers=1, progress=None)
