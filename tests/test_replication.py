"""Tests for multi-seed replication support."""

import math

import pytest

from repro.experiments import parallel
from repro.experiments.replication import (T_95, ReplicatedMetric,
                                           ReplicatedResult, replicate,
                                           replicate_comparison,
                                           significantly_fairer)
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import ScalePolicy, ScenarioSpec


def tiny_scenario():
    policy = ScalePolicy(target_rate_bps=10e6, max_rate_bps=10e6)
    spec = ScenarioSpec(name="tiny", rate_bps=100e6, rtts_ms=(20, 40),
                        buffer_mtus=100,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=5.0)
    return policy.apply(spec)


class TestReplicatedMetric:
    def test_mean_and_std(self):
        metric = ReplicatedMetric([1.0, 2.0, 3.0])
        assert metric.mean == pytest.approx(2.0)
        assert metric.std == pytest.approx(1.0)

    def test_single_sample_zero_width(self):
        metric = ReplicatedMetric([0.9])
        assert metric.half_width == 0.0
        assert metric.interval == (0.9, 0.9)

    def test_interval_contains_mean(self):
        metric = ReplicatedMetric([0.8, 0.9, 0.85, 0.95])
        low, high = metric.interval
        assert low <= metric.mean <= high
        assert high - low > 0

    def test_str_format(self):
        assert "±" in str(ReplicatedMetric([1.0, 2.0]))

    def test_three_samples_use_students_t_not_the_normal(self):
        # Two degrees of freedom: 4.303, not 1.96.  Needs no scipy.
        metric = ReplicatedMetric([0.8, 0.9, 1.0])
        assert metric.half_width == pytest.approx(
            4.303 * 0.1 / math.sqrt(3), rel=1e-3)

    def test_t_table_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert len(T_95) == 30
        for dof, value in enumerate(T_95, start=1):
            assert value == pytest.approx(stats.t.ppf(0.975, dof),
                                          abs=5e-4)
        wide = ReplicatedMetric([float(i % 7) for i in range(40)])
        assert wide.half_width == pytest.approx(
            1.960 * wide.std / math.sqrt(40))


class TestSeededRuns:
    def test_same_seed_is_deterministic(self):
        scaled = tiny_scenario()
        a = run_scenario(scaled, Discipline.FIFO, seed=1)
        b = run_scenario(scaled, Discipline.FIFO, seed=1)
        assert a.goodputs_bps == b.goodputs_bps

    def test_different_seeds_differ(self):
        scaled = tiny_scenario()
        a = run_scenario(scaled, Discipline.FIFO, seed=1)
        b = run_scenario(scaled, Discipline.FIFO, seed=2)
        assert a.goodputs_bps != b.goodputs_bps

    def test_replicate_aggregates(self):
        scaled = tiny_scenario()
        result = replicate(scaled, Discipline.FIFO, seeds=(0, 1, 2))
        assert len(result.runs) == 3
        assert 0 < result.jfi.mean <= 1
        assert result.goodput_bps.mean > 0

    def test_replicate_comparison_keys(self):
        scaled = tiny_scenario()
        results = replicate_comparison(scaled, seeds=(0, 1))
        assert set(results) == {Discipline.FIFO, Discipline.CEBINAE}

    def test_replications_are_cached(self, tmp_path, monkeypatch):
        scaled = tiny_scenario()
        first = replicate(scaled, Discipline.FIFO, seeds=(0, 1),
                          workers=1, cache_dir=tmp_path)
        assert first.runs[0].goodputs_bps != first.runs[1].goodputs_bps

        def simulated(**kwargs):
            raise AssertionError("a warm cache must not simulate")

        monkeypatch.setattr(parallel, "run_scenario", simulated)
        again = replicate(scaled, Discipline.FIFO, seeds=(0, 1),
                          workers=1, cache_dir=tmp_path)
        assert again.runs == first.runs


class TestSignificance:
    def _fake(self, jfis):
        class Run:
            def __init__(self, jfi):
                self.jfi = jfi
                self.total_goodput_bps = 1.0
        return ReplicatedResult(Discipline.FIFO,
                                [Run(x) for x in jfis])

    def test_clear_separation_is_significant(self):
        better = self._fake([0.95, 0.96, 0.94])
        worse = self._fake([0.5, 0.52, 0.48])
        assert significantly_fairer(better, worse)

    def test_overlap_is_not_significant(self):
        a = self._fake([0.7, 0.9, 0.8])
        b = self._fake([0.75, 0.85, 0.8])
        assert not significantly_fairer(a, b)
