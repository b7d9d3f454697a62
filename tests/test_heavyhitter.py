"""Tests for the passive flow cache, trace generator, and FPR/FNR
evaluation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.heavyhitter.evaluation import _detection_tasks, evaluate_detection
from repro.heavyhitter.hashpipe import (CebinaeFlowCache, ExactFlowCache,
                                        select_bottlenecked, stage_hash)
from repro.heavyhitter.traces import SyntheticTrace


class TestStageHash:
    def test_deterministic(self):
        assert stage_hash(("a", 1), 7) == stage_hash(("a", 1), 7)

    def test_salt_changes_hash(self):
        key = ("flow", 42)
        assert stage_hash(key, 1) != stage_hash(key, 2)


class TestCacheCounting:
    def test_single_flow_exact(self):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=16)
        cache.update("f1", 1000)
        cache.update("f1", 500)
        assert cache.lookup("f1") == 1500

    def test_lookup_untracked_is_zero(self):
        cache = CebinaeFlowCache()
        assert cache.lookup("nope") == 0

    def test_never_overcounts(self):
        """Counts are at most the true bytes (no collision pollution) —
        the 'never make unfairness worse' invariant."""
        cache = CebinaeFlowCache(stages=1, slots_per_stage=2)
        truth = {}
        for index in range(50):
            key = f"flow{index % 10}"
            cache.update(key, 100)
            truth[key] = truth.get(key, 0) + 100
        for key, counted in cache.snapshot().items():
            assert counted <= truth[key]

    def test_full_stages_spill_to_next(self):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=1)
        # With one slot per stage, at most two flows can be tracked.
        keys = ["a", "b", "c", "d"]
        tracked = sum(1 for key in keys if cache.update(key, 100))
        assert tracked == 2
        assert cache.uncounted_packets == 2
        assert cache.uncounted_bytes == 200

    def test_poll_and_reset_returns_and_clears(self):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=16)
        cache.update("f1", 1000)
        cache.update("f2", 250)
        snapshot = cache.poll_and_reset()
        assert snapshot == {"f1": 1000, "f2": 250}
        assert cache.occupancy == 0
        assert cache.lookup("f1") == 0

    def test_passive_reclaim_after_reset(self):
        """After a reset, a previously crowded-out flow can claim its
        slot again — the passive-management property."""
        cache = CebinaeFlowCache(stages=1, slots_per_stage=1)
        assert cache.update("a", 100)
        assert not cache.update("b", 100)
        cache.poll_and_reset()
        assert cache.update("b", 100)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CebinaeFlowCache(stages=0)
        with pytest.raises(ValueError):
            CebinaeFlowCache(slots_per_stage=0)

    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.integers(64, 1500)),
                    min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_counts_never_exceed_truth(self, updates):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=8)
        truth = {}
        for key, size in updates:
            cache.update(key, size)
            truth[key] = truth.get(key, 0) + size
        for key, counted in cache.snapshot().items():
            assert counted <= truth[key]


class TestSlotChoice:
    """``update`` walks the stages once per flow per poll interval and
    then counts per flow; which slot a flow claims stays defined by the
    public :func:`stage_hash`."""

    STAGES, SLOTS, SEED = 2, 8, 1

    def salts(self):
        return [self.SEED * 0x9E3779B1 + stage * 0x85EBCA77
                for stage in range(self.STAGES)]

    @given(st.lists(st.one_of(
        st.tuples(st.integers(0, 40), st.integers(64, 1500)),
        st.just("poll")), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_matches_a_cache_that_hashes_every_packet(self, ops):
        cache = CebinaeFlowCache(stages=self.STAGES,
                                 slots_per_stage=self.SLOTS,
                                 seed=self.SEED)
        # The paper's passive walk, one stage_hash per stage per
        # packet: slot -> [key, bytes] per stage.
        model = [dict() for _ in range(self.STAGES)]
        interval_keys = set()
        for op in ops:
            if op == "poll":
                expected = {}
                for stage in model:
                    for key, count in stage.values():
                        expected[key] = expected.get(key, 0) + count
                    stage.clear()
                assert cache.poll_and_reset() == expected
                assert cache.occupancy == 0
                assert not cache._stage_of and not cache._counts
                interval_keys.clear()
                continue
            key, nbytes = op
            interval_keys.add(key)
            counted = False
            for stage, salt in zip(model, self.salts()):
                entry = stage.setdefault(
                    stage_hash(key, salt) % self.SLOTS, [key, 0])
                if entry[0] == key:
                    entry[1] += nbytes
                    counted = True
                    break
            assert cache.update(key, nbytes) is counted
            assert len(cache._stage_of) == len(interval_keys)
        for key in range(41):
            held = sum(entry[1] for stage in model
                       for entry in stage.values() if entry[0] == key)
            assert cache.lookup(key) == held


class TestExactCache:
    def test_counts_everything(self):
        cache = ExactFlowCache()
        for index in range(100):
            assert cache.update(index, 10)
        assert cache.occupancy == 100
        assert cache.uncounted_packets == 0


class TestSelectBottlenecked:
    def test_empty_input(self):
        top, total = select_bottlenecked({}, 0.01)
        assert top == set() and total == 0

    def test_single_max(self):
        top, total = select_bottlenecked(
            {"a": 1000, "b": 500, "c": 100}, 0.01)
        assert top == {"a"}
        assert total == 1000

    def test_delta_f_groups_near_max(self):
        top, total = select_bottlenecked(
            {"a": 1000, "b": 995, "c": 500}, 0.01)
        assert top == {"a", "b"}
        assert total == 1995

    def test_delta_f_one_selects_all(self):
        counts = {"a": 1000, "b": 1, "c": 500}
        top, total = select_bottlenecked(counts, 1.0)
        assert top == set(counts)
        assert total == 1501

    def test_all_zero_counts(self):
        top, total = select_bottlenecked({"a": 0, "b": 0}, 0.01)
        assert top == set()


class TestSyntheticTrace:
    @staticmethod
    def arrays(seed, duration_s=0.01, flows_per_minute=6000):
        return SyntheticTrace(duration_s=duration_s,
                              flows_per_minute=flows_per_minute,
                              seed=seed).packets()

    def test_deterministic_given_seed(self):
        a, b = self.arrays(seed=3), self.arrays(seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a, b = self.arrays(seed=3), self.arrays(seed=4)
        assert not all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_packets_in_time_order(self):
        times, flows, sizes = self.arrays(seed=1, duration_s=0.02,
                                          flows_per_minute=60_000)
        assert times.size == flows.size == sizes.size > 0
        assert all(a.dtype == np.int64 for a in (times, flows, sizes))
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0
        assert times[-1] < 0.02 * 1e9

    def test_flow_population_independent_of_short_durations(self):
        """Flows/min sets the *population*; a shorter trace just sees
        fewer of each flow's packets, not fewer flows (otherwise the
        detection experiments would be trivially uncontended)."""
        short = SyntheticTrace(duration_s=0.1, flows_per_minute=60_000)
        longer = SyntheticTrace(duration_s=30, flows_per_minute=60_000)
        assert short.num_flows == longer.num_flows == 60_000

    def test_flow_count_scales_beyond_a_minute(self):
        one = SyntheticTrace(duration_s=60, flows_per_minute=6000)
        two = SyntheticTrace(duration_s=120, flows_per_minute=6000)
        assert two.num_flows == 2 * one.num_flows

    def test_building_a_trace_draws_no_packets(self):
        """A 120 s backbone trace holds ~10^8 packets (gigabytes as
        arrays); building one must cost only its flow rates."""
        tracemalloc.start()
        try:
            trace = SyntheticTrace(duration_s=120, flows_per_minute=6000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = trace.flow_rates_bps.sum() * 120 \
            / (8 * trace.mean_packet_bytes)
        assert expected > 1e8
        assert peak < 4 << 20

    def test_packet_counts_follow_poisson_law(self):
        """Each flow's count is Poisson(rate·T): the total and the
        top-rate flow's count lie within 4σ of their means."""
        duration_s = 0.05
        trace = SyntheticTrace(duration_s=duration_s,
                               flows_per_minute=60_000, seed=5)
        _, flows, _ = trace.packets()
        packets_per_s = trace.flow_rates_bps \
            / (8 * trace.mean_packet_bytes)
        top = int(np.argmax(packets_per_s))
        for observed, mean in (
                (flows.size, packets_per_s.sum() * duration_s),
                (int(np.count_nonzero(flows == top)),
                 packets_per_s[top] * duration_s)):
            assert mean > 1000
            assert abs(observed - mean) <= 4 * mean ** 0.5

    def test_rates_are_heavy_tailed(self):
        trace = SyntheticTrace(duration_s=0.5,
                               flows_per_minute=120_000, seed=1)
        rates = sorted(trace.flow_rates_bps, reverse=True)
        top_share = sum(rates[:len(rates) // 100 or 1]) / sum(rates)
        assert top_share > 0.1  # Top 1% of flows carry >10% of load.

    def test_packet_sizes_bounded(self):
        _, _, sizes = self.arrays(seed=2, flows_per_minute=60_000)
        assert sizes.size > 0
        assert sizes.min() >= 64 and sizes.max() <= 1500

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            SyntheticTrace(duration_s=0)


class TestDetectionEvaluation:
    def test_large_cache_has_low_error(self):
        result = evaluate_detection(stages=4, slots_per_stage=4096,
                                    round_interval_ms=50, trials=2,
                                    trace_duration_s=0.1,
                                    flows_per_minute=120_000)
        assert result.false_positive_rate <= 0.01
        assert result.false_negative_rate <= 0.3

    def test_tiny_cache_has_higher_fnr(self):
        small = evaluate_detection(stages=1, slots_per_stage=32,
                                   round_interval_ms=50, trials=2,
                                   trace_duration_s=0.1,
                                   flows_per_minute=120_000)
        big = evaluate_detection(stages=4, slots_per_stage=4096,
                                 round_interval_ms=50, trials=2,
                                 trace_duration_s=0.1,
                                 flows_per_minute=120_000)
        assert small.false_negative_rate >= big.false_negative_rate

    def test_rates_are_probabilities(self):
        result = evaluate_detection(stages=2, slots_per_stage=128,
                                    round_interval_ms=20, trials=1,
                                    trace_duration_s=0.05,
                                    flows_per_minute=120_000)
        assert 0.0 <= result.false_positive_rate <= 1.0
        assert 0.0 <= result.false_negative_rate <= 1.0
        assert result.intervals > 0

    def test_trace_revision_reaches_the_fingerprint(self):
        """A cached DetectionResult names the trace that produced it:
        the fingerprint of a config differs from the one it had when
        the trace was a per-packet heap merge."""
        task, = _detection_tasks([(1, 512, 10)],
                                 {"trials": 1, "trace_duration_s": 0.15})
        assert task.fingerprint != "65049401e7a87f3a6a83ffdd"
