"""Tests for the experiment harness: specs, scaling policy, runner."""

import gc
import weakref

import pytest

from repro.core.params import CebinaeParams
from repro.experiments import runner
from repro.experiments.parallel import THREE_WAY, RunSpec, run_grid
from repro.experiments.runner import (Discipline, ScenarioResult,
                                      queue_factory_for, run_scenario)
from repro.experiments.scenarios import (MIN_SEGMENTS_PER_RTT,
                                         ScalePolicy, ScenarioSpec)
from repro.experiments.table2 import TABLE2_ROWS
from repro.netsim.tracing import FlowRecord


class TestScenarioSpec:
    def test_flow_expansion_groupwise_rtts(self):
        spec = ScenarioSpec(name="t", rate_bps=1e8, rtts_ms=(20, 40),
                            buffer_mtus=100,
                            cca_mix=(("newreno", 2), ("cubic", 1)))
        plans = spec.flow_plans()
        assert [plan.cca for plan in plans] == ["newreno", "newreno",
                                                "cubic"]
        assert [plan.rtt_s for plan in plans] == [0.02, 0.02, 0.04]

    def test_single_rtt_applies_to_all_groups(self):
        spec = ScenarioSpec(name="t", rate_bps=1e8, rtts_ms=(50,),
                            buffer_mtus=100,
                            cca_mix=(("vegas", 1), ("bbr", 1)))
        assert [plan.rtt_s for plan in spec.flow_plans()] == [.05, .05]

    def test_mismatched_rtts_rejected(self):
        # Rejected at construction (not first use) since the suite-spec
        # layer made specs validate their fields up front.
        with pytest.raises(ValueError, match="cannot map onto"):
            ScenarioSpec(name="t", rate_bps=1e8, rtts_ms=(1, 2, 3),
                         buffer_mtus=100,
                         cca_mix=(("vegas", 1), ("bbr", 1)))

    def test_start_times_per_flow(self):
        spec = ScenarioSpec(name="t", rate_bps=1e8, rtts_ms=(50,),
                            buffer_mtus=100,
                            cca_mix=(("vegas", 2), ("cubic", 1)),
                            start_times_s=(0.0, 0.0, 5.0))
        assert [plan.start_time_s for plan in spec.flow_plans()] == \
            [0.0, 0.0, 5.0]


class TestScalePolicy:
    def test_small_mix_not_scaled(self):
        policy = ScalePolicy(max_flows=40)
        mix, factor = policy.scale_mix((("newreno", 16), ("cubic", 1)))
        assert mix == (("newreno", 16), ("cubic", 1))
        assert factor == 1.0

    def test_large_mix_scaled_preserving_minority(self):
        policy = ScalePolicy(max_flows=40)
        mix, factor = policy.scale_mix((("vegas", 1024), ("cubic", 2)))
        counts = dict(mix)
        assert counts["cubic"] >= 1
        assert sum(counts.values()) <= 45
        assert factor > 10

    def test_tau_scales_with_rate_and_caps(self):
        policy = ScalePolicy()
        assert policy.scaled_threshold(0.01, 4.0, 0.10) == \
            pytest.approx(0.04)
        assert policy.scaled_threshold(0.01, 40.0, 0.10) == 0.10
        assert policy.scaled_threshold(0.01, 0.5, 0.10) == 0.01

    def test_sim_rate_gives_viable_fair_share(self):
        policy = ScalePolicy(target_rate_bps=25e6, max_rate_bps=60e6)
        spec = ScenarioSpec(name="t", rate_bps=1e9, rtts_ms=(50,),
                            buffer_mtus=1000, cca_mix=(("newreno", 30),))
        rate = policy.sim_rate(spec, 30)
        per_flow = rate / 30
        min_rate = MIN_SEGMENTS_PER_RTT * 1448 * 8 / 0.05
        assert per_flow >= min_rate * 0.99 or rate == 60e6

    def test_apply_produces_valid_cebinae_params(self):
        policy = ScalePolicy()
        for row in TABLE2_ROWS:
            scaled = policy.apply(row.spec)
            buffer_bytes = scaled.spec.buffer_mtus * 1500
            scaled.cebinae.validate_for_link(scaled.spec.rate_bps,
                                             buffer_bytes)

    def test_apply_preserves_duration_override(self):
        policy = ScalePolicy()
        scaled = policy.apply(TABLE2_ROWS[0].spec, duration_s=5.0)
        assert scaled.spec.duration_s == 5.0

    def test_recompute_window_covers_rtt(self):
        policy = ScalePolicy()
        spec = ScenarioSpec(name="t", rate_bps=1e8, rtts_ms=(400,),
                            buffer_mtus=100, cca_mix=(("newreno", 2),))
        scaled = policy.apply(spec)
        assert scaled.cebinae.recompute_interval_ns >= 400 * 1_000_000


class TestTable2Rows:
    def test_row_count_matches_paper(self):
        assert len(TABLE2_ROWS) == 25

    def test_rates_cover_all_classes(self):
        rates = {row.spec.rate_bps for row in TABLE2_ROWS}
        assert rates == {100e6, 1000e6, 10000e6}

    def test_paper_numbers_are_sane(self):
        for row in TABLE2_ROWS:
            for numbers in (row.fifo, row.fq, row.cebinae):
                assert 0 < numbers.jfi <= 1
                assert 0 < numbers.goodput_mbps <= \
                    numbers.throughput_mbps

    def test_all_ccas_known(self):
        from repro.tcp.flows import CCA_REGISTRY
        for row in TABLE2_ROWS:
            for cca, _ in row.spec.cca_mix:
                assert cca in CCA_REGISTRY


class TestRunner:
    @pytest.fixture(scope="class")
    def tiny_scaled(self):
        policy = ScalePolicy(target_rate_bps=10e6, max_rate_bps=10e6)
        spec = ScenarioSpec(name="tiny", rate_bps=100e6,
                            rtts_ms=(20, 30), buffer_mtus=100,
                            cca_mix=(("newreno", 1), ("newreno", 1)),
                            duration_s=5.0)
        return policy.apply(spec)

    def test_fifo_run_produces_metrics(self, tiny_scaled):
        result = run_scenario(tiny_scaled, Discipline.FIFO)
        assert len(result.goodputs_bps) == 2
        assert result.total_goodput_bps > 0.5 * 10e6
        assert 0 < result.jfi <= 1
        assert result.throughput_bps >= result.total_goodput_bps

    def test_series_collection(self, tiny_scaled):
        result = run_scenario(tiny_scaled, Discipline.FIFO,
                              collect_series=True)
        assert len(result.goodput_series_bps) == 2
        assert len(result.goodput_series_bps[0]) == 5

    def test_cebinae_run_records_history(self, tiny_scaled):
        result = run_scenario(tiny_scaled, Discipline.CEBINAE,
                              record_history=True)
        assert result.cp_history is not None
        assert len(result.cp_history) > 0

    def test_comparison_runs_all_disciplines(self, tiny_scaled):
        comparison, = run_grid([RunSpec(tiny_scaled, discipline)
                                for discipline in THREE_WAY],
                               workers=1, progress=None)
        assert list(comparison.results) == [
            Discipline.FIFO, Discipline.FQ, Discipline.CEBINAE]

    def test_goodputs_are_read_once_per_flow(self, monkeypatch):
        # The per-flow goodput dict is built once, not once per flow.
        policy = ScalePolicy(target_rate_bps=10e6, max_rate_bps=10e6)
        spec = ScenarioSpec(name="three", rate_bps=10e6, rtts_ms=(20,),
                            buffer_mtus=50, cca_mix=(("newreno", 3),),
                            duration_s=0.5)
        calls = []
        goodput_bps = FlowRecord.goodput_bps

        def counted(record, duration_ns):
            calls.append(record.flow)
            return goodput_bps(record, duration_ns)

        monkeypatch.setattr(FlowRecord, "goodput_bps", counted)
        result = run_scenario(policy.apply(spec), Discipline.FIFO)
        assert len(result.goodputs_bps) == 3
        assert len(calls) == 3 and len(set(calls)) == 3

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_finished_run_is_freed_without_the_collector(
            self, tiny_scaled, discipline, monkeypatch):
        # The simulation graph is cyclic; run_scenario cuts it on the
        # way out, so back-to-back runs never hold two of them and peak
        # memory does not depend on when the collector last ran.
        built = []
        build = runner._build_harness

        def remember(*args, **kwargs):
            harness = build(*args, **kwargs)
            network = harness.network
            parts = [harness.sim, harness.monitor, *network.links,
                     *network.nodes.values()]
            for flow in harness.flows:
                parts += [flow.sender, flow.receiver]
            built.extend(weakref.ref(part) for part in parts)
            return harness

        monkeypatch.setattr(runner, "_build_harness", remember)
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(tiny_scaled, discipline)
            alive = [ref() for ref in built if ref() is not None]
        finally:
            gc.enable()
        assert result.events > 0 and len(built) > 10
        assert alive == []

    def test_factory_types(self, tiny_scaled):
        from repro.core.queue_disc import CebinaeQueueDisc
        from repro.netsim.fq_codel import FqCoDelQueue
        from repro.netsim.queues import DropTailQueue
        from repro.netsim.topology import PortSpec
        from repro.netsim.engine import Simulator
        spec = PortSpec(sim=Simulator(),
                        rate_bps=tiny_scaled.spec.rate_bps,
                        delay_ns=0, name="p")
        assert isinstance(queue_factory_for(Discipline.FIFO,
                                            tiny_scaled)(spec),
                          DropTailQueue)
        assert isinstance(queue_factory_for(Discipline.FQ,
                                            tiny_scaled)(spec),
                          FqCoDelQueue)
        assert isinstance(queue_factory_for(Discipline.CEBINAE,
                                            tiny_scaled)(spec),
                          CebinaeQueueDisc)

    def test_afq_factory_is_the_scalability_contrast(self, tiny_scaled):
        from repro.netsim.afq import AfqQueue
        from repro.netsim.engine import Simulator
        from repro.netsim.topology import PortSpec
        spec = PortSpec(sim=Simulator(),
                        rate_bps=tiny_scaled.spec.rate_bps,
                        delay_ns=0, name="p")
        queue = queue_factory_for(Discipline.AFQ, tiny_scaled)(spec)
        assert isinstance(queue, AfqQueue)
        assert queue.num_queues == 32
        assert queue.bytes_per_round == 3000
        assert queue.limit_bytes == \
            tiny_scaled.spec.buffer_mtus * 1500


class TestAfqDiscipline:
    """AFQ runs through the one scenario path like the other three."""

    @pytest.fixture(scope="class")
    def scaled(self):
        # Four flows on a buffer smaller than their calendars span: the
        # section 5.5 document's 80 ms point.
        from repro.suite.registry import paper_spec
        runs = paper_spec("scalability").with_duration_cap(2.0).compile()
        return runs[2].runspec.scaled

    def test_replay_is_byte_identical_across_the_debug_gate(
            self, scaled):
        from repro.analysis import invariants
        from repro.suite.golden import canonical_result_json
        blobs = []
        for debug in (False, False, True):
            previous = invariants.set_debug(debug)
            try:
                blobs.append(canonical_result_json(
                    run_scenario(scaled, Discipline.AFQ)))
            finally:
                invariants.set_debug(previous)
        assert blobs[0] == blobs[1] == blobs[2]

    def test_horizon_drops_follow_the_absent_when_empty_rule(self, scaled):
        afq = run_scenario(scaled, Discipline.AFQ)
        kept = ScenarioResult.from_dict(
            dict(afq.to_dict(), horizon_drops=3))
        assert kept.horizon_drops == 3
        assert kept.to_dict()["horizon_drops"] == 3
        assert ScenarioResult.from_dict(kept.to_dict()) == kept
        for discipline in (Discipline.FIFO, Discipline.FQ,
                           Discipline.CEBINAE):
            result = run_scenario(scaled, discipline)
            assert result.horizon_drops == 0
            assert "horizon_drops" not in result.to_dict()

    def test_hybrid_backend_is_refused_with_the_reason(self, scaled):
        with pytest.raises(ValueError, match="no fluid model of AFQ"):
            run_scenario(scaled, Discipline.AFQ, backend="hybrid")

    def test_suite_document_compiles_and_runs(self):
        from repro.suite.golden import run_compiled
        from repro.suite.spec import SpecError, SuiteSpec
        doc = {"name": "afq_contrast",
               "scenario": {"rate_bps": 20e6, "rtts_ms": [80],
                            "buffer_mtus": 80,
                            "cca_mix": [["newreno", 4]],
                            "duration_s": 2.0},
               "disciplines": ["afq", "cebinae"]}
        runs = SuiteSpec.from_dict(doc).compile()
        results = run_compiled(runs, workers=1)
        assert [result.discipline for result in results] == \
            [Discipline.AFQ, Discipline.CEBINAE]
        assert all(result.events > 0 for result in results)
        with pytest.raises(SpecError, match="no fluid model of AFQ"):
            SuiteSpec.from_dict(dict(doc, backend="hybrid"))
