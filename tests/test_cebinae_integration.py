"""End-to-end properties of the full Cebinae system (paper section 4's
design principles, validated on live traffic)."""

from dataclasses import replace

import pytest

from repro.core.control_plane import cebinae_factory
from repro.core.params import CebinaeParams
from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import DEFAULT_POLICY, ScenarioSpec
from repro.fairness.metrics import jain_fairness_index
from repro.netsim.engine import MILLISECOND, Simulator, seconds
from repro.netsim.queues import DropTailQueue
from repro.netsim.tracing import FlowMonitor
from repro.netsim.topology import build_dumbbell
from repro.tcp.flows import connect_flow


def run_cebinae(ccas, rtts_s, rate_bps=15e6, buffer_mtus=50,
                duration_s=30.0, tau=0.05, record=False):
    params = CebinaeParams.for_link(
        rate_bps, buffer_mtus * 1500,
        max_rtt_ns=seconds(max(rtts_s)),
        tau=tau, delta_port=min(2 * tau, 0.16), delta_flow=tau,
        min_bottom_rate_fraction=0.02)
    agents = []
    sim = Simulator()
    dumbbell = build_dumbbell(
        [seconds(rtt) for rtt in rtts_s], rate_bps,
        cebinae_factory(params=params, buffer_mtus=buffer_mtus,
                        agents=agents, record_history=True),
        sim=sim)
    monitor = FlowMonitor(sim)
    flows = [connect_flow(dumbbell.senders[i], dumbbell.receivers[i],
                          cca, monitor=monitor, src_port=10_000 + i)
             for i, cca in enumerate(ccas)]
    sim.run(until_ns=seconds(duration_s))
    goodputs = [monitor.goodputs_bps(seconds(duration_s))[f.flow_id]
                for f in flows]
    return goodputs, dumbbell, agents[0], flows


class TestDesignPrinciples:
    def test_no_reordering_within_flows(self):
        """Queue rotations and membership changes must not reorder a
        flow's packets (section 4.3) — receivers would see spurious
        dupACKs.  In-order delivery means zero out-of-order bytes
        whenever no loss occurred; with losses, reordering shows up as
        fast retransmits that were unnecessary, so we check that total
        retransmissions stay proportional to actual drops."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["newreno", "newreno"], [0.02, 0.04])
        queue = dumbbell.bottleneck.queue
        total_drops = (queue.lbf_drops + queue.buffer_drops
                       + queue.dropped_packets)
        total_retransmits = sum(f.sender.retransmits for f in flows)
        # Every retransmission should be attributable to a drop
        # somewhere (bottleneck or elsewhere); allow go-back-N
        # multiplicative slack.
        assert total_retransmits <= 4 * max(total_drops, 1) + 20

    def test_single_flow_unmolested(self):
        """One flow alone: saturation triggers, the flow is ⊤, and the
        tax costs at most ~tau of capacity (example 1)."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["newreno"], [0.03], tau=0.04)
        assert goodputs[0] > 0.80 * 15e6

    def test_utilization_never_collapses(self):
        """'Utilization will fluctuate around full capacity but will
        never decrease by more than tau' — allow slack for TCP
        dynamics at simulation scale."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["newreno", "cubic", "vegas"], [0.03] * 3, tau=0.04)
        assert sum(goodputs) > 0.75 * 15e6

    def test_aggressive_flow_taxed_not_starved(self):
        """Never make unfairness worse: the taxed aggressor must keep
        a viable share (the min-bottom floor guards the other side)."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["cubic", "vegas", "vegas", "vegas"], [0.04] * 4)
        assert min(goodputs) > 0.03 * 15e6
        assert jain_fairness_index(goodputs) > 0.6

    def test_bottleneck_detection_targets_the_heavy_flow(self):
        """⊤ membership should be dominated by the flow that actually
        holds the most bandwidth under FIFO conditions."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["newreno", "vegas", "vegas"], [0.05] * 3)
        saturated = [s for s in agent.history if s.saturated]
        if not saturated:
            pytest.skip("port never saturated in this configuration")
        reno_flow = flows[0].flow_id
        reno_memberships = sum(1 for s in saturated
                               if reno_flow in s.top_flows)
        assert reno_memberships > len(saturated) * 0.3

    def test_two_queue_invariant(self):
        """The headline hardware claim: exactly two queues, ever."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["newreno", "cubic"], [0.03, 0.03])
        assert len(dumbbell.bottleneck.queue._queues) == 2

    def test_rotation_cadence(self):
        """Rotations happen exactly every dT for the whole run."""
        goodputs, dumbbell, agent, flows = run_cebinae(
            ["newreno"], [0.03], duration_s=10.0)
        queue = dumbbell.bottleneck.queue
        expected = int(seconds(10.0) // queue.params.dt_ns)
        assert abs(queue.lbf.rotations - expected) <= 1


class TestAgainstFifoBaseline:
    def test_cebinae_improves_vegas_vs_reno(self):
        """The core comparison at test scale: JFI(Cebinae) must beat
        JFI(FIFO) when loss-based fights delay-based."""
        ccas = ["vegas"] * 4 + ["newreno"]
        rtts = [0.06] * 5

        goodputs_ceb, _, _, _ = run_cebinae(ccas, rtts,
                                            duration_s=40.0)

        sim = Simulator()
        dumbbell = build_dumbbell(
            [seconds(rtt) for rtt in rtts], 15e6,
            lambda spec: DropTailQueue.from_mtu_count(50), sim=sim)
        monitor = FlowMonitor(sim)
        flows = [connect_flow(dumbbell.senders[i],
                              dumbbell.receivers[i], cca,
                              monitor=monitor, src_port=10_000 + i)
                 for i, cca in enumerate(ccas)]
        sim.run(until_ns=seconds(40.0))
        goodputs_fifo = [
            monitor.goodputs_bps(seconds(40.0))[f.flow_id]
            for f in flows]

        assert jain_fairness_index(goodputs_ceb) > \
            jain_fairness_index(goodputs_fifo)


def ablation_scenario(duration_s):
    """Section 4.3's LBF knobs and section 3.2's tax rate are varied on
    one scenario: two NewReno flows at 20.4 and 40 ms on the paper's
    100 Mbps, scaled by ``DEFAULT_POLICY``."""
    return DEFAULT_POLICY.apply(ScenarioSpec(
        name="ablation", rate_bps=100e6, rtts_ms=(20.4, 40.0),
        buffer_mtus=350, cca_mix=(("newreno", 1), ("newreno", 1)),
        duration_s=duration_s))


def run_with(scaled, collect_series=False, **params):
    """Run ``scaled`` under Cebinae with ``params`` overridden."""
    return run_scenario(
        replace(scaled, cebinae=replace(scaled.cebinae, **params)),
        Discipline.CEBINAE, collect_series=collect_series)


def first_fair_second(result):
    """First second in which every flow is within 50% of fair share."""
    series = result.goodput_series_bps
    fair = result.sim_rate_bps / len(series)
    for second in range(len(series[0])):
        if all(abs(flow[second] - fair) <= 0.5 * fair for flow in series):
            return second
    return float("inf")


class TestAblations:
    def test_ecn_marking_changes_nothing_for_non_ect_flows(self):
        """ECN marking is opt-in by the transport: NewReno here is not
        ECN-capable, so the whole result is the same with it off."""
        scaled = ablation_scenario(5.0)
        assert run_with(scaled, ecn_marking=True).to_dict() == \
            run_with(scaled, ecn_marking=False).to_dict()

    @pytest.mark.parametrize("divisor", [256, 16, 4])
    def test_vdt_granularity_keeps_the_link_busy(self, divisor):
        """Coarser virtual rounds shift delays and drops; they must not
        collapse goodput.  dT grows by 2·vdT so Equation (2)'s
        drain-time bound still holds."""
        scaled = ablation_scenario(5.0)
        dt = scaled.cebinae.dt_ns
        vdt = max(dt // divisor, 1_000)
        result = run_with(scaled, vdt_ns=vdt, l_ns=vdt, dt_ns=dt + 2 * vdt)
        assert result.total_goodput_bps > 0.5 * result.sim_rate_bps

    def test_higher_tax_rate_converges_no_later_and_no_less_fair(self):
        """Section 3.2, example (2): the aggressor is squeezed
        geometrically at rate τ, so a higher τ converges no later, and
        the JFI does not fall as τ rises (0.741, 0.861, 0.925 at
        seed 0)."""
        scaled = ablation_scenario(10.0)
        results = [run_with(scaled, collect_series=True, tau=tau,
                            delta_port=min(2 * tau, 0.16))
                   for tau in (0.01, 0.04, 0.08)]
        assert first_fair_second(results[-1]) <= \
            first_fair_second(results[0])
        jfis = [result.jfi for result in results]
        assert jfis == sorted(jfis)
