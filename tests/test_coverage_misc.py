"""Coverage for behaviours not exercised elsewhere: flow wiring, the
CCA registry, engine stepping, monitors, cache configuration plumbing,
and cross-cutting properties."""

import pytest
from hypothesis import given, strategies as st

from repro.core.control_plane import cebinae_factory
from repro.core.params import CebinaeParams
from repro.core.queue_disc import CebinaeQueueDisc
from repro.heavyhitter.hashpipe import CebinaeFlowCache, ExactFlowCache
from repro.netsim.engine import MILLISECOND, Simulator, seconds
from repro.netsim.packet import MSS_BYTES, FlowId
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import PortSpec, build_dumbbell
from repro.netsim.tracing import FlowMonitor, FlowRecord
from repro.tcp.bbr import Bbr
from repro.tcp.cca import CongestionControl
from repro.tcp.cubic import Bic, Cubic
from repro.tcp.flows import (CCA_REGISTRY, connect_flow, expand_mix,
                             make_cca)
from repro.tcp.newreno import NewReno
from repro.tcp.vegas import Vegas


class TestCcaRegistry:
    def test_all_paper_ccas_present(self):
        assert set(CCA_REGISTRY) == {"newreno", "cubic", "bic",
                                     "vegas", "bbr"}

    @pytest.mark.parametrize("name,cls", [
        ("newreno", NewReno), ("cubic", Cubic), ("bic", Bic),
        ("vegas", Vegas), ("bbr", Bbr)])
    def test_make_cca_types(self, name, cls):
        assert isinstance(make_cca(name), cls)

    def test_make_cca_case_insensitive(self):
        assert isinstance(make_cca("BBR"), Bbr)

    def test_unknown_cca_lists_known(self):
        with pytest.raises(ValueError) as err:
            make_cca("quic")
        assert "newreno" in str(err.value)

    def test_instances_are_fresh(self):
        assert make_cca("cubic") is not make_cca("cubic")

    def test_registry_names_match_class_attribute(self):
        for name, cls in CCA_REGISTRY.items():
            assert cls.name == name


class TestExpandMix:
    def test_order_preserved(self):
        assert expand_mix([("vegas", 2), ("newreno", 1)]) == \
            ["vegas", "vegas", "newreno"]

    def test_zero_count_allowed(self):
        assert expand_mix([("vegas", 0), ("bbr", 1)]) == ["bbr"]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expand_mix([("vegas", -1)])


class TestConnectFlow:
    def test_deferred_start(self):
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6,
                                  lambda spec: DropTailQueue(
                                      limit_packets=100),
                                  sim=sim, tx_jitter_ns=0)
        flow = connect_flow(dumbbell.senders[0], dumbbell.receivers[0],
                            "newreno", start_time_ns=seconds(1))
        sim.run(until_ns=seconds(0.5))
        assert not flow.sender.started
        assert flow.sender.sent_segments == 0
        sim.run(until_ns=seconds(2))
        assert flow.sender.started
        assert flow.receiver.delivered_bytes > 0

    def test_goodput_bytes_property(self):
        sim = Simulator()
        dumbbell = build_dumbbell([seconds(0.02)], 10e6,
                                  lambda spec: DropTailQueue(
                                      limit_packets=100),
                                  sim=sim, tx_jitter_ns=0)
        flow = connect_flow(dumbbell.senders[0], dumbbell.receivers[0],
                            "newreno", max_bytes=10 * MSS_BYTES)
        sim.run(until_ns=seconds(2))
        assert flow.goodput_bytes == 10 * MSS_BYTES


class TestEngineClock:
    def test_now_seconds(self):
        sim = Simulator()
        sim.run(until_ns=seconds(1.5))
        assert sim.now_seconds == pytest.approx(1.5)


class TestFlowRecord:
    def test_zero_duration_goodput(self):
        record = FlowRecord(FlowId(1, 2, 3, 4))
        assert record.goodput_bps(0) == 0.0

    def test_first_last_delivery_stamps(self):
        sim = Simulator()
        monitor = FlowMonitor(sim)
        flow = FlowId(1, 2, 3, 4)
        sim.schedule(seconds(1), monitor.on_delivered, flow, 100)
        sim.schedule(seconds(3), monitor.on_delivered, flow, 100)
        sim.run()
        record = monitor.records[flow]
        assert record.first_delivery_ns == seconds(1)
        assert record.last_delivery_ns == seconds(3)


class TestCacheConfigPlumbing:
    def make_qdisc(self, **overrides):
        sim = Simulator()
        params = CebinaeParams(dt_ns=200 * MILLISECOND,
                               vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                               **overrides)
        return CebinaeQueueDisc(sim, params, 8e6, 90_000)

    def test_exact_cache_selected(self):
        qdisc = self.make_qdisc(use_exact_cache=True)
        assert isinstance(qdisc.cache, ExactFlowCache)

    def test_hashpipe_dimensions_forwarded(self):
        qdisc = self.make_qdisc(cache_stages=3, cache_slots=64)
        assert isinstance(qdisc.cache, CebinaeFlowCache)
        assert qdisc.cache.stages == 3
        assert qdisc.cache.slots_per_stage == 64

    def test_factory_spec_name_used(self):
        sim = Simulator()
        factory = cebinae_factory(buffer_mtus=60)
        qdisc = factory(PortSpec(sim=sim, rate_bps=8e6, delay_ns=0,
                                 name="L->R"))
        assert qdisc.name == "L->R"


class TestBaseCca:
    def test_fixed_window_never_changes(self):
        from repro.tcp.cca import AckContext
        cca = CongestionControl()
        before = cca.cwnd_bytes
        cca.on_ack(AckContext(acked_bytes=MSS_BYTES, ack_seq=0,
                              rtt_ns=1, now_ns=0, in_flight_bytes=0,
                              snd_nxt=0))
        assert cca.cwnd_bytes == before

    def test_clamp_floor(self):
        cca = CongestionControl()
        cca.cwnd_bytes = 1.0
        cca.clamp()
        assert cca.cwnd_bytes == 2 * cca.mss

    def test_default_pacing_is_none(self):
        assert CongestionControl().pacing_rate_bps() is None

    def test_repr_mentions_cwnd(self):
        assert "cwnd" in repr(NewReno())


class TestCrossCuttingProperties:
    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.sampled_from([64, 600, 1500])),
                    min_size=1, max_size=120))
    def test_cebinae_qdisc_byte_accounting(self, operations):
        """Random enqueue/dequeue interleavings keep the queue's byte
        and packet accounting exact."""
        sim = Simulator()
        params = CebinaeParams(dt_ns=200 * MILLISECOND,
                               vdt_ns=MILLISECOND, l_ns=MILLISECOND,
                               use_exact_cache=True)
        qdisc = CebinaeQueueDisc(sim, params, 8e6, 90_000)
        from repro.netsim.packet import Packet
        expected_bytes = 0
        expected_count = 0
        for port, size in operations:
            if port == 0 and expected_count:
                packet = qdisc.dequeue()
                if packet is not None:
                    expected_bytes -= packet.size_bytes
                    expected_count -= 1
            else:
                packet = Packet(flow=FlowId(1, 2, port, 80),
                                size_bytes=size)
                if qdisc.enqueue(packet):
                    expected_bytes += size
                    expected_count += 1
        assert qdisc.byte_length == expected_bytes
        assert len(qdisc) == expected_count

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_rtt_estimator_rto_bounds(self, first_us, second_us):
        from repro.tcp.socket import (MAX_RTO_NS, MIN_RTO_NS,
                                      RttEstimator)
        est = RttEstimator()
        est.observe(first_us * 1000)
        est.observe(second_us * 1000)
        assert MIN_RTO_NS <= est.rto_ns <= MAX_RTO_NS

    @given(st.tuples(st.integers(0, 100), st.integers(0, 100),
                     st.integers(1, 65535), st.integers(1, 65535)))
    def test_flowid_reversal_involution(self, parts):
        flow = FlowId(*parts)
        assert flow.reversed().reversed() == flow
