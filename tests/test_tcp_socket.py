"""Tests for the shared TCP machinery (sender/receiver/RTT estimator).

These tests run real mini-networks: a sender host, one link each way,
and a receiver host, with a controllable bottleneck.
"""

import pytest

from repro.netsim.engine import MILLISECOND, SECOND, Simulator, seconds
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import HEADER_BYTES, MSS_BYTES, FlowId
from repro.netsim.queues import DropTailQueue
from repro.netsim.tracing import FlowMonitor
from repro.tcp.cca import INITIAL_CWND_SEGMENTS, CongestionControl
from repro.tcp.newreno import NewReno
from repro.tcp.socket import (MIN_RTO_NS, RttEstimator, TcpReceiver,
                              TcpSender)


def make_pair(sim, rate_bps=80e6, delay_ns=MILLISECOND,
              queue_packets=1000):
    """A two-host network with symmetric links."""
    a = Host(sim, 0, "a")
    b = Host(sim, 1, "b")
    fwd = Link(sim, a, b, rate_bps, delay_ns,
               DropTailQueue(limit_packets=queue_packets))
    rev = Link(sim, b, a, rate_bps, delay_ns,
               DropTailQueue(limit_packets=queue_packets))
    a.attach_link(fwd)
    b.attach_link(rev)
    a.routes[1] = fwd
    b.routes[0] = rev
    return a, b, fwd, rev


def make_connection(sim, cca=None, max_bytes=None, **net_kwargs):
    a, b, fwd, rev = make_pair(sim, **net_kwargs)
    flow = FlowId(0, 1, 100, 80)
    monitor = FlowMonitor(sim)
    receiver = TcpReceiver(b, flow, monitor=monitor)
    sender = TcpSender(a, flow, cca or NewReno(),
                       max_bytes=max_bytes)
    return sender, receiver, fwd, monitor


class TestRttEstimator:
    def test_first_sample_initialises(self):
        est = RttEstimator()
        est.observe(100 * MILLISECOND)
        assert est.srtt_ns == 100 * MILLISECOND
        assert est.rttvar_ns == 50 * MILLISECOND

    def test_smoothing(self):
        est = RttEstimator()
        est.observe(100 * MILLISECOND)
        est.observe(200 * MILLISECOND)
        # srtt = 7/8*100 + 1/8*200 = 112.5 ms.
        assert est.srtt_ns == pytest.approx(112.5 * MILLISECOND, rel=.01)

    def test_rto_floor(self):
        est = RttEstimator()
        est.observe(1 * MILLISECOND)
        assert est.rto_ns >= MIN_RTO_NS

    def test_variance_floor_is_one_millisecond(self):
        # Constant samples decay rttvar to 0; RTO then rests on the
        # clock-granularity floor, a MILLISECOND and not 1 ns.
        est = RttEstimator()
        est.observe(300 * MILLISECOND)
        while est.rttvar_ns:
            est.observe(300 * MILLISECOND)
        assert est.rto_ns == 301 * MILLISECOND

    def test_backoff_doubles(self):
        est = RttEstimator()
        est.observe(100 * MILLISECOND)
        before = est.rto_ns
        est.backoff()
        assert est.rto_ns == 2 * before


class TestBasicTransfer:
    def test_finite_transfer_completes(self):
        sim = Simulator()
        sender, receiver, _, _ = make_connection(
            sim, max_bytes=50 * MSS_BYTES)
        sender.start()
        sim.run(until_ns=seconds(5))
        assert sender.completed
        assert receiver.delivered_bytes == 50 * MSS_BYTES

    def test_completion_callback(self):
        sim = Simulator()
        done = []
        a, b, _, _ = make_pair(sim)
        flow = FlowId(0, 1, 100, 80)
        TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno(),
                           max_bytes=5 * MSS_BYTES,
                           on_complete=lambda: done.append(sim.now_ns))
        sender.start()
        sim.run(until_ns=seconds(2))
        assert len(done) == 1

    def test_initial_window_burst(self):
        sim = Simulator()
        sender, _, fwd, _ = make_connection(sim)
        sender.start()
        # Before any ACK returns, exactly IW segments are in flight.
        assert sender.in_flight_bytes == \
            INITIAL_CWND_SEGMENTS * MSS_BYTES

    def test_goodput_reaches_link_rate(self):
        sim = Simulator()
        sender, receiver, fwd, monitor = make_connection(
            sim, rate_bps=10e6, queue_packets=100)
        sender.start()
        sim.run(until_ns=seconds(10))
        goodput = receiver.delivered_bytes * 8 / 10
        assert goodput > 0.9 * 10e6

    def test_delivery_is_in_order(self):
        # Both delivery paths (straight through, and out of reassembly
        # after a loss) report to the monitor: every delivery starts
        # where the previous one ended.
        sim = Simulator()
        deliveries = []
        a, b, _, _ = make_pair(sim, rate_bps=10e6, queue_packets=20)
        flow = FlowId(0, 1, 100, 80)
        monitor = FlowMonitor(sim)
        receiver = TcpReceiver(b, flow, monitor=monitor)
        original = monitor.on_delivered

        def spy(flow_id, payload):
            deliveries.append((receiver.rcv_nxt - payload, payload))
            original(flow_id, payload)

        monitor.on_delivered = spy
        sender = TcpSender(a, flow, NewReno())
        sender.start()
        sim.run(until_ns=seconds(3))
        assert sender.retransmits > 0  # The reassembly path ran too.
        position = 0
        for start, payload in deliveries:
            assert start == position and payload > 0
            position += payload
        assert position == receiver.delivered_bytes == receiver.rcv_nxt


class TestSlowStart:
    def test_cwnd_doubles_per_rtt(self):
        sim = Simulator()
        sender, _, _, _ = make_connection(sim, rate_bps=1e9,
                                          delay_ns=10 * MILLISECOND)
        sender.start()
        sim.run(until_ns=seconds(0.021 * 3))
        # After ~3 RTTs of slow start the window should have grown
        # several-fold (ABC: +1 MSS per full-MSS ACK).
        assert sender.cca.cwnd_bytes >= 4 * INITIAL_CWND_SEGMENTS \
            * MSS_BYTES


class TestLossRecovery:
    def test_fast_retransmit_on_triple_dupack(self):
        sim = Simulator()
        # Tiny queue forces a loss burst once cwnd exceeds it.
        sender, receiver, _, _ = make_connection(
            sim, rate_bps=10e6, queue_packets=15)
        sender.start()
        sim.run(until_ns=seconds(5))
        assert sender.retransmits > 0
        # Fast retransmit, not timeout, should dominate recovery.
        assert sender.timeouts <= sender.retransmits

    def test_recovery_halves_window(self):
        sim = Simulator()
        sender, _, _, _ = make_connection(sim, rate_bps=5e6,
                                          queue_packets=10)
        sender.start()
        events = []
        cca = sender.cca
        original = cca.on_enter_recovery

        def spy(in_flight, now):
            before = cca.cwnd_bytes
            original(in_flight, now)
            events.append((before, cca.cwnd_bytes))

        cca.on_enter_recovery = spy
        sim.run(until_ns=seconds(5))
        assert events, "expected at least one recovery episode"
        for before, after in events:
            assert after <= before

    def test_rto_fires_when_all_acks_lost(self):
        sim = Simulator()
        a, b, fwd, rev = make_pair(sim, rate_bps=10e6)
        flow = FlowId(0, 1, 100, 80)
        TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno())
        # Break the forward path after the initial burst: every packet
        # sent is silently dropped.
        sender.start()
        fwd.queue.enqueue = lambda packet: False
        sim.run(until_ns=seconds(3))
        assert sender.timeouts >= 1
        # Exponential backoff: later timeouts are spaced further apart.
        assert sender.rtt.rto_ns > MIN_RTO_NS

    def test_sender_recovers_after_blackout(self):
        sim = Simulator()
        a, b, fwd, rev = make_pair(sim, rate_bps=10e6)
        flow = FlowId(0, 1, 100, 80)
        receiver = TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno())
        sender.start()
        real_enqueue = fwd.queue.enqueue
        fwd.queue.enqueue = lambda packet: False
        sim.run(until_ns=seconds(1))
        fwd.queue.enqueue = real_enqueue
        sim.run(until_ns=seconds(8))
        assert receiver.delivered_bytes > 100 * MSS_BYTES


class TestRtoTimer:
    def test_rearm_pushes_what_cancel_and_schedule_push(self):
        """``_arm_rto`` builds the timer entry itself; a twin run that
        re-arms through ``cancel()`` + ``Simulator.schedule`` must
        leave the same heap, key for key."""
        sims = [Simulator(), Simulator()]
        senders = []
        for sim in sims:
            sender, _, _, _ = make_connection(sim)
            sender.start()
            sim.run(until_ns=5 * MILLISECOND)
            senders.append(sender)
        inline, twin = senders
        previous = [sender._rto_event for sender in senders]
        assert previous[0] is not None and not previous[0].cancelled
        inline._arm_rto()
        previous[1].cancel()
        twin._rto_event = sims[1].schedule(twin.rtt.rto_ns, twin._on_rto)

        def keys(sim):
            return sorted((time_ns, seq, callback is None,
                           args.cancelled if callback is None else None)
                          for time_ns, seq, callback, args in sim._heap)

        assert previous[0].cancelled
        assert keys(sims[0]) == keys(sims[1])
        # One seq drawn, no more: both counters stand at the same place.
        assert sims[0]._next_seq() == sims[1]._next_seq()
        armed, expected = inline._rto_event, twin._rto_event
        assert armed is not previous[0] and not armed.cancelled
        assert (armed.time_ns, armed.seq, armed.args) == \
            (expected.time_ns, expected.seq, expected.args)
        assert armed.callback == inline._on_rto
        for sim in sims:
            sim.run(until_ns=seconds(1))
        assert sims[0].processed_events == sims[1].processed_events
        assert inline.snd_una == twin.snd_una > 0


class _FixedRate(CongestionControl):
    """The smallest paced CCA: a constant pacing rate."""

    RATE_BPS = 8e6

    def pacing_rate_bps(self):
        return self.RATE_BPS


class _NoRate(CongestionControl):
    """Overrides the pacing hook but supplies no rate: ACK clocking."""

    def pacing_rate_bps(self):
        return None


class TestPacing:
    @pytest.mark.parametrize("cca_cls, gap_ns", [
        (_FixedRate, int((MSS_BYTES + HEADER_BYTES) * 8 * SECOND
                         / _FixedRate.RATE_BPS)),
        (_NoRate, 0),
        (CongestionControl, 0)])
    def test_sends_are_spaced_by_the_pacing_rate(self, cca_cls, gap_ns):
        # Only a CCA class that overrides pacing_rate_bps reaches the
        # pacing gate; overriding it must still pace.
        sim = Simulator()
        sender, _, _, _ = make_connection(sim, cca=cca_cls())
        host = sender.host
        sends = []
        send = host.send

        def spy(packet):
            sends.append(sim.now_ns)
            return send(packet)

        host.send = spy
        sender.start()
        sim.run(until_ns=8 * MILLISECOND)
        first = sends[:INITIAL_CWND_SEGMENTS // 2]
        assert [later - earlier for earlier, later
                in zip(first, first[1:])] == [gap_ns] * (len(first) - 1)


class TestKarnsAlgorithm:
    def test_no_rtt_sample_from_retransmitted_range(self):
        sim = Simulator()
        sender, _, _, _ = make_connection(sim, rate_bps=10e6,
                                          queue_packets=10)
        samples = []
        original = sender.rtt.observe

        def spy(rtt_ns):
            samples.append(rtt_ns)
            original(rtt_ns)

        sender.rtt.observe = spy
        sender.start()
        sim.run(until_ns=seconds(5))
        assert sender.retransmits > 0
        # All collected samples must be plausible (>= the 2 ms base
        # RTT): a sample measured against a retransmission would be
        # wildly off.
        for sample in samples:
            assert sample >= 2 * MILLISECOND


class TestCloseAndHygiene:
    def test_close_releases_handler(self):
        sim = Simulator()
        sender, receiver, _, _ = make_connection(sim)
        sender.close()
        receiver.close()
        a = sender.host
        assert a._handlers == {}

    def test_sender_does_not_send_after_completion(self):
        sim = Simulator()
        sender, _, _, _ = make_connection(sim, max_bytes=MSS_BYTES)
        sender.start()
        sim.run(until_ns=seconds(2))
        sent = sender.sent_segments
        sim.run(until_ns=seconds(4))
        assert sender.sent_segments == sent
