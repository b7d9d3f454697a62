"""Tests for the shared TCP machinery (sender/receiver/RTT estimator).

These tests run real mini-networks: a sender host, one link each way,
and a receiver host, with a controllable bottleneck.
"""

import pytest

from repro.netsim.engine import MILLISECOND, SECOND, Simulator, seconds
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import (HEADER_BYTES, MSS_BYTES, EcnCodepoint,
                                 FlowId)
from repro.netsim.queues import DropTailQueue
from repro.netsim.tracing import FlowMonitor
from repro.tcp.cca import INITIAL_CWND_SEGMENTS, CongestionControl
from repro.tcp.newreno import NewReno
from repro.tcp.socket import (MIN_RTO_NS, RttEstimator, TcpReceiver,
                              TcpSender)


class LossyQueue(DropTailQueue):
    """A drop-tail queue that silently drops the packets ``lose``
    selects, and keeps them in ``lost``.

    Loss is installed when the link is built: a subclass takes the
    link's general enqueue path, so every packet offered to the port
    reaches the filter.  (An exact ``DropTailQueue`` lets a packet that
    finds its port idle cut through, past a patched ``enqueue``.)
    """

    def __init__(self, lose, limit_packets):
        super().__init__(limit_packets=limit_packets)
        self.lose = lose
        self.lost = []

    def enqueue(self, packet):
        if self.lose(packet):
            self.lost.append(packet)
            return False
        return super().enqueue(packet)


def make_pair(sim, rate_bps=80e6, delay_ns=MILLISECOND,
              queue_packets=1000, lose=None):
    """A two-host network with symmetric links.

    ``lose``, if given, selects the packets the forward port drops
    (its queue is then a :class:`LossyQueue`).
    """
    a = Host(sim, 0, "a")
    b = Host(sim, 1, "b")
    fwd = Link(sim, a, b, rate_bps, delay_ns,
               DropTailQueue(limit_packets=queue_packets)
               if lose is None else LossyQueue(lose, queue_packets))
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
        blackout = [False]
        a, b, fwd, rev = make_pair(sim, rate_bps=10e6,
                                   lose=lambda packet: blackout[0])
        flow = FlowId(0, 1, 100, 80)
        TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno())
        # Break the forward path after the initial burst: every packet
        # sent is silently dropped.
        sender.start()
        burst = sender.sent_segments
        blackout[0] = True
        sim.run(until_ns=seconds(3))
        assert len(fwd.queue.lost) == sender.sent_segments - burst > 0
        assert sender.timeouts >= 1
        # Exponential backoff: later timeouts are spaced further apart.
        assert sender.rtt.rto_ns > MIN_RTO_NS

    def test_sender_recovers_after_blackout(self):
        sim = Simulator()
        blackout = [False]
        a, b, fwd, rev = make_pair(sim, rate_bps=10e6,
                                   lose=lambda packet: blackout[0])
        flow = FlowId(0, 1, 100, 80)
        receiver = TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno())
        sender.start()
        burst = sender.sent_segments
        blackout[0] = True
        sim.run(until_ns=seconds(1))
        # Every packet sent during the blackout reached the filter.
        assert len(fwd.queue.lost) == sender.sent_segments - burst > 0
        blackout[0] = False
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


class TestEcnRoundTrip:
    """RFC 3168 end to end: how a CE mark (the LBF's, paper section 4.3)
    reaches the sender's CCA and is acknowledged with CWR."""

    def transfer(self, ce_at, drop_at=None):
        """100 segments over an ECN connection; the ``ce_at``-th data
        packet sent is marked CE, the ``drop_at``-th is lost."""
        sim = Simulator()
        a, b, _, _ = make_pair(sim, rate_bps=10e6)
        flow = FlowId(0, 1, 100, 80)
        TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno(), max_bytes=100 * MSS_BYTES,
                           ecn_enabled=True)
        data, ece_acks, echoes, reactions = [], [], [], []
        send_data, send_ack = a.send, b.send

        def on_data(packet):
            data.append((packet.ecn, packet.cwr))
            if len(data) - 1 == ce_at:
                packet.mark_ce()
            if len(data) - 1 == drop_at:
                return False
            return send_data(packet)

        def on_ack(packet):
            ece_acks.append(packet.ece)
            return send_ack(packet)

        handle_echo = sender._handle_ecn_echo

        def on_echo():
            echoes.append(sender.in_recovery)
            handle_echo()

        on_ecn = sender.cca.on_ecn

        def on_reaction(now_ns):
            reactions.append(sender.in_recovery)
            on_ecn(now_ns)

        a.send, b.send = on_data, on_ack
        sender._handle_ecn_echo = on_echo
        sender.cca.on_ecn = on_reaction
        sender.start()
        sim.run(until_ns=seconds(2))
        assert sender.completed
        return data, ece_acks, echoes, reactions

    def test_ce_is_echoed_until_cwr_and_answered_once(self):
        data, ece_acks, echoes, reactions = self.transfer(ce_at=3)
        assert {ecn for ecn, _ in data} == {EcnCodepoint.ECT0}
        # One ACK per data packet, in order: ECE from the CE segment
        # up to, not including, the first segment carrying CWR.
        cwr_at = [cwr for _, cwr in data].index(True)
        assert sum(cwr for _, cwr in data) == 1
        assert ece_acks == ([False] * 3 + [True] * (cwr_at - 3)
                            + [False] * (len(data) - cwr_at))
        # Several ECE ACKs in that window, one reaction.
        assert len(echoes) == cwr_at - 3 >= 2
        assert reactions == [False]

    def test_no_reaction_during_loss_recovery(self):
        # Segment 2 is lost, so segment 8's CE echo reaches the sender
        # on a duplicate ACK after fast retransmit has begun.
        data, _, echoes, reactions = self.transfer(ce_at=8, drop_at=2)
        assert True in echoes
        assert reactions == [False]
        assert sum(cwr for _, cwr in data) == 1


class _RecordingNewReno(NewReno):
    """NewReno that keeps every AckContext it is handed, each with the
    clock it was handed at, and the recovery callbacks in between."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.log = []

    def on_ack(self, ctx):
        self.log.append(("ack", ctx, self.sim.now_ns))
        super().on_ack(ctx)

    def on_enter_recovery(self, in_flight_bytes, now_ns):
        self.log.append(("enter", None, now_ns))
        super().on_enter_recovery(in_flight_bytes, now_ns)

    def on_exit_recovery(self, now_ns):
        self.log.append(("exit", None, now_ns))
        super().on_exit_recovery(now_ns)

    def on_retransmit_timeout(self, in_flight_bytes, now_ns):
        self.log.append(("rto", None, now_ns))
        super().on_retransmit_timeout(in_flight_bytes, now_ns)


class TestAckContext:
    """``TcpSender`` builds the per-ACK :class:`AckContext`
    positionally, so a field out of place reads another's value."""

    MAX_BYTES = 120 * MSS_BYTES

    def lossy_transfer(self):
        sim = Simulator()
        pending = {20 * MSS_BYTES, 23 * MSS_BYTES, 26 * MSS_BYTES}

        def lose(packet):
            if packet.seq in pending:
                pending.discard(packet.seq)
                return True
            return False

        a, b, _, _ = make_pair(sim, rate_bps=40e6, lose=lose)
        flow = FlowId(0, 1, 100, 80)
        TcpReceiver(b, flow)
        cca = _RecordingNewReno(sim)
        sender = TcpSender(a, flow, cca, max_bytes=self.MAX_BYTES)
        sender.start()
        sim.run(until_ns=seconds(2))
        assert not pending and sender.completed
        return cca.log

    def test_fields_in_declaration_order(self):
        log = self.lossy_transfer()
        acked_seq = 0
        recovering = False
        seen = set()
        for kind, ctx, now_ns in log:
            if kind == "enter":
                recovering = True
                continue
            if kind in ("exit", "rto"):
                # RTO recovery is slow start for the CCA.
                recovering = False
                continue
            assert ctx.acked_bytes == ctx.ack_seq - acked_seq > 0
            acked_seq = ctx.ack_seq
            assert ctx.snd_nxt >= ctx.ack_seq
            assert ctx.now_ns == now_ns
            assert ctx.in_recovery is recovering
            assert ctx.is_app_limited is \
                (ctx.snd_nxt >= self.MAX_BYTES)
            assert ctx.rtt_ns is None or \
                (isinstance(ctx.rtt_ns, int) and ctx.rtt_ns > 0)
            assert ctx.delivery_rate_bps is None or \
                isinstance(ctx.delivery_rate_bps, float)
            assert ctx.in_flight_bytes >= 0
            seen.add((ctx.in_recovery, ctx.is_app_limited))
        assert acked_seq == self.MAX_BYTES
        # Every flag was seen both ways, and apart from each other.
        assert (True, False) in seen and (False, True) in seen
        assert (False, False) in seen

    def test_profile_rows_of_the_per_ack_constructors(self):
        """Each per-packet dataclass constructor has a cProfile row of
        its own (``netsim.profiling.name_init``); unnamed, they share
        the one ``<string>:2(__init__)`` row."""
        import cProfile
        import pstats
        sim = Simulator()
        sender, _, _, _ = make_connection(sim, max_bytes=40 * MSS_BYTES)
        profile = cProfile.Profile()
        profile.enable()
        sender.start()
        sim.run(until_ns=seconds(1))
        profile.disable()
        calls = {name: ncalls for (_, _, name), (_, ncalls, *_) in
                 pstats.Stats(profile).stats.items()}
        assert sender.completed
        assert calls.get("AckContext.__init__", 0) > 0
        assert calls.get("Packet.__init__", 0) > 0
