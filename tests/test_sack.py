"""Tests for SACK generation (receiver) and SACK recovery (sender)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import MILLISECOND, Simulator, seconds
from repro.netsim.packet import MSS_BYTES, FlowId, Packet, PacketType
from repro.tcp.newreno import NewReno
from repro.tcp.socket import SACK_BLOCK_LIMIT, TcpReceiver, TcpSender

from tests.test_tcp_socket import make_pair


def data_packet(flow, seq, payload=MSS_BYTES):
    return Packet(flow=flow, size_bytes=payload + 52,
                  ptype=PacketType.DATA, seq=seq,
                  payload_bytes=payload)


class TestReceiverSackGeneration:
    def make_receiver(self):
        sim = Simulator()
        a, b, fwd, rev = make_pair(sim)
        flow = FlowId(0, 1, 100, 80)
        receiver = TcpReceiver(b, flow)
        acks = []
        a.register_handler(flow.reversed(), acks.append)
        return sim, b, flow, receiver, acks

    def test_in_order_data_has_no_sack(self):
        sim, host, flow, receiver, acks = self.make_receiver()
        receiver._on_data_packet(data_packet(flow, 0))
        sim.run()
        assert acks[-1].ack == MSS_BYTES
        assert acks[-1].sack == ()

    def test_gap_generates_sack_block(self):
        sim, host, flow, receiver, acks = self.make_receiver()
        receiver._on_data_packet(data_packet(flow, 0))
        receiver._on_data_packet(data_packet(flow, 2 * MSS_BYTES))
        sim.run()
        assert acks[-1].ack == MSS_BYTES
        assert acks[-1].sack == ((2 * MSS_BYTES, 3 * MSS_BYTES),)

    def test_hole_fill_advances_cumulative_ack(self):
        sim, host, flow, receiver, acks = self.make_receiver()
        receiver._on_data_packet(data_packet(flow, 0))
        receiver._on_data_packet(data_packet(flow, 2 * MSS_BYTES))
        receiver._on_data_packet(data_packet(flow, MSS_BYTES))
        sim.run()
        assert acks[-1].ack == 3 * MSS_BYTES
        assert acks[-1].sack == ()
        assert receiver.delivered_bytes == 3 * MSS_BYTES

    def test_duplicate_data_ignored(self):
        sim, host, flow, receiver, acks = self.make_receiver()
        receiver._on_data_packet(data_packet(flow, 0))
        receiver._on_data_packet(data_packet(flow, 0))
        sim.run()
        assert receiver.delivered_bytes == MSS_BYTES
        assert acks[-1].ack == MSS_BYTES

    def test_overlapping_segments_counted_once(self):
        sim, host, flow, receiver, acks = self.make_receiver()
        receiver._on_data_packet(data_packet(flow, MSS_BYTES))
        # A retransmission that overlaps the buffered range.
        receiver._on_data_packet(data_packet(flow, 0,
                                             payload=2 * MSS_BYTES))
        sim.run()
        assert receiver.delivered_bytes == 2 * MSS_BYTES
        assert receiver.out_of_order_bytes == 0


def byte_runs(covered):
    """Maximal ``(start, end)`` runs of a set of byte indices."""
    runs = []
    for point in sorted(covered):
        if runs and runs[-1][1] == point:
            runs[-1][1] = point + 1
        else:
            runs.append([point, point + 1])
    return [tuple(run) for run in runs]


class TestReceiverAgainstByteSetModel:
    """Reassembly judged by a set of received byte indices.

    The receiver delivers in-order segments straight through when it
    buffers nothing and reassembles otherwise; the model does neither
    — it only remembers which bytes arrived — so both routes must
    land on its ``rcv_nxt``, delivered count and SACK blocks.
    """

    @settings(deadline=None, max_examples=200)
    @given(arrivals=st.lists(
        st.tuples(st.integers(-3, 4),    # start, relative to rcv_nxt
                  st.integers(1, 4)),    # length (both in 50-byte units)
        min_size=1, max_size=60))
    def test_any_arrival_order_matches_the_model(self, arrivals):
        # Starts are drawn around the model's rcv_nxt so that in-order
        # (0), overlapping (< 0) and hole-leaving (> 0) arrivals all
        # occur both with and without buffered ranges.
        sim = Simulator()
        a, b, fwd, rev = make_pair(sim)
        flow = FlowId(0, 1, 100, 80)
        receiver = TcpReceiver(b, flow)
        acks = []
        b.send = acks.append  # Capture ACKs at the source.
        covered = set()
        rcv_nxt = 0
        for offset, length in arrivals:
            seq, payload = max(rcv_nxt + offset * 50, 0), length * 50
            receiver._on_data_packet(data_packet(flow, seq, payload))
            covered.update(range(seq, seq + payload))
            while rcv_nxt in covered:
                rcv_nxt += 1
            above = byte_runs(p for p in covered if p > rcv_nxt)
            assert receiver.rcv_nxt == rcv_nxt
            assert receiver.delivered_bytes == rcv_nxt
            assert receiver.out_of_order_bytes == \
                sum(end - start for start, end in above)
            assert acks[-1].ack == rcv_nxt
            assert acks[-1].sack == tuple(above[:SACK_BLOCK_LIMIT])
            assert acks[-1].flow == flow.reversed()
        assert len(acks) == len(arrivals)


class TestSenderSackRecovery:
    def lossy_connection(self, sim, drop_seqs):
        """A connection whose forward path drops chosen sequence
        numbers once.  The returned set holds those not yet dropped."""
        pending = set(drop_seqs)

        def lose(packet):
            if packet.seq in pending:
                pending.discard(packet.seq)
                return True
            return False

        a, b, fwd, rev = make_pair(sim, rate_bps=40e6, lose=lose)
        flow = FlowId(0, 1, 100, 80)
        receiver = TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno())
        return sender, receiver, pending

    def test_single_loss_repaired_without_rto(self):
        sim = Simulator()
        sender, receiver, pending = self.lossy_connection(
            sim, {3 * MSS_BYTES})
        sender.start()
        sim.run(until_ns=seconds(2))
        assert not pending
        assert sender.timeouts == 0
        assert sender.retransmits >= 1
        assert receiver.delivered_bytes > 20 * MSS_BYTES

    def test_multiple_losses_in_one_window(self):
        """SACK repairs several holes in roughly one RTT, where
        plain NewReno would need one RTT per hole."""
        sim = Simulator()
        drops = {3 * MSS_BYTES, 5 * MSS_BYTES, 7 * MSS_BYTES}
        sender, receiver, pending = self.lossy_connection(sim, drops)
        sender.start()
        sim.run(until_ns=seconds(2))
        assert not pending
        assert sender.timeouts == 0
        assert sender.retransmits >= 3
        # All holes repaired: the receiver's contiguous prefix has
        # caught up with everything the sender saw ACKed (the last few
        # ACKs may still be on the wire at the cutoff).
        assert receiver.rcv_nxt >= sender.snd_una
        assert receiver.out_of_order_bytes <= 16 * MSS_BYTES

    def test_recovery_exits_cleanly(self):
        sim = Simulator()
        sender, receiver, pending = self.lossy_connection(
            sim, {3 * MSS_BYTES})
        sender.start()
        sim.run(until_ns=seconds(2))
        assert not pending
        assert not sender.in_recovery
        assert sender._scoreboard.total_bytes == 0 or \
            sender._scoreboard.max_end > sender.snd_una

    def test_pipe_counts_unsacked_outstanding(self):
        sim = Simulator()
        a, b, fwd, rev = make_pair(sim)
        flow = FlowId(0, 1, 100, 80)
        TcpReceiver(b, flow)
        sender = TcpSender(a, flow, NewReno())
        sender.start()
        # Before any ACK: pipe equals the initial window.
        assert sender.pipe_bytes == sender.in_flight_bytes
        # SACKing a middle block reduces pipe by exactly that block...
        sender._scoreboard.add(2 * MSS_BYTES, 4 * MSS_BYTES)
        # ...plus everything below the forward edge (FACK: presumed
        # lost).
        fack = sender._scoreboard.max_end
        assert sender.pipe_bytes == sender.snd_nxt - fack

    def test_dupack_with_new_sack_info_counts(self):
        sim = Simulator()
        drops = {3 * MSS_BYTES}
        sender, receiver, pending = self.lossy_connection(sim, drops)
        sender.start()
        sim.run(until_ns=seconds(1))
        assert not pending
        # Recovery was triggered by duplicate ACKs carrying SACK.
        assert sender.retransmits >= 1
        assert sender.timeouts == 0
