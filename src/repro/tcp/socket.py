"""TCP endpoints: reliability, SACK recovery, pacing, and ECN echo.

The sender implements the transport machinery shared by every CCA:

* cumulative ACKs with duplicate-ACK counting and fast retransmit;
* SACK loss recovery (a simplified RFC 6675 scoreboard: the receiver
  reports its out-of-order ranges, the sender fills holes below the
  highest SACKed byte while keeping the FACK ``pipe`` estimate under
  cwnd) — the only recovery machine, as SACK is on by default in
  ns-3.35, the paper's simulation substrate;
* RFC 6298 RTT estimation and retransmission timeout with Karn's
  algorithm extended to hole-repair ACKs (no samples from any ACK whose
  range starts below the retransmission high-water mark — such ACKs
  measure recovery latency, not network RTT);
* RTO recovery through the same scoreboard: everything unSACKed is
  presumed lost and refilled as the window rebuilds in slow start;
* per-segment delivery-rate samples for BBR;
* optional packet pacing (used whenever the CCA supplies a rate);
* RFC 3168 ECN: senders mark data ECT(0) when enabled, receivers echo
  CE via ECE until the sender acknowledges with CWR.

The receiver delivers in-order payload to a
:class:`~repro.netsim.tracing.FlowMonitor` — that delivery stream is
the "application goodput" metric of the paper's tables.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from ..netsim.engine import MILLISECOND, SECOND, Event, Simulator
from ..netsim.node import Host
from ..netsim.packet import (ACK_BYTES, HEADER_BYTES, MSS_BYTES,
                             EcnCodepoint, FlowId, Packet, PacketType)
from ..netsim.tracing import FlowMonitor
from ..obs import bus as obs_bus
from ..obs.events import TcpStateEvent

if TYPE_CHECKING:
    from ..core.units import Bytes, TimeNs
from .cca import AckContext, CongestionControl
from .intervals import IntervalSet

#: RTO floor (Linux default; ns-3's 1 s makes small simulations sluggish).
MIN_RTO_NS = 200 * MILLISECOND
#: RTO ceiling (RFC 6298).
MAX_RTO_NS = 60 * SECOND
#: RTO before the first RTT sample (RFC 6298 suggests 1 s).
INITIAL_RTO_NS = 1 * SECOND
#: Duplicate ACK threshold for fast retransmit.
DUPACK_THRESHOLD = 3
#: SACK blocks carried per ACK.  Real TCP fits 3-4 in the option space;
#: the simulator is not bound by a 40-byte options field, and richer
#: blocks only remove an artificial recovery slowdown.
SACK_BLOCK_LIMIT = 16


@dataclass
class _SegmentInfo:
    """Bookkeeping for one transmitted data segment."""

    end_seq: int
    sent_time_ns: TimeNs
    delivered_at_send: int


class RttEstimator:
    """RFC 6298 smoothed RTT and retransmission timeout."""

    def __init__(self) -> None:
        self.srtt_ns: Optional[TimeNs] = None
        self.rttvar_ns: TimeNs = 0
        self.rto_ns: TimeNs = INITIAL_RTO_NS

    def observe(self, rtt_ns: TimeNs) -> None:
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
        else:
            delta = abs(self.srtt_ns - rtt_ns)
            self.rttvar_ns = (3 * self.rttvar_ns + delta) // 4
            self.srtt_ns = (7 * self.srtt_ns + rtt_ns) // 8
        raw = self.srtt_ns + max(4 * self.rttvar_ns, MILLISECOND)
        self.rto_ns = min(max(raw, MIN_RTO_NS), MAX_RTO_NS)

    def backoff(self) -> None:
        self.rto_ns = min(self.rto_ns * 2, MAX_RTO_NS)


class TcpSender:
    """A bulk-data TCP sender with a pluggable congestion controller."""

    def __init__(self, host: Host, flow: FlowId, cca: CongestionControl,
                 max_bytes: Optional[int] = None,
                 ecn_enabled: bool = False,
                 on_complete: Optional[Callable[[], None]] = None) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.flow = flow
        self.cca = cca
        self.max_bytes = max_bytes
        self.ecn_enabled = ecn_enabled
        self.on_complete = on_complete
        # Sequence state.
        self.snd_una = 0
        self.snd_nxt = 0
        # Recovery state.
        self.dupack_count = 0
        self.in_recovery = False
        self._recover_seq = 0
        self._scoreboard = IntervalSet()  # SACKed ranges above snd_una.
        self._recovery_scan = 0         # Hole-fill pointer.
        self._retx_out_bytes = 0        # Retransmissions in flight.
        self._rto_recovery = False      # Hole-fill everything unSACKed.
        # ECN state.
        self._ecn_recover_seq = 0
        self._cwr_pending = False
        # Timing.
        self.rtt = RttEstimator()
        self._rto_event: Optional[Event] = None
        self._pacing_event: Optional[Event] = None
        self._pacing_next_ns = 0
        # Karn's algorithm: no RTT samples at or below this sequence.
        self._ambiguous_below = 0
        # Delivery-rate accounting (BBR).
        self._delivered_bytes = 0
        self._segments: Deque[_SegmentInfo] = collections.deque()
        # Counters for diagnostics and tests.
        self.retransmits = 0
        self.timeouts = 0
        self.sent_segments = 0
        self.completed = False
        self.started = False
        # Observability: cwnd samples and state transitions.  Bound
        # once; the disabled path pays one attribute test per ACK.
        self._trace_tcp = obs_bus.emitter_for("tcp")
        self._ack_flow = flow.reversed()
        host.register_handler(self._ack_flow, self._on_ack_packet)

    def _trace_state(self, kind: str) -> None:
        """Emit one TcpStateEvent (only called when the topic is on)."""
        trace = self._trace_tcp
        if trace is not None:
            trace(TcpStateEvent(time_ns=self.sim.now_ns,
                                flow=str(self.flow), kind=kind,
                                cwnd_bytes=self.cca.cwnd_bytes,
                                snd_una=self.snd_una,
                                snd_nxt=self.snd_nxt))

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (call at the flow's start time)."""
        self.started = True
        if self._trace_tcp is not None:
            self._trace_state("start")
        self._try_send()

    @property
    def in_flight_bytes(self) -> Bytes:
        return self.snd_nxt - self.snd_una

    @property
    def pipe_bytes(self) -> Bytes:
        """Outstanding bytes believed to be in the network.

        FACK-style estimate: everything between the forward-most SACKed
        byte and ``snd_nxt`` is in flight, everything unSACKed below it
        is presumed lost, plus retransmissions still outstanding.
        Without the lost-byte exclusion, drops pin ``pipe`` at ``cwnd``
        and recovery deadlocks until the RTO.
        """
        horizon = self._scoreboard.max_end  # The forward-most SACK.
        if horizon < self.snd_una:
            horizon = self.snd_una
        if self._rto_recovery and horizon < self._recover_seq:
            # On RTO everything outstanding was marked lost: only
            # retransmissions and data sent after the timeout count.
            horizon = self._recover_seq
        if horizon >= self.snd_nxt:
            return self._retx_out_bytes
        return self.snd_nxt - horizon + self._retx_out_bytes

    # -- transmission -------------------------------------------------------
    def _next_hole(self) -> Optional[int]:
        """The next unSACKed byte to retransmit in recovery.

        In fast recovery a byte counts as lost when SACKed data exists
        above it (the RFC 6675 'FACK' heuristic, adequate at simulation
        fidelity).  In RTO recovery everything unSACKed below the
        recovery point is retransmitted — go-back-N that skips ranges
        the receiver already holds.
        """
        point = max(self._recovery_scan, self.snd_una)
        gap = self._scoreboard.first_gap_at_or_after(point)
        if gap >= self._recover_seq:
            return None
        if not self._rto_recovery and gap >= self._scoreboard.max_end:
            return None
        return gap

    def _try_send(self) -> None:
        while True:
            if self.in_recovery:
                hole = self._next_hole()
                if hole is not None and \
                        self.pipe_bytes + MSS_BYTES <= self.cca.cwnd_bytes:
                    if not self._pacing_gate():
                        return
                    payload = max(min(MSS_BYTES,
                                      self._recover_seq - hole), 1)
                    self._transmit(hole, payload, retransmit=True)
                    self._recovery_scan = hole + payload
                    continue
            # A new segment: none before start or after completion, at
            # most what the application has left, and only while pipe
            # (:attr:`pipe_bytes`, inline: once per segment) leaves room.
            if not self.started or self.completed:
                return
            snd_nxt = self.snd_nxt
            payload = MSS_BYTES
            if self.max_bytes is not None:
                remaining = self.max_bytes - snd_nxt
                if remaining < payload:
                    if remaining <= 0:
                        return
                    payload = remaining
            horizon = self._scoreboard.max_end
            if horizon < self.snd_una:
                horizon = self.snd_una
            if self._rto_recovery and horizon < self._recover_seq:
                horizon = self._recover_seq
            pipe = self._retx_out_bytes
            if horizon < snd_nxt:
                pipe += snd_nxt - horizon
            if pipe + payload > self.cca.cwnd_bytes \
                    or not self._pacing_gate():
                return
            self._transmit(snd_nxt, payload, retransmit=False)
            self.snd_nxt = snd_nxt + payload

    def _pacing_gate(self) -> bool:
        """True if a packet may be sent now; otherwise arm the pacer."""
        rate_bps = self.cca.pacing_rate_bps()
        if rate_bps is None or rate_bps <= 0:
            return True
        now = self.sim.now_ns
        if now < self._pacing_next_ns:
            if self._pacing_event is None:
                self._pacing_event = self.sim.schedule_at(
                    self._pacing_next_ns, self._on_pacing_timer)
            return False
        gap_ns = int((MSS_BYTES + HEADER_BYTES) * 8 * SECOND / rate_bps)
        self._pacing_next_ns = max(now, self._pacing_next_ns) + gap_ns
        return True

    def _on_pacing_timer(self) -> None:
        self._pacing_event = None
        self._try_send()

    def _transmit(self, seq: int, payload: int, retransmit: bool) -> None:
        now = self.sim.now_ns
        packet = Packet(flow=self.flow, size_bytes=payload + HEADER_BYTES,
                        ptype=PacketType.DATA, seq=seq,
                        payload_bytes=payload)
        if self.ecn_enabled:
            packet.ecn = EcnCodepoint.ECT0
        if self._cwr_pending:
            packet.cwr = True
            self._cwr_pending = False
        if retransmit:
            self.retransmits += 1
            self._retx_out_bytes += payload
            self._ambiguous_below = max(self._ambiguous_below,
                                        seq + payload)
        else:
            self._segments.append(_SegmentInfo(
                end_seq=seq + payload, sent_time_ns=now,
                delivered_at_send=self._delivered_bytes))
        self.sent_segments += 1
        self.host.send(packet)
        # RFC 6298: arm the timer if idle, but never push back a running
        # one on transmission — only new-data ACKs restart it.  (A
        # retransmission must restart it or the backoff never takes
        # effect.)
        if self._rto_event is None or retransmit:
            self._arm_rto()

    def _retransmit_head(self) -> None:
        payload = min(MSS_BYTES, (self.max_bytes - self.snd_una)
                      if self.max_bytes is not None else MSS_BYTES)
        payload = max(payload, 1)
        self._transmit(self.snd_una, payload, retransmit=True)
        self._recovery_scan = self.snd_una + payload

    # -- timers ----------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        self._rto_event = self.sim.schedule(self.rtt.rto_ns, self._on_rto)

    def _disarm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.in_flight_bytes <= 0 or self.completed:
            return
        self.timeouts += 1
        if self._trace_tcp is not None:
            self._trace_state("rto")
        # RFC 5681 FlightSize: use the pipe estimate (lost bytes
        # excluded) — the raw sequence range is inflated by dead data
        # and would leave ssthresh far above what the path can hold.
        self.cca.on_retransmit_timeout(self.pipe_bytes, self.sim.now_ns)
        self.dupack_count = 0
        self.rtt.backoff()
        # All outstanding timing info is now ambiguous (Karn).
        self._segments.clear()
        self._ambiguous_below = max(self._ambiguous_below, self.snd_nxt)
        self._retx_out_bytes = 0
        # Enter RTO recovery: everything outstanding and unSACKed is
        # presumed lost and refilled through the scoreboard's hole
        # machinery as the window rebuilds in slow start.
        self.in_recovery = True
        self._rto_recovery = True
        self._recover_seq = self.snd_nxt
        self._recovery_scan = self.snd_una
        self._try_send()
        if self._rto_event is None and self.in_flight_bytes > 0:
            self._arm_rto()

    # -- ACK processing ----------------------------------------------------------
    def _on_ack_packet(self, packet: Packet) -> None:
        if packet.ptype is not PacketType.ACK:
            return
        if packet.ece:
            self._handle_ecn_echo()
        new_sack_info = bool(packet.sack) and \
            self._update_scoreboard(packet.sack)
        ack = packet.ack
        if ack > self.snd_una:
            self._handle_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > ack and new_sack_info:
            self._handle_dupack()
        self._try_send()
        self._maybe_complete()

    def _update_scoreboard(
            self, blocks: Tuple[Tuple[int, int], ...]) -> bool:
        """Merge an ACK's SACK blocks; True if anything was new.

        Newly SACKed bytes count into the delivered counter immediately
        (as in Linux's rate sampler): deferring them to the cumulative
        hole-repair ACK would make delivery-rate samples spike far above
        the true bottleneck bandwidth.
        """
        scoreboard = self._scoreboard
        snd_una = self.snd_una
        before = scoreboard.total_bytes
        for start, end in blocks:
            if start < snd_una:
                start = snd_una
            if end > start:
                scoreboard.add(start, end)
        newly_sacked = scoreboard.total_bytes - before
        self._delivered_bytes += newly_sacked
        return newly_sacked > 0

    def _handle_ecn_echo(self) -> None:
        if self.snd_una < self._ecn_recover_seq or self.in_recovery:
            return  # Already reacted this window.
        self.cca.on_ecn(self.sim.now_ns)
        self._ecn_recover_seq = self.snd_nxt
        self._cwr_pending = True
        if self._trace_tcp is not None:
            self._trace_state("ecn_backoff")

    def _collect_samples(
            self, ack: int) -> Tuple[Optional[int], Optional[float]]:
        """RTT and delivery-rate samples from newly acked segments."""
        rtt_sample: Optional[int] = None
        rate_sample: Optional[float] = None
        now = self.sim.now_ns
        while self._segments and self._segments[0].end_seq <= ack:
            info = self._segments.popleft()
            if info.end_seq <= self._ambiguous_below:
                continue  # Karn: retransmitted range, timing ambiguous.
            rtt_sample = now - info.sent_time_ns
            interval_ns = now - info.sent_time_ns
            delivered = self._delivered_bytes - info.delivered_at_send
            if interval_ns > 0 and delivered > 0:
                rate_sample = delivered * 8 * SECOND / interval_ns
        return rtt_sample, rate_sample

    def _handle_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        # If the ACKed range begins below the retransmission high-water
        # mark, this is a hole-repair ACK: it may cumulatively cover
        # segments that were *delivered* long ago but blocked in the
        # receiver's reassembly queue, so their (ack time - send time)
        # measures recovery latency, not network RTT (Karn's algorithm,
        # applied to the whole ambiguous range).
        ambiguous_ack = self.snd_una < self._ambiguous_below
        # Bytes in the ACKed range that were already counted when they
        # were SACKed (or before an RTO) must not count twice.
        scoreboard = self._scoreboard
        if scoreboard:
            sacked_before = scoreboard.total_bytes
            scoreboard.prune_below(ack)
            already_counted = sacked_before - scoreboard.total_bytes
            self._delivered_bytes += max(acked - already_counted, 0)
        else:
            self._delivered_bytes += acked
        self._retx_out_bytes = max(self._retx_out_bytes - acked, 0)
        self.snd_una = ack
        self.dupack_count = 0
        rtt_sample, rate_sample = self._collect_samples(ack)
        if ambiguous_ack:
            rtt_sample, rate_sample = None, None
        if rtt_sample is not None:
            self.rtt.observe(rtt_sample)
        # On a partial ACK the scoreboard drives hole retransmissions
        # from _try_send; only a full ACK of the recovery point matters.
        if self.in_recovery and ack >= self._recover_seq:
            was_rto_recovery = self._rto_recovery
            self.in_recovery = False
            self._rto_recovery = False
            if not was_rto_recovery:
                # Fast recovery deflates to ssthresh.  RTO recovery is
                # ordinary slow start: the window grew with the ACK
                # clock and must not jump (the jump would burst a full
                # ssthresh of packets into the queue).
                self.cca.on_exit_recovery(self.sim.now_ns)
            if self._trace_tcp is not None:
                self._trace_state("exit_recovery")
        # The CCA sees :attr:`pipe_bytes`, inline (once per ACK).
        snd_nxt = self.snd_nxt
        horizon = scoreboard.max_end
        if horizon < ack:
            horizon = ack
        if self._rto_recovery and horizon < self._recover_seq:
            horizon = self._recover_seq
        pipe = self._retx_out_bytes
        if horizon < snd_nxt:
            pipe += snd_nxt - horizon
        max_bytes = self.max_bytes
        ctx = AckContext(acked_bytes=acked, ack_seq=ack,
                         rtt_ns=rtt_sample, now_ns=self.sim.now_ns,
                         in_flight_bytes=pipe, snd_nxt=snd_nxt,
                         delivery_rate_bps=rate_sample,
                         is_app_limited=max_bytes is not None
                         and snd_nxt >= max_bytes,
                         # RTO recovery is slow start for the CCA: the
                         # window must rebuild with the ACK clock.
                         in_recovery=self.in_recovery
                         and not self._rto_recovery)
        self.cca.on_ack(ctx)
        if self._trace_tcp is not None:
            self._trace_state("cwnd")
        if self.snd_nxt > ack:
            self._arm_rto()
        else:
            self._disarm_rto()

    def _handle_dupack(self) -> None:
        self.dupack_count += 1
        if self.in_recovery:
            return
        if self.dupack_count >= DUPACK_THRESHOLD:
            self.in_recovery = True
            self._recover_seq = self.snd_nxt
            self.cca.on_enter_recovery(self.pipe_bytes,
                                       self.sim.now_ns)
            if self._trace_tcp is not None:
                self._trace_state("fast_recovery")
            self._retransmit_head()

    def _maybe_complete(self) -> None:
        if (not self.completed and self.max_bytes is not None
                and self.snd_una >= self.max_bytes):
            self.completed = True
            if self._trace_tcp is not None:
                self._trace_state("complete")
            self._disarm_rto()
            if self._pacing_event is not None:
                self._pacing_event.cancel()
                self._pacing_event = None
            if self.on_complete is not None:
                self.on_complete()

    def close(self) -> None:
        """Stop the sender and release its handler and timers."""
        self.completed = True
        self._disarm_rto()
        if self._pacing_event is not None:
            self._pacing_event.cancel()
            self._pacing_event = None
        self.host.unregister_handler(self._ack_flow)


class TcpReceiver:
    """A TCP receiver: reassembly, immediate ACKs, SACK, ECN echo."""

    def __init__(self, host: Host, flow: FlowId,
                 monitor: Optional[FlowMonitor] = None) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.flow = flow
        self.monitor = monitor
        self._ack_flow = flow.reversed()
        self.rcv_nxt = 0
        self.delivered_bytes = 0
        self._ranges = IntervalSet()  # Out-of-order data above rcv_nxt.
        self._ece = False
        self.received_segments = 0
        if monitor is not None:
            monitor.register(flow)
        host.register_handler(flow, self._on_data_packet)

    @property
    def out_of_order_bytes(self) -> Bytes:
        return self._ranges.total_bytes

    def _on_data_packet(self, packet: Packet) -> None:
        if packet.ptype is not PacketType.DATA:
            return
        self.received_segments += 1
        if packet.cwr:
            self._ece = False
        if packet.ecn is EcnCodepoint.CE:
            self._ece = True
        end = packet.seq + packet.payload_bytes
        rcv_nxt = self.rcv_nxt
        # A pure duplicate delivers nothing; the ACK we send is the signal.
        if packet.payload_bytes > 0 and end > rcv_nxt:
            if packet.seq <= rcv_nxt and not self._ranges:
                # In order with nothing buffered: delivered straight
                # through, without the reassembly frames.
                payload_bytes = end - rcv_nxt
                self.rcv_nxt = end
                self.delivered_bytes += payload_bytes
                if self.monitor is not None:
                    self.monitor.on_delivered(self.flow, payload_bytes)
            else:
                self._reassemble(max(packet.seq, rcv_nxt), end)
        self._send_ack()

    def _reassemble(self, start: int, end: int) -> None:
        """Buffer ``[start, end)``; deliver whatever it completes."""
        ranges = self._ranges
        ranges.add(start, end)
        if ranges.covers_point(self.rcv_nxt):
            new_nxt = ranges.first_gap_at_or_after(self.rcv_nxt)
            self._deliver(new_nxt - self.rcv_nxt)
            ranges.prune_below(self.rcv_nxt)

    def _deliver(self, payload_bytes: Bytes) -> None:
        self.rcv_nxt += payload_bytes
        self.delivered_bytes += payload_bytes
        if self.monitor is not None:
            self.monitor.on_delivered(self.flow, payload_bytes)

    def _send_ack(self) -> None:
        sack: Tuple[Tuple[int, int], ...] = ()
        if self._ranges:
            sack = tuple(self._ranges.first_blocks(SACK_BLOCK_LIMIT))
        ack = Packet(flow=self._ack_flow, size_bytes=ACK_BYTES,
                     ptype=PacketType.ACK, ack=self.rcv_nxt,
                     sack=sack, ece=self._ece)
        self.host.send(ack)

    def close(self) -> None:
        self.host.unregister_handler(self.flow)
