"""Unresponsive (UDP-like) constant-bit-rate traffic.

The paper notes that Cebinae "assumes protocols that respond to
capacity limitations — a blind UDP flow may unnecessarily waste network
bandwidth before being delayed and dropped by a downstream Cebinae
router" (section 4).  This module provides that blind flow so the
behaviour is testable: a CBR sender that ignores every congestion
signal, and a sink that measures what actually arrives.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.engine import SECOND, Event, Simulator
from ..netsim.node import Host
from ..netsim.packet import HEADER_BYTES, MSS_BYTES, FlowId, Packet, \
    PacketType
from ..netsim.tracing import FlowMonitor


class UdpSender:
    """A constant-bit-rate sender with no feedback loop."""

    def __init__(self, host: Host, flow: FlowId, rate_bps: float,
                 packet_bytes: int = MSS_BYTES + HEADER_BYTES) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if packet_bytes <= HEADER_BYTES:
            raise ValueError("packet must carry payload")
        self.host = host
        self.sim: Simulator = host.sim
        self.flow = flow
        self.rate_bps = rate_bps
        self.packet_bytes = packet_bytes
        self.interval_ns = int(packet_bytes * 8 * SECOND / rate_bps)
        self.sent_packets = 0
        self.sent_bytes = 0
        self._seq = 0
        self._event: Optional[Event] = None
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._send_next()

    def stop(self) -> None:
        self.running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _send_next(self) -> None:
        if not self.running:
            return
        payload = self.packet_bytes - HEADER_BYTES
        packet = Packet(flow=self.flow, size_bytes=self.packet_bytes,
                        ptype=PacketType.DATA, seq=self._seq,
                        payload_bytes=payload)
        self._seq += payload
        self.sent_packets += 1
        self.sent_bytes += self.packet_bytes
        self.host.send(packet)
        self._event = self.sim.schedule(self.interval_ns,
                                        self._send_next)


class UdpSink:
    """Counts delivered payload for an unresponsive flow."""

    def __init__(self, host: Host, flow: FlowId,
                 monitor: Optional[FlowMonitor] = None) -> None:
        self.host = host
        self.flow = flow
        self.monitor = monitor
        self.received_packets = 0
        self.received_bytes = 0
        if monitor is not None:
            monitor.register(flow)
        host.register_handler(flow, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        self.received_packets += 1
        self.received_bytes += packet.payload_bytes
        if self.monitor is not None:
            self.monitor.on_delivered(self.flow, packet.payload_bytes)

    def close(self) -> None:
        self.host.unregister_handler(self.flow)


def connect_udp_flow(sender_host: Host, receiver_host: Host,
                     rate_bps: float,
                     monitor: Optional[FlowMonitor] = None,
                     src_port: int = 20_000, dst_port: int = 9,
                     start_time_ns: int = 0) -> UdpSender:
    """Wire a CBR flow between two hosts and schedule its start."""
    flow = FlowId(src=sender_host.node_id, dst=receiver_host.node_id,
                  src_port=src_port, dst_port=dst_port, protocol="udp")
    UdpSink(receiver_host, flow, monitor=monitor)
    sender = UdpSender(sender_host, flow, rate_bps)
    sim = sender_host.sim
    if start_time_ns <= sim.now_ns:
        sender.start()
    else:
        sim.post_at(start_time_ns, sender.start)
    return sender
