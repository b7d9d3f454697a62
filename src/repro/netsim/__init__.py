"""A from-scratch discrete-event, packet-level network simulator.

This subpackage is the reproduction's stand-in for ns-3.35: an
integer-nanosecond event engine, store-and-forward links with
serialization and propagation delay, hosts/routers with static routing,
pluggable per-port queue disciplines (drop-tail FIFO, FQ-CoDel, and —
from :mod:`repro.core` — Cebinae), and measurement utilities.
"""

from .afq import AfqQueue, afq_factory
from .engine import (MICROSECOND, MILLISECOND, NANOSECOND, SECOND, Event,
                     SimulationError, Simulator, seconds, to_seconds)
from .fluid import (FluidPhaseReport, HybridPolicy, advance_fluid,
                    equilibrium_schedule, rate_divergence)
from .fq_codel import (CODEL_INTERVAL_NS, CODEL_TARGET_NS, CoDelState,
                       FqCoDelQueue, fq_codel_factory)
from .link import Link
from .node import Host, Node, Router
from .packet import (ACK_BYTES, HEADER_BYTES, MSS_BYTES, MTU_BYTES,
                     EcnCodepoint, FlowId, Packet, PacketType,
                     make_rotate_packet)
from .queues import DropTailQueue, QueueDisc
from .topology import (Dumbbell, Network, ParkingLot, PortSpec,
                       QueueFactory, build_dumbbell, build_parking_lot,
                       drop_tail_factory)
from .tracing import FlowMonitor, FlowRecord, TimeSeries

__all__ = [
    "NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND",
    "seconds", "to_seconds", "Event", "Simulator", "SimulationError",
    "Packet", "PacketType", "FlowId", "EcnCodepoint",
    "MTU_BYTES", "MSS_BYTES", "HEADER_BYTES", "ACK_BYTES",
    "make_rotate_packet",
    "QueueDisc", "DropTailQueue", "AfqQueue", "afq_factory",
    "CoDelState", "FqCoDelQueue", "fq_codel_factory",
    "CODEL_TARGET_NS", "CODEL_INTERVAL_NS",
    "Link", "Node", "Host", "Router",
    "Network", "PortSpec", "QueueFactory", "drop_tail_factory",
    "Dumbbell", "build_dumbbell", "ParkingLot", "build_parking_lot",
    "FlowMonitor", "FlowRecord", "TimeSeries",
    "FluidPhaseReport", "HybridPolicy", "advance_fluid",
    "equilibrium_schedule", "rate_divergence",
]
