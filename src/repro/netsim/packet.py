"""Packets and flow identifiers.

A :class:`Packet` is the unit of everything in the simulator: TCP and
UDP data segments and TCP ACKs all use the same class, distinguished by
:class:`PacketType`.  It is a plain header, and the layout mirrors what
the paper's data plane sees: a five-tuple flow identifier plus the two
ECN bits.  Cebinae's queue rotation is driven by control-plane timers,
not by marker packets.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .profiling import name_init

if TYPE_CHECKING:
    from ..core.units import Bytes

#: Standard Ethernet MTU used throughout the reproduction.
MTU_BYTES = 1500
#: TCP maximum segment size (MTU minus 40 B IP+TCP headers and 12 B options).
MSS_BYTES = 1448
#: Header overhead carried by every data segment.
HEADER_BYTES = MTU_BYTES - MSS_BYTES
#: Size of a pure ACK packet on the wire.
ACK_BYTES = 64


class PacketType(enum.Enum):
    """The role a packet plays in the simulation."""

    DATA = "data"
    ACK = "ack"


class EcnCodepoint(enum.Enum):
    """IP ECN field codepoints (RFC 3168)."""

    NOT_ECT = 0  # Sender does not support ECN.
    ECT0 = 2     # ECN-capable transport.
    CE = 3       # Congestion experienced (set by the network).


# The members the per-packet paths read, as module constants.  Inside a
# function ``EcnCodepoint.CE`` is a global load plus an attribute
# lookup on the Enum class, whose metaclass makes it slow: about 105 ns
# on CPython 3.11, against about 3 ns for a module constant.  They are
# the same objects, so every ``is`` test reads as before.
PACKET_DATA = PacketType.DATA
PACKET_ACK = PacketType.ACK
ECN_NOT_ECT = EcnCodepoint.NOT_ECT
ECN_ECT0 = EcnCodepoint.ECT0
ECN_CE = EcnCodepoint.CE


class FlowId(NamedTuple):
    """A five-tuple flow identifier.

    Node addresses are plain integers; the simulator has no need for a
    full IP addressing plan.
    """

    src: int
    dst: int
    src_port: int
    dst_port: int
    protocol: str = "tcp"

    def reversed(self) -> "FlowId":
        """The identifier of the reverse (ACK) direction."""
        return FlowId(self.dst, self.src, self.dst_port, self.src_port,
                      self.protocol)

    def stable_hash(self) -> int:
        """A process-independent hash of the five-tuple.

        Builtin ``hash()`` of a tuple containing a string depends on
        ``PYTHONHASHSEED``, which is randomised per interpreter; any
        flow-to-bucket mapping derived from it would differ between a
        run and its replay in another process, breaking deterministic
        replay.  CRC32 of the canonical representation does not.
        """
        return zlib.crc32(repr(tuple(self)).encode("utf-8"))

    def __str__(self) -> str:
        return (f"{self.protocol}:{self.src}:{self.src_port}->"
                f"{self.dst}:{self.dst_port}")


@name_init
@dataclass
class Packet:
    """A simulated packet.

    Attributes:
        flow: five-tuple of the packet.
        size_bytes: total on-wire size, headers included.
        seq: first payload byte number carried (TCP DATA only).
        payload_bytes: number of application payload bytes carried.
        ack: cumulative acknowledgment number (TCP ACK only).
        sack: selective-acknowledgment blocks, as (start, end) byte
            ranges above ``ack`` (TCP ACK only).
        ptype: DATA / ACK.
        ecn: the IP ECN codepoint; queues set CE on ECN-capable packets.
        ece: TCP ECN-Echo flag (receiver -> sender).
        cwr: TCP Congestion Window Reduced flag (sender -> receiver).
        enqueue_time_ns: stamped by queues for delay measurement (CoDel).

    The TCP endpoints build their segments and ACKs by position (a
    keyword call costs about twice as much), so the field order is an
    interface.
    """

    flow: FlowId
    size_bytes: Bytes
    ptype: PacketType = PacketType.DATA
    seq: int = 0
    payload_bytes: Bytes = 0
    ack: int = 0
    sack: Tuple[Tuple[int, int], ...] = ()
    ecn: EcnCodepoint = EcnCodepoint.NOT_ECT
    ece: bool = False
    cwr: bool = False
    enqueue_time_ns: int = 0

    def mark_ce(self) -> bool:
        """Set Congestion Experienced if the packet is ECN-capable.

        Returns True if the mark was applied.
        """
        if self.ecn is ECN_ECT0:
            self.ecn = ECN_CE
            return True
        return self.ecn is ECN_CE

    def __repr__(self) -> str:
        return (f"Packet({self.ptype.value}, {self.flow}, "
                f"seq={self.seq}, ack={self.ack}, {self.size_bytes}B)")
