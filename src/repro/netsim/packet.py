"""Packets and flow identifiers.

A :class:`Packet` is the unit of everything in the simulator: TCP data
segments, ACKs, and Cebinae's internal ROTATE packets all use the same
class, distinguished by :class:`PacketType`.  The header layout mirrors
what the paper's data plane sees: a five-tuple flow identifier plus the
two ECN bits.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import InitVar, dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Mapping, NamedTuple,
                    Optional, Tuple)

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
    ROTATE = "rotate"  # Cebinae queue-rotation marker (packet generator).


class EcnCodepoint(enum.Enum):
    """IP ECN field codepoints (RFC 3168)."""

    NOT_ECT = 0  # Sender does not support ECN.
    ECT0 = 2     # ECN-capable transport.
    CE = 3       # Congestion experienced (set by the network).


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


@dataclass
class Packet:
    """A simulated packet.

    Attributes:
        flow: five-tuple of the packet.
        size_bytes: total on-wire size, headers included.
        seq: first payload byte number carried (TCP DATA only).
        payload_bytes: number of application payload bytes carried.
        ack: cumulative acknowledgment number (TCP ACK only).
    sack: selective-acknowledgment blocks, as (start, end) byte ranges
        above ``ack`` (TCP ACK only).
        ptype: DATA / ACK / ROTATE.
        ecn: the IP ECN codepoint; queues set CE on ECN-capable packets.
        ece: TCP ECN-Echo flag (receiver -> sender).
        cwr: TCP Congestion Window Reduced flag (sender -> receiver).
        enqueue_time_ns: stamped by queues for delay measurement (CoDel).
        meta: free-form annotations used by tracing and schedulers.
            Allocated lazily on first access — the overwhelming
            majority of packets (every DATA segment and ACK) never
            carry annotations, and skipping the dict allocation is a
            measurable win at millions of packets per run.  The
            constructor still accepts ``meta={...}`` (the pre-lazy
            API); annotations are excluded from equality and ``repr``.
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
    sent_time_ns: int = 0
    enqueue_time_ns: int = 0
    meta: InitVar[Optional[Dict[str, Any]]] = None
    _meta: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self, meta: Optional[Dict[str, Any]]) -> None:
        if meta is not None:
            self._meta = meta

    def _lazy_meta(self) -> Dict[str, Any]:
        """Lazy annotation dict (created on first touch)."""
        store = self._meta
        if store is None:
            store = {}
            self._meta = store
        return store

    @property
    def has_meta(self) -> bool:
        """True if annotations exist, without forcing allocation."""
        return bool(self._meta)

    def mark_ce(self) -> bool:
        """Set Congestion Experienced if the packet is ECN-capable.

        Returns True if the mark was applied.
        """
        if self.ecn is EcnCodepoint.ECT0:
            self.ecn = EcnCodepoint.CE
            return True
        return self.ecn is EcnCodepoint.CE

    @property
    def is_data(self) -> bool:
        return self.ptype is PacketType.DATA

    @property
    def is_ack(self) -> bool:
        return self.ptype is PacketType.ACK

    def __repr__(self) -> str:
        return (f"Packet({self.ptype.value}, {self.flow}, "
                f"seq={self.seq}, ack={self.ack}, {self.size_bytes}B)")


# ``meta`` is an InitVar (so ``Packet(..., meta={...})`` keeps working)
# and leaves no instance attribute behind, which lets this class-level
# property serve ``pkt.meta`` reads with the lazy allocation.  It is
# attached after the @dataclass decoration so the generated __init__
# sees the plain ``None`` default rather than the property object.
Packet.meta = property(Packet._lazy_meta)  # type: ignore[assignment]

# pstats keeps one row per (file, line, name), and every dataclass's
# generated ``__init__`` is ("<string>", 2, "__init__"): in a profile
# they collapse into whichever code object sits highest in memory and
# the others' time and calls vanish from the table.  The per-packet
# constructor is the one such row that matters (about 2 % of a run), so
# its code object gets a name of its own; the bytecode is untouched.
_packet_init = Packet.__dict__["__init__"]
_packet_init.__code__ = _packet_init.__code__.replace(
    co_name="Packet.__init__")


def make_rotate_packet(port: int,
                       last_rates: Optional[Mapping[Any, float]] = None
                       ) -> Packet:
    """Build a Cebinae ROTATE marker for ``port``.

    ROTATE packets are generated by the switch's hardware packet
    generator in the paper; here they are ordinary packets injected by
    the Cebinae queue disc's timer, carrying the rates of the round that
    just ended (Figure 5, lines 8-12).
    """
    flow = FlowId(src=-1, dst=-1, src_port=port, dst_port=port,
                  protocol="cebinae")
    pkt = Packet(flow=flow, size_bytes=0, ptype=PacketType.ROTATE)
    pkt.meta["last_rates"] = dict(last_rates or {})
    return pkt
