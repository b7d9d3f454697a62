"""Flow wiring helpers and the CCA registry.

Experiments describe workloads as "{NewReno:16, Cubic:1}"-style mixes
(Table 2's ``CCAs`` column); this module turns those descriptions into
connected sender/receiver pairs on a topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple, Type)

from ..netsim.engine import Simulator
from ..netsim.node import Host
from ..netsim.packet import FlowId
from ..netsim.tracing import FlowMonitor

if TYPE_CHECKING:
    from ..core.units import Bytes, TimeNs
from .bbr import Bbr
from .cca import CongestionControl
from .cubic import Bic, Cubic
from .newreno import NewReno
from .socket import TcpReceiver, TcpSender
from .vegas import Vegas

#: Registry of congestion control algorithms by paper name.
CCA_REGISTRY: Dict[str, Type[CongestionControl]] = {
    "newreno": NewReno,
    "cubic": Cubic,
    "bic": Bic,
    "vegas": Vegas,
    "bbr": Bbr,
}


def make_cca(name: str) -> CongestionControl:
    """Instantiate a CCA by its (case-insensitive) registry name."""
    try:
        return CCA_REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(CCA_REGISTRY))
        raise ValueError(f"unknown CCA {name!r}; known: {known}") from None


@dataclass
class TcpFlow:
    """A connected sender/receiver pair."""

    flow_id: FlowId
    sender: TcpSender
    receiver: TcpReceiver
    cca_name: str
    start_time_ns: TimeNs = 0

    @property
    def goodput_bytes(self) -> Bytes:
        return self.receiver.delivered_bytes


def connect_flow(sender_host: Host, receiver_host: Host, cca_name: str,
                 monitor: Optional[FlowMonitor] = None,
                 src_port: int = 10000, dst_port: int = 80,
                 start_time_ns: TimeNs = 0,
                 max_bytes: Optional[int] = None,
                 ecn_enabled: bool = False) -> TcpFlow:
    """Create a TCP flow between two hosts and schedule its start."""
    flow_id = FlowId(src=sender_host.node_id, dst=receiver_host.node_id,
                     src_port=src_port, dst_port=dst_port)
    receiver = TcpReceiver(receiver_host, flow_id, monitor=monitor)
    sender = TcpSender(sender_host, flow_id, make_cca(cca_name),
                       max_bytes=max_bytes, ecn_enabled=ecn_enabled)
    sim: Simulator = sender_host.sim
    if start_time_ns <= sim.now_ns:
        sender.start()
    else:
        sim.post_at(start_time_ns, sender.start)
    return TcpFlow(flow_id=flow_id, sender=sender, receiver=receiver,
                   cca_name=cca_name.lower(), start_time_ns=start_time_ns)


def expand_mix(mix: Sequence[Tuple[str, int]]) -> List[str]:
    """Expand [("newreno", 16), ("cubic", 1)] into a per-flow CCA list.

    Order matters: flow index in figures follows the mix order (e.g.
    Figure 7's flows 0-15 are Vegas and flow 16 is NewReno).
    """
    names: List[str] = []
    for name, count in mix:
        if count < 0:
            raise ValueError(f"negative count for {name}")
        names.extend([name] * count)
    return names
