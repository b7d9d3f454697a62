"""The paper's contribution: the Cebinae mechanism.

Parameters (Table 1), the two-queue leaky-bucket filter (Figure 5),
the per-port queue disc (Figure 3), the control-plane agent (Figures 4
and 6), and the Tofino resource model (Table 3).
"""

from .units import Bits, BitsPerSec, Bytes, Ratio, Seconds, TimeNs
from .control_plane import (CebinaeControlPlane, ControlPlaneSample,
                            cebinae_factory)
from .lbf import FlowGroup, LbfDecision, LeakyBucketFilter
from .params import CebinaeParams
from .queue_disc import CebinaeQueueDisc
from .resource_model import (CACHE_ENTRY_BYTES, TOFINO_PORTS,
                             ResourceUsage, estimate_resources,
                             queues_required)

__all__ = [
    "TimeNs", "Seconds", "Bytes", "Bits", "BitsPerSec", "Ratio",
    "CebinaeParams",
    "FlowGroup", "LbfDecision", "LeakyBucketFilter",
    "CebinaeQueueDisc",
    "CebinaeControlPlane", "ControlPlaneSample", "cebinae_factory",
    "ResourceUsage", "estimate_resources", "queues_required",
    "TOFINO_PORTS", "CACHE_ENTRY_BYTES",
]
