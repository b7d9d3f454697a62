"""Synthetic backbone traces for the Figure 13 detection experiments.

The paper replays CAIDA anonymised traces from a 10 Gbps ISP backbone
link (>400,000 flows/minute).  CAIDA traces cannot be redistributed, so
we generate the statistical equivalent: flow rates drawn from a Zipf
(discrete power-law) distribution — the canonical model for Internet
flow sizes — with exponentially distributed per-flow packet
inter-arrivals, merged into a single packet stream.  The parameters
(flows per minute, mean packet size, link rate) are chosen to match the
paper's setting; what the detection experiment needs from the trace is
heavy-tailed skew at realistic flow counts, which this preserves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

if TYPE_CHECKING:
    import numpy as np

    from ..core.units import BitsPerSec, Bytes, Seconds, TimeNs

#: Paper setting: a 10 Gbps backbone link.
BACKBONE_RATE_BPS = 10e9
#: Paper setting: >400k flows per minute.
DEFAULT_FLOWS_PER_MINUTE = 400_000


@dataclass(frozen=True)
class TracePacket:
    """One packet of a synthetic trace."""

    time_ns: int
    flow: int
    size_bytes: int


class SyntheticTrace:
    """A Zipf-rate, Poisson-arrival packet trace.

    Args:
        duration_s: trace length in seconds.
        flows_per_minute: active flow arrival intensity; the number of
            flows present in the trace scales with duration.
        zipf_alpha: skew of the flow-rate distribution (1.0-1.3 is the
            usual Internet fit; higher = more skewed).
        link_rate_bps: total offered load is capped near this rate.
        mean_packet_bytes: average packet size.
        seed: RNG seed (every trace is deterministic given its seed).
    """

    def __init__(self, duration_s: Seconds = 1.0,
                 flows_per_minute: int = DEFAULT_FLOWS_PER_MINUTE,
                 zipf_alpha: float = 1.1,
                 link_rate_bps: BitsPerSec = BACKBONE_RATE_BPS,
                 mean_packet_bytes: Bytes = 700,
                 seed: int = 1) -> None:
        # numpy is imported where the generator runs, not at module
        # import: only Figure 13 needs it, and `import repro` (every
        # CLI call and sweep worker start) must not pay for it.
        import numpy as np
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.duration_s = duration_s
        self.flows_per_minute = flows_per_minute
        self.zipf_alpha = zipf_alpha
        self.link_rate_bps = link_rate_bps
        self.mean_packet_bytes = mean_packet_bytes
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        # The flow *population* is what pressures the cache: flows/min
        # counts flows active within any minute, and they exist (mostly
        # idle, Poisson-thinned) throughout shorter traces too.  Scaling
        # the population down with short trace durations would leave the
        # cache uncontended and make every detection experiment
        # trivially perfect.
        self.num_flows = max(1, int(flows_per_minute
                                    * max(duration_s, 60.0) / 60.0))
        self._flow_rates_bps = self._draw_flow_rates()

    def _draw_flow_rates(self) -> np.ndarray:
        """Per-flow average rates, Zipf-shaped, summing to ~80% of link."""
        import numpy as np
        ranks = np.arange(1, self.num_flows + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_alpha)
        self._rng.shuffle(weights)
        weights /= weights.sum()
        return weights * (0.8 * self.link_rate_bps)

    @property
    def flow_rates_bps(self) -> np.ndarray:
        """The ground-truth average rate of each flow id."""
        return self._flow_rates_bps

    def packets(self) -> Iterator[TracePacket]:
        """Generate the merged packet stream in time order.

        Flows whose expected packet count over the trace is below one
        still get a chance to emit proportional to their rate, so the
        long tail of tiny flows is present (they are what fills the
        cache slots in the Figure 13 experiment).
        """
        import numpy as np
        rng = np.random.default_rng(self.seed + 1)
        heap: List[Tuple[int, int]] = []  # (next_time_ns, flow)
        packet_interval_ns = np.empty(self.num_flows)
        for flow in range(self.num_flows):
            rate = self._flow_rates_bps[flow]
            pkt_per_sec = max(rate / (8.0 * self.mean_packet_bytes), 1e-9)
            packet_interval_ns[flow] = 1e9 / pkt_per_sec
            first = rng.exponential(packet_interval_ns[flow])
            if first < self.duration_s * 1e9:
                heap.append((int(first), flow))
        heapq.heapify(heap)
        horizon_ns = int(self.duration_s * 1e9)
        while heap:
            time_ns, flow = heapq.heappop(heap)
            size = int(rng.gamma(4.0, self.mean_packet_bytes / 4.0))
            size = min(max(size, 64), 1500)
            yield TracePacket(time_ns=time_ns, flow=flow, size_bytes=size)
            nxt = time_ns + int(rng.exponential(packet_interval_ns[flow]))
            if nxt < horizon_ns:
                heapq.heappush(heap, (nxt, flow))

    def true_bytes_by_interval(self, interval_ns: TimeNs
                               ) -> List[Dict[int, Bytes]]:
        """Ground-truth per-flow byte counts for each round interval."""
        buckets: List[Dict[int, int]] = []
        for packet in self.packets():
            index = packet.time_ns // interval_ns
            while len(buckets) <= index:
                buckets.append({})
            bucket = buckets[index]
            bucket[packet.flow] = bucket.get(packet.flow, 0) + \
                packet.size_bytes
        return buckets
