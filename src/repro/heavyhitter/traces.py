"""Synthetic backbone traces for the Figure 13 detection experiments.

The paper replays CAIDA anonymised traces from a 10 Gbps ISP backbone
link (>400,000 flows/minute).  CAIDA traces cannot be redistributed, so
we generate the statistical equivalent: flow rates drawn from a Zipf
(discrete power-law) distribution — the canonical model for Internet
flow sizes — with Poisson per-flow packet arrivals, merged into a
single packet stream.  The parameters (flows per minute, mean packet
size, link rate) are chosen to match the paper's setting; what the
detection experiment needs from the trace is heavy-tailed skew at
realistic flow counts, which this preserves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np

    from ..core.units import BitsPerSec, Bytes, Seconds

#: Paper setting: a 10 Gbps backbone link.
BACKBONE_RATE_BPS = 10e9
#: Paper setting: >400k flows per minute.
DEFAULT_FLOWS_PER_MINUTE = 400_000
#: Bumped whenever the packets a given trace yields change, so that
#: cached detection results computed from older traces go stale.
TRACE_REVISION = 2


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

    def packets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The merged packet stream as aligned int64 arrays
        ``(time_ns, flow, size_bytes)``, in time order.

        Each flow is a Poisson process at its rate: a Poisson count of
        packets over the trace, each at a uniform time in ``[0, T)``.
        Flows expecting less than one packet still emit with
        probability proportional to their rate, so the long tail of
        tiny flows is present (they are what fills the cache slots in
        the Figure 13 experiment).  Sizes are Gamma(4, mean/4) clipped
        to [64, 1500] bytes.  Packets at the same nanosecond stay in
        flow-id order.
        """
        import numpy as np
        rng = np.random.default_rng(self.seed + 1)
        horizon_ns = int(self.duration_s * 1e9)
        packets_per_s = self._flow_rates_bps / (8.0 * self.mean_packet_bytes)
        counts = rng.poisson(packets_per_s * self.duration_s)
        flow = np.repeat(np.arange(self.num_flows, dtype=np.int64), counts)
        time_ns = rng.integers(0, horizon_ns, size=flow.size, dtype=np.int64)
        sizes = rng.gamma(4.0, self.mean_packet_bytes / 4.0, size=flow.size)
        size_bytes = np.clip(sizes.astype(np.int64), 64, 1500)
        order = np.argsort(time_ns, kind="stable")
        return time_ns[order], flow[order], size_bytes[order]
