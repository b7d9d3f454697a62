"""Measurement helpers: time series and per-flow goodput.

The evaluation in the paper reports three families of metrics: average
bottleneck throughput (wire bytes on the bottleneck link, which the
runner reads from ``Link.tx_bytes``), per-flow application goodput (new
payload bytes delivered to the receiver), and Jain's fairness index
over per-flow goodputs, optionally as a per-second time series
(Figure 10).  These classes collect the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .engine import SECOND, Simulator
from .packet import FlowId


class TimeSeries:
    """Values accumulated into fixed-width time bins."""

    def __init__(self, bin_width_ns: int = SECOND) -> None:
        if bin_width_ns <= 0:
            raise ValueError("bin width must be positive")
        self.bin_width_ns = bin_width_ns
        self._bins: Dict[int, float] = {}

    def add(self, time_ns: int, value: float) -> None:
        index = time_ns // self.bin_width_ns
        bins = self._bins
        bins[index] = bins.get(index, 0.0) + value

    def bin_value(self, index: int) -> float:
        return self._bins.get(index, 0.0)

    def dense(self, until_ns: int) -> List[float]:
        """All bins from 0 through the one containing ``until_ns - 1``."""
        if until_ns <= 0:
            return []
        count = (until_ns + self.bin_width_ns - 1) // self.bin_width_ns
        return [self.bin_value(i) for i in range(count)]

    @property
    def total(self) -> float:
        return sum(self._bins.values())


@dataclass
class FlowRecord:
    """Aggregate receive-side statistics for one flow."""

    flow: FlowId
    delivered_bytes: int = 0
    first_delivery_ns: Optional[int] = None
    last_delivery_ns: Optional[int] = None

    def goodput_bps(self, duration_ns: int) -> float:
        """Average goodput over ``duration_ns`` in bits per second."""
        if duration_ns <= 0:
            return 0.0
        return self.delivered_bytes * 8 * SECOND / duration_ns


class FlowMonitor:
    """Tracks per-flow delivered payload bytes (goodput)."""

    def __init__(self, sim: Simulator, bin_width_ns: int = SECOND) -> None:
        self.sim = sim
        self.bin_width_ns = bin_width_ns
        self.records: Dict[FlowId, FlowRecord] = {}
        self.series: Dict[FlowId, TimeSeries] = {}

    def register(self, flow: FlowId) -> None:
        """Pre-register a flow so zero-goodput flows still appear."""
        if flow not in self.records:
            self.records[flow] = FlowRecord(flow)
            self.series[flow] = TimeSeries(self.bin_width_ns)

    def on_delivered(self, flow: FlowId, payload_bytes: int) -> None:
        """Record in-order payload delivery at the receiver."""
        record = self.records.get(flow)
        if record is None:
            self.register(flow)
            record = self.records[flow]
        now = self.sim.now_ns
        record.delivered_bytes += payload_bytes
        if record.first_delivery_ns is None:
            record.first_delivery_ns = now
        record.last_delivery_ns = now
        self.series[flow].add(now, payload_bytes)

    def goodputs_bps(self, duration_ns: int) -> Dict[FlowId, float]:
        return {flow: record.goodput_bps(duration_ns)
                for flow, record in self.records.items()}

    def goodput_series_bps(self, flow: FlowId,
                           until_ns: int) -> List[float]:
        """Per-bin goodput (bits per second) for one flow."""
        series = self.series.get(flow)
        if series is None:
            return []
        scale = 8 * SECOND / self.bin_width_ns
        return [v * scale for v in series.dense(until_ns)]
