"""Fluid/packet hybrid advancement: mesoscale flow modelling.

Scaling past ~10^4 concurrent flows is event-count-bound: every data
packet costs a handful of scheduler operations, so a 30-second run at
gigabit rates is billions of events regardless of how cheap each one
is.  Cebinae's steady state — max-min taxation of the bottleneck's top
flows — is exactly the regime where long-lived flows are well described
as *fluid* rate processes: piecewise-constant per-flow rates that only
change at epoch boundaries (LBF rotations, flow arrivals/departures,
fault windows, CCA mode transitions).

This module implements the fluid side of the hybrid backend:

* :class:`HybridPolicy` — when to hand a run off from packet to fluid
  granularity (warmup length, stability test, demotion rules);
* :func:`rate_divergence` / :func:`measured_rates_bps` — the stability
  measurement used to decide a handoff is safe;
* :func:`equilibrium_schedule` — the piecewise-constant rate schedule
  for the fluid phase, produced by the equilibrium solvers that already
  exist in :mod:`repro.fairness`: max-min water-filling
  (:func:`~repro.fairness.maxmin.water_filling`) anchors FIFO/FQ rates
  at the measured shares, and Cebinae's taxation difference equation
  (:func:`~repro.fairness.convergence.taxation_trajectory`) advances
  the converging allocation one LBF-recomputation window per epoch;
* :func:`advance_fluid` — integration of the schedule into the run's
  :class:`~repro.netsim.tracing.FlowMonitor`, so goodputs and
  per-second series read identically to a packet run.

The orchestration (segmented packet warmup, stability probing,
promotion back to packet) lives in the experiment runner; everything
here is pure, deterministic float arithmetic in a fixed order, so the
hybrid backend inherits the packet engine's reproducibility: same seed,
same scheduler-independent results.

The fidelity contract, and when *not* to use this: the fluid phase
freezes each flow at its measured equilibrium (plus Cebinae's modelled
taxation drift).  Transients — slow-start, staggered arrivals, fault
recovery, CCA mode switches — are not modelled, which is why the
policy refuses to hand off before flows have settled and why fault
runs are always promoted to full packet granularity.  See DESIGN.md
section 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

from ..fairness.convergence import taxation_trajectory
from ..fairness.maxmin import FlowSpec, water_filling
from .engine import SECOND

if TYPE_CHECKING:
    from ..core.params import CebinaeParams
    from ..core.units import BitsPerSec, Bytes, Ratio, Seconds, TimeNs
    from .packet import FlowId
    from .tracing import FlowMonitor

#: Floor on a flow's demand for the water-filling solver, which rejects
#: non-positive demands; measured-zero flows keep an epsilon share.
MIN_DEMAND_BPS = 1.0

#: Reasons a hybrid run executes at full packet granularity.
REASON_SHORT_RUN = "short_run"
REASON_FAULTS = "faults"
REASON_UNSTABLE = "unstable"


@dataclass(frozen=True)
class HybridPolicy:
    """When (and whether) a run may demote from packet to fluid.

    The defaults are deliberately conservative: the fluid model only
    engages on runs long enough to have a genuine steady state, which
    keeps short figure-class scenarios — transient-dominated by
    construction — at full packet fidelity (and therefore byte-identical
    to the packet backend).
    """

    #: Never hand off before this much simulated time.
    min_warmup_s: Seconds = 4.0
    #: ... nor before this many max-RTTs have elapsed (CCA settling).
    settle_rtts: float = 20.0
    #: ... nor this soon after the last staggered flow arrival.
    post_arrival_settle_s: Seconds = 1.0
    #: Stability measurement window (split into two half-windows).
    #: Four seconds averages each half over several CCA sawtooth
    #: periods at the simulator's scaled-down rates; shorter windows
    #: alias the sawtooth, reading steady runs as divergent and —
    #: worse — freezing a sawtooth phase into the fluid anchors.
    measure_s: Seconds = 4.0
    #: Maximum relative L1 divergence between the half-windows' sorted
    #: rate vectors for the run to count as steady.  Sorting makes the
    #: probe distributional: a steady CCA sawtooth permutes flows
    #: across an unchanged rate profile (phase noise the fluid anchor
    #: averages out anyway), while slow-start or convergence in
    #: progress moves the profile itself.
    stability_tol: Ratio = 0.12
    #: How many times an unstable warmup may be extended (by one
    #: measurement window each) before promoting to full packet.
    max_extensions: int = 2
    #: The fluid phase must cover at least this fraction of the run,
    #: otherwise the handoff machinery is not worth its measurement
    #: cost and the run stays packet.
    min_fluid_fraction: Ratio = 0.25

    def __post_init__(self) -> None:
        if self.min_warmup_s <= 0:
            raise ValueError("min_warmup_s must be positive")
        if self.settle_rtts < 0:
            raise ValueError("settle_rtts cannot be negative")
        if self.post_arrival_settle_s < 0:
            raise ValueError("post_arrival_settle_s cannot be negative")
        if not 0 < self.measure_s <= self.min_warmup_s:
            raise ValueError(
                "measure_s must be positive and fit inside min_warmup_s")
        if not 0 < self.stability_tol < 1:
            raise ValueError("stability_tol must be in (0, 1)")
        if self.max_extensions < 0:
            raise ValueError("max_extensions cannot be negative")
        if not 0 < self.min_fluid_fraction < 1:
            raise ValueError("min_fluid_fraction must be in (0, 1)")

    def settle_s(self, max_rtt_s: Seconds,
                 last_start_s: Seconds = 0.0) -> Seconds:
        """When transients have plausibly decayed (measurement start)."""
        return max(self.min_warmup_s, self.settle_rtts * max_rtt_s,
                   last_start_s + self.post_arrival_settle_s)

    def handoff_s(self, max_rtt_s: Seconds,
                  last_start_s: Seconds = 0.0) -> Seconds:
        """The earliest packet→fluid handoff time for a scenario.

        The measurement window sits *after* the settle point — anchors
        averaged over a window that reaches back into slow start would
        freeze the transient into the fluid phase.
        """
        return (self.settle_s(max_rtt_s, last_start_s)
                + self.measure_s)

    def fluid_viable(self, duration_s: Seconds, max_rtt_s: Seconds,
                     last_start_s: Seconds = 0.0) -> bool:
        """Whether the run is long enough for a fluid phase to pay."""
        handoff = self.handoff_s(max_rtt_s, last_start_s)
        return (duration_s - handoff
                >= self.min_fluid_fraction * duration_s)


@dataclass
class FluidPhaseReport:
    """What the hybrid backend actually did with one run.

    ``mode`` is ``"fluid"`` when a handoff happened and ``"packet"``
    when the run executed at full packet granularity end to end; in the
    latter case ``reason`` says why (:data:`REASON_SHORT_RUN`,
    :data:`REASON_FAULTS`, or :data:`REASON_UNSTABLE` — the last one is
    a *promotion*: the warmup never went steady).
    """

    mode: str
    reason: str = ""
    handoff_s: Seconds = 0.0
    fluid_s: Seconds = 0.0
    epochs: int = 0
    extensions: int = 0
    divergence: Optional[float] = None
    packet_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "reason": self.reason,
            "handoff_s": self.handoff_s,
            "fluid_s": self.fluid_s,
            "epochs": self.epochs,
            "extensions": self.extensions,
            "divergence": self.divergence,
            "packet_events": self.packet_events,
        }


def pool_rates(rates_bps: Sequence[BitsPerSec],
               groups: Sequence[Any]) -> List[BitsPerSec]:
    """Average rates within equivalence classes of flows.

    Flows with the same group label — in practice the same (CCA, RTT)
    pair — are statistically exchangeable: their long-run packet
    averages converge to a common value while any finite measurement
    window catches each at a different sawtooth phase.  Pooling the
    anchor within classes removes that phase dispersion (which a
    frozen fluid rate would otherwise perpetuate) while preserving
    every cross-class bias the packet warmup measured.  The aggregate
    is conserved exactly.
    """
    if len(rates_bps) != len(groups):
        raise ValueError("group labels must match rates")
    totals: Dict[Any, float] = {}
    counts: Dict[Any, int] = {}
    for rate, group in zip(rates_bps, groups):
        totals[group] = totals.get(group, 0.0) + rate
        counts[group] = counts.get(group, 0) + 1
    return [totals[group] / counts[group] for group in groups]


def rate_pool_key(rate_bps: BitsPerSec, base: float = 4.0) -> int:
    """The operating-point bucket a flow may pool within.

    Exchangeability has limits: two flows sharing a (CCA, RTT) class
    are only interchangeable if they actually reached the same
    operating regime.  Under heavy multiplexing a drop-tail buffer
    leaves some flows loss-synchronised or RTO-bound at a small
    fraction of their peers' rate, and that dispersion is persistent —
    averaging it away would idealise fairness the packet engine never
    produced.  Bucketing by ``floor(log_base(rate))`` pools only flows
    within a factor of ``base`` of each other: wide enough that CCA
    sawtooth phase (< 2x) stays inside one bucket, narrow enough that
    a starved flow (often 10-100x below class mean) keeps its own
    anchor.
    """
    if base <= 1.0:
        raise ValueError("pool base must be > 1")
    return int(math.floor(
        math.log(max(float(rate_bps), MIN_DEMAND_BPS)) / math.log(base)))


def measured_rates_bps(before_bytes: Sequence[Bytes],
                       after_bytes: Sequence[Bytes],
                       window_ns: TimeNs) -> List[BitsPerSec]:
    """Per-flow average rates over one measurement half-window."""
    if window_ns <= 0:
        raise ValueError("measurement window must be positive")
    if len(before_bytes) != len(after_bytes):
        raise ValueError("snapshot lengths differ")
    return [max(after - before, 0) * 8 * SECOND / window_ns
            for before, after in zip(before_bytes, after_bytes)]


def rate_divergence(first: Sequence[BitsPerSec],
                    second: Sequence[BitsPerSec],
                    distributional: bool = False) -> Ratio:
    """Relative L1 divergence between two per-flow rate vectors.

    ``sum(|a - b|) / (sum(a) + sum(b))`` — scale-free, dominated by the
    large flows (so the noisy tail of a heavy-tailed mix cannot mask a
    still-moving elephant), 0.0 for identical vectors and 1.0 when the
    vectors have disjoint support.  Two half-windows of a steady run
    score near zero; slow-start or convergence in progress scores high.
    An all-zero pair reads as maximally divergent: nothing measured
    means nothing proven steady.

    With ``distributional=True`` the vectors are compared *sorted* —
    the form the stability probe uses (see
    :attr:`HybridPolicy.stability_tol` for why).
    """
    if len(first) != len(second):
        raise ValueError("rate vector lengths differ")
    if distributional:
        first = sorted(first)
        second = sorted(second)
    denominator = sum(first) + sum(second)
    if denominator <= 0:
        return 1.0
    return sum(abs(a - b) for a, b in zip(first, second)) / denominator


#: One fluid epoch: (duration_ns, per-flow rates) with rates constant
#: for the duration.
Epoch = Tuple[int, List[float]]


def equilibrium_schedule(discipline: str,
                         anchor_rates_bps: Sequence[BitsPerSec],
                         fluid_ns: TimeNs,
                         cebinae: Optional[CebinaeParams] = None
                         ) -> List[Epoch]:
    """The piecewise-constant rate schedule covering the fluid phase.

    ``anchor_rates_bps`` are the goodput rates measured over the last
    packet half-window; they encode everything the packet engine
    learned (RTT bias under FIFO, per-flow equalisation under FQ,
    Cebinae's partial convergence).

    * FIFO: the measured equilibrium *is* the model.  Water-filling
      runs with each flow's demand set to its anchor rate over a
      single bottleneck of exactly the measured aggregate, which
      reproduces the anchors (RTT bias included) when feasible and
      redistributes max-min fairly if a later caller hands in an
      oversubscribed vector.  One epoch spans the whole phase —
      without arrivals or departures a steady FIFO allocation has no
      boundaries to recompute at.
    * FQ: per-flow fair queueing enforces the max-min ideal, so the
      schedule is pure water-filling (unbounded demands) over the
      measured aggregate: an exact equal split, which is also what the
      paper normalises FQ against.
    * Cebinae: the taxation difference equation advances the
      allocation one recomputation window (``recompute_rounds`` LBF
      rotations) per epoch, so the fluid phase continues the
      convergence the packet warmup started, at the cadence the real
      control plane would.
    """
    if fluid_ns <= 0:
        return []
    anchors = [max(float(rate), 0.0) for rate in anchor_rates_bps]
    capacity = sum(anchors)
    if capacity <= 0:
        return [(fluid_ns, anchors)]
    if discipline == "cebinae":
        if cebinae is None:
            raise ValueError("cebinae discipline needs CebinaeParams")
        epoch_ns = max(1, cebinae.recompute_rounds) * cebinae.dt_ns
        steps = max(1, math.ceil(fluid_ns / epoch_ns))
        trace = taxation_trajectory(anchors, capacity,
                                    tau=cebinae.tau,
                                    delta_flow=cebinae.delta_flow,
                                    steps=steps,
                                    reclaim_weights=anchors)
        schedule: List[Epoch] = []
        remaining = fluid_ns
        for rates in trace.rates_per_step[1:]:
            span = min(epoch_ns, remaining)
            schedule.append((span, list(rates)))
            remaining -= span
            if remaining <= 0:
                break
        return schedule
    if discipline == "fq":
        flows = [FlowSpec(flow_id=index, path=("bottleneck",))
                 for index in range(len(anchors))]
    else:
        flows = [FlowSpec(flow_id=index, path=("bottleneck",),
                          demand=max(rate, MIN_DEMAND_BPS))
                 for index, rate in enumerate(anchors)]
    allocation = water_filling({"bottleneck": capacity}, flows)
    rates = [allocation[index] for index in range(len(anchors))]
    return [(fluid_ns, rates)]


def advance_fluid(monitor: FlowMonitor, flow_ids: Sequence[FlowId],
                  schedule: Sequence[Epoch],
                  start_ns: TimeNs) -> Bytes:
    """Integrate a fluid schedule into the run's flow monitor.

    Synthesises the payload bytes each flow would have delivered and
    folds them into the monitor's per-flow totals and per-bin series,
    splitting every epoch across bin boundaries so per-second goodput
    series read exactly as if the packets had flowed.  Returns the
    total synthesised payload (whole bytes) across all flows.
    """
    bin_width_ns = monitor.bin_width_ns
    totals = [0.0] * len(flow_ids)
    cursor_ns = start_ns
    for span_ns, rates in schedule:
        if len(rates) != len(flow_ids):
            raise ValueError("epoch rate vector does not match flows")
        end_ns = cursor_ns + span_ns
        for index, flow in enumerate(flow_ids):
            monitor.register(flow)
            rate_bps = rates[index]
            if rate_bps <= 0:
                continue
            totals[index] += rate_bps * span_ns / (8 * SECOND)
            series = monitor.series[flow]
            segment_start = cursor_ns
            while segment_start < end_ns:
                bin_end = ((segment_start // bin_width_ns) + 1
                           ) * bin_width_ns
                segment_end = min(bin_end, end_ns)
                series.add(segment_start,
                           rate_bps * (segment_end - segment_start)
                           / (8 * SECOND))
                segment_start = segment_end
        cursor_ns = end_ns
    for index, flow in enumerate(flow_ids):
        delivered = int(round(totals[index]))
        if delivered <= 0:
            continue
        record = monitor.records[flow]
        record.delivered_bytes += delivered
        if record.first_delivery_ns is None:
            record.first_delivery_ns = start_ns
        record.last_delivery_ns = cursor_ns
    return int(round(sum(totals)))


def wire_overhead_ratio(wire_bytes: Bytes, payload_bytes: Bytes) -> Ratio:
    """Wire-bytes-per-payload-byte, measured over the warmup tail.

    Used to extrapolate bottleneck *throughput* (wire bytes) from the
    fluid phase's synthesised *goodput* (payload bytes); headers, ACK
    overhead and retransmissions observed during the packet warmup are
    assumed to persist at the same ratio.  Clamped to >= 1.0 — payload
    cannot exceed wire volume.
    """
    if payload_bytes <= 0:
        return 1.0
    return max(1.0, wire_bytes / payload_bytes)


__all__ = [
    "Epoch", "FluidPhaseReport", "HybridPolicy", "MIN_DEMAND_BPS",
    "REASON_FAULTS", "REASON_SHORT_RUN", "REASON_UNSTABLE",
    "advance_fluid", "equilibrium_schedule", "measured_rates_bps",
    "pool_rates", "rate_divergence", "rate_pool_key",
    "wire_overhead_ratio",
]
