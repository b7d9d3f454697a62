"""Cebinae's two-queue leaky-bucket filter (paper Figure 5).

This module is the pure arithmetic of the data plane's admission
decision, independent of the simulator: given a flow group (⊤ or ⊥),
a packet size and the current time, decide whether the packet belongs
in the current round's queue (``headq``), the next round's queue
(``¬headq``, i.e. injected delay), or nowhere (injected loss).

The state per group is a single byte counter ``bytes[g]`` tracking the
group's consumption against its rate allocation.  Two mechanisms from
the paper shape the counter:

* **Virtual rounds** (``vdT``): before adding a packet, the counter is
  raised to at least ``aggregate_size`` — the bytes the group *would*
  have sent had it transmitted exactly at its allocated rate up to the
  current virtual round.  A group that idles early in a round therefore
  forfeits that credit and cannot catch up in one burst at the end
  (Figure 5 lines 14-22).
* **Rotation** (every ``dT``): the counter is decremented by one
  round's allocation, the round origin advances, and the queue
  priorities flip (lines 8-12).

Per the pseudocode, the counter update *commits even when the packet is
dropped* (the hardware cannot undo the register write); tests cover
this behaviour and experiments show TCP's backoff makes it benign.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, List

from ..netsim.engine import SECOND
from .params import CebinaeParams

if TYPE_CHECKING:
    from .units import BitsPerSec, Bytes, TimeNs


class FlowGroup(enum.IntEnum):
    """The two-way classification at the heart of Cebinae's scalability.

    An ``IntEnum``, so a group indexes the filter's per-group lists;
    traces and snapshots name it ``name.lower()``.
    """

    TOP = 0     # ⊤: bottlenecked at this port.
    BOTTOM = 1  # ⊥: not bottlenecked here; allowed to grow.


class LbfDecision(enum.Enum):
    """Outcome of an admission check."""

    HEAD = "head"    # Within this round's allocation.
    TAIL = "tail"    # Delayed into the next round's queue.
    DROP = "drop"    # Past both rounds' allocations.


# Members read per packet, as module constants: an Enum class
# attribute costs an order of magnitude more than a global (the
# measurement is in netsim/packet.py).  Same objects, same ``is`` tests.
GROUP_TOP = FlowGroup.TOP
GROUP_BOTTOM = FlowGroup.BOTTOM
DECISION_HEAD = LbfDecision.HEAD
DECISION_TAIL = LbfDecision.TAIL
DECISION_DROP = LbfDecision.DROP


class LeakyBucketFilter:
    """The per-port LBF state machine."""

    def __init__(self, params: CebinaeParams,
                 capacity_bps: BitsPerSec) -> None:
        self.params = params
        self.capacity_bytes_per_sec = capacity_bps / 8.0
        # Derived constants, hoisted off the per-packet admit path.
        # CebinaeParams is frozen, so these cannot go stale; each is
        # computed with the exact expression the admit path used
        # inline, keeping admission decisions bit-identical.
        self._dt_ns = params.dt_ns
        self._vdt_ns = params.vdt_ns
        self._two_dt_ns = 2 * params.dt_ns
        self._dt_sec = params.dt_ns / SECOND
        self._rounds_per_dt = params.dt_ns // params.vdt_ns
        self._capacity_dt_bytes = \
            self.capacity_bytes_per_sec * params.dt_ns / SECOND
        self.headq = 0
        self.base_round_time_ns = 0
        self.round_time_ns = 0
        # bytes[group], indexed by FlowGroup.
        self.bytes: List[float] = [0.0, 0.0]
        # rates[queue_index][group] in bytes/second.  Until the control
        # plane says otherwise, both groups may use the full capacity.
        capacity = self.capacity_bytes_per_sec
        self.rates: List[List[float]] = [[capacity, capacity],
                                         [capacity, capacity]]
        # The aggregate counter for phase changes (section 4.3,
        # "Supporting phase changes"): same arithmetic, full capacity.
        self.total_bytes = 0.0
        self.rotations = 0

    # -- helpers -----------------------------------------------------------
    def _advance_virtual_round(self, now_ns: TimeNs) -> None:
        vdt = self._vdt_ns
        if now_ns >= self.round_time_ns + vdt:
            self.round_time_ns = now_ns - (now_ns % vdt)

    def credit(self, rate_head: float, rate_tail: float,
               now_ns: TimeNs) -> float:
        """Figure 5 lines 14-22: advance the virtual round to ``now_ns``
        and return the credit line, the bytes a bucket at these rates
        may have used by now.
        """
        self._advance_virtual_round(now_ns)
        vdt = self._vdt_ns
        dt = self._dt_ns
        rounds_per_dt = self._rounds_per_dt
        relative_round = (self.round_time_ns
                          - self.base_round_time_ns) // vdt
        if relative_round < rounds_per_dt:
            return rate_head * relative_round * vdt / SECOND
        # Past the current physical round but ROTATE not yet processed:
        # bill the overflow against the next round's rate.
        relative_round = min(relative_round, 2 * rounds_per_dt)
        return (rate_head * dt / SECOND
                + (relative_round - rounds_per_dt) * rate_tail
                * vdt / SECOND)

    # -- data plane operations ------------------------------------------------
    def admit(self, group: FlowGroup, size_bytes: Bytes,
              now_ns: TimeNs) -> LbfDecision:
        """Figure 5 lines 13-33 for a saturated port."""
        rate_head = self.rates[self.headq][group]
        rate_tail = self.rates[1 - self.headq][group]
        aggregate = self.credit(rate_head, rate_tail, now_ns)
        level = max(self.bytes[group], aggregate) + size_bytes
        self.bytes[group] = level
        dt_sec = self._dt_sec
        past_head = level - rate_head * dt_sec
        past_tail = past_head - rate_tail * dt_sec
        if past_head <= 0:
            return DECISION_HEAD
        if past_tail <= 0:
            return DECISION_TAIL
        return DECISION_DROP

    def admit_aggregate(self, size_bytes: Bytes,
                        now_ns: TimeNs) -> LbfDecision:
        """The unsaturated-phase filter over all traffic at capacity."""
        self._advance_virtual_round(now_ns)
        capacity = self.capacity_bytes_per_sec
        relative_ns = self.round_time_ns - self.base_round_time_ns
        aggregate = capacity * min(relative_ns, self._two_dt_ns) / SECOND
        level = max(self.total_bytes, aggregate) + size_bytes
        self.total_bytes = level
        dt_bytes = self._capacity_dt_bytes
        if level - dt_bytes <= 0:
            return DECISION_HEAD
        if level - 2 * dt_bytes <= 0:
            return DECISION_TAIL
        return DECISION_DROP

    def rotate(self, now_ns: TimeNs) -> int:
        """Figure 5 lines 8-12.  Returns the queue index just retired.

        The retired queue (the old ``headq``) is guaranteed drained by
        the Equation (2) bound and becomes the new ``¬headq``, eligible
        for a rate update during the control window.
        """
        dt_sec = self._dt_sec
        for group in FlowGroup:
            last_rate = self.rates[self.headq][group]
            self.bytes[group] = max(
                self.bytes[group] - last_rate * dt_sec, 0.0)
        self.total_bytes = max(
            self.total_bytes - self.capacity_bytes_per_sec * dt_sec, 0.0)
        self.base_round_time_ns += self.params.dt_ns
        retired = self.headq
        self.headq = 1 - self.headq
        self.rotations += 1
        return retired

    # -- control plane operations ----------------------------------------------
    def set_queue_rates(self, queue_index: int, top_bytes_per_sec: float,
                        bottom_bytes_per_sec: float) -> None:
        """Fix the rates of a drained queue (only legal on ¬headq)."""
        if queue_index == self.headq:
            raise ValueError(
                "rates may only change on the drained (non-head) queue")
        self.rates[queue_index][FlowGroup.TOP] = top_bytes_per_sec
        self.rates[queue_index][FlowGroup.BOTTOM] = bottom_bytes_per_sec

    def bootstrap_from_total(self, top_share: float,
                             bottom_share: float) -> None:
        """Unsaturated→saturated hand-off (section 4.3).

        Each group's counter starts from its proportional share of the
        aggregate counter (``bytes[f] = total_bytes · rate[f]/BW``) so
        the phase change neither grants a free burst nor bills either
        group for the other's history.
        """
        self.bytes[FlowGroup.TOP] = self.total_bytes * min(top_share, 1.0)
        self.bytes[FlowGroup.BOTTOM] = self.total_bytes * \
            min(bottom_share, 1.0)

    def reset_group_counters(self) -> None:
        """Clear per-group state when filtering is released."""
        self.bytes[FlowGroup.TOP] = 0.0
        self.bytes[FlowGroup.BOTTOM] = 0.0

    # -- introspection -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The filter's full state as a JSON-ready dict.

        Used by the observability layer (metrics gauges, control-plane
        timeline) and by tests that want to assert on LBF state without
        reaching into attributes.  Keys are stable; iteration follows
        the ``FlowGroup`` definition order, so output is deterministic.
        """
        return {
            "headq": self.headq,
            "rotations": self.rotations,
            "round_time_ns": self.round_time_ns,
            "base_round_time_ns": self.base_round_time_ns,
            "bytes": {group.name.lower(): self.bytes[group]
                      for group in FlowGroup},
            "rates_bytes_per_sec": [
                {group.name.lower(): queue_rates[group]
                 for group in FlowGroup}
                for queue_rates in self.rates],
            "total_bytes": self.total_bytes,
        }
