"""Cebinae's passive multi-stage heavy-hitter cache (paper section 4.2).

The cache identifies the bottlenecked (⊤) flows on a saturated port: the
flow(s) whose egress byte count is within ``δf`` of the maximum.  It
adapts HashPipe (Sivaraman et al., SOSR '17) but manages memory
*passively*: a packet hashes into each stage in turn and claims the
first entry that is free or already its own; if every stage's entry
belongs to another flow the packet simply is not counted.  There is no
eviction or recirculation — instead, the control plane polls and resets
the whole structure every interval, letting active heavy hitters
re-claim entries because they send the most packets.

Hashing is CRC32 with a per-stage salt so runs are deterministic
regardless of Python's string-hash randomisation.

Within one polling interval a claimed entry is never released, so a
flow's fate is settled by its first packet: it claims the first free
entry on its stage walk, or finds every entry taken and stays uncounted
until the reset.  A cache therefore walks the stages once per flow per
interval and keeps the bytes of the flows holding an entry in one
per-flow dict, which the poll hands over whole.
"""

from __future__ import annotations

import zlib
from typing import (TYPE_CHECKING, Callable, Dict, Generic,
                    Hashable, Optional, Set, Tuple, TypeVar)

if TYPE_CHECKING:
    from ..core.units import Bytes, Ratio

#: The flow-key type a cache is instantiated over (FlowId in the
#: simulator; tests use ints and strings).
K = TypeVar("K", bound=Hashable)

#: Observability hook signature: ``trace(action, key, stage, nbytes)``
#: with ``action`` one of ``insert``/``hit``/``uncounted`` and ``stage``
#: the claiming stage (-1 when no stage counted the packet).  The cache
#: holds no clock, so the installer (CebinaeQueueDisc) closes over the
#: simulation time and port name.
CacheTrace = Callable[[str, K, int, int], None]


def stage_hash(key: Hashable, salt: int) -> int:
    """A deterministic per-stage hash of an arbitrary flow key."""
    data = repr(key).encode("utf-8")
    return zlib.crc32(data, salt & 0xFFFFFFFF)


class CebinaeFlowCache(Generic[K]):
    """Multi-stage, passively managed byte-count cache."""

    def __init__(self, stages: int = 2, slots_per_stage: int = 2048,
                 seed: int = 1) -> None:
        if stages < 1:
            raise ValueError("need at least one stage")
        if slots_per_stage < 1:
            raise ValueError("need at least one slot per stage")
        self.stages = stages
        self.slots_per_stage = slots_per_stage
        self._salts = [seed * 0x9E3779B1 + s * 0x85EBCA77
                       for s in range(stages)]
        # Bytes this interval of every flow holding an entry.
        self._counts: Dict[K, int] = {}
        # The held entries, as ``stage * slots_per_stage + index``.
        self._held: Set[int] = set()
        # The stage each flow seen this interval claimed, -1 for a flow
        # that found every entry of its walk taken (uncounted until the
        # reset, whatever it sends).
        self._stage_of: Dict[K, int] = {}
        self.uncounted_packets = 0
        self.uncounted_bytes = 0
        #: Observability hook (installed by the queue disc; None = off).
        self.trace: Optional[CacheTrace[K]] = None

    def update(self, key: K, nbytes: int) -> bool:
        """Account ``nbytes`` for ``key``.  False if no slot was free."""
        trace = self.trace
        counts = self._counts
        if key in counts:
            counts[key] += nbytes
            if trace is not None:
                trace("hit", key, self._stage_of[key], nbytes)
            return True
        stage_of = self._stage_of
        if key not in stage_of:
            # The flow's first packet this interval walks the stages.
            held = self._held
            slots = self.slots_per_stage
            for stage, salt in enumerate(self._salts):
                slot = stage * slots + stage_hash(key, salt) % slots
                if slot not in held:
                    held.add(slot)
                    stage_of[key] = stage
                    counts[key] = nbytes
                    if trace is not None:
                        trace("insert", key, stage, nbytes)
                    return True
            stage_of[key] = -1
        self.uncounted_packets += 1
        self.uncounted_bytes += nbytes
        if trace is not None:
            trace("uncounted", key, -1, nbytes)
        return False

    def lookup(self, key: K) -> int:
        """The bytes currently recorded for ``key`` (0 if untracked)."""
        return self._counts.get(key, 0)

    def snapshot(self) -> Dict[K, int]:
        """All (flow, bytes) entries currently held."""
        return dict(self._counts)

    def poll_and_reset(self) -> Dict[K, int]:
        """Control-plane poll: return all entries and clear the cache.

        Mirrors the serializable poll+reset of the paper (every entry is
        evicted to the control plane, giving every active flow another
        chance to claim a slot next interval).
        """
        result = self._counts
        self._counts = {}
        self._held = set()
        self._stage_of = {}
        self.uncounted_packets = 0
        self.uncounted_bytes = 0
        return result

    @property
    def occupancy(self) -> int:
        """Number of occupied slots across all stages."""
        return len(self._counts)


class ExactFlowCache(Generic[K]):
    """A collision-free reference cache (dict-backed).

    Used by unit tests and available to the Cebinae queue disc when an
    experiment wants to isolate the mechanism from detection error.
    """

    def __init__(self) -> None:
        self._counts: Dict[K, int] = {}
        self.uncounted_packets = 0
        self.uncounted_bytes = 0
        #: Observability hook (same contract as CebinaeFlowCache.trace).
        self.trace: Optional[CacheTrace[K]] = None

    def update(self, key: K, nbytes: int) -> bool:
        trace = self.trace
        if trace is None:
            self._counts[key] = self._counts.get(key, 0) + nbytes
            return True
        present = key in self._counts
        self._counts[key] = self._counts.get(key, 0) + nbytes
        trace("hit" if present else "insert", key, 0, nbytes)
        return True

    def lookup(self, key: K) -> int:
        return self._counts.get(key, 0)

    def snapshot(self) -> Dict[K, int]:
        return dict(self._counts)

    def poll_and_reset(self) -> Dict[K, int]:
        result = self._counts
        self._counts = {}
        return result

    @property
    def occupancy(self) -> int:
        return len(self._counts)


def select_bottlenecked(flow_bytes: Dict[K, Bytes],
                        delta_flow: Ratio) -> Tuple[Set[K], Bytes]:
    """The paper's ⊤ selection rule (Figure 4, lines 17-25).

    Returns the set of flows whose byte count is within ``delta_flow``
    of the maximum, plus the aggregate bytes of that set (pre-tax).
    """
    if not flow_bytes:
        return set(), 0
    c_max = max(flow_bytes.values())
    if c_max <= 0:
        return set(), 0
    threshold = c_max * (1.0 - delta_flow)
    top = {flow for flow, count in flow_bytes.items()
           if count >= threshold}
    return top, sum(flow_bytes[flow] for flow in top)
