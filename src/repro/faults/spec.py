"""The fault-spec format: one frozen description of a run's faults.

A :class:`FaultSpec` is deliberately shaped like the rest of the run
configuration (:class:`~repro.experiments.scenarios.ScaledScenario`,
:class:`~repro.core.params.CebinaeParams`): a frozen dataclass of JSON
primitives, so it canonicalises into the result-cache fingerprint,
round-trips through ``to_dict``/``from_dict`` without loss, and equals
itself across processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from ..analysis.invariants import require, require_probability

#: Windows are half-open integer-nanosecond intervals [start, end).
Window = Tuple[int, int]
#: A node freeze: (name pattern, start_ns, end_ns).
FreezeWindow = Tuple[str, int, int]


@dataclass(frozen=True)
class FaultSpec:
    """Everything a run may inject, in integer nanoseconds.

    The stochastic impairments (``loss_rate``/``corrupt_rate``/
    ``reorder_rate``) apply per transmitted packet on links matching
    ``link_pattern``, inside the active window ``[start_ns, end_ns)``
    (``end_ns=0`` means "until the end of the run").  Structural faults
    (link down windows, seeded flaps, node freezes, control-plane
    outages) are explicit event schedules.  ``seed`` roots every
    random draw; two runs with equal specs are identical.
    """

    seed: int = 1
    # -- stochastic per-link impairments -----------------------------------
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0
    #: Extra propagation delay drawn U(1, reorder_delay_ns) for a
    #: reordered packet.
    reorder_delay_ns: int = 500_000
    #: fnmatch pattern selecting the impaired links by name.
    link_pattern: str = "*"
    start_ns: int = 0
    end_ns: int = 0
    # -- link up/down -------------------------------------------------------
    link_down_windows: Tuple[Window, ...] = ()
    #: Seeded random flaps per matched link, each ``flap_down_ns`` long.
    flap_count: int = 0
    flap_down_ns: int = 50_000_000
    # -- node freeze/restart ------------------------------------------------
    node_freeze_windows: Tuple[FreezeWindow, ...] = ()
    # -- control-plane degradation -----------------------------------------
    #: Probability a round's reconfiguration is delayed past deadline L.
    cp_delay_prob: float = 0.0
    #: Maximum extra reconfiguration delay, drawn U(1, max) when delayed.
    cp_delay_max_ns: int = 0
    #: Probability a round's reconfiguration is lost outright.
    cp_drop_prob: float = 0.0
    #: Hard outages: every reconfiguration inside a window is lost.
    cp_outage_windows: Tuple[Window, ...] = ()
    #: Miss semantics: fail open (pass-through FIFO for the round) when
    #: True, or apply the stale configuration late when False.
    cp_fail_open: bool = True

    def __post_init__(self) -> None:
        require_probability(self.loss_rate, "loss_rate")
        require_probability(self.corrupt_rate, "corrupt_rate")
        require_probability(self.reorder_rate, "reorder_rate")
        require_probability(self.cp_delay_prob, "cp_delay_prob")
        require_probability(self.cp_drop_prob, "cp_drop_prob")
        require(self.loss_rate + self.corrupt_rate + self.reorder_rate
                <= 1.0,
                "loss_rate + corrupt_rate + reorder_rate must not "
                "exceed 1")
        for name in ("reorder_delay_ns", "flap_down_ns", "start_ns",
                     "end_ns", "cp_delay_max_ns"):
            value = getattr(self, name)
            require(isinstance(value, int) and not isinstance(value, bool)
                    and value >= 0,
                    f"{name} must be a non-negative integer "
                    f"nanosecond count, got {value!r}")
        require(self.flap_count >= 0, "flap_count must be >= 0")
        if self.reorder_rate > 0:
            require(self.reorder_delay_ns > 0,
                    "reorder_rate needs reorder_delay_ns > 0")
        if self.cp_delay_prob > 0:
            require(self.cp_delay_max_ns > 0,
                    "cp_delay_prob needs cp_delay_max_ns > 0")
        for start, end in (*self.link_down_windows,
                           *self.cp_outage_windows):
            require(0 <= start < end,
                    f"window ({start}, {end}) must satisfy "
                    f"0 <= start < end")
        for pattern, start, end in self.node_freeze_windows:
            require(bool(pattern),
                    "node freeze windows need a name pattern")
            require(0 <= start < end,
                    f"freeze window ({start}, {end}) must satisfy "
                    f"0 <= start < end")

    # -- queries ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this spec injects anything at all."""
        return bool(
            self.loss_rate or self.corrupt_rate or self.reorder_rate
            or self.link_down_windows or self.flap_count
            or self.node_freeze_windows or self.cp_delay_prob
            or self.cp_drop_prob or self.cp_outage_windows)

    @property
    def link_faults_enabled(self) -> bool:
        return bool(self.loss_rate or self.corrupt_rate
                    or self.reorder_rate or self.link_down_windows
                    or self.flap_count)

    @property
    def control_plane_enabled(self) -> bool:
        return bool(self.cp_delay_prob or self.cp_drop_prob
                    or self.cp_outage_windows)

    def active_at(self, now_ns: int) -> bool:
        """Whether the stochastic window covers ``now_ns``."""
        if now_ns < self.start_ns:
            return False
        return self.end_ns == 0 or now_ns < self.end_ns

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready payload (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["link_down_windows"] = [list(w) for w in
                                     self.link_down_windows]
        data["cp_outage_windows"] = [list(w) for w in
                                     self.cp_outage_windows]
        data["node_freeze_windows"] = [list(w) for w in
                                       self.node_freeze_windows]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault-spec keys: {unknown}")
        kwargs = dict(data)
        for key in ("link_down_windows", "cp_outage_windows"):
            if key in kwargs:
                kwargs[key] = tuple((int(s), int(e))
                                    for s, e in kwargs[key])
        if "node_freeze_windows" in kwargs:
            kwargs["node_freeze_windows"] = tuple(
                (str(p), int(s), int(e))
                for p, s, e in kwargs["node_freeze_windows"])
        return cls(**kwargs)


def merge_windows(windows: Iterable[Window]) -> Tuple[Window, ...]:
    """Sort and coalesce overlapping half-open windows."""
    merged: List[Window] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)
