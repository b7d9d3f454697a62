"""The seed-driven fault interpreter.

A :class:`FaultSchedule` turns a frozen
:class:`~repro.faults.spec.FaultSpec` into concrete simulator state:

* per-link :class:`LinkFaultState` objects installed on matching links
  (stochastic loss / corruption / reordering at transmission time);
* link down/up events (explicit windows plus seeded random flaps);
* node freeze/restart events;
* a :class:`ControlPlaneFaults` oracle the Cebinae agent consults each
  round to decide whether its reconfiguration met the deadline ``L``.

Determinism is load-bearing everywhere:

* every random stream is a ``random.Random`` seeded by
  :func:`derive_seed` — SHA-256 over the root seed and the target's
  *name* (never ``id()`` or Python's per-process ``hash()``), so the
  same spec produces the same draws in any process;
* per-target streams are independent: inserting a new faulted link
  cannot shift another link's draw sequence;
* fault events go through the simulation engine with integer-nanosecond
  times, so they interleave with packet events identically on every
  run.
"""

from __future__ import annotations

import hashlib
import json
import random
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Tuple

from ..netsim.engine import Simulator
from ..netsim.link import Link
from ..netsim.node import Node
from ..obs import bus as obs_bus
from ..obs.events import FaultTraceEvent
from .spec import FaultSpec, Window, merge_windows


def derive_seed(root_seed: int, *parts: object) -> int:
    """A stable 64-bit child seed for one named fault stream.

    SHA-256 over a canonical JSON encoding: reproducible across
    processes and platforms, unlike ``hash()`` (PYTHONHASHSEED) or
    ``id()`` (allocation order).
    """
    blob = json.dumps([root_seed, *[str(part) for part in parts]],
                      separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class LinkFaultState:
    """Per-link stochastic impairments and fault counters.

    Installed on a :class:`~repro.netsim.link.Link`; the link consults
    it once per transmitted packet (see ``Link._deliver_impaired``).
    One ``random.Random`` per link keeps draw sequences independent
    across links.
    """

    __slots__ = ("spec", "rng", "name", "lost_packets",
                 "corrupted_packets", "reordered_packets", "down_drops",
                 "down_windows", "_trace_fault")

    def __init__(self, spec: FaultSpec, seed: int, name: str = "") -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        #: The impaired link's name, the target of its trace records.
        self.name = name
        self.lost_packets = 0
        self.corrupted_packets = 0
        self.reordered_packets = 0
        #: Packets cut on the wire while the link was down.
        self.down_drops = 0
        #: The merged down schedule, for reporting.
        self.down_windows: Tuple[Window, ...] = ()
        # Observability: each packet's impaired fate lands on the trace
        # bus (topic "fault"); the counters say how many, not when.
        self._trace_fault = obs_bus.emitter_for("fault")

    def draw(self, now_ns: int) -> int:
        """The fate of one transmitted packet.

        Returns ``-1`` to drop (loss), ``-2`` to drop as corrupted,
        ``0`` to deliver normally, or a positive extra delay in
        nanoseconds to deliver reordered.  Exactly one uniform draw per
        packet inside the active window (plus one more for a reorder
        delay), so the stream stays aligned with the packet sequence.
        """
        spec = self.spec
        if not spec.active_at(now_ns):
            return 0
        u = self.rng.random()
        if u < spec.loss_rate:
            self.lost_packets += 1
            return self._fate(now_ns, "loss", -1)
        if u < spec.loss_rate + spec.corrupt_rate:
            self.corrupted_packets += 1
            return self._fate(now_ns, "corrupt", -2)
        if u < spec.loss_rate + spec.corrupt_rate + spec.reorder_rate:
            self.reordered_packets += 1
            return self._fate(now_ns, "reorder", self.rng.randrange(
                1, spec.reorder_delay_ns + 1))
        return 0

    def _fate(self, now_ns: int, kind: str, fate: int) -> int:
        """``fate``, traced as one ``kind`` record when the bus is on."""
        trace = self._trace_fault
        if trace is not None:
            trace(FaultTraceEvent(time_ns=now_ns, kind=kind,
                                  target=self.name))
        return fate

    def summary(self) -> Dict[str, Any]:
        return {
            "lost_packets": self.lost_packets,
            "corrupted_packets": self.corrupted_packets,
            "reordered_packets": self.reordered_packets,
            "down_drops": self.down_drops,
            "down_windows": [list(window)
                             for window in self.down_windows],
        }


class ControlPlaneFaults:
    """Per-round verdicts on the control plane's deadline ``L``.

    The Cebinae agent calls :meth:`draw` once per rotation.  A verdict
    of ``(dropped, extra_delay_ns)`` with ``dropped`` or a positive
    delay means the round's reconfiguration missed the deadline; the
    agent then fails open (or, with ``cp_fail_open=False``, applies the
    stale configuration late).
    """

    __slots__ = ("spec", "rng", "rounds", "misses", "drops", "delays")

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.rounds = 0
        self.misses = 0
        self.drops = 0
        self.delays = 0

    @property
    def fail_open(self) -> bool:
        return self.spec.cp_fail_open

    def draw(self, now_ns: int) -> Tuple[bool, int]:
        """``(dropped, extra_delay_ns)`` for the round starting now."""
        self.rounds += 1
        spec = self.spec
        for start, end in spec.cp_outage_windows:
            if start <= now_ns < end:
                self.misses += 1
                self.drops += 1
                return True, 0
        if spec.cp_drop_prob and self.rng.random() < spec.cp_drop_prob:
            self.misses += 1
            self.drops += 1
            return True, 0
        if spec.cp_delay_prob and self.rng.random() < spec.cp_delay_prob:
            extra = self.rng.randrange(1, spec.cp_delay_max_ns + 1)
            self.misses += 1
            self.delays += 1
            return False, extra
        return False, 0

    def summary(self) -> Dict[str, Any]:
        return {"rounds": self.rounds, "deadline_misses": self.misses,
                "dropped_reconfigs": self.drops,
                "delayed_reconfigs": self.delays}


class FaultSchedule:
    """Interpret one spec against one simulation.

    Usage (the runner does all of this)::

        schedule = FaultSchedule(spec, sim)
        cp_faults = schedule.control_plane_faults()   # for the factory
        schedule.install(links, nodes, duration_ns)   # after build
        sim.run(...)
        result.fault_summary = schedule.summary()
    """

    def __init__(self, spec: FaultSpec, sim: Simulator) -> None:
        self.spec = spec
        self.sim = sim
        self.timeline: List[FaultTraceEvent] = []
        self._links: List[Link] = []
        self._nodes: List[Node] = []
        self._cp: Optional[ControlPlaneFaults] = None
        # Observability: each structural fault is also emitted on the
        # trace bus (topic "fault") as it lands.
        self._trace_fault = obs_bus.emitter_for("fault")

    def _record(self, kind: str, target: str) -> None:
        event = FaultTraceEvent(time_ns=self.sim.now_ns, kind=kind,
                                target=target)
        self.timeline.append(event)
        trace = self._trace_fault
        if trace is not None:
            trace(event)

    # -- wiring ------------------------------------------------------------
    def control_plane_faults(self) -> Optional[ControlPlaneFaults]:
        """The (memoised) control-plane oracle, if the spec has one."""
        if self._cp is None and self.spec.control_plane_enabled:
            self._cp = ControlPlaneFaults(
                self.spec, derive_seed(self.spec.seed, "control-plane"))
        return self._cp

    def install(self, links: List[Link], nodes: List[Node],
                duration_ns: int) -> None:
        """Attach fault state and schedule every structural event.

        Links and nodes are matched by *name* against the spec's
        patterns; iteration order does not matter because every stream
        is seeded per target name.
        """
        spec = self.spec
        if spec.link_faults_enabled:
            for link in links:
                if fnmatchcase(link.name, spec.link_pattern):
                    self._install_link(link, duration_ns)
        for node in nodes:
            windows = merge_windows(
                (start, end)
                for pattern, start, end in spec.node_freeze_windows
                if fnmatchcase(node.name, pattern))
            for start, end in windows:
                if start >= duration_ns:
                    continue
                self.sim.post_at(start, self._freeze_node, node)
                self.sim.post_at(min(end, duration_ns),
                                 self._restart_node, node)

    def _install_link(self, link: Link, duration_ns: int) -> None:
        spec = self.spec
        state = LinkFaultState(
            spec, derive_seed(spec.seed, "link", link.name), link.name)
        windows = list(spec.link_down_windows)
        if spec.flap_count:
            flap_end = spec.end_ns or duration_ns
            flap_rng = random.Random(
                derive_seed(spec.seed, "flaps", link.name))
            span = max(flap_end - spec.start_ns, 1)
            for _ in range(spec.flap_count):
                start = spec.start_ns + flap_rng.randrange(span)
                windows.append((start, start + spec.flap_down_ns))
        state.down_windows = merge_windows(windows)
        link.set_fault_state(state)
        for start, end in state.down_windows:
            if start >= duration_ns:
                continue
            self.sim.post_at(start, self._cut_link, link)
            self.sim.post_at(min(end, duration_ns),
                             self._restore_link, link)
        self._links.append(link)

    # -- the scheduled fault events (profiled under FaultSchedule) ---------
    def _cut_link(self, link: Link) -> None:
        self._record("link_down", link.name)
        link.set_up(False)

    def _restore_link(self, link: Link) -> None:
        self._record("link_up", link.name)
        link.set_up(True)

    def _freeze_node(self, node: Node) -> None:
        self._record("node_freeze", node.name)
        node.set_frozen(True)
        self._nodes.append(node)

    def _restart_node(self, node: Node) -> None:
        self._record("node_restart", node.name)
        node.set_frozen(False)

    # -- reporting ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A deterministic JSON-able account of everything injected.

        Keys are sorted names; values are plain ints/lists so the
        payload is byte-stable under ``json.dumps(sort_keys=True)`` and
        round-trips through :class:`ScenarioResult` JSON unchanged.
        """
        links: Dict[str, Any] = {}
        for link in sorted(self._links, key=lambda l: l.name):
            state = link.fault_state
            if state is not None:
                links[link.name] = state.summary()
        nodes: Dict[str, Any] = {}
        for node in sorted(set(self._nodes), key=lambda n: n.name):
            nodes[node.name] = {"frozen_drops": node.frozen_drops}
        summary: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "links": links,
            "nodes": nodes,
            "timeline": [{"time_ns": event.time_ns, "kind": event.kind,
                          "target": event.target}
                         for event in self.timeline],
        }
        cp = self._cp
        if cp is not None:
            summary["control_plane"] = cp.summary()
        return summary
