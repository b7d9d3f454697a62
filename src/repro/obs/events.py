"""Typed, frozen trace-event records and their wire schema.

Every observable moment in the simulator maps to exactly one record
class below.  Records are frozen dataclasses: producers build them,
sinks serialize them, and nothing in between may mutate them — a trace
is a statement of what happened, not a scratchpad.

Each class declares its *topic*, the subscription unit of the
:class:`~repro.obs.bus.TraceBus`:

========== ==========================================================
topic      produced by
========== ==========================================================
packet     :class:`~repro.netsim.link.Link` per transmitted packet
queue      every :class:`~repro.netsim.queues.QueueDisc` drop
lbf        :class:`~repro.core.queue_disc.CebinaeQueueDisc` admission
           (delay / drop / ECN mark), rotation, fail-open transitions
hashpipe   :class:`~repro.heavyhitter.hashpipe.CebinaeFlowCache`
           insert / hit / uncounted outcomes
control    :class:`~repro.core.control_plane.CebinaeControlPlane`
           per-``dT``-round records (rates, membership, saturation,
           fail-open verdicts)
tcp        :class:`~repro.tcp.socket.TcpSender` cwnd samples and
           state transitions
fault      :class:`~repro.faults.schedule.FaultSchedule` structural
           events (the records of its ``timeline``) and each impaired
           packet's loss / corrupt / reorder fate
span       :mod:`repro.obs.spans` lifecycle spans (sweep → shard →
           task → run → phase / engine / control round), one record
           per *closed* span
========== ==========================================================

Determinism rules (see DESIGN.md §11): every field is derived from
simulation state only — integer-nanosecond times, flow ids rendered
with ``str(FlowId)``, and any set-valued field (⊤ membership) sorted
before it enters the frozen record.  Two runs with the same seed emit
byte-identical event streams.

One documented exception: :class:`SpanEvent.wall_s` measures host
wall-clock time by design (spans exist to explain where wall-clock
goes).  :data:`NONDETERMINISTIC_FIELDS` names such fields and
:func:`canonical_dict` strips them, so byte-identity checks compare
everything *except* the wall readings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Tuple, Type

#: Version of the JSONL record layout.  Bump when a field is renamed,
#: retyped, or removed (additions are backward compatible).  Version 2
#: added the ``span`` topic and :class:`SpanEvent`.
TRACE_SCHEMA_VERSION = 2

#: Every topic the bus accepts, in documentation order.
TOPICS: Tuple[str, ...] = ("packet", "queue", "lbf", "hashpipe",
                           "control", "tcp", "fault", "span")


@dataclass(frozen=True)
class TraceRecord:
    """Base class: a timestamped, topic-tagged, immutable record."""

    topic: ClassVar[str] = ""
    time_ns: int

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready payload including ``topic`` and ``type`` tags."""
        data: Dict[str, Any] = {"topic": self.topic,
                                "type": type(self).__name__}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            data[field.name] = value
        return data


@dataclass(frozen=True)
class PacketTx(TraceRecord):
    """One packet finished serializing onto a port's wire."""

    topic: ClassVar[str] = "packet"
    port: str = ""
    flow: str = ""
    ptype: str = "data"
    size_bytes: int = 0
    seq: int = 0
    ack: int = 0
    ecn: str = "NOT_ECT"


@dataclass(frozen=True)
class QueueDrop(TraceRecord):
    """A queue disc refused or discarded a packet."""

    topic: ClassVar[str] = "queue"
    port: str = ""
    reason: str = "tail"
    flow: str = ""
    size_bytes: int = 0


@dataclass(frozen=True)
class LbfDecisionEvent(TraceRecord):
    """An LBF admission outcome that shaped traffic (delay/drop/mark)."""

    topic: ClassVar[str] = "lbf"
    port: str = ""
    kind: str = "delay"  # delay | drop | mark | failopen_enqueue
    flow: str = ""
    group: str = ""      # top | bottom | aggregate
    size_bytes: int = 0
    queue_index: int = -1


@dataclass(frozen=True)
class LbfRotation(TraceRecord):
    """A ``dT`` queue rotation at one port."""

    topic: ClassVar[str] = "lbf"
    port: str = ""
    kind: str = "rotate"
    rotation: int = 0
    retired_queue: int = 0
    residue_packets: int = 0


@dataclass(frozen=True)
class CacheUpdate(TraceRecord):
    """One flow-cache update outcome (HashPipe-style stage walk)."""

    topic: ClassVar[str] = "hashpipe"
    port: str = ""
    action: str = "hit"  # insert | hit | uncounted
    flow: str = ""
    stage: int = -1
    nbytes: int = 0


@dataclass(frozen=True)
class ControlRound(TraceRecord):
    """One control-plane round: what the agent programmed (or failed to).

    ``kind`` is ``config`` for a normally applied reconfiguration,
    ``fail_open`` when the deadline passed and the port degraded, and
    ``missed`` when a dropped reconfiguration left the round
    unprogrammed without fail-open protection.  ``top_flows`` is sorted
    so records are byte-stable across processes.
    """

    topic: ClassVar[str] = "control"
    port: str = ""
    kind: str = "config"  # config | fail_open | missed
    round_index: int = 0
    retired_queue: int = -1
    saturated: bool = False
    utilization: float = 0.0
    top_rate_bytes_per_sec: float = 0.0
    bottom_rate_bytes_per_sec: float = 0.0
    top_flows: Tuple[str, ...] = ()
    recomputed: bool = False
    fail_open: bool = False


@dataclass(frozen=True)
class TcpStateEvent(TraceRecord):
    """A sender-side cwnd sample or state transition."""

    topic: ClassVar[str] = "tcp"
    flow: str = ""
    kind: str = "cwnd"  # start | cwnd | fast_recovery | exit_recovery
                        # | rto | ecn_backoff | complete
    cwnd_bytes: float = 0.0
    snd_una: int = 0
    snd_nxt: int = 0


@dataclass(frozen=True)
class FaultTraceEvent(TraceRecord):
    """A fault as it lands: a structural one, as kept in
    ``FaultSchedule.timeline`` (``link_down``, ``node_freeze``, ...),
    or one packet's stochastic fate on an impaired link (``loss``,
    ``corrupt``, ``reorder``), ``target`` naming the link or node."""

    topic: ClassVar[str] = "fault"
    kind: str = "link_down"
    target: str = ""


@dataclass(frozen=True)
class SpanEvent(TraceRecord):
    """One closed lifecycle span (see :mod:`repro.obs.spans`).

    Emitted exactly once, when the span *closes*: ``start_ns`` is the
    simulation clock at open and the inherited ``time_ns`` the clock
    at close (both 0 for host-level spans — sweep/shard/task — that
    run outside any one simulation).  ``span_id`` and ``parent_id``
    are deterministic tree-position digests
    (:func:`repro.obs.spans.derive_span_id`), so identical runs yield
    identical trees.  ``wall_s`` is the host wall-clock duration — the
    single nondeterministic field in the whole schema (see
    :data:`NONDETERMINISTIC_FIELDS`).  ``count`` is the span's natural
    volume unit: executed events for run/engine spans, fluid epochs
    for the fluid phase, completed tasks for sweep-level spans.
    """

    topic: ClassVar[str] = "span"
    span_id: str = ""
    parent_id: str = ""
    kind: str = "phase"  # sweep | shard | task | run | phase
                         # | engine | round
    name: str = ""
    start_ns: int = 0
    wall_s: float = 0.0
    count: int = 0
    status: str = "ok"   # ok | error


#: Registry of record classes by ``type`` tag, for schema validation.
RECORD_TYPES: Dict[str, Type[TraceRecord]] = {
    cls.__name__: cls
    for cls in (PacketTx, QueueDrop, LbfDecisionEvent, LbfRotation,
                CacheUpdate, ControlRound, TcpStateEvent,
                FaultTraceEvent, SpanEvent)
}

#: Record fields whose values come from host wall clocks rather than
#: simulation state, by record type.  Byte-identity comparisons strip
#: them via :func:`canonical_dict`; every other field of every record
#: is covered by the determinism contract.
NONDETERMINISTIC_FIELDS: Dict[str, Tuple[str, ...]] = {
    "SpanEvent": ("wall_s",),
}


def canonical_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """``data`` minus its nondeterministic (wall-clock) fields."""
    drop = NONDETERMINISTIC_FIELDS.get(str(data.get("type")), ())
    if not drop:
        return dict(data)
    return {key: value for key, value in data.items()
            if key not in drop}

#: Python-type → the JSON primitive(s) it may serialize to.
_FIELD_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "str": (str,),
    "bool": (bool,),
    "float": (int, float),
    "Tuple[str, ...]": (list,),
}


def record_schema(cls: Type[TraceRecord]) -> Dict[str, Tuple[type, ...]]:
    """The required-field schema of one record class."""
    schema: Dict[str, Tuple[type, ...]] = {}
    for field in dataclasses.fields(cls):
        type_name = field.type if isinstance(field.type, str) else \
            getattr(field.type, "__name__", str(field.type))
        schema[field.name] = _FIELD_JSON_TYPES.get(type_name, (object,))
    return schema


class SchemaError(ValueError):
    """A serialized trace record does not match the event schema."""


def validate_record(data: Mapping[str, Any]) -> Type[TraceRecord]:
    """Check one decoded JSONL record against the schema.

    Returns the record class on success; raises :class:`SchemaError`
    with a precise complaint otherwise.  Unknown extra keys are
    rejected too — the schema is the contract CI replays against.
    """
    type_name = data.get("type")
    if not isinstance(type_name, str) or type_name not in RECORD_TYPES:
        raise SchemaError(f"unknown record type {type_name!r}")
    cls = RECORD_TYPES[type_name]
    if data.get("topic") != cls.topic:
        raise SchemaError(
            f"{type_name}: topic {data.get('topic')!r} != {cls.topic!r}")
    schema = record_schema(cls)
    for name, allowed in schema.items():
        if name not in data:
            raise SchemaError(f"{type_name}: missing field {name!r}")
        value = data[name]
        if object not in allowed and not isinstance(value, allowed):
            # bool is an int subclass; reject it where ints are expected.
            raise SchemaError(
                f"{type_name}.{name}: {type(value).__name__} is not "
                f"one of {[t.__name__ for t in allowed]}")
        if allowed == (int,) and isinstance(value, bool):
            raise SchemaError(f"{type_name}.{name}: bool is not int")
    extras = set(data) - set(schema) - {"topic", "type"}
    if extras:
        raise SchemaError(f"{type_name}: unexpected fields {sorted(extras)}")
    return cls


def sorted_flow_strings(flows: Any) -> Tuple[str, ...]:
    """Render a set of FlowIds as a sorted, hashable string tuple."""
    rendered: List[str] = [str(flow) for flow in flows]
    rendered.sort()
    return tuple(rendered)
