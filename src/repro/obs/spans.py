"""Hierarchical lifecycle spans: where wall-clock goes inside a run.

A span covers one phase of the fleet's lifecycle — outermost to
innermost: ``sweep`` (one worker process) → ``task`` (one manifest
entry, under its lock) → ``run`` (one scenario execution) →
``phase`` (warmup / stability-probe / fluid-epoch / drain), with
``engine`` spans for each ``Simulator.run`` and ``round`` leaf spans
for individual control-plane rounds nested below.  Every span records
both clocks: ``start_ns``/``time_ns`` are simulation time (0 for
host-level spans with no live simulation), ``wall_s`` is host
wall-clock — the one field the determinism contract explicitly
excludes (see :data:`repro.obs.events.NONDETERMINISTIC_FIELDS`).

**Zero-cost-off contract** (same as the bus, DESIGN.md §11):
:func:`open_span` consults :func:`repro.obs.bus.emitter_for` and
returns ``None`` when no bus carries the ``span`` topic, so producers
pay one ``is not None`` test per span boundary — and span boundaries
are per *run/phase/round*, never per event.  No bus ⇒ the identical
instruction stream as before this module existed.

**Deterministic ids**: a span's id is a digest of its *position in the
tree* — parent id, kind, name, and its index among the parent's
children (:func:`derive_span_id`) — not of process history or clocks.
Two identical runs therefore emit identical trees with identical ids,
which is what lets the CI obs-smoke job compare span streams byte-wise
(after stripping ``wall_s``).

Spans are process-global and single-threaded like the bus itself: the
open-span stack lives at module level, producers open/close in strict
LIFO order (the :func:`span` context manager guarantees it), and
:func:`close_span` pops any orphans left by an exception unwinding
through abandoned children.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from typing import (Any, Dict, Iterable, Iterator, List, Mapping,
                    Optional)

from . import bus as obs_bus
from .events import SpanEvent

#: The span kinds, outermost to innermost.
SPAN_KINDS = ("sweep", "task", "run", "phase", "engine", "round")

#: The run phases the runner partitions execution into.  Packet-backend
#: runs are a single ``drain``; hybrid runs go ``warmup`` →
#: ``stability-probe``* → (``fluid-epoch`` | ``drain``).
RUN_PHASES = ("warmup", "stability-probe", "fluid-epoch", "drain")

#: Hex digits of the sha256 tree-position digest kept as a span id.
SPAN_ID_HEX = 16


def wall_now() -> float:
    """The blessed wall reading for span durations.

    Host-side observability only: the value lands in
    ``SpanEvent.wall_s`` and never flows back into simulation state.
    """
    return time.monotonic()  # simlint: allow[D103] span wall-clock durations


def derive_span_id(parent_id: str, kind: str, name: str,
                   index: int) -> str:
    """A deterministic id from the span's position in the tree.

    ``index`` is the span's ordinal among its parent's children (roots
    use 0 and ``parent_id=""``), so the id depends only on tree shape:
    reruns — in the same process or across processes — yield the same
    ids for the same execution structure.
    """
    text = f"{parent_id}/{kind}:{name}#{index}"
    return hashlib.sha256(
        text.encode("utf-8")).hexdigest()[:SPAN_ID_HEX]


class SpanHandle:
    """One *open* span: mutable bookkeeping until :func:`close_span`.

    Producers may set :attr:`count` (the span's volume unit) any time
    before close; everything else is fixed at open.
    """

    __slots__ = ("emit", "span_id", "parent_id", "kind", "name",
                 "start_ns", "sim_clock", "count", "wall_start",
                 "children", "closed")

    def __init__(self, emit: obs_bus.Emitter, span_id: str,
                 parent_id: str, kind: str, name: str, start_ns: int,
                 sim_clock: bool) -> None:
        self.emit = emit
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start_ns = start_ns
        self.sim_clock = sim_clock
        self.count = 0
        self.wall_start = wall_now()
        #: How many children this span has allocated ids for.
        self.children = 0
        self.closed = False

    def next_child(self) -> int:
        """Allocate the next child index (ids depend on it)."""
        index = self.children
        self.children += 1
        return index


#: The open-span stack of this process (innermost last).
_STACK: List[SpanHandle] = []


def open_span(kind: str, name: str,
              sim_clock: bool = True) -> Optional[SpanHandle]:
    """Open a span; None when the span topic is off (zero-cost path).

    ``sim_clock=False`` marks a host-level span (sweep/task)
    whose sim times stay 0 — there is no single simulation clock to
    read at that level.
    """
    emit = obs_bus.emitter_for("span")
    if emit is None:
        return None
    bus = obs_bus.current()
    parent = _STACK[-1] if _STACK else None
    parent_id = parent.span_id if parent is not None else ""
    index = parent.next_child() if parent is not None else 0
    start_ns = bus.now_ns() if (sim_clock and bus is not None) else 0
    handle = SpanHandle(
        emit=emit,
        span_id=derive_span_id(parent_id, kind, name, index),
        parent_id=parent_id, kind=kind, name=name,
        start_ns=start_ns, sim_clock=sim_clock)
    _STACK.append(handle)
    return handle


def close_span(handle: SpanHandle, status: str = "ok") -> None:
    """Close ``handle``, emitting its :class:`SpanEvent` (idempotent).

    Any still-open children above ``handle`` on the stack were
    abandoned by an exception; they are popped unemitted so the stack
    stays consistent for the next producer.
    """
    if handle.closed:
        return
    handle.closed = True
    while _STACK:
        top = _STACK.pop()
        if top is handle:
            break
    bus = obs_bus.current()
    end_ns = bus.now_ns() if (handle.sim_clock and bus is not None) \
        else handle.start_ns
    handle.emit(SpanEvent(
        time_ns=end_ns, span_id=handle.span_id,
        parent_id=handle.parent_id, kind=handle.kind,
        name=handle.name, start_ns=handle.start_ns,
        wall_s=wall_now() - handle.wall_start,
        count=handle.count, status=status))


@contextmanager
def span(kind: str, name: str,
         sim_clock: bool = True) -> Iterator[Optional[SpanHandle]]:
    """Scope a span around a block; yields None when spans are off.

    An exception unwinding through the block closes the span with
    ``status="error"`` and re-raises.
    """
    handle = open_span(kind, name, sim_clock=sim_clock)
    if handle is None:
        yield None
        return
    try:
        yield handle
    except BaseException:
        close_span(handle, status="error")
        raise
    close_span(handle)


def emit_leaf(emit: obs_bus.Emitter, kind: str, name: str,
              time_ns: int, wall_s: float, count: int = 0,
              status: str = "ok") -> None:
    """Emit a childless span directly, under the innermost open span.

    For producers whose unit of work is a single callback (the control
    plane's per-round apply): no stack frame is pushed, but the leaf
    still claims a child index from its parent so ids stay positional.
    """
    parent = _STACK[-1] if _STACK else None
    parent_id = parent.span_id if parent is not None else ""
    index = parent.next_child() if parent is not None else 0
    emit(SpanEvent(
        time_ns=time_ns,
        span_id=derive_span_id(parent_id, kind, name, index),
        parent_id=parent_id, kind=kind, name=name, start_ns=time_ns,
        wall_s=wall_s, count=count, status=status))


def span_tree(
        records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Index decoded :class:`SpanEvent` dicts into a validated tree.

    Returns ``{"nodes": {span_id: node}, "roots": [span_id, ...]}``
    where each node is the record dict plus a ``children`` list of
    ids, both in emission order.  Raises :class:`ValueError` on
    duplicate ids or a non-empty ``parent_id`` that names no emitted
    span — the structural validity CI asserts.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    for data in records:
        if data.get("type") != "SpanEvent":
            continue
        span_id = str(data["span_id"])
        if span_id in nodes:
            raise ValueError(f"duplicate span id {span_id!r}")
        node = dict(data)
        node["children"] = []
        nodes[span_id] = node
    roots: List[str] = []
    for span_id, node in nodes.items():
        parent_id = str(node["parent_id"])
        if not parent_id:
            roots.append(span_id)
            continue
        parent = nodes.get(parent_id)
        if parent is None:
            raise ValueError(
                f"span {span_id!r} names unknown parent "
                f"{parent_id!r}")
        parent["children"].append(span_id)
    return {"nodes": nodes, "roots": roots}


__all__ = [
    "RUN_PHASES", "SPAN_ID_HEX", "SPAN_KINDS", "SpanHandle",
    "close_span", "derive_span_id", "emit_leaf", "open_span", "span",
    "span_tree", "wall_now",
]
