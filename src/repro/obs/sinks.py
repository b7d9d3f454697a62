"""Trace sinks: JSONL files, per-port packet logs, control timelines.

Every sink accepts frozen :class:`~repro.obs.events.TraceRecord`
instances from the bus and persists them deterministically: JSON is
emitted with sorted keys and compact separators, files are written in
event order, and nothing here consults wall clocks or randomness — the
determinism contract is that one seed produces byte-identical sink
output on every run (DESIGN.md §11).
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, List, Optional

from .events import ControlRound, PacketTx, TraceRecord

#: Compact, key-sorted JSON: the only encoding sinks use.
_JSON_KWARGS: Dict[str, Any] = {"sort_keys": True,
                                "separators": (",", ":")}


def encode_record(record: TraceRecord) -> str:
    """The canonical single-line JSON encoding of one record."""
    return json.dumps(record.to_dict(), **_JSON_KWARGS)


class MemorySink:
    """Collects records in a list — the test harness's sink."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.closed = False

    def accept(self, record: TraceRecord) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class JsonlTraceSink:
    """One JSON object per line, in event order, to a single file.

    Subscribed to the ``span`` topic alone it writes a span file, all
    :func:`repro.obs.spans.span_tree` needs.  Span records carry the
    one nondeterministic field (``wall_s``); strip it with
    :func:`repro.obs.events.canonical_dict` before comparing span
    files byte-wise.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w",
                                               encoding="utf-8")

    def accept(self, record: TraceRecord) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError(f"trace sink {self.path!r} is closed")
        handle.write(encode_record(record))
        handle.write("\n")

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


def _sanitize(name: str) -> str:
    """A filesystem-safe rendering of a port name."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "_"
                   for ch in name) or "port"


class PacketLogSink:
    """pcap-style per-port packet logs: one text file per egress port.

    Each :class:`~repro.obs.events.PacketTx` becomes one line in
    ``<dir>/pkts_<port>.log`` in the classic tcpdump column order —
    time, flow, type, seq/ack, length, ECN — so the logs diff cleanly
    between runs and read naturally next to real captures.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._handles: Dict[str, IO[str]] = {}

    def _handle_for(self, port: str) -> IO[str]:
        handle = self._handles.get(port)
        if handle is None:
            path = os.path.join(self.directory,
                                f"pkts_{_sanitize(port)}.log")
            handle = self._handles[port] = open(path, "w",
                                                encoding="utf-8")
        return handle

    def accept(self, record: TraceRecord) -> None:
        if not isinstance(record, PacketTx):
            return
        seconds, nanos = divmod(record.time_ns, 1_000_000_000)
        self._handle_for(record.port).write(
            f"{seconds}.{nanos:09d} {record.flow} {record.ptype}"
            f" seq={record.seq} ack={record.ack}"
            f" len={record.size_bytes} ecn={record.ecn}\n")

    def close(self) -> None:
        # Sorted for a deterministic close order (set/dict-order hygiene).
        for port in sorted(self._handles):
            self._handles[port].close()
        self._handles.clear()


class ControlTimelineSink:
    """Collects per-``dT`` control-plane rounds for reports and JSONL.

    The report layer prints the timeline next to the JFI series; the
    trace CLI also persists it as ``control_timeline.jsonl`` so a run's
    control decisions can be replayed without the full packet trace.
    """

    def __init__(self) -> None:
        self.rounds: List[ControlRound] = []

    def accept(self, record: TraceRecord) -> None:
        if isinstance(record, ControlRound):
            self.rounds.append(record)

    def close(self) -> None:
        pass

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.rounds:
                handle.write(encode_record(record))
                handle.write("\n")


__all__ = [
    "ControlTimelineSink", "JsonlTraceSink",
    "MemorySink", "PacketLogSink", "encode_record",
]
