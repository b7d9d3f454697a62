"""Trace sinks: a JSONL file writer and an in-memory collector.

Every sink accepts frozen :class:`~repro.obs.events.TraceRecord`
instances from the bus.  :class:`JsonlTraceSink` persists them
deterministically: one record per line, in event order, in the one
encoding :func:`encode_record` defines (sorted keys, compact
separators), and nothing here consults wall clocks or randomness — the
determinism contract is that one seed produces byte-identical sink
output on every run (DESIGN.md §11).  :class:`MemorySink` keeps them
in a list, for tests, the smoke harness and the control timeline that
``cebinae-repro trace`` prints.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional

from .events import TraceRecord

#: Compact, key-sorted JSON: the only encoding sinks use.
_JSON_KWARGS: Dict[str, Any] = {"sort_keys": True,
                                "separators": (",", ":")}


def encode_record(record: TraceRecord) -> str:
    """The canonical single-line JSON encoding of one record."""
    return json.dumps(record.to_dict(), **_JSON_KWARGS)


class MemorySink:
    """Collects records in a list, in event order."""

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


__all__ = ["JsonlTraceSink", "MemorySink", "encode_record"]
