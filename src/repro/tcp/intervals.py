"""Byte-range interval sets for SACK bookkeeping.

Both endpoints of the TCP connection need to reason about sets of byte
ranges: the receiver tracks out-of-order data to generate SACK blocks,
and the sender keeps the SACK scoreboard.  :class:`IntervalSet` stores
disjoint, sorted, half-open ``[start, end)`` ranges with O(log n)
insertion via binary search and merge.  ``total_bytes`` and ``max_end``
are read several times per ACK, so the mutators keep them current
instead of readers recomputing them.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Tuple


class IntervalSet:
    """A set of disjoint half-open byte ranges ``[start, end)``."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        #: Sum of all range lengths (maintained by add/prune/clear).
        #: No held range is empty, so this is 0 exactly when the set
        #: is: the endpoints' per-packet emptiness test, frame-free.
        self.total_bytes = 0
        #: The highest covered byte + 1, or 0 when empty (likewise).
        self.max_end = 0

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    def __repr__(self) -> str:
        ranges = ", ".join(f"[{s},{e})" for s, e in self)
        return f"IntervalSet({ranges})"

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging any overlapping ranges."""
        if end <= start:
            raise ValueError(f"empty or inverted range [{start},{end})")
        starts, ends = self._starts, self._ends
        if not ends or start > self.max_end:
            # Strictly above everything held (in-order arrival above a
            # hole, the common case): nothing to merge.
            starts.append(start)
            ends.append(end)
            self.total_bytes += end - start
            self.max_end = end
            return
        # Find all existing ranges that touch or overlap the new one.
        # ``start <= max_end`` here, so ``left`` indexes a range.
        left = bisect.bisect_left(ends, start)
        if starts[left] <= start and end <= ends[left]:
            # Already held (a SACK block re-sent on every ACK, the
            # common case): nothing changes.
            return
        right = bisect.bisect_right(starts, end)
        if left < right:
            start = min(start, starts[left])
            end = max(end, ends[right - 1])
            self.total_bytes -= sum(ends[left:right]) - \
                sum(starts[left:right])
        starts[left:right] = [start]
        ends[left:right] = [end]
        self.total_bytes += end - start
        self.max_end = ends[-1]

    def contains(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` is entirely covered."""
        if end <= start:
            return True
        index = bisect.bisect_right(self._starts, start) - 1
        return (index >= 0 and self._ends[index] >= end)

    def covers_point(self, point: int) -> bool:
        """True if ``point`` lies inside some range."""
        index = bisect.bisect_right(self._starts, point) - 1
        return index >= 0 and point < self._ends[index]

    def first_gap_at_or_after(self, point: int) -> int:
        """The lowest byte >= ``point`` not covered by any range."""
        index = bisect.bisect_right(self._starts, point) - 1
        while index >= 0 and point < self._ends[index]:
            point = self._ends[index]
            index = bisect.bisect_right(self._starts, point) - 1
        return point

    def prune_below(self, point: int) -> None:
        """Discard all coverage below ``point``."""
        starts, ends = self._starts, self._ends
        index = bisect.bisect_right(ends, point)
        if index:
            self.total_bytes -= sum(ends[:index]) - sum(starts[:index])
            del starts[:index]
            del ends[:index]
        if not starts:
            self.max_end = 0
        elif starts[0] < point:
            self.total_bytes -= point - starts[0]
            starts[0] = point

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self.total_bytes = 0
        self.max_end = 0

    def first_blocks(self, limit: int = 3) -> List[Tuple[int, int]]:
        """The first ``limit`` ranges (for SACK option generation)."""
        return list(zip(self._starts[:limit], self._ends[:limit]))
