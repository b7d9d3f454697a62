"""Tests for the SACK interval set."""

import pytest
from hypothesis import given, strategies as st

from repro.tcp.intervals import IntervalSet


class TestBasics:
    def test_empty(self):
        ranges = IntervalSet()
        assert not ranges
        assert len(ranges) == 0
        assert ranges.total_bytes == 0
        assert ranges.max_end == 0

    def test_single_range(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        assert list(ranges) == [(10, 20)]
        assert ranges.total_bytes == 10
        assert ranges.max_end == 20

    def test_invalid_range_rejected(self):
        ranges = IntervalSet()
        with pytest.raises(ValueError):
            ranges.add(10, 10)
        with pytest.raises(ValueError):
            ranges.add(10, 5)

    def test_disjoint_ranges_sorted(self):
        ranges = IntervalSet()
        ranges.add(30, 40)
        ranges.add(10, 20)
        assert list(ranges) == [(10, 20), (30, 40)]


class TestMerging:
    def test_overlap_merges(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.add(15, 30)
        assert list(ranges) == [(10, 30)]

    def test_touching_merges(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.add(20, 30)
        assert list(ranges) == [(10, 30)]

    def test_bridge_merges_three(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.add(30, 40)
        ranges.add(15, 35)
        assert list(ranges) == [(10, 40)]

    def test_contained_range_noop(self):
        ranges = IntervalSet()
        ranges.add(10, 40)
        ranges.add(20, 30)
        assert list(ranges) == [(10, 40)]


class TestQueries:
    def make(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.add(30, 40)
        return ranges

    def test_contains(self):
        ranges = self.make()
        assert ranges.contains(10, 20)
        assert ranges.contains(12, 18)
        assert not ranges.contains(15, 25)
        assert not ranges.contains(25, 28)
        assert ranges.contains(5, 5)  # Empty range trivially covered.

    def test_covers_point(self):
        ranges = self.make()
        assert ranges.covers_point(10)
        assert ranges.covers_point(19)
        assert not ranges.covers_point(20)  # Half-open.
        assert not ranges.covers_point(25)

    def test_first_gap(self):
        ranges = self.make()
        assert ranges.first_gap_at_or_after(0) == 0
        assert ranges.first_gap_at_or_after(10) == 20
        assert ranges.first_gap_at_or_after(35) == 40
        assert ranges.first_gap_at_or_after(50) == 50

    def test_first_gap_chains_through_touching(self):
        ranges = IntervalSet()
        ranges.add(0, 10)
        ranges.add(10, 20)  # Merged.
        assert ranges.first_gap_at_or_after(0) == 20

    def test_first_blocks(self):
        ranges = self.make()
        ranges.add(50, 60)
        assert ranges.first_blocks(2) == [(10, 20), (30, 40)]


class TestPruning:
    def test_prune_below_drops_and_trims(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.add(30, 40)
        ranges.prune_below(35)
        assert list(ranges) == [(35, 40)]

    def test_prune_below_everything(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.prune_below(100)
        assert not ranges

    def test_clear(self):
        ranges = IntervalSet()
        ranges.add(10, 20)
        ranges.clear()
        assert not ranges


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.integers(1, 50)),
                    min_size=1, max_size=60))
    def test_matches_naive_set_model(self, raw):
        """The interval set behaves exactly like a set of covered
        byte indices."""
        ranges = IntervalSet()
        model = set()
        for start, length in raw:
            ranges.add(start, start + length)
            model.update(range(start, start + length))
        assert ranges.total_bytes == len(model)
        assert ranges.max_end == max(model) + 1
        # Ranges are disjoint, sorted, and non-adjacent.
        previous_end = None
        for start, end in ranges:
            assert start < end
            if previous_end is not None:
                assert start > previous_end
            previous_end = end
        # Point queries agree with the model on a sample.
        for point in list(model)[:20]:
            assert ranges.covers_point(point)
        assert not ranges.covers_point(max(model) + 1)

    @given(st.lists(st.tuples(st.integers(0, 500),
                              st.integers(1, 40)),
                    min_size=1, max_size=40),
           st.integers(0, 600))
    def test_prune_matches_model(self, raw, cutoff):
        ranges = IntervalSet()
        model = set()
        for start, length in raw:
            ranges.add(start, start + length)
            model.update(range(start, start + length))
        ranges.prune_below(cutoff)
        model = {p for p in model if p >= cutoff}
        assert ranges.total_bytes == len(model)

    @given(st.lists(st.one_of(
        st.tuples(st.just("add"), st.integers(0, 300),
                  st.integers(1, 40)),
        st.tuples(st.just("repeat"), st.integers(0, 60)),
        st.tuples(st.just("prune_below"), st.integers(0, 340)),
        st.tuples(st.just("clear"))), max_size=60))
    def test_running_totals_after_any_op_sequence(self, ops):
        """``total_bytes``/``max_end`` are kept by the mutators, not
        recomputed: after every operation they must equal what the
        ranges themselves (and the byte-set model) say.  ``repeat``
        re-adds an earlier range, as SACK blocks are re-sent."""
        ranges = IntervalSet()
        model = set()
        added = []
        for op in ops:
            if op[0] == "repeat" and added:
                op = ("add",) + added[op[1] % len(added)]
            if op[0] == "add":
                ranges.add(op[1], op[1] + op[2])
                model.update(range(op[1], op[1] + op[2]))
                added.append(op[1:])
            elif op[0] == "prune_below":
                ranges.prune_below(op[1])
                model = {p for p in model if p >= op[1]}
            elif op[0] == "clear":
                ranges.clear()
                model = set()
            assert ranges.total_bytes == \
                sum(end - start for start, end in ranges) == len(model)
            assert ranges.max_end == (max(model) + 1 if model else 0)
            # The TCP endpoints test emptiness through total_bytes.
            assert bool(ranges.total_bytes) == bool(ranges)

    @given(st.lists(st.tuples(st.integers(0, 500),
                              st.integers(1, 40)),
                    min_size=1, max_size=40),
           st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000))
    def test_adding_a_covered_range_changes_nothing(self, raw, pick,
                                                    left, right):
        """The already-held fast path: any ``[start, end)`` inside one
        held range leaves the ranges and both running totals as they
        were."""
        ranges = IntervalSet()
        for start, length in raw:
            ranges.add(start, start + length)
        held = list(ranges)
        low, high = held[pick % len(held)]
        start = low + left % (high - low)
        end = start + 1 + right % (high - start)
        totals = (ranges.total_bytes, ranges.max_end)
        ranges.add(start, end)
        assert list(ranges) == held
        assert (ranges.total_bytes, ranges.max_end) == totals

    @given(st.lists(st.tuples(st.integers(0, 500),
                              st.integers(1, 40)),
                    min_size=1, max_size=40),
           st.integers(0, 600))
    def test_first_gap_matches_model(self, raw, point):
        ranges = IntervalSet()
        model = set()
        for start, length in raw:
            ranges.add(start, start + length)
            model.update(range(start, start + length))
        expected = point
        while expected in model:
            expected += 1
        assert ranges.first_gap_at_or_after(point) == expected
