"""Tests for the two-queue leaky-bucket filter (Figure 5)."""

import pytest

from repro.core.lbf import FlowGroup, LbfDecision, LeakyBucketFilter
from repro.core.params import CebinaeParams
from repro.core.queue_disc import CebinaeQueueDisc
from repro.netsim.engine import MILLISECOND, SECOND, Simulator
from repro.netsim.packet import FlowId, Packet


def make_lbf(capacity_bps=8e6, dt_ms=100, vdt_ms=1):
    """An LBF on a 1 MB/s port with 100 ms rounds by default."""
    params = CebinaeParams(dt_ns=dt_ms * MILLISECOND,
                           vdt_ns=vdt_ms * MILLISECOND,
                           l_ns=vdt_ms * MILLISECOND)
    return LeakyBucketFilter(params, capacity_bps)


def set_rates(lbf, top_bytes_per_sec, bottom_bytes_per_sec):
    """Set both queues' rates (test convenience)."""
    for queue_index in (0, 1):
        lbf.rates[queue_index][FlowGroup.TOP] = top_bytes_per_sec
        lbf.rates[queue_index][FlowGroup.BOTTOM] = bottom_bytes_per_sec


class TestAdmission:
    def test_within_allocation_goes_to_headq(self):
        lbf = make_lbf()
        set_rates(lbf, 100_000, 900_000)  # 10 kB/round for TOP.
        decision = lbf.admit(FlowGroup.TOP, 1500, now_ns=0)
        assert decision is LbfDecision.HEAD

    def test_past_head_is_delayed(self):
        lbf = make_lbf()
        set_rates(lbf, 100_000, 900_000)
        # 10 kB fits; the 8th 1500 B packet exceeds one round.
        decisions = [lbf.admit(FlowGroup.TOP, 1500, 0)
                     for _ in range(8)]
        assert decisions[:6] == [LbfDecision.HEAD] * 6
        assert LbfDecision.TAIL in decisions

    def test_past_tail_is_dropped(self):
        lbf = make_lbf()
        set_rates(lbf, 100_000, 100_000)
        decisions = [lbf.admit(FlowGroup.TOP, 1500, 0)
                     for _ in range(20)]
        assert decisions[-1] is LbfDecision.DROP

    def test_groups_are_independent(self):
        lbf = make_lbf()
        set_rates(lbf, 1_000, 900_000)
        # TOP exhausted immediately; BOTTOM still admits.
        for _ in range(5):
            lbf.admit(FlowGroup.TOP, 1500, 0)
        assert lbf.admit(FlowGroup.BOTTOM, 1500, 0) is LbfDecision.HEAD

    @pytest.mark.parametrize("rotations", [0, 1])
    def test_enqueue_maps_decisions_to_queues(self, rotations):
        """Through the queue disc: a HEAD packet lands in headq, a TAIL
        packet in the other queue, a DROP packet in neither."""
        flow = FlowId(1, 2, 3, 4)
        qdisc = CebinaeQueueDisc(Simulator(), make_lbf().params, 8e6,
                                 90_000)
        qdisc.set_membership({flow})
        qdisc.set_saturated(True)
        for _ in range(rotations):
            qdisc.rotate()
        lbf = qdisc.lbf
        assert lbf.headq == rotations
        set_rates(lbf, 100_000, 900_000)  # TOP: 10 kB per round.
        head, tail, dropped = [], [], 0
        for _ in range(20):
            packet = Packet(flow=flow, size_bytes=1500)
            if not qdisc.enqueue(packet):
                dropped += 1
            elif lbf.bytes[FlowGroup.TOP] <= 10_000:
                head.append(packet)
            else:
                tail.append(packet)
        assert head and tail and dropped
        assert list(qdisc._queues[lbf.headq]) == head
        assert list(qdisc._queues[1 - lbf.headq]) == tail
        assert len(head) + len(tail) + dropped == 20


class TestVirtualRounds:
    def test_idle_group_forfeits_credit(self):
        """Figure 5's catch-up limiting: a group idle for most of the
        round cannot burst its whole allocation at the end."""
        lbf = make_lbf()
        set_rates(lbf, 500_000, 500_000)  # 50 kB per round each.
        # Arrive at 90% through the round: the credit line is at 45 kB,
        # so bytes[g] jumps there and only ~5 kB fits in headq.
        now = 90 * MILLISECOND
        head = 0
        while lbf.admit(FlowGroup.TOP, 1500, now) is LbfDecision.HEAD:
            head += 1
        assert head <= 4  # ~5 kB / 1500 B.

    def test_early_arrivals_use_full_round(self):
        lbf = make_lbf()
        set_rates(lbf, 500_000, 500_000)
        head = 0
        while lbf.admit(FlowGroup.TOP, 1500, 0) is LbfDecision.HEAD:
            head += 1
        assert head >= 32  # ~50 kB / 1500 B.

    def test_dropped_bytes_still_commit(self):
        """The pseudocode commits the register write even on drops."""
        lbf = make_lbf()
        set_rates(lbf, 1_000, 1_000)
        for _ in range(10):
            lbf.admit(FlowGroup.TOP, 1500, 0)
        level_after_drops = lbf.bytes[FlowGroup.TOP]
        assert level_after_drops == pytest.approx(15_000)


class TestRotation:
    def test_rotation_flips_headq(self):
        lbf = make_lbf()
        assert lbf.headq == 0
        retired = lbf.rotate(100 * MILLISECOND)
        assert retired == 0
        assert lbf.headq == 1

    def test_rotation_decays_by_last_rate(self):
        lbf = make_lbf()
        set_rates(lbf, 100_000, 900_000)
        for _ in range(10):  # 15 kB offered: past one round's 10 kB.
            lbf.admit(FlowGroup.TOP, 1500, 0)
        before = lbf.bytes[FlowGroup.TOP]
        assert before == pytest.approx(15_000)
        lbf.rotate(100 * MILLISECOND)
        # Decay is one round's allocation: 10 kB.
        assert lbf.bytes[FlowGroup.TOP] == pytest.approx(before - 10_000)

    def test_decay_floors_at_zero(self):
        lbf = make_lbf()
        set_rates(lbf, 1_000_000, 1_000_000)
        lbf.admit(FlowGroup.TOP, 1500, 0)
        lbf.rotate(100 * MILLISECOND)
        assert lbf.bytes[FlowGroup.TOP] == 0.0

    def test_base_round_time_advances(self):
        lbf = make_lbf()
        lbf.rotate(100 * MILLISECOND)
        assert lbf.base_round_time_ns == 100 * MILLISECOND
        lbf.rotate(200 * MILLISECOND)
        assert lbf.base_round_time_ns == 200 * MILLISECOND

    def test_delayed_traffic_admitted_next_round(self):
        """A TAIL packet's budget is honoured after rotation."""
        lbf = make_lbf()
        set_rates(lbf, 100_000, 900_000)
        decisions = [lbf.admit(FlowGroup.TOP, 1500, 0)
                     for _ in range(12)]
        assert decisions.count(LbfDecision.TAIL) >= 5
        lbf.rotate(100 * MILLISECOND)
        # New round: roughly one round's worth already consumed, so a
        # packet still lands in the (new) head or tail, not dropped.
        decision = lbf.admit(FlowGroup.TOP, 1500, 100 * MILLISECOND)
        assert decision in (LbfDecision.HEAD, LbfDecision.TAIL)


class TestRateChanges:
    def test_rates_only_change_on_drained_queue(self):
        lbf = make_lbf()
        with pytest.raises(ValueError):
            lbf.set_queue_rates(lbf.headq, 1.0, 2.0)
        lbf.set_queue_rates(1 - lbf.headq, 1.0, 2.0)
        assert lbf.rates[1 - lbf.headq][FlowGroup.TOP] == 1.0

    def test_heterogeneous_rates_integrate(self):
        """Line 15-20 of Figure 5: head and tail queues may carry
        different rates after a reconfiguration."""
        lbf = make_lbf()
        set_rates(lbf, 200_000, 800_000)
        lbf.set_queue_rates(1 - lbf.headq, 50_000, 950_000)
        head = 0
        while lbf.admit(FlowGroup.TOP, 1500, 0) is LbfDecision.HEAD:
            head += 1
        # Head budget from current queue: 20 kB (~13 packets).
        assert 10 <= head <= 14
        tail = 0
        while lbf.admit(FlowGroup.TOP, 1500, 0) is LbfDecision.TAIL:
            tail += 1
        # Tail budget from reconfigured queue: 5 kB (~3 packets).
        assert 2 <= tail <= 4


class TestPhaseChanges:
    def test_aggregate_filter_admits_at_capacity(self):
        lbf = make_lbf()  # 1 MB/s -> 100 kB per round.
        head = 0
        while lbf.admit_aggregate(1500, 0) is LbfDecision.HEAD:
            head += 1
        assert head >= 60  # ~100 kB / 1500 B.

    def test_bootstrap_splits_by_share(self):
        lbf = make_lbf()
        lbf.total_bytes = 10_000.0
        lbf.bootstrap_from_total(top_share=0.75, bottom_share=0.25)
        assert lbf.bytes[FlowGroup.TOP] == pytest.approx(7_500)
        assert lbf.bytes[FlowGroup.BOTTOM] == pytest.approx(2_500)

    def test_bootstrap_caps_share_at_one(self):
        lbf = make_lbf()
        lbf.total_bytes = 10_000.0
        lbf.bootstrap_from_total(top_share=2.0, bottom_share=0.0)
        assert lbf.bytes[FlowGroup.TOP] == pytest.approx(10_000)

    def test_reset_clears_group_counters(self):
        lbf = make_lbf()
        lbf.admit(FlowGroup.TOP, 1500, 0)
        lbf.reset_group_counters()
        assert lbf.bytes[FlowGroup.TOP] == 0.0
        assert lbf.bytes[FlowGroup.BOTTOM] == 0.0

    def test_total_tracks_alongside_groups(self):
        """A saturated port's enqueue bills the packet's group and keeps
        the aggregate counter running beside it."""
        qdisc = CebinaeQueueDisc(Simulator(), make_lbf().params, 8e6,
                                 90_000)
        qdisc.set_saturated(True)
        assert qdisc.enqueue(Packet(flow=FlowId(1, 2, 3, 4),
                                    size_bytes=1500))
        assert qdisc.lbf.bytes[FlowGroup.BOTTOM] == pytest.approx(1500)
        assert qdisc.lbf.total_bytes == pytest.approx(1500)


class TestLongRunRateCap:
    def test_admitted_rate_capped_over_many_rounds(self):
        """The scalability core: whatever the arrival pattern, a group's
        admitted bytes over N rounds cannot exceed (N+1) x rate x dT."""
        lbf = make_lbf()
        set_rates(lbf, 100_000, 900_000)  # TOP: 10 kB per round.
        admitted = 0
        rounds = 20
        now = 0
        for round_index in range(rounds):
            # Offer far more than the allocation every round.
            for _ in range(50):
                decision = lbf.admit(FlowGroup.TOP, 1500, now)
                if decision is not LbfDecision.DROP:
                    admitted += 1500
            now = (round_index + 1) * 100 * MILLISECOND
            lbf.rotate(now)
        assert admitted <= (rounds + 1) * 10_000
