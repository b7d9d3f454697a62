"""Tests for packets and flow identifiers."""

import subprocess
import sys

from repro.netsim.packet import (ACK_BYTES, HEADER_BYTES, MSS_BYTES,
                                 MTU_BYTES, EcnCodepoint, FlowId, Packet,
                                 PacketType)


class TestFlowId:
    def test_equality_and_hash(self):
        a = FlowId(1, 2, 100, 80)
        b = FlowId(1, 2, 100, 80)
        assert a == b
        assert hash(a) == hash(b)

    def test_reversed_swaps_endpoints(self):
        flow = FlowId(1, 2, 100, 80)
        rev = flow.reversed()
        assert rev == FlowId(2, 1, 80, 100)
        assert rev.reversed() == flow

    def test_different_ports_differ(self):
        assert FlowId(1, 2, 100, 80) != FlowId(1, 2, 101, 80)

    def test_str_is_readable(self):
        assert str(FlowId(1, 2, 100, 80)) == "tcp:1:100->2:80"

    def test_usable_as_dict_key(self):
        table = {FlowId(1, 2, 3, 4): "x"}
        assert table[FlowId(1, 2, 3, 4)] == "x"


class TestStableHash:
    """FlowId.stable_hash backs deterministic cross-process replay.

    The builtin ``hash()`` of a tuple containing a string is salted
    with PYTHONHASHSEED, so anything derived from it (e.g. hashed
    queue assignment) would differ between a run and its replay in
    another process.  ``stable_hash`` must not.
    """

    def test_equal_flows_share_a_stable_hash(self):
        assert FlowId(1, 2, 100, 80).stable_hash() == \
            FlowId(1, 2, 100, 80).stable_hash()

    def test_distinct_flows_spread(self):
        hashes = {FlowId(1, 2, port, 80).stable_hash()
                  for port in range(64)}
        assert len(hashes) > 32  # crc32 spreads the five-tuple.

    def test_stable_across_hash_randomisation(self):
        # Same value under different PYTHONHASHSEED salts, i.e. in
        # fresh interpreters where builtin hash() would disagree.
        import os
        from pathlib import Path

        import repro
        src = str(Path(repro.__file__).resolve().parents[1])
        script = ("from repro.netsim.packet import FlowId; "
                  "print(FlowId(1, 2, 100, 80).stable_hash())")
        values = set()
        for seed in ("0", "1", "random"):
            env = dict(os.environ,
                       PYTHONPATH=src, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", script], check=True,
                capture_output=True, text=True, env=env)
            values.add(int(out.stdout))
        assert len(values) == 1


class TestPacket:
    def test_size_constants(self):
        assert MTU_BYTES == MSS_BYTES + HEADER_BYTES
        assert ACK_BYTES < MSS_BYTES

    def test_defaults(self):
        packet = Packet(flow=FlowId(1, 2, 3, 4), size_bytes=1500)
        assert packet.ptype is PacketType.DATA
        assert packet.ecn is EcnCodepoint.NOT_ECT
        assert not packet.ece and not packet.cwr


class TestEcnMarking:
    def test_not_ect_cannot_be_marked(self):
        packet = Packet(flow=FlowId(1, 2, 3, 4), size_bytes=1500)
        assert packet.mark_ce() is False
        assert packet.ecn is EcnCodepoint.NOT_ECT

    def test_ect0_marks_to_ce(self):
        packet = Packet(flow=FlowId(1, 2, 3, 4), size_bytes=1500,
                        ecn=EcnCodepoint.ECT0)
        assert packet.mark_ce() is True
        assert packet.ecn is EcnCodepoint.CE

    def test_ce_stays_ce(self):
        packet = Packet(flow=FlowId(1, 2, 3, 4), size_bytes=1500,
                        ecn=EcnCodepoint.CE)
        assert packet.mark_ce() is True
        assert packet.ecn is EcnCodepoint.CE

