"""Tests for packets and flow identifiers."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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


#: The Enum classes whose members the per-packet paths read.
FAST_PATH_ENUMS = {"PacketType", "EcnCodepoint", "LbfDecision",
                   "FlowGroup"}

#: The per-packet functions, by module under ``src/repro``.
FAST_PATH_FUNCTIONS = {
    "netsim/node.py": ["Node.forward", "Host.send"],
    "netsim/link.py": ["Link._start", "Link._finish_transmission"],
    "netsim/packet.py": ["Packet.mark_ce"],
    "tcp/socket.py": ["RttEstimator.observe", "TcpSender._transmit",
                      "TcpSender._on_ack_packet",
                      "TcpSender._handle_new_ack",
                      "TcpReceiver._on_data_packet"],
    "netsim/tracing.py": ["FlowMonitor.on_delivered"],
    "core/lbf.py": ["LeakyBucketFilter.credit",
                    "LeakyBucketFilter.admit",
                    "LeakyBucketFilter.admit_aggregate"],
    "core/queue_disc.py": ["CebinaeQueueDisc.enqueue"],
    "heavyhitter/hashpipe.py": ["CebinaeFlowCache.update"],
}


def _functions(tree):
    """``Class.method`` (or ``function``) name -> its def node."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
        elif isinstance(node, ast.FunctionDef):
            found[node.name] = node
    return found


def _enum_member_reads(function):
    """``Enum.MEMBER`` reads through a fast-path Enum class."""
    return [f"{node.value.id}.{node.attr}"
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in FAST_PATH_ENUMS]


class TestEnumMembersOffTheFastPath:
    """The per-packet functions read Enum members as module constants
    (``PACKET_ACK``, ``DECISION_DROP``, ...): a read through the class
    costs about 100 ns on CPython 3.11, a module constant about 3."""

    SRC = Path(repro.__file__).resolve().parent

    def test_no_per_packet_function_reads_through_the_class(self):
        reads = {}
        for module, names in FAST_PATH_FUNCTIONS.items():
            path = self.SRC / module
            functions = _functions(ast.parse(path.read_text(), str(path)))
            for name in names:
                assert name in functions, f"{module}: {name} is gone"
                hits = _enum_member_reads(functions[name])
                if hits:
                    reads[f"{module}:{name}"] = hits
        assert reads == {}

    @pytest.mark.parametrize("source", [
        "def f(p):\n    return p.ptype is PacketType.ACK",
        "class C:\n    def f(self):\n        return [LbfDecision.DROP]",
        "def f(x):\n    g = lambda: FlowGroup.TOP\n    return g",
        "def f(p):\n    p.ecn = EcnCodepoint.CE"])
    def test_the_scan_sees_a_read_through_the_class(self, source):
        (function,) = _functions(ast.parse(source)).values()
        assert len(_enum_member_reads(function)) == 1

    def test_module_constants_and_instance_reads_pass(self):
        source = ("def f(p):\n"
                  "    return p.ptype is PACKET_ACK or p.ecn.name")
        (function,) = _functions(ast.parse(source)).values()
        assert _enum_member_reads(function) == []

    def test_the_constants_are_the_members(self):
        from repro.core import lbf
        from repro.netsim import packet
        assert packet.PACKET_DATA is PacketType.DATA
        assert packet.PACKET_ACK is PacketType.ACK
        assert packet.ECN_NOT_ECT is EcnCodepoint.NOT_ECT
        assert packet.ECN_ECT0 is EcnCodepoint.ECT0
        assert packet.ECN_CE is EcnCodepoint.CE
        assert lbf.GROUP_TOP is lbf.FlowGroup.TOP
        assert lbf.GROUP_BOTTOM is lbf.FlowGroup.BOTTOM
        assert lbf.DECISION_HEAD is lbf.LbfDecision.HEAD
        assert lbf.DECISION_TAIL is lbf.LbfDecision.TAIL
        assert lbf.DECISION_DROP is lbf.LbfDecision.DROP
