"""Reference-host seconds: timing that survives a host whose speed drifts.

The box this ledger was sized on is a small shared VM whose effective
CPU speed moves by +-25 % over tens of seconds, with bursts of 2-10x
slow-down lasting up to seconds (measured: the median of 20
consecutive 0.4 s simulation runs differed by up to 1.77x between one
window and another over eight minutes, quartile spread 24 %).  Raw
host seconds on such a box cannot resolve a 10 % regression.

So every duration the ledger reports is scaled by how fast the host
was *while it was measured*: a fixed calibration kernel runs right
before and right after each timed call, and the call's seconds are
multiplied by

    REFERENCE_KERNEL_S / mean(kernel before, kernel after)

The result reads as seconds on a host that runs the kernel in exactly
REFERENCE_KERNEL_S.  The kernel is a discrete-event simulator in
miniature -- a heap of (time, seq, callback, packet) entries, nodes
with bound-method callbacks, per-flow dict counters, packet objects
allocated and dropped -- so that it slows down with the real simulator
whether the host is short of cycles or of cache.  On the same
eight-minute trace the window medians of calibrated run times spread
2.3 % (worst window 1.11x the best).  Calls are timed one operation
at a time, because the kernel samples only bracket the host's speed
well when the call between them is short.  Raw seconds are kept
beside the calibrated ones in the full document.

The kernel must never change: it is the unit of every number in the
ledger's history.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Kernel seconds on the reference host (this box at its fast floor).
REFERENCE_KERNEL_S = 0.06
_KERNEL_EVENTS = 60_000
_KERNEL_NODES = 48
_KERNEL_FLOWS = 600
#: Kernel runs per child of a parallel sample; one 60 ms run each is
#: too short a sample of how two busy processes share this host.
#: Interleaved over the same sweep_fabric bodies, one-run samples gave
#: calibrated body times a 5.9 % standard deviation (raw 3.0 %),
#: three-run samples 3.0 % (raw 2.3 %).  The unit stays seconds per
#: kernel.
_PARALLEL_KERNEL_REPS = 3


def now() -> float:
    return time.perf_counter()  # simlint: allow[D103] benchmark host timing


class _Packet:
    __slots__ = ("flow", "size", "hops")

    def __init__(self, flow: int, size: int) -> None:
        self.flow = flow
        self.size = size
        self.hops = 0


class _MiniSim:
    def __init__(self) -> None:
        self.heap: List[Tuple[int, int, Callable[[Any], None], Any]] = []
        self.now = 0
        self.seq = 0

    def schedule(self, delay: int, callback: Callable[[Any], None],
                 arg: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap,
                       (self.now + delay, self.seq, callback, arg))


class _Node:
    __slots__ = ("sim", "index", "peers", "bytes_by_flow", "backlog")

    def __init__(self, sim: _MiniSim, index: int) -> None:
        self.sim = sim
        self.index = index
        self.peers: List["_Node"] = []
        self.bytes_by_flow: Dict[int, int] = {}
        self.backlog: List[_Packet] = []

    def receive(self, packet: _Packet) -> None:
        counts = self.bytes_by_flow
        counts[packet.flow] = counts.get(packet.flow, 0) + packet.size
        packet.hops += 1
        if packet.hops >= 6:
            # Delivered: the flow's next packet takes its place.
            packet = _Packet(packet.flow, 1000 + (packet.flow % 7) * 64)
        self.backlog.append(packet)
        if len(self.backlog) == 1:
            self.sim.schedule(1000 + packet.size, self.transmit, None)

    def transmit(self, _: Optional[Any]) -> None:
        packet = self.backlog.pop(0)
        peer = self.peers[(packet.flow + packet.hops) % len(self.peers)]
        self.sim.schedule(5000 + 13 * self.index, peer.receive, packet)
        if self.backlog:
            self.sim.schedule(1000 + self.backlog[0].size,
                              self.transmit, None)


def kernel() -> float:
    """Run the calibration kernel; host seconds it took."""
    sim = _MiniSim()
    nodes = [_Node(sim, index) for index in range(_KERNEL_NODES)]
    for index, node in enumerate(nodes):
        node.peers = [nodes[(index + step) % _KERNEL_NODES]
                      for step in (1, 5, 11)]
    for flow in range(_KERNEL_FLOWS):
        sim.schedule(flow * 37, nodes[flow % _KERNEL_NODES].receive,
                     _Packet(flow, 1200))
    heap, pop = sim.heap, heapq.heappop
    started = now()
    for _ in range(_KERNEL_EVENTS):
        when, _seq, callback, arg = pop(heap)
        sim.now = when
        callback(arg)
    return now() - started


def _kernel_to(connection: Any) -> None:
    connection.send(sum(kernel() for _ in range(_PARALLEL_KERNEL_REPS))
                    / _PARALLEL_KERNEL_REPS)
    connection.close()


def parallel_kernel(processes: int) -> float:
    """Run the kernel in ``processes`` children at once, a few times
    each; mean seconds per kernel.

    What a call that keeps ``processes`` workers busy should be
    calibrated by: on this box two concurrent kernels take twice as
    long as one (the VM's two vCPUs share about one core's worth of
    cycles, and how much varies), which a single-process sample
    cannot see.
    """
    context = multiprocessing.get_context("fork")
    children = []
    for _ in range(processes):
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_kernel_to, args=(sender,))
        child.start()
        sender.close()
        children.append((child, receiver))
    seconds = [receiver.recv() for _, receiver in children]
    for child, receiver in children:
        child.join()
        receiver.close()
    return sum(seconds) / len(seconds)


class HostClock:
    """Times calls and says how fast the host was during each."""

    def __init__(self, kernel_fn: Callable[[], float] = kernel) -> None:
        self._kernel = kernel_fn
        self._last = kernel_fn()
        self._parallel: Dict[int, "HostClock"] = {}

    def for_workers(self, workers: int) -> "HostClock":
        """The clock for calls that keep ``workers`` processes busy."""
        if workers <= 1:
            return self
        if workers not in self._parallel:
            self._parallel[workers] = _ParallelClock(workers)
        return self._parallel[workers]

    def time(self, fn: Callable[..., Any], *args: Any
             ) -> Tuple[Any, float, float]:
        """Call ``fn(*args)``: (its result, raw seconds, speed factor).

        ``raw * factor`` is the call's duration in reference-host
        seconds.  The kernel sample taken after one call doubles as
        the sample before the next, so back-to-back calls pay for one
        kernel run each.
        """
        before = self._last
        started = now()
        result = fn(*args)
        raw = now() - started
        self._last = after = self._kernel()
        return result, raw, REFERENCE_KERNEL_S / ((before + after) / 2.0)

    def factor_now(self) -> float:
        """The speed factor of the most recent kernel sample alone."""
        return REFERENCE_KERNEL_S / self._last


class _ParallelClock(HostClock):
    """Calibrates by the kernel run in several processes at once.

    Used for a few long calls a body, far apart, so the sample from
    the previous call is stale: it takes a fresh one before each call.
    """

    def __init__(self, workers: int) -> None:
        super().__init__(lambda: parallel_kernel(workers))

    def time(self, fn: Callable[..., Any], *args: Any
             ) -> Tuple[Any, float, float]:
        self._last = self._kernel()
        return super().time(fn, *args)


class RawClock:
    """A clock that takes no kernel samples: the factor is always 1.

    For bodies that run under an instrument (cProfile, the event
    counter) which must not see the kernel; such a pass is calibrated
    as a whole, from outside.
    """

    def for_workers(self, workers: int) -> "RawClock":
        return self

    def time(self, fn: Callable[..., Any], *args: Any
             ) -> Tuple[Any, float, float]:
        started = now()
        result = fn(*args)
        return result, now() - started, 1.0
