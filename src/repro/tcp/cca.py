"""Congestion control algorithm (CCA) interface.

The paper evaluates Cebinae against a representative mix of CCAs:
NewReno (classic loss-based), Cubic and Bic (aggressive loss-based),
Vegas (delay-based) and BBRv1 (model-based, loss-oblivious).  Each is
implemented as a subclass of :class:`CongestionControl`; the TCP
machinery (:mod:`repro.tcp.socket`) is shared.

The contract: the socket owns reliability (sequence numbers,
retransmission, recovery bookkeeping) and calls into the CCA on ACKs,
losses, timeouts and ECN signals; the CCA owns ``cwnd_bytes`` and an
optional pacing rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..netsim.packet import MSS_BYTES

if TYPE_CHECKING:
    from ..core.units import BitsPerSec, Bytes, TimeNs

#: Initial congestion window (RFC 6928): 10 segments.
INITIAL_CWND_SEGMENTS = 10
#: Never shrink below this many segments (loss-based algorithms).
MIN_CWND_SEGMENTS = 2


@dataclass
class AckContext:
    """Everything a CCA may want to know about one cumulative ACK."""

    acked_bytes: Bytes
    ack_seq: int
    rtt_ns: Optional[TimeNs]
    now_ns: TimeNs
    in_flight_bytes: Bytes
    snd_nxt: int
    delivery_rate_bps: Optional[BitsPerSec] = None
    is_app_limited: bool = False
    in_recovery: bool = False


class CongestionControl:
    """Base class: a fixed-window sender (useful for tests)."""

    name = "fixed"

    def __init__(self, mss_bytes: Bytes = MSS_BYTES) -> None:
        self.mss = mss_bytes
        self.cwnd_bytes: float = INITIAL_CWND_SEGMENTS * mss_bytes
        self.ssthresh_bytes: float = float("inf")

    # -- signal hooks ----------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        """A cumulative ACK advanced ``snd_una``."""

    def on_enter_recovery(self, in_flight_bytes: Bytes,
                          now_ns: TimeNs) -> None:
        """Triple duplicate ACK: multiplicative decrease goes here."""

    def on_exit_recovery(self, now_ns: TimeNs) -> None:
        """Recovery completed; default is to deflate to ssthresh."""
        self.cwnd_bytes = max(self.ssthresh_bytes,
                              MIN_CWND_SEGMENTS * self.mss)

    def on_retransmit_timeout(self, in_flight_bytes: Bytes,
                              now_ns: int) -> None:
        """RTO fired (RFC 5681 defaults; CCAs may override)."""
        self.ssthresh_bytes = max(in_flight_bytes / 2.0,
                                  MIN_CWND_SEGMENTS * self.mss)
        self.cwnd_bytes = float(self.mss)

    def on_ecn(self, now_ns: TimeNs) -> None:
        """ECN-Echo received (at most once per window, socket-enforced).

        Default mirrors RFC 3168: treat like a loss-based decrease but
        without retransmission.
        """
        self.on_enter_recovery(int(self.cwnd_bytes), now_ns)
        self.on_exit_recovery(now_ns)

    # -- queries ----------------------------------------------------------
    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_bytes < self.ssthresh_bytes

    def pacing_rate_bps(self) -> Optional[BitsPerSec]:
        """Bits/sec pacing rate, or None for pure ACK clocking."""
        return None

    def clamp(self) -> None:
        """Enforce the floor on cwnd after any adjustment."""
        floor = MIN_CWND_SEGMENTS * self.mss
        if self.cwnd_bytes < floor:
            self.cwnd_bytes = float(floor)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(cwnd={self.cwnd_bytes / self.mss:.1f}"
                f" seg, ssthresh={self.ssthresh_bytes / self.mss:.1f} seg)")


def slow_start_increase(cca: CongestionControl,
                        acked_bytes: Bytes) -> None:
    """Appropriate Byte Counting (RFC 3465, L=1) slow-start growth."""
    cca.cwnd_bytes += min(acked_bytes, cca.mss)


def congestion_avoidance_increase(cca: CongestionControl,
                                  acked_bytes: int) -> None:
    """Standard AIMD additive increase: one MSS per window of ACKs."""
    cca.cwnd_bytes += cca.mss * cca.mss / cca.cwnd_bytes


class WindowedFilter:
    """Max/min of samples within a sliding window (BBR's filters).

    Samples are (time, value); the filter keeps a monotonic deque so
    updates are amortised O(1).
    """

    def __init__(self, window: int, is_max: bool = True) -> None:
        self.window = window
        self.is_max = is_max
        # (time, value), monotonic in value.
        self._samples: List[Tuple[int, float]] = []

    def _better(self, a: float, b: float) -> bool:
        return a >= b if self.is_max else a <= b

    def update(self, time_key: int, value: float) -> None:
        samples = self._samples
        while samples and self._better(value, samples[-1][1]):
            samples.pop()
        samples.append((time_key, value))
        cutoff = time_key - self.window
        while samples and samples[0][0] < cutoff:
            samples.pop(0)

    def get(self, default: float = 0.0) -> float:
        return self._samples[0][1] if self._samples else default

    def reset(self) -> None:
        self._samples.clear()
