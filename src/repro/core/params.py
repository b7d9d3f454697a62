"""Cebinae's configurable parameters (paper Table 1 and section 4.4).

==========  =============================================================
Parameter   Meaning
==========  =============================================================
``δp``      Port-saturation threshold: a port is saturated when its
            measured utilisation exceeds ``1 - δp``.
``δf``      Flow-bottleneck threshold: flows within ``δf`` of the
            maximum observed rate are classified ⊤ (bottlenecked).
``τ``       The Cebinae tax: the fraction of the ⊤ group's measured
            bandwidth withheld each recomputation to make room for ⊥
            flows to grow.
``P``       Number of ``dT`` rounds between utilisation/rate
            recomputations; ``P·dT`` should cover the network's largest
            RTT so measurements average over burst timescales.
``L``       The control plane's per-round reconfiguration deadline.
``dT``      Physical-queue round duration: each of the two priority
            queues represents a ``dT``-sized time bucket.
``vdT``     Virtual-round duration inside a physical round, limiting
            end-of-round catch-up bursts.
==========  =============================================================

Constraints enforced here (section 4.4):

* ``vdT < dT`` and ``L ≤ dT - vdT`` (the queue rotation must fit);
* Equation (2): ``(dT - (vdT + L)) · BW ≥ buffer`` so that even a
  buffer-filling burst arriving right before ``t0 + vdT + L`` can be
  admitted — checked per link by :meth:`CebinaeParams.validate_for_link`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..netsim.engine import MICROSECOND, MILLISECOND, SECOND

if TYPE_CHECKING:
    from .units import BitsPerSec, Bytes, Ratio, TimeNs


@dataclass(frozen=True)
class CebinaeParams:
    """One Cebinae router configuration.

    The defaults follow the paper's robust setting: δp = δf = τ = 1%.
    Timing parameters have no universal default — derive them from link
    characteristics with :meth:`for_link`.
    """

    delta_port: Ratio = 0.01
    delta_flow: Ratio = 0.01
    tau: Ratio = 0.01
    dt_ns: TimeNs = 50 * MILLISECOND
    vdt_ns: TimeNs = 100 * MICROSECOND
    l_ns: TimeNs = 100 * MICROSECOND
    recompute_rounds: int = 1          # P.
    ecn_marking: bool = True
    cache_stages: int = 2
    cache_slots: int = 2048
    use_exact_cache: bool = False
    #: Scale-compensation floor on the ⊥ group's rate, as a fraction of
    #: capacity.  At the paper's link speeds the post-tax headroom
    #: (≥ τ·C) always exceeds TCP's minimum operating rate (~2 MSS/RTT),
    #: so flows squeezed to ⊥ can always restart; in bandwidth-scaled
    #: simulations that implicit floor disappears and a starved flow can
    #: enter an RTO death spiral.  0.0 disables the floor (the paper's
    #: literal algorithm).
    min_bottom_rate_fraction: Ratio = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta_port <= 1.0:
            raise ValueError("delta_port must be in [0, 1]")
        if not 0.0 <= self.delta_flow <= 1.0:
            raise ValueError("delta_flow must be in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.vdt_ns <= 0 or self.dt_ns <= 0 or self.l_ns < 0:
            raise ValueError("timing parameters must be positive")
        if self.vdt_ns >= self.dt_ns:
            raise ValueError("vdT must be smaller than dT")
        if self.l_ns > self.dt_ns - self.vdt_ns:
            raise ValueError("L must satisfy L <= dT - vdT")
        if self.recompute_rounds < 1:
            raise ValueError("P (recompute_rounds) must be >= 1")
        if not 0.0 <= self.min_bottom_rate_fraction < 1.0:
            raise ValueError(
                "min_bottom_rate_fraction must be in [0, 1)")

    @property
    def recompute_interval_ns(self) -> TimeNs:
        """``P · dT``: the measurement window for saturation and rates."""
        return self.recompute_rounds * self.dt_ns

    @property
    def control_deadline_ns(self) -> TimeNs:
        """``vdT + L``: the reconfiguration deadline, relative to ``t0``.

        A round whose reconfiguration is not applied by
        ``t0 + control_deadline_ns`` is *stale* (paper section 4.4); the
        agent detects this and fails open rather than installing rates
        computed for a window that has already closed.  (A property, not
        a field: adding a dataclass field would change every cached
        :class:`~repro.experiments.parallel.RunSpec` fingerprint.)
        """
        return self.vdt_ns + self.l_ns

    def min_dt_ns(self, rate_bps: BitsPerSec,
              buffer_bytes: Bytes) -> TimeNs:
        """Equation (2) lower bound on dT for a given port."""
        drain_ns = int(math.ceil(buffer_bytes * 8 * SECOND / rate_bps))
        return drain_ns + self.vdt_ns + self.l_ns

    def validate_for_link(self, rate_bps: BitsPerSec,
                          buffer_bytes: Bytes) -> None:
        """Raise if Equation (2) is violated for this port."""
        minimum = self.min_dt_ns(rate_bps, buffer_bytes)
        if self.dt_ns < minimum:
            raise ValueError(
                f"dT={self.dt_ns}ns violates Equation (2): needs >= "
                f"{minimum}ns for {rate_bps / 1e6:.1f} Mbps with "
                f"{buffer_bytes} B of buffer")

    @classmethod
    def for_link(cls, rate_bps: BitsPerSec, buffer_bytes: Bytes,
                 max_rtt_ns: TimeNs = 100 * MILLISECOND,
                 **overrides) -> "CebinaeParams":
        """Derive dT/vdT/L/P from link characteristics (section 4.4).

        ``vdT`` is set to a small fraction of ``dT`` (the paper wants
        the data-plane clock precision; in simulation the limit is
        pointless, so we use dT/256 with a 10 µs floor), ``L`` likewise
        (the multi-round control plane makes the effective L tiny), and
        ``dT`` to the Equation (2) bound.  ``P`` is the smallest integer
        with ``P·dT`` covering the largest RTT.
        """
        drain_ns = int(math.ceil(buffer_bytes * 8 * SECOND / rate_bps))
        vdt_ns = max(drain_ns // 256, 10 * MICROSECOND)
        l_ns = vdt_ns
        dt_ns = drain_ns + vdt_ns + l_ns
        # Round dT up to a whole number of vdTs for clean virtual rounds.
        dt_ns = ((dt_ns + vdt_ns - 1) // vdt_ns) * vdt_ns
        recompute_rounds = max(1, math.ceil(max_rtt_ns / dt_ns))
        params = cls(dt_ns=dt_ns, vdt_ns=vdt_ns, l_ns=l_ns,
                     recompute_rounds=recompute_rounds)
        if overrides:
            params = replace(params, **overrides)
        params.validate_for_link(rate_bps, buffer_bytes)
        return params

    def convergence_steps(self, excess_ratio: float = 1.5) -> float:
        """Taxation steps to shrink a flow by ``excess_ratio``×.

        Section 3.2, example (2): a flow holding ``excess_ratio`` times
        its fair share converges in ``ln(1/excess) / ln(1-τ)`` steps
        (the paper's ``ln(2/3)/ln(1-τ)`` instance has excess 3/2).  A
        flow at or below its share needs none.
        """
        if excess_ratio <= 1.0:
            return 0.0
        if self.tau <= 0:
            return math.inf
        if self.tau >= 1:
            return 1.0
        return math.log(1.0 / excess_ratio) / math.log(1.0 - self.tau)
