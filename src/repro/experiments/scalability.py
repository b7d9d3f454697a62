"""The scalability comparison of sections 2 and 5.5: Cebinae vs AFQ.

AFQ approximates fair queuing with ``nQ`` calendar queues of ``BpR``
bytes per round; Equation (1) requires ``buffer_req <= BpR x nQ`` *per
flow*.  As RTTs (hence per-flow buffer requirements) grow or queues
shrink, AFQ must either drop at the calendar horizon or run with BpR so
coarse that fairness degrades.  Cebinae's two queues are insensitive to
both.  This module declares the head-to-head on a dumbbell; the report
prints fairness, goodput and horizon drops.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.params import CebinaeParams
from ..netsim.engine import seconds
from ..netsim.packet import MTU_BYTES
from .parallel import RunSpec, grid
from .runner import Discipline
from .scenarios import ScaledScenario, ScenarioSpec


def scalability_scenario(num_flows: int, rtt_ms: float,
                         duration_s: float = 20.0,
                         cca: str = "newreno") -> ScaledScenario:
    """``num_flows`` homogeneous flows at one RTT on a 20 Mbps, 80 MTU
    link, written at simulator scale: Cebinae's dT follows the link and
    its thresholds are set directly, not through a :class:`ScalePolicy`."""
    spec = ScenarioSpec(name=f"scalability_{num_flows}x{rtt_ms:.0f}ms",
                        rate_bps=20e6, rtts_ms=(rtt_ms,),
                        buffer_mtus=80, cca_mix=((cca, num_flows),),
                        duration_s=duration_s)
    params = CebinaeParams.for_link(
        spec.rate_bps, spec.buffer_mtus * MTU_BYTES,
        max_rtt_ns=seconds(spec.max_rtt_s), tau=0.04, delta_port=0.08,
        delta_flow=0.04, min_bottom_rate_fraction=0.02)
    return ScaledScenario(spec=spec, paper_spec=spec, rate_scale=1.0,
                          flow_scale=1.0, cebinae=params)


def rtt_sweep(rtts_ms: Sequence[float] = (20, 80, 320),
              num_flows: int = 4,
              duration_s: float = 20.0) -> List[RunSpec]:
    """Grow the RTT (per-flow buffer requirement) at fixed queues.

    AFQ's Equation (1) head-room shrinks relative to the BDP; Cebinae
    is RTT-insensitive by design.
    """
    return grid([scalability_scenario(num_flows, rtt, duration_s)
                 for rtt in rtts_ms],
                (Discipline.AFQ, Discipline.CEBINAE))
