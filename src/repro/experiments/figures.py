"""What the figures are judged against: the paper's stated JFIs and the
parking lot's max-min ideal.

The figures' points are suite documents (``paper/figure*.json``); the
reports in :mod:`~repro.experiments.report` print their results next to
these numbers.
"""

from __future__ import annotations

from typing import Dict

from ..fairness.maxmin import FlowSpec, water_filling
from .runner import Discipline
from .scenarios import ParkingLotSpec

#: The JFIs the paper's text states, by scenario name.
PAPER_JFI = {
    "figure7": {Discipline.FIFO: 0.093, Discipline.CEBINAE: 0.985},
    "figure8a": {Discipline.FIFO: 0.774, Discipline.CEBINAE: 0.936},
    "figure8b": {Discipline.FIFO: 0.956, Discipline.CEBINAE: 0.964},
    "figure11": {Discipline.FIFO: 0.852, Discipline.CEBINAE: 0.978},
}


def parking_lot_ideal(spec: ParkingLotSpec) -> Dict[str, float]:
    """The max-min ideal rate per flow label, in the runner's flow order.

    Long flows cross every segment, cross group ``i`` only its own.
    """
    segments = range(len(spec.cross_mix))
    flows = [FlowSpec(flow_id=f"long{j}", path=tuple(segments))
             for j in range(spec.num_long)]
    for i, (cca, count) in enumerate(spec.cross_mix):
        flows.extend(FlowSpec(flow_id=f"{cca}{j}", path=(i,))
                     for j in range(count))
    ideal = water_filling({i: spec.rate_bps for i in segments}, flows)
    return {flow.flow_id: ideal[flow.flow_id] for flow in flows}
