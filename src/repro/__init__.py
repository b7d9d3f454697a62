"""Cebinae: scalable in-network fairness augmentation — a from-scratch
Python reproduction of the SIGCOMM 2022 paper.

Subpackages:

* :mod:`repro.core` — the Cebinae mechanism (LBF, control plane,
  parameters, resource model).
* :mod:`repro.netsim` — the discrete-event packet simulator substrate.
* :mod:`repro.tcp` — TCP machinery and the evaluated CCAs.
* :mod:`repro.heavyhitter` — the passive flow cache and trace tooling.
* :mod:`repro.fairness` — max-min allocations and fairness metrics.
* :mod:`repro.experiments` — the per-table/figure evaluation harness.
"""

from .core import (CebinaeControlPlane, CebinaeParams, CebinaeQueueDisc,
                   FlowGroup, LbfDecision, LeakyBucketFilter,
                   cebinae_factory, estimate_resources)
from .experiments import (Discipline, ScalePolicy, ScenarioSpec,
                          run_grid, run_scenario)
from .fairness import (FlowSpec, jain_fairness_index, normalized_jfi,
                       water_filling)
from .heavyhitter import CebinaeFlowCache, SyntheticTrace
from .netsim import (Network, Simulator, build_dumbbell,
                     build_parking_lot)
from .tcp import connect_flow, make_cca

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CebinaeParams", "CebinaeQueueDisc", "CebinaeControlPlane",
    "LeakyBucketFilter", "FlowGroup", "LbfDecision", "cebinae_factory",
    "estimate_resources",
    "Simulator", "Network", "build_dumbbell", "build_parking_lot",
    "connect_flow", "make_cca",
    "CebinaeFlowCache", "SyntheticTrace",
    "FlowSpec", "water_filling", "jain_fairness_index",
    "normalized_jfi",
    "ScenarioSpec", "ScalePolicy", "Discipline", "run_scenario",
    "run_grid",
]
