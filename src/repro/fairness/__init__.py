"""Fairness analytics: water-filling max-min allocations and Jain's
fairness index (plain and max-min-normalised)."""

from .convergence import ConvergenceTrace, taxation_trajectory
from .maxmin import (EPSILON, BottleneckCheck, FlowSpec, is_maxmin_fair,
                     verify_maxmin, water_filling)
from .metrics import (average_bps, jain_fairness_index, jfi_time_series,
                      normalized_jfi)

__all__ = [
    "FlowSpec", "water_filling", "verify_maxmin", "is_maxmin_fair",
    "BottleneckCheck", "EPSILON",
    "jain_fairness_index", "normalized_jfi", "jfi_time_series",
    "average_bps",
    "ConvergenceTrace", "taxation_trajectory",
]
