"""Heavy-hitter detection substrate: the passive cache, synthetic
backbone traces, and the Figure 13 FPR/FNR evaluation harness."""

from .evaluation import (DetectionResult, evaluate_detection,
                         sweep_round_interval, sweep_slot_count)
from .hashpipe import (CebinaeFlowCache, ExactFlowCache,
                       select_bottlenecked, stage_hash)
from .sketch import CountMinSketch
from .traces import (BACKBONE_RATE_BPS, DEFAULT_FLOWS_PER_MINUTE,
                     SyntheticTrace)

__all__ = [
    "CebinaeFlowCache", "ExactFlowCache", "select_bottlenecked",
    "stage_hash", "CountMinSketch",
    "SyntheticTrace", "BACKBONE_RATE_BPS",
    "DEFAULT_FLOWS_PER_MINUTE",
    "DetectionResult", "evaluate_detection", "sweep_round_interval",
    "sweep_slot_count",
]
