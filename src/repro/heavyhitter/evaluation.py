"""FPR/FNR evaluation of ⊤-flow detection (Figure 13).

For each round interval, the ground truth is the set of flows whose
*true* byte count is within ``δf`` of the true maximum; the detection
is the same rule applied to the cache's (possibly lossy) counters.  A
false positive is a detected flow that is not truly ⊤; a false negative
is a truly-⊤ flow the cache missed.  The paper reports both averaged
over 100 trials per data point.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from .hashpipe import CebinaeFlowCache, select_bottlenecked
from .traces import TRACE_REVISION, SyntheticTrace


@dataclass
class DetectionResult:
    """Aggregated detection accuracy over all intervals of all trials."""

    stages: int
    slots_per_stage: int
    round_interval_ms: float
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    intervals: int = 0
    candidate_flows: int = 0

    @property
    def false_positive_rate(self) -> float:
        """FP / (all flows that could have been falsely flagged)."""
        negatives = self.candidate_flows - self.true_positives \
            - self.false_negatives
        if negatives <= 0:
            return 0.0
        return self.false_positives / negatives

    @property
    def false_negative_rate(self) -> float:
        positives = self.true_positives + self.false_negatives
        if positives <= 0:
            return 0.0
        return self.false_negatives / positives


def evaluate_detection(stages: int, slots_per_stage: int,
                       round_interval_ms: float, trials: int = 10,
                       delta_flow: float = 0.01,
                       trace_duration_s: float = 0.5,
                       flows_per_minute: int = 400_000,
                       zipf_alpha: float = 0.75,
                       seed: int = 1) -> DetectionResult:
    """Run the Figure 13 experiment for one configuration.

    Each trial replays an independent synthetic trace through a fresh
    cache, polling/resetting it at every round-interval boundary and
    comparing the detected ⊤ set against ground truth.

    ``zipf_alpha`` defaults to 0.75 here (flatter than the general
    trace default): at high skew the maximal flow claims its cache slot
    within microseconds of every reset and detection is trivially
    perfect; CAIDA's top-of-distribution is flatter, which is what
    makes Figure 13's error rates non-degenerate.
    """
    interval_ns = int(round_interval_ms * 1e6)
    result = DetectionResult(stages=stages,
                             slots_per_stage=slots_per_stage,
                             round_interval_ms=round_interval_ms)
    for trial in range(trials):
        trace = SyntheticTrace(duration_s=trace_duration_s,
                               flows_per_minute=flows_per_minute,
                               zipf_alpha=zipf_alpha,
                               seed=seed + trial)
        cache = CebinaeFlowCache(stages=stages,
                                 slots_per_stage=slots_per_stage,
                                 seed=seed + trial)
        truth: Dict[int, int] = {}
        boundary_ns = interval_ns

        def close_interval() -> None:
            observed = cache.poll_and_reset()
            detected, _ = select_bottlenecked(observed, delta_flow)
            actual, _ = select_bottlenecked(truth, delta_flow)
            result.intervals += 1
            result.candidate_flows += len(truth)
            result.true_positives += len(detected & actual)
            result.false_positives += len(detected - actual)
            result.false_negatives += len(actual - detected)

        times, flows, sizes = trace.packets()
        for time_ns, flow, size in zip(times.tolist(), flows.tolist(),
                                       sizes.tolist()):
            while time_ns >= boundary_ns:
                close_interval()
                truth.clear()
                boundary_ns += interval_ns
            cache.update(flow, size)
            truth[flow] = truth.get(flow, 0) + size
        if truth:
            close_interval()
    return result


def _detection_tasks(configs: List[Tuple[int, int, float]],
                     kwargs: Dict[str, Any]) -> List[Any]:
    """Pool tasks for a batch of ``evaluate_detection`` calls."""
    import dataclasses
    import inspect

    # Imported lazily: the experiments package imports this module's
    # siblings, so a top-level import would be circular.
    from ..experiments.parallel import Task, fingerprint

    tasks: List[Any] = []
    for stages, slots, interval in configs:
        bound = inspect.signature(evaluate_detection).bind(
            stages, slots, interval, **kwargs)
        bound.apply_defaults()
        tasks.append(Task(
            fn=evaluate_detection,
            kwargs={"stages": stages, "slots_per_stage": slots,
                    "round_interval_ms": interval, **kwargs},
            label=f"figure13/s{stages}x{slots}@{interval:.0f}ms",
            fingerprint=fingerprint("DetectionResult",
                                    {**bound.arguments,
                                     "trace_revision": TRACE_REVISION}),
            kind="DetectionResult",
            encode=dataclasses.asdict,
            decode=lambda payload: DetectionResult(**payload)))
    return tasks


def _run_sweep(configs: List[Tuple[int, int, float]], workers: int,
               cache_dir: Union[str, Path, None],
               use_cache: bool,
               kwargs: Dict[str, Any]) -> List[DetectionResult]:
    from ..experiments.parallel import require, run_tasks
    return [require(result) for result
            in run_tasks(_detection_tasks(configs, kwargs),
                         workers=workers, cache_dir=cache_dir,
                         use_cache=use_cache)]


def sweep_round_interval(intervals_ms: Iterable[float],
                         stages_options: Iterable[int] = (1, 2, 4),
                         slots_per_stage: int = 2048,
                         workers: int = 1,
                         cache_dir: Union[str, Path, None] = None,
                         use_cache: bool = True,
                         **kwargs: Any) -> List[DetectionResult]:
    """Figure 13a: FPR/FNR vs round interval for 1/2/4 cache stages."""
    configs = [(stages, slots_per_stage, interval)
               for stages in stages_options
               for interval in intervals_ms]
    return _run_sweep(configs, workers, cache_dir, use_cache, kwargs)


def sweep_slot_count(slot_options: Iterable[int],
                     stages_options: Iterable[int] = (1, 2, 4),
                     round_interval_ms: float = 100.0,
                     workers: int = 1,
                     cache_dir: Union[str, Path, None] = None,
                     use_cache: bool = True,
                     **kwargs: Any) -> List[DetectionResult]:
    """Figure 13b: FPR/FNR vs slot count at one round interval."""
    configs = [(stages, slots, round_interval_ms)
               for stages in stages_options
               for slots in slot_options]
    return _run_sweep(configs, workers, cache_dir, use_cache, kwargs)
