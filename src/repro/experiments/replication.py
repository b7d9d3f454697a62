"""Multi-seed replication: mean and confidence intervals for JFI.

Packet simulations of TCP are chaotic: a one-packet timing change can
flip which flow loses a given burst.  Single runs therefore carry run-
to-run variance, and comparisons between disciplines should quote a
confidence interval, not a point estimate.  The seeded host-jitter RNG
makes independent replications cheap: each seed produces a different
(but reproducible) realisation of the same scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from .parallel import RunSpec, require, run_many
from .runner import Discipline, ScenarioResult
from .scenarios import ScaledScenario

#: Two-sided 95 % critical values of Student's t for 1-30 degrees of
#: freedom (any statistics text's table); 1.960 beyond.
T_95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042)


@dataclass
class ReplicatedMetric:
    """Mean, standard deviation and 95 % CI of one metric across seeds."""

    samples: List[float]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples)
                         / (len(self.samples) - 1))

    @property
    def half_width(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        dof = len(self.samples) - 1
        quantile = T_95[dof - 1] if dof <= len(T_95) else 1.960
        return quantile * self.std / math.sqrt(len(self.samples))

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.mean - self.half_width,
                self.mean + self.half_width)

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


@dataclass
class ReplicatedResult:
    """Aggregated replications of one (scenario, discipline)."""

    discipline: Discipline
    runs: List[ScenarioResult]

    @property
    def jfi(self) -> ReplicatedMetric:
        return ReplicatedMetric([run.jfi for run in self.runs])

    @property
    def goodput_bps(self) -> ReplicatedMetric:
        return ReplicatedMetric([run.total_goodput_bps
                                 for run in self.runs])


def replicate(scaled: ScaledScenario, discipline: Discipline,
              seeds: Sequence[int] = (0, 1, 2),
              **pool: Any) -> ReplicatedResult:
    """One point per seed through the executor (``pool`` is
    :func:`~repro.experiments.parallel.run_many`'s), aggregated."""
    specs = [RunSpec(scaled=scaled, discipline=discipline, seed=seed)
             for seed in seeds]
    return ReplicatedResult(
        discipline=discipline,
        runs=[require(result) for result in run_many(specs, **pool)])


def replicate_comparison(scaled: ScaledScenario,
                         disciplines: Sequence[Discipline] = (
                             Discipline.FIFO, Discipline.CEBINAE),
                         seeds: Sequence[int] = (0, 1, 2),
                         **pool: Any
                         ) -> Dict[Discipline, ReplicatedResult]:
    return {discipline: replicate(scaled, discipline, seeds=seeds,
                                  **pool)
            for discipline in disciplines}


def significantly_fairer(better: ReplicatedResult,
                         worse: ReplicatedResult) -> bool:
    """True if ``better``'s JFI interval clears ``worse``'s entirely."""
    return better.jfi.interval[0] > worse.jfi.interval[1]
