"""Experiment harness: scenario specs, the scaling policy, the executor
that runs the paper's evaluation (declared as suite documents under
``paper/``), and report formatting."""

from .parallel import (Comparison, FailedRun, ResultCache, RunSpec,
                       Task, require, run_grid, run_many, run_tasks)
from .runner import Discipline, ScenarioResult, run_scenario
from .scenarios import (DEFAULT_POLICY, FlowPlan, ScaledScenario,
                        ScalePolicy, ScenarioSpec)

__all__ = [
    "Discipline", "ScenarioResult", "run_scenario",
    "ScenarioSpec", "ScaledScenario", "ScalePolicy", "DEFAULT_POLICY",
    "FlowPlan",
    "RunSpec", "FailedRun", "ResultCache", "Task", "require",
    "run_many", "run_tasks", "Comparison", "run_grid",
]
