"""Experiment harness: scenario specs, the scaling policy, the
declared points of every table and figure of the paper's evaluation,
the executor that runs them, and report formatting."""

from .parallel import (Comparison, FailedRun, ResultCache, RunSpec,
                       Task, grid, require, run_grid, run_many,
                       run_tasks)
from .runner import Discipline, ScenarioResult, run_scenario
from .scenarios import (DEFAULT_POLICY, FlowPlan, ScaledScenario,
                        ScalePolicy, ScenarioSpec)
# table2.table2, the declaration, is not re-exported: the name would
# shadow the submodule on this package.
from .table2 import TABLE2_ROWS, PaperNumbers, Table2Row

__all__ = [
    "Discipline", "ScenarioResult", "run_scenario",
    "ScenarioSpec", "ScaledScenario", "ScalePolicy", "DEFAULT_POLICY",
    "FlowPlan",
    "RunSpec", "FailedRun", "ResultCache", "Task", "require",
    "run_many", "run_tasks", "grid", "Comparison", "run_grid",
    "TABLE2_ROWS", "Table2Row", "PaperNumbers",
]
