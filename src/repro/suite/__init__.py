"""repro.suite: the declarative scenario registry and golden harness.

Turns JSON workload documents into the repo's existing execution
machinery — :class:`~repro.experiments.scenarios.ScenarioSpec` +
:class:`~repro.experiments.scenarios.ScalePolicy` +
:class:`~repro.experiments.parallel.RunSpec`, for dumbbells and
multi-bottleneck parking lots alike — with strict schema validation,
stable fingerprints that feed the on-disk
:class:`~repro.experiments.parallel.ResultCache`, and a
golden-result conformance harness that pins every workload to
byte-identical replay across debug modes.

Layers (imports flow downward only):

* :mod:`repro.suite.spec` — the document model, validation, compiler;
* :mod:`repro.suite.registry` — directory loading;
* :mod:`repro.suite.golden` — digests, golden files, the replay;
* :mod:`repro.suite.cli` — ``cebinae-repro suite``.
"""

from ..experiments.scenarios import ParkingLotSpec
from .golden import (GOLDEN_VERSION, GoldenMismatch, check_golden,
                     conformance_digests, diff_golden, load_golden,
                     result_digest, run_compiled, suite_digests,
                     write_golden)
from .registry import SuiteRegistry, load_spec_file
from .spec import (GRID_FIELDS, SPEC_SCHEMA_VERSION, CompiledRun,
                   SpecError, SuiteSpec)

__all__ = [
    "GOLDEN_VERSION",
    "GRID_FIELDS",
    "SPEC_SCHEMA_VERSION",
    "CompiledRun",
    "GoldenMismatch",
    "ParkingLotSpec",
    "SpecError",
    "SuiteRegistry",
    "SuiteSpec",
    "check_golden",
    "conformance_digests",
    "diff_golden",
    "load_golden",
    "load_spec_file",
    "result_digest",
    "run_compiled",
    "suite_digests",
    "write_golden",
]
