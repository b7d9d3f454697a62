"""Golden-result conformance: digests, golden files, debug off|on replay.

The determinism contract of this repo — fixed seed ⇒ byte-identical
:class:`ScenarioResult` across debug modes and tracing on/off — is
enforced here for *every* declarative workload:

* :func:`result_digest` reduces one result to committed-friendly
  digests (SHA-256 of the canonical result JSON, the scalar JFI, and a
  digest of the per-second JFI series when collected);
* a *golden file* (``tests/golden/<spec name>.json``) pins one suite
  spec's digests, stamped with the spec's own fingerprint so stale
  goldens are distinguishable from determinism breaks;
* :func:`conformance_digests` replays a spec with the debug gate off
  and on in-process and refuses to produce digests at all if the two
  disagree — the regeneration path can therefore never commit a
  debug-dependent golden.

``tests/test_golden_suite.py`` parametrises the same comparison per
debug mode, and the CI ``suite-smoke`` job replays it through the CLI.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..analysis import invariants
from ..experiments.parallel import require, run_tasks
from ..experiments.runner import ScenarioResult
from .spec import CompiledRun, SuiteSpec

#: Bump when the golden-file shape changes incompatibly.
GOLDEN_VERSION = 1

#: Canonical JSON encoding shared by every digest in this module.
_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}


class GoldenMismatch(AssertionError):
    """A replayed result diverged from its committed golden digest."""


def canonical_result_json(result: ScenarioResult) -> str:
    """The canonical byte form the determinism contract is stated over."""
    return json.dumps(result.to_dict(), **_JSON_KWARGS)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: ScenarioResult) -> Dict[str, Any]:
    """Committed-friendly digests of one run's result.

    ``result_sha256`` covers every field byte-for-byte;
    ``jfi``/``jfi_series_sha256`` are kept alongside so a mismatch
    report can say *how far* fairness moved, not just that bytes
    changed.
    """
    digest: Dict[str, Any] = {
        "result_sha256": _sha256(canonical_result_json(result)),
        "jfi": result.jfi,
    }
    if result.goodput_series_bps is not None:
        digest["jfi_series_sha256"] = _sha256(
            json.dumps(result.jfi_series(), **_JSON_KWARGS))
    return digest


# --------------------------------------------------------------------------
# Executing a compiled suite.
# --------------------------------------------------------------------------

def run_compiled(runs: Sequence[CompiledRun],
                 workers: Optional[int] = None,
                 cache_dir: Union[str, Path, None] = None,
                 use_cache: bool = True,
                 progress: Any = None) -> List[ScenarioResult]:
    """Execute compiled runs through the parallel executor, in order."""
    tasks = [run.task() for run in runs]
    results = run_tasks(tasks, workers=workers, cache_dir=cache_dir,
                        use_cache=use_cache, progress=progress)
    return [require(result) for result in results]


def suite_digests(spec: SuiteSpec,
                  debug: bool) -> Dict[str, Dict[str, Any]]:
    """Label → digest for one spec, one debug mode, serial in-process.

    The debug gate is read dynamically, so setting it around an
    in-process run is exactly equivalent to exporting ``REPRO_DEBUG``
    for a fresh process.
    """
    runs = spec.compile()
    previous = invariants.set_debug(debug)
    try:
        results = run_compiled(runs, workers=1, cache_dir=None)
    finally:
        invariants.set_debug(previous)
    digests = {}
    for run, result in zip(runs, results):
        entry = {"fingerprint": run.fingerprint()}
        entry.update(result_digest(result))
        digests[run.label] = entry
    return digests


def conformance_digests(spec: SuiteSpec) -> Dict[str, Dict[str, Any]]:
    """Digests agreed on with the debug gate off and on.

    Raises :class:`GoldenMismatch` naming the diverging labels if the
    two modes disagree — so golden regeneration doubles as a
    determinism check.
    """
    reference = suite_digests(spec, debug=False)
    checked = suite_digests(spec, debug=True)
    if checked != reference:
        diverged = sorted(label for label in reference
                          if checked.get(label) != reference[label])
        raise GoldenMismatch(
            f"suite spec {spec.name!r}: debug=True diverges from "
            f"debug=False on {diverged}")
    return reference


# --------------------------------------------------------------------------
# Golden files.
# --------------------------------------------------------------------------

def golden_path(directory: Union[str, Path], name: str) -> Path:
    return Path(directory) / f"{name}.json"


def write_golden(directory: Union[str, Path], spec: SuiteSpec,
                 digests: Dict[str, Dict[str, Any]]) -> Path:
    """Persist one spec's golden file (sorted keys, trailing newline)."""
    path = golden_path(directory, spec.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "golden_version": GOLDEN_VERSION,
        "spec_name": spec.name,
        "spec_fingerprint": spec.fingerprint(),
        "runs": digests,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_golden(directory: Union[str, Path], name: str
                ) -> Dict[str, Any]:
    path = golden_path(directory, name)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise GoldenMismatch(
            f"no golden file for suite spec {name!r} (expected "
            f"{path}); run the suite CLI with --update-golden"
            ) from None
    if document.get("golden_version") != GOLDEN_VERSION:
        raise GoldenMismatch(
            f"{path}: golden version "
            f"{document.get('golden_version')!r} does not match this "
            f"build's {GOLDEN_VERSION}; regenerate with "
            f"--update-golden")
    return document


def diff_golden(golden: Dict[str, Any], spec: SuiteSpec,
                digests: Dict[str, Dict[str, Any]]) -> List[str]:
    """Human-readable mismatches between a golden file and a replay.

    Empty list == conformant.  A spec-fingerprint mismatch short-
    circuits: digests computed from a different document prove
    staleness, not nondeterminism.
    """
    spec_fp = spec.fingerprint()
    if golden.get("spec_fingerprint") != spec_fp:
        return [
            f"{spec.name}: spec fingerprint {spec_fp} does not match "
            f"golden {golden.get('spec_fingerprint')!r} — the spec "
            f"changed since the golden was committed; rerun "
            f"--update-golden"]
    mismatches: List[str] = []
    expected_runs: Dict[str, Any] = golden.get("runs", {})
    missing = sorted(set(expected_runs) - set(digests))
    extra = sorted(set(digests) - set(expected_runs))
    for label in missing:
        mismatches.append(f"{spec.name}/{label}: in golden but not "
                          f"produced by the spec")
    for label in extra:
        mismatches.append(f"{spec.name}/{label}: produced but absent "
                          f"from golden")
    for label in sorted(set(expected_runs) & set(digests)):
        expected, actual = expected_runs[label], digests[label]
        if expected == actual:
            continue
        detail = []
        for key in sorted(set(expected) | set(actual)):
            if expected.get(key) != actual.get(key):
                detail.append(f"{key}: golden={expected.get(key)!r} "
                              f"actual={actual.get(key)!r}")
        mismatches.append(f"{spec.name}/{label}: " + "; ".join(detail))
    return mismatches


def check_golden(directory: Union[str, Path], spec: SuiteSpec,
                 digests: Dict[str, Dict[str, Any]]) -> List[str]:
    """Load ``spec``'s golden and diff it against ``digests``."""
    try:
        golden = load_golden(directory, spec.name)
    except GoldenMismatch as exc:
        return [str(exc)]
    return diff_golden(golden, spec, digests)
