"""Golden-result conformance over every committed suite spec.

The determinism contract — fixed seed ⇒ byte-identical ScenarioResult
— is replayed here for each declarative workload with the debug gate
off and on, and the digests must match the golden files committed
under ``tests/golden/``.  Any new workload dropped into the example
suites automatically gains this test; regenerate goldens with::

    cebinae-repro suite examples/suites/<dir> --update-golden tests/golden
"""

from pathlib import Path

import pytest

from repro.suite import (SuiteRegistry, check_golden, load_spec_file,
                         suite_digests)

REPO_ROOT = Path(__file__).resolve().parent.parent
SUITES_ROOT = REPO_ROOT / "examples" / "suites"
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

SPEC_PATHS = sorted(path
                    for suite_dir in SUITES_ROOT.iterdir()
                    if suite_dir.is_dir()
                    for path in suite_dir.glob("*.json"))


def test_committed_suites_exist():
    assert SPEC_PATHS, f"no suite specs under {SUITES_ROOT}"


def test_every_spec_has_a_golden():
    missing = [path.stem for path in SPEC_PATHS
               if not (GOLDEN_DIR / f"{path.stem}.json").exists()]
    assert not missing, (
        f"suite specs without golden files: {missing}; run "
        f"--update-golden")


def test_suite_directories_load_as_registries():
    # The CLI loads whole directories; a broken sibling spec must not
    # hide behind per-file parametrization.
    for suite_dir in sorted(SUITES_ROOT.iterdir()):
        if suite_dir.is_dir():
            registry = SuiteRegistry.from_directory(suite_dir)
            assert len(registry) > 0


@pytest.mark.parametrize("debug", (False, True),
                         ids=lambda d: f"debug{'On' if d else 'Off'}")
@pytest.mark.parametrize("spec_path", SPEC_PATHS,
                         ids=lambda p: p.stem)
def test_golden_conformance(spec_path, debug):
    """One spec, one debug mode: digests must equal the golden file."""
    spec = load_spec_file(spec_path)
    digests = suite_digests(spec, debug=debug)
    mismatches = check_golden(GOLDEN_DIR, spec, digests)
    assert not mismatches, "\n".join(mismatches)
