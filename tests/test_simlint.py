"""simlint: per-rule must-flag / must-pass fixtures, suppression
semantics, CLI behaviour, and the self-check that the repository's own
sources are clean."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.linter import (iter_python_files, lint_paths,
                                   lint_source)
from repro.analysis.rules import CHECKER_RULE_IDS, RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
SIMLINT = REPO_ROOT / "tools" / "simlint.py"


def findings_for(source, rule_id=None):
    found = lint_source(textwrap.dedent(source), path="fixture.py")
    if rule_id is None:
        return found
    return [f for f in found if f.rule_id == rule_id]


def rule_ids(source):
    return {f.rule_id for f in findings_for(source)}


# -- D101: builtin hash() ------------------------------------------------------

def test_d101_flags_builtin_hash():
    found = findings_for("""
        def bucket(flow, n):
            return hash(flow) % n
    """, "D101")
    assert len(found) == 1
    assert found[0].line == 3


def test_d101_flags_the_pr1_fq_codel_bug():
    # The exact shape of the hash-bucketing bug fixed in PR 1: builtin
    # hash() of a FlowId varies per process under PYTHONHASHSEED.
    found = findings_for("""
        class FqCoDelQueueDisc:
            def _bucket(self, flow):
                return hash(flow) % self.num_queues
    """, "D101")
    assert len(found) == 1


def test_d101_passes_stable_hash():
    assert not findings_for("""
        def bucket(flow, n):
            return flow.stable_hash() % n
    """, "D101")


# -- D102: unseeded randomness -------------------------------------------------

def test_d102_flags_global_random():
    assert findings_for("""
        import random

        def jitter():
            return random.random()
    """, "D102")


def test_d102_flags_unseeded_constructor():
    assert findings_for("""
        import random

        rng = random.Random()
    """, "D102")


def test_d102_passes_seeded_constructor():
    assert not findings_for("""
        import random

        rng = random.Random(42)

        def jitter():
            return rng.random()
    """, "D102")


# -- D103: wall-clock reads ----------------------------------------------------

def test_d103_flags_wall_clock():
    source = """
        import time

        def now():
            return time.time()
    """
    assert findings_for(source, "D103")


def test_d103_flags_monotonic_without_allow():
    assert findings_for("""
        import time

        def stamp():
            return time.monotonic()
    """, "D103")


def test_d103_respects_allow_comment():
    found = findings_for("""
        import time

        def stamp():
            return time.monotonic()  # simlint: allow[D103] CLI timer
    """)
    assert not [f for f in found if f.rule_id == "D103"]


# -- D104: set iteration order -------------------------------------------------

def test_d104_flags_for_over_set():
    assert findings_for("""
        def drop(active):
            finished = set()
            for flow in finished & active:
                del active[flow]
    """, "D104")


def test_d104_flags_annotated_set_param():
    assert findings_for("""
        from typing import Set

        def drop(active, finished: Set[int]):
            for flow in finished:
                del active[flow]
    """, "D104")


def test_d104_flags_list_of_set():
    assert findings_for("""
        def order(flows):
            tracked = set(flows)
            return list(tracked)
    """, "D104")


def test_d104_passes_sorted_and_aggregates():
    assert not findings_for("""
        def order(flows):
            tracked = set(flows)
            total = sum(tracked)
            return sorted(tracked), total, len(tracked), max(tracked)
    """, "D104")


# -- H301: mutable defaults ----------------------------------------------------

def test_h301_flags_mutable_default():
    assert findings_for("""
        def collect(items=[]):
            return items
    """, "H301")


def test_h301_passes_none_default():
    assert not findings_for("""
        def collect(items=None):
            return items or []
    """, "H301")


# -- H302: shadowed module names -----------------------------------------------

def test_h302_flags_shadowed_module_def():
    assert findings_for("""
        import random

        def roll():
            random = 3
            return random
    """, "H302")


# -- suppression hygiene -------------------------------------------------------

def test_s901_requires_a_reason():
    found = findings_for("""
        import time

        def stamp():
            return time.time()  # simlint: allow[D103]
    """)
    ids = {f.rule_id for f in found}
    assert "S901" in ids
    assert "D103" not in ids  # Suppression still applies.


def test_s902_flags_stale_suppression():
    found = findings_for("""
        def quiet():
            return 1  # simlint: allow[D101] historical reasons
    """)
    assert {f.rule_id for f in found} == {"S902"}


def test_s903_flags_unknown_rule_id():
    found = findings_for("""
        def quiet():
            return 1  # simlint: allow[D999] typo'd rule id
    """)
    ids = {f.rule_id for f in found}
    assert "S903" in ids
    # The typo'd comment also matches nothing, so it is stale too.
    assert "S902" in ids


# -- E901 ----------------------------------------------------------------------

def test_e901_on_syntax_error():
    found = findings_for("def broken(:\n")
    assert [f.rule_id for f in found] == ["E901"]


# -- catalog sanity ------------------------------------------------------------

def test_every_checker_rule_has_a_must_flag_fixture():
    # Each D/U/H rule has at least one must-flag case above.  This
    # pins the catalog so adding a rule without a fixture fails loudly.
    assert set(CHECKER_RULE_IDS) == {
        "D101", "D102", "D103", "D104", "H301", "H302"}
    assert set(RULES) - set(CHECKER_RULE_IDS) == {
        "S901", "S902", "S903", "E901"}


def test_rules_have_ids_hints_and_series():
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule.hint
        assert rule.series in "DHSE"


# -- the repository's own sources are clean ------------------------------------

def test_self_check_src_is_clean():
    findings = lint_paths([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.render() for f in findings)


# -- CLI behaviour -------------------------------------------------------------

def run_cli(args, cwd=None, hashseed=None):
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, str(SIMLINT), *args], env=env,
        capture_output=True, text=True, cwd=cwd or str(REPO_ROOT))


def test_cli_exit_zero_on_clean_tree():
    result = run_cli(["src"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings" in result.stdout


def test_cli_exit_one_with_rule_ids_on_dirty_file(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(textwrap.dedent("""\
        import time

        def bucket(flow, n, mutable=[]):
            stamp = time.time()
            return hash(flow) % n
    """))
    result = run_cli([str(dirty)])
    assert result.returncode == 1
    for rule_id in ("D101", "D103", "H301"):
        assert rule_id in result.stdout


def test_cli_json_mode(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(flow):\n    return hash(flow)\n")
    result = run_cli(["--json", str(dirty)])
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload[0]["rule"] == "D101"
    assert payload[0]["line"] == 2
    assert payload[0]["hint"]


def test_cli_list_rules():
    result = run_cli(["--list-rules"])
    assert result.returncode == 0
    for rule_id in CHECKER_RULE_IDS:
        assert rule_id in result.stdout
    assert len(re.findall(r"^  [A-Z]\d{3} ", result.stdout, re.M)) == 10


def test_cli_flags_are_exactly_the_two(capsys):
    with pytest.raises(SystemExit):
        lint_main(["--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--json", "--list-rules"}
    # Known findings are silenced inline; argparse rejects the rest.
    with pytest.raises(SystemExit) as rejected:
        lint_main(["--baseline", "known.json", "src"])
    assert rejected.value.code == 2


def test_json_is_byte_identical_across_hash_seeds(tmp_path):
    (tmp_path / "dirty.py").write_text(textwrap.dedent("""\
        import time


        def stamp():
            return time.time()


        def bucket(flow, n, tracked={1, 2}):
            return [hash(flow) % n for flow in set(tracked)]
    """))
    first, second = (run_cli(["--json", "dirty.py"], cwd=str(tmp_path),
                             hashseed=seed) for seed in ("3", "4"))
    assert first.returncode == second.returncode == 1
    assert first.stdout == second.stdout
    assert {f["rule"] for f in json.loads(first.stdout)} == {
        "D101", "D103", "D104", "H301"}


# -- the gate cannot pass having linted nothing -------------------------------

def test_path_spelling_does_not_change_what_is_linted(monkeypatch):
    rooted = [p.relative_to(REPO_ROOT) for p in
              iter_python_files([REPO_ROOT / "src"])]
    assert len(rooted) > 50
    monkeypatch.chdir(REPO_ROOT / "tools")
    dotted = list(iter_python_files(["../src"]))
    assert [p.relative_to("..") for p in dotted] == rooted
    result = run_cli(["../src"], cwd=str(REPO_ROOT / "tools"))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip() == \
        f"simlint: 0 findings in {len(rooted)} files under ../src"


def test_hidden_and_cache_directories_below_the_path_are_skipped(tmp_path):
    for name in ("pkg", ".venv", "__pycache__"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "mod.py").write_text("x = 1\n")
    assert list(iter_python_files([tmp_path])) == \
        [tmp_path / "pkg" / "mod.py"]


def test_missing_path_and_empty_directory_are_usage_errors(
        tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    for bad in (tmp_path / "nonexistent_dir", tmp_path / "misspelt.py",
                tmp_path / "empty"):
        assert lint_main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("simlint: error: ")
        assert captured.err.count("\n") == 1


def test_running_a_simulation_does_not_import_the_linter():
    probe = ("import sys, repro.experiments.runner, repro.sweep.worker; "
             "sys.exit('repro.analysis.linter' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", probe],
                          env=env).returncode == 0


# -- the seeded-fault audit table (tools/seeded_faults.py) --------------------

def test_seeded_fault_table_applies_and_grades_the_lint_layer():
    spec = importlib.util.spec_from_file_location(
        "seeded_faults", REPO_ROOT / "tools" / "seeded_faults.py")
    seeded_faults = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(seeded_faults)
    flagged = {}
    for fault in seeded_faults.FAULTS:
        path, text = seeded_faults.mutated(fault)  # Raises if rotten.
        flagged[fault[0]] = {
            f.rule_id for f in lint_source(text, str(path))}
    assert len(flagged) == 23
    assert flagged["D-a"] == {"D104"}
    # D104 cannot see that sorted_flow_strings is handed a set;
    # test_obs's sorted_flow_strings test holds this one.
    assert flagged["D-b"] == set()


def test_cebinae_repro_lint_subcommand(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(flow):\n    return hash(flow)\n")
    from repro.experiments.cli import main
    assert main(["lint", str(dirty)]) == 1
