"""The flow-sensitive dimensional-unit pass (U4xx).

Per-rule must-flag cases run over the on-disk fixture package
``tests/lint_fixtures/units_pkg`` (one module per rule, annotated
callees in ``sigs.py`` for the cross-module signature index); the
must-NOT-flag cases in the same modules are asserted by checking the
exact finding set.  Inline ``lint_source`` cases cover idioms the pass
must stay silent on — the acceptance bar is zero false positives on
the real tree.
"""

import textwrap
from pathlib import Path

from repro.analysis import lint_paths, lint_source
from repro.analysis.unitcheck import (collect_signatures,
                                      merge_signature_indexes)

import ast

REPO_ROOT = Path(__file__).resolve().parent.parent
UNITS_PKG = REPO_ROOT / "tests" / "lint_fixtures" / "units_pkg"


def fixture_findings(rule_prefix="U4"):
    found = lint_paths([str(UNITS_PKG)])
    return [f for f in found if f.rule_id.startswith(rule_prefix)]


def by_file(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(Path(finding.path).name, []).append(finding)
    return grouped


def test_units_fixture_package_exact_finding_set():
    # One finding per must-flag case, nothing from the ok_* cases.
    grouped = by_file(fixture_findings())
    assert sorted(grouped) == ["u401.py", "u402.py", "u403.py",
                               "u404.py"]
    assert [f.rule_id for f in grouped["u401.py"]] == ["U401", "U401"]
    assert [f.rule_id for f in grouped["u402.py"]] == ["U402", "U402"]
    assert [f.rule_id for f in grouped["u403.py"]] == ["U403"]
    assert [f.rule_id for f in grouped["u404.py"]] == ["U404"]


def test_u401_messages_name_both_dimensions():
    grouped = by_file(fixture_findings())
    for finding in grouped["u401.py"]:
        assert "ns" in finding.message and "s" in finding.message


def test_u402_cross_module_call_site_uses_signature_index():
    # The second u402 finding is the call hold_for(wait): the callee
    # lives in sigs.py and is annotated TimeNs, so the check only
    # fires if the project-wide signature index resolved the relative
    # from-import.
    grouped = by_file(fixture_findings())
    call_site = grouped["u402.py"][1]
    assert "hold_for" in call_site.message
    assert "duration_ns" in call_site.message


def test_u404_names_the_contamination_line():
    grouped = by_file(fixture_findings())
    assert "float since line" in grouped["u404.py"][0].message


# -- inline must-not-flag idioms ---------------------------------------

def u4xx(source):
    found = lint_source(textwrap.dedent(source), path="fixture.py")
    return [f for f in found if f.rule_id.startswith("U4")]


def test_post_and_post_at_take_nanoseconds():
    # Built-in signatures, like schedule()/schedule_at(): a seconds
    # value in the time position is a dimension-flow error.
    found = u4xx("""
        def arm(sim, timeout_s, deadline_ns):
            wait = timeout_s
            sim.post(wait, print)
            sim.post_at(wait, print)
            due = deadline_ns
            sim.post(due, print)
            sim.post_at(due, print)
    """)
    assert [(f.rule_id, f.line) for f in found] == \
        [("U402", 4), ("U402", 5)]
    assert "delay_ns" in found[0].message
    assert "time_ns" in found[1].message


def test_scale_constants_launder_dimensions():
    assert not u4xx("""
        SECOND = 1_000_000_000

        def convert(timeout_s):
            timeout_ns = int(timeout_s * SECOND)
            return timeout_ns
    """)


def test_serialization_idiom_is_clean():
    # The Link hot-path expression: bytes * 8 -> bits, * SECOND
    # launders, / rate_bps; no rule may fire.
    assert not u4xx("""
        SECOND = 1_000_000_000

        def delay_ns(size_bytes, rate_bps):
            return int(size_bytes * 8 * SECOND / rate_bps)
    """)


def test_int_wrapping_strips_float_contamination():
    assert not u4xx("""
        def half(interval_ns):
            scaled = int(interval_ns * 1.5)
            next_ns = scaled
            return next_ns
    """)


def test_branches_join_conservatively():
    # The dimension is only trusted when every branch agrees.
    assert not u4xx("""
        def pick(flag, a_ns, b_s):
            if flag:
                value = a_ns
            else:
                value = b_s
            out_ns = value
            return out_ns
    """)


def test_annotations_win_over_suffixless_names():
    found = lint_source(textwrap.dedent("""
        from repro.core.units import Seconds, TimeNs


        def stretch(pause: Seconds) -> None:
            deadline_ns = pause
    """), path="fixture.py")
    assert [f.rule_id for f in found if f.rule_id.startswith("U4")] \
        == ["U402"]


def test_ratio_scaling_preserves_dimension():
    assert not u4xx("""
        def shrink(window_bytes, tau):
            return int(window_bytes * tau)
    """)


# -- the signature index ------------------------------------------------

def collect(source, module):
    return collect_signatures(ast.parse(textwrap.dedent(source)),
                              module)


def test_collect_signatures_reads_annotations_and_suffixes():
    index = collect("""
        def wait(delay_ns, budget: "Seconds"):
            pass

        class Engine:
            def arm(self, timeout_ns):
                pass
    """, "mod")
    assert index["mod.wait"].param_dims == ("ns", "s")
    assert index["mod.Engine.arm"].param_dims == ("ns",)
    # Bare-name keys exist for unambiguous resolution.
    assert index["wait"].param_dims == ("ns", "s")


def test_merge_drops_ambiguous_short_keys():
    first = collect("def f(delay_ns):\n    pass\n", "a")
    second = collect("def f(budget_s):\n    pass\n", "b")
    merged = merge_signature_indexes([first, second])
    assert "f" not in merged           # conflicting bare name dropped
    assert merged["a.f"].param_dims == ("ns",)
    assert merged["b.f"].param_dims == ("s",)


def test_merge_keeps_identical_short_keys():
    first = collect("def f(delay_ns):\n    pass\n", "a")
    second = collect("def f(other_ns):\n    pass\n", "b")
    merged = merge_signature_indexes([first, second])
    assert merged["f"].param_dims == ("ns",)
