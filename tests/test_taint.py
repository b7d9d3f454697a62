"""The project-wide determinism-taint pass (D2xx).

Runs over the on-disk fixture packages in ``tests/lint_fixtures``:
``taint_chain`` (source → helper → sink across three modules, via
relative from-imports) must yield exactly one D201 and one D202 with
the full call chain; ``taint_clean`` (same shape, reasoned allow
comment on the source) must yield none — a suppression at either end
certifies the whole chain.
"""

import textwrap
from pathlib import Path

from repro.analysis import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def d2xx(findings):
    return [f for f in findings if f.rule_id.startswith("D2")]


def test_taint_chain_reports_both_ends_once():
    found = d2xx(lint_paths([str(FIXTURES / "taint_chain")]))
    assert [f.rule_id for f in found] == ["D202", "D201"]
    source, sink = found
    assert Path(source.path).name == "clocks.py"
    assert Path(sink.path).name == "engine_use.py"


def test_taint_chain_messages_carry_the_call_chain():
    found = d2xx(lint_paths([str(FIXTURES / "taint_chain")]))
    source = next(f for f in found if f.rule_id == "D202")
    sink = next(f for f in found if f.rule_id == "D201")
    assert "drive -> mixed_delay -> jitter" in sink.message
    assert "jitter <- mixed_delay <- drive" in source.message
    assert "Simulator.schedule()" in source.message
    assert "wall-clock" in sink.message


def test_taint_findings_link_the_other_end():
    found = d2xx(lint_paths([str(FIXTURES / "taint_chain")]))
    sink = next(f for f in found if f.rule_id == "D201")
    source = next(f for f in found if f.rule_id == "D202")
    assert sink.related and len(sink.related) == 1
    related_path, related_line, note = sink.related[0]
    assert Path(related_path).name == "clocks.py"
    assert related_line == source.line
    assert note.startswith("source")
    assert source.related and \
        Path(source.related[0][0]).name == "engine_use.py"


def test_suppressed_source_stops_the_whole_chain():
    found = lint_paths([str(FIXTURES / "taint_clean")])
    assert not d2xx(found)
    # ... and the allow comment is counted as used, not stale.
    assert not [f for f in found if f.rule_id == "S902"]


def test_single_module_chain_via_lint_source():
    found = lint_source(textwrap.dedent("""
        import time


        def stamp():
            return time.monotonic()


        def drive(sim):
            sim.schedule(int(stamp()), print)
    """), path="one.py")
    ids = [f.rule_id for f in found]
    assert "D201" in ids and "D202" in ids


def test_handle_free_posting_is_a_sink_too():
    found = lint_source(textwrap.dedent("""
        import time


        def stamp():
            return time.monotonic()


        def drive(sim):
            sim.post(int(stamp()), print)


        def drive_at(sim):
            sim.post_at(int(stamp()), print)
    """), path="post.py")
    sinks = [f for f in found if f.rule_id == "D201"]
    assert [f.line for f in sinks] == [10, 14]
    assert "Simulator.post()" in sinks[0].message
    assert "Simulator.post_at()" in sinks[1].message


def test_self_method_edges_connect():
    found = lint_source(textwrap.dedent("""
        import time


        class Driver:
            def noisy(self):
                return time.monotonic()

            def arm(self, sim):
                sim.schedule(int(self.noisy()), print)
    """), path="cls.py")
    ids = [f.rule_id for f in found]
    assert "D201" in ids and "D202" in ids


def test_sink_without_any_source_is_silent():
    found = lint_source(textwrap.dedent("""
        def drive(sim, delay_ns):
            sim.schedule(delay_ns, print)
    """), path="quiet.py")
    assert not d2xx(found)


def test_source_without_a_reachable_sink_is_local_only():
    # The D103 stays; no taint findings appear for unreachable code.
    found = lint_source(textwrap.dedent("""
        import time


        def stamp():
            return time.monotonic()
    """), path="loose.py")
    assert [f.rule_id for f in found] == ["D103"]


def test_taint_output_is_stable_across_runs():
    first = [f.render() for f in
             lint_paths([str(FIXTURES / "taint_chain")])]
    second = [f.render() for f in
              lint_paths([str(FIXTURES / "taint_chain")])]
    assert first == second
