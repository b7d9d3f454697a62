"""The ten scenario experiments, end to end through the CLI's one path.

``run_experiment`` compiles the experiment's paper documents, runs them
with ``run_grid`` and prints the report.  For each experiment this pins,
under a short duration cap, that the compiled points are distinct, that
they are what the run leaves in the cache, that the report prints what
those points give when run directly, and that a warm cache replays the
same text without simulating.
"""

import pytest

from repro.experiments import cli, parallel
from repro.experiments.figures import parking_lot_ideal
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.fairness.metrics import normalized_jfi
from repro.suite.registry import paper_spec

DURATION_S = 1.5


def printed(name, spec, result):
    """The number the ``name`` report prints for one point."""
    if name == "figure10":
        return " ".join(f"{value:.2f}"
                        for value in result.jfi_series()[::5])
    if name == "figure11":
        ideal = parking_lot_ideal(spec.scaled.spec)
        rates = dict(zip(ideal, result.goodputs_bps))
        return f"JFI={normalized_jfi(rates, ideal):.3f}"
    return f"{result.jfi:.3f}"


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_report_is_its_declared_points(name, tmp_path, monkeypatch):
    rows = [1, 8] if name == "table2" else None
    documents, _ = cli.EXPERIMENTS[name]
    if rows:
        documents = [documents[row - 1] for row in rows]
    specs = [run.runspec for document in documents
             for run in paper_spec(document)
             .with_duration_cap(DURATION_S).compile()]
    assert all(spec.scaled.spec.duration_s == DURATION_S for spec in specs)
    fingerprints = [spec.fingerprint() for spec in specs]
    assert len(set(fingerprints)) == len(specs) >= 2

    def run():
        return cli.run_experiment(name, rows=rows, workers=1,
                                  cache_dir=str(tmp_path),
                                  max_duration_s=DURATION_S)

    text = run()
    cache = ResultCache(tmp_path)
    assert len(cache) == len(specs)
    for spec in specs:
        direct = run_scenario(spec.scaled, spec.discipline,
                              collect_series=spec.collect_series,
                              record_history=spec.record_history,
                              seed=spec.seed, faults=spec.faults)
        cached = cache.load(spec.fingerprint())
        assert cached is not None, spec.label
        assert ScenarioResult.from_dict(cached) == direct
        assert printed(name, spec, direct) in text, spec.label

    def simulated(**kwargs):
        raise AssertionError("a warm cache must not simulate")

    monkeypatch.setattr(parallel, "run_scenario", simulated)
    assert run() == text
