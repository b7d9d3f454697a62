"""The paper's evaluation as suite documents, and their ``cebinae`` section.

``repro/experiments/paper/`` declares Table 2's rows, Figures 1 and
7-12, section 5.5 and the fault-recovery sweep; ``cebinae-repro
<experiment>`` compiles them.  ``tests/golden/paper_points.json`` holds,
per experiment and in run order, a digest of every point the earlier
Python declarations made: the scaled scenario with its two spec names
blanked, the discipline, the seed, the collection flags and, when set,
the fault spec.  Numbers are digested as floats, so an RTT written
``28`` there and parsed ``28.0`` here agree.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.params import CebinaeParams
from repro.experiments import cli
from repro.experiments.parallel import _canonical
from repro.experiments.runner import Discipline
from repro.netsim.engine import seconds
from repro.netsim.packet import MTU_BYTES
from repro.suite import SpecError, SuiteRegistry, SuiteSpec
from repro.suite.registry import PAPER_DIR, paper_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((REPO_ROOT / "tests" / "golden" /
                       "paper_points.json").read_text())["experiments"]


def _floats(value):
    if isinstance(value, bool) or not isinstance(value, (int, dict, list)):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        return {key: _floats(item) for key, item in value.items()}
    return [_floats(item) for item in value]


def point_digest(runspec):
    canon = _canonical({"scaled": runspec.scaled,
                        "discipline": runspec.discipline,
                        "seed": runspec.seed,
                        "collect_series": runspec.collect_series,
                        "record_history": runspec.record_history})
    canon["scaled"]["spec"]["name"] = ""
    canon["scaled"]["paper_spec"]["name"] = ""
    if runspec.faults is not None:
        canon["faults"] = _canonical(runspec.faults)
    blob = json.dumps(_floats(canon), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def experiment_points(name):
    documents, _ = cli.EXPERIMENTS[name]
    return [run.runspec for document in documents
            for run in paper_spec(document).compile()]


class TestPaperDocuments:
    def test_the_directory_is_one_suite(self):
        registry = SuiteRegistry.from_directory(PAPER_DIR)
        assert len(registry) == 39
        documents = {document for documents, _ in cli.EXPERIMENTS.values()
                     for document in documents}
        assert documents == set(registry.names)

    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_documents_compile_to_the_recorded_points(self, name):
        points = experiment_points(name)
        assert all(point.backend == "packet" for point in points)
        assert [point_digest(point) for point in points] == RECORDED[name]

    def test_scalability_is_for_link_with_p_from_the_final_dt(self):
        scaled = [point.scaled for point in experiment_points("scalability")
                  if point.discipline is Discipline.CEBINAE]
        assert [s.cebinae.recompute_rounds for s in scaled] == [1, 2, 7]
        for s in scaled:
            assert s.cebinae == CebinaeParams.for_link(
                20e6, 80 * MTU_BYTES, max_rtt_ns=seconds(s.spec.max_rtt_s),
                tau=0.04, delta_port=0.08, delta_flow=0.04,
                min_bottom_rate_fraction=0.02)

    def test_duration_cap(self):
        spec = paper_spec("figure9").with_duration_cap(15.0)
        assert [run.runspec.scaled.spec.duration_s
                for run in spec.compile()] == [15.0] * 15
        assert paper_spec("figure9").with_duration_cap(None) == \
            paper_spec("figure9")
        assert paper_spec("figure11").with_duration_cap(99.0) \
            .parking.duration_s == 60.0

    def test_base_point_is_gridless(self):
        point = paper_spec("figure9").base_point(2.0, Discipline.FQ)
        assert point.scaled.spec.name == "figure9"
        assert point.scaled.spec.rtts_ms == (256.0, 64.0)
        assert point.scaled.spec.duration_s == 2.0
        assert point.discipline is Discipline.FQ
        assert (point.seed, point.faults) == (0, None)


def doc(**extra):
    base = {"name": "ceb",
            "scenario": {"rate_bps": 100e6, "rtts_ms": [50.0],
                         "buffer_mtus": 420,
                         "cca_mix": [["newreno", 2]],
                         "duration_s": 1.0},
            "disciplines": ["cebinae"]}
    base.update(extra)
    return base


class TestCebinaeSection:
    @pytest.mark.parametrize("extra, match", [
        ({"cebinae": {"tau": 0.1, "beta": 1}},
         r"s\.json: cebinae: unknown key\(s\) \['beta'\]"),
        ({"grid": {"cebinae": [{"tau": 0.1}, {"dt": 5}]}},
         r"s\.json: grid\.cebinae\[1\]: unknown key"),
        ({"cebinae": {"dt_ns": 4e7}},
         r"s\.json: cebinae\.dt_ns: expected an integer"),
        ({"cebinae": {"tau": "high"}},
         r"s\.json: cebinae\.tau: expected a finite number"),
        ({"cebinae": {"tau": 1.5}},
         r"s\.json: cebinae: ceb: tau must be in \[0, 1\]"),
        ({"grid": {"cebinae": [{}, {"dt_ns": 2_000_000}]}},
         r"s\.json: grid\.cebinae\[1\]: ceb#p1: dT=2000000ns violates "
         r"Equation \(2\)"),
    ])
    def test_bad_overrides_name_their_path(self, extra, match):
        with pytest.raises(SpecError, match=match):
            SuiteSpec.from_dict(doc(**extra), source="s.json")

    def test_parking_lot_keeps_its_one_tau_override(self):
        parking = {"name": "pl", "topology": "parking_lot",
                   "parking_lot": {"rate_bps": 5e6, "buffer_mtus": 40,
                                   "num_long": 1, "long_cca": "newreno",
                                   "cross_mix": [["vegas", 1]],
                                   "duration_s": 1.0},
                   "cebinae": {"tau": 0.1}}
        with pytest.raises(SpecError,
                           match=r"cebinae: not allowed with topology "
                                 r"'parking_lot'.*parking_lot\.tau"):
            SuiteSpec.from_dict(parking)

    def test_grid_value_merges_over_the_section_and_p_follows_dt(self):
        spec = SuiteSpec.from_dict(doc(
            cebinae={"tau": 0.05, "dt_ns": 60_000_000},
            grid={"cebinae": [{}, {"tau": 0.2, "dt_ns": 130_000_000}]},
            scenario=dict(doc()["scenario"], rtts_ms=[250.0])))
        first, second = (run.runspec.scaled.cebinae
                         for run in spec.compile())
        assert (first.tau, first.dt_ns, first.recompute_rounds) == \
            (0.05, 60_000_000, 5)
        assert (second.tau, second.dt_ns, second.recompute_rounds) == \
            (0.2, 130_000_000, 2)

    @pytest.mark.parametrize("name", ["figure12_tau", "scalability"])
    def test_round_trip(self, name):
        spec = paper_spec(name)
        data = spec.to_dict()
        assert "cebinae" in data
        replayed = SuiteSpec.from_dict(json.loads(json.dumps(data)))
        assert replayed == spec
        assert replayed.fingerprint() == spec.fingerprint()

    def test_not_emitted_when_unset(self):
        paths = sorted((REPO_ROOT / "examples" / "suites").glob("*/*.json"))
        assert len(paths) == 9
        for path in paths:
            spec = SuiteRegistry.from_directory(path.parent).get(path.stem)
            data = spec.to_dict()
            assert "cebinae" not in data
            assert "cebinae" not in data.get("grid", {})
