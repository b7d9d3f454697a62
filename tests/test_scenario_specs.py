"""Property tests for the declarative suite-spec format.

Two properties keep the golden harness trustworthy:

* **Round-trip** — spec → ``to_dict`` → (JSON encode/decode) →
  ``from_dict`` reproduces an *identical* spec, so a document on disk
  and its parsed form can never drift apart;
* **Fingerprint stability** — equal specs always produce equal
  fingerprints, regardless of document key order or which of the two
  equal objects computed it, and meaningful edits change it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import Discipline
from repro.suite import ParkingLotSpec, SpecError, SuiteSpec
from repro.tcp.flows import CCA_REGISTRY

CCAS = st.sampled_from(sorted(CCA_REGISTRY))
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True)
COUNTS = st.integers(min_value=1, max_value=4)
RTTS = st.floats(min_value=1.0, max_value=400.0, allow_nan=False,
                 allow_infinity=False)
DURATIONS = st.floats(min_value=0.1, max_value=10.0, allow_nan=False,
                      allow_infinity=False)


@st.composite
def scenario_sections(draw):
    """A valid dumbbell ``scenario`` document section."""
    mix = draw(st.lists(st.tuples(CCAS, COUNTS), min_size=1,
                        max_size=3))
    groups = len(mix)
    rtts = draw(st.one_of(
        st.lists(RTTS, min_size=1, max_size=1),
        st.lists(RTTS, min_size=groups, max_size=groups)))
    total_flows = sum(count for _, count in mix)
    starts = draw(st.one_of(
        st.none(),
        st.lists(st.floats(min_value=0.0, max_value=2.0,
                           allow_nan=False),
                 min_size=total_flows, max_size=total_flows)))
    section = {
        "rate_bps": draw(st.floats(min_value=1e6, max_value=1e9,
                                   allow_nan=False)),
        "rtts_ms": [float(rtt) for rtt in rtts],
        "buffer_mtus": draw(st.integers(min_value=10, max_value=5000)),
        "cca_mix": [[cca, count] for cca, count in mix],
        "duration_s": draw(DURATIONS),
    }
    if starts is not None:
        section["start_times_s"] = [float(s) for s in starts]
    return section


@st.composite
def parking_sections(draw):
    """A valid ``parking_lot`` document section."""
    mix = draw(st.lists(st.tuples(CCAS, COUNTS), min_size=1,
                        max_size=3))
    section = {
        "rate_bps": draw(st.floats(min_value=1e6, max_value=1e9,
                                   allow_nan=False)),
        "buffer_mtus": draw(st.integers(min_value=10, max_value=5000)),
        "num_long": draw(COUNTS),
        "long_cca": draw(CCAS),
        "cross_mix": [[cca, count] for cca, count in mix],
        "duration_s": draw(DURATIONS),
    }
    for key in ("access_delay_ms", "bottleneck_delay_ms"):
        if draw(st.booleans()):
            section[key] = draw(RTTS)
    if draw(st.booleans()):
        section["tau"] = draw(st.floats(min_value=0.01, max_value=1.0))
    return section


@st.composite
def suite_documents(draw):
    """A valid top-level suite document, dumbbell or parking lot."""
    parking = draw(st.booleans())
    doc = {
        "schema_version": 1,
        "name": draw(NAMES),
        "disciplines": draw(st.lists(
            st.sampled_from([d.value for d in Discipline]),
            min_size=1, max_size=3, unique=True)),
        "collect_series": draw(st.booleans()),
        "repeats": draw(st.integers(min_value=1, max_value=3)),
        "base_seed": draw(st.integers(min_value=0, max_value=2**31)),
    }
    if parking:
        doc["topology"] = "parking_lot"
        doc["parking_lot"] = draw(parking_sections())
    else:
        doc["scenario"] = draw(scenario_sections())
        doc["record_history"] = draw(st.booleans())
    if draw(st.booleans()):
        doc["description"] = draw(st.text(max_size=30))
    if draw(st.booleans()):
        doc["policy"] = {
            "target_rate_bps": draw(st.floats(min_value=1e6,
                                              max_value=1e7,
                                              allow_nan=False)),
            # Stay above the largest generated mix (3 groups x 4
            # flows) so compile() never hits the flow-scale-vs-
            # staggered-start guard; that path is pinned in
            # tests/test_scale_policy.py.
            "max_flows": draw(st.integers(min_value=12, max_value=64)),
        }
    if not parking and draw(st.booleans()):
        doc["grid"] = {"duration_s": draw(st.lists(
            DURATIONS, min_size=1, max_size=3))}
    if not parking and draw(st.booleans()):
        # Thresholds only: a dT override must clear Equation (2) on
        # the drawn link, which tests/test_paper_documents.py covers.
        doc["cebinae"] = {"tau": draw(st.floats(min_value=0.0,
                                                max_value=1.0))}
    return doc


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(doc=suite_documents())
    def test_parse_serialize_parse_is_identity(self, doc):
        spec = SuiteSpec.from_dict(doc, source="<prop>")
        wire = json.loads(json.dumps(spec.to_dict()))
        replayed = SuiteSpec.from_dict(wire, source="<prop2>")
        assert replayed == spec
        assert replayed.to_dict() == spec.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(doc=suite_documents())
    def test_equal_specs_equal_fingerprints(self, doc):
        first = SuiteSpec.from_dict(doc, source="<a>")
        # Reversed key order: the document's layout must not matter.
        reordered = dict(reversed(list(doc.items())))
        second = SuiteSpec.from_dict(reordered, source="<b>")
        assert first == second
        assert first.fingerprint() == second.fingerprint()

    @settings(max_examples=30, deadline=None)
    @given(doc=suite_documents())
    def test_seed_edit_changes_fingerprint(self, doc):
        spec = SuiteSpec.from_dict(doc, source="<a>")
        edited = dict(doc)
        edited["base_seed"] = doc["base_seed"] + 1
        other = SuiteSpec.from_dict(edited, source="<b>")
        assert spec.fingerprint() != other.fingerprint()

    @settings(max_examples=30, deadline=None)
    @given(doc=suite_documents())
    def test_compiled_fingerprints_are_stable(self, doc):
        # Compiling twice (fresh parses) yields the same labels and
        # run fingerprints — the cache-key contract.
        first = SuiteSpec.from_dict(doc, source="<a>").compile()
        second = SuiteSpec.from_dict(dict(doc), source="<b>").compile()
        assert [(r.label, r.fingerprint()) for r in first] == \
            [(r.label, r.fingerprint()) for r in second]


class TestParkingRoundTrip:
    def test_parking_lot_round_trips(self):
        doc = {
            "name": "pl",
            "topology": "parking_lot",
            "parking_lot": {
                "rate_bps": 5e6, "buffer_mtus": 40, "num_long": 2,
                "long_cca": "newreno",
                "cross_mix": [["vegas", 2], ["cubic", 1]],
                "duration_s": 1.0, "tau": 0.06},
        }
        spec = SuiteSpec.from_dict(doc)
        assert isinstance(spec.parking, ParkingLotSpec)
        replayed = SuiteSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert replayed == spec
        assert replayed.fingerprint() == spec.fingerprint()


class TestStrictParsing:
    def base(self):
        return {
            "name": "ok",
            "scenario": {"rate_bps": 5e6, "rtts_ms": [20.0],
                         "buffer_mtus": 60,
                         "cca_mix": [["newreno", 2]],
                         "duration_s": 1.0},
        }

    def test_unknown_top_level_key_rejected(self):
        doc = self.base()
        doc["scenarios"] = {}
        with pytest.raises(SpecError, match="unknown key"):
            SuiteSpec.from_dict(doc, source="s.json")

    def test_unknown_scenario_key_rejected(self):
        doc = self.base()
        doc["scenario"]["rtt_ms"] = 20.0
        with pytest.raises(SpecError, match="scenario.*unknown key"):
            SuiteSpec.from_dict(doc, source="s.json")

    def test_error_names_source_and_path(self):
        doc = self.base()
        doc["scenario"]["duration_s"] = "long"
        with pytest.raises(SpecError,
                           match=r"s\.json: scenario\.duration_s"):
            SuiteSpec.from_dict(doc, source="s.json")

    def test_unknown_discipline_rejected(self):
        doc = self.base()
        doc["disciplines"] = ["fifo", "wfq"]
        with pytest.raises(SpecError, match="unknown discipline"):
            SuiteSpec.from_dict(doc)

    def test_unknown_cca_carries_known_list(self):
        doc = self.base()
        doc["scenario"]["cca_mix"] = [["reno", 1]]
        with pytest.raises(SpecError, match="known: bbr"):
            SuiteSpec.from_dict(doc)

    def test_future_schema_version_rejected(self):
        doc = self.base()
        doc["schema_version"] = 99
        with pytest.raises(SpecError, match="unsupported version"):
            SuiteSpec.from_dict(doc)

    def parking_base(self):
        return {
            "name": "pl", "topology": "parking_lot",
            "parking_lot": {"rate_bps": 5e6, "buffer_mtus": 40,
                            "num_long": 1, "long_cca": "newreno",
                            "cross_mix": [["vegas", 1]],
                            "duration_s": 1.0},
        }

    def test_grid_on_parking_lot_rejected(self):
        doc = self.parking_base()
        doc["grid"] = {"duration_s": [1.0]}
        with pytest.raises(SpecError, match="not allowed"):
            SuiteSpec.from_dict(doc)

    def test_record_history_on_parking_lot_rejected(self):
        # A result holds one control-plane history and a lot has one
        # agent per segment: refused, not silently dropped.
        doc = self.parking_base()
        doc["record_history"] = True
        with pytest.raises(SpecError, match="record_history"):
            SuiteSpec.from_dict(doc)
        doc["record_history"] = False
        assert SuiteSpec.from_dict(doc).compile()

    def test_bad_faults_section_is_located(self):
        doc = self.base()
        doc["faults"] = {"loss_rate": 2.0}
        with pytest.raises(SpecError, match="faults"):
            SuiteSpec.from_dict(doc)


class TestCompilation:
    def test_grid_points_and_repeats_multiply(self):
        doc = {
            "name": "grid",
            "scenario": {"rate_bps": 5e6, "rtts_ms": [20.0],
                         "buffer_mtus": 60,
                         "cca_mix": [["newreno", 1]],
                         "duration_s": 1.0},
            "grid": {"duration_s": [1.0, 2.0],
                     "buffer_mtus": [40, 60, 80]},
            "disciplines": ["fifo", "cebinae"],
            "repeats": 2,
        }
        runs = SuiteSpec.from_dict(doc).compile()
        assert len(runs) == 2 * 3 * 2 * 2
        assert len({run.label for run in runs}) == len(runs)
        assert len({run.fingerprint() for run in runs}) == len(runs)

    def test_repeat_zero_matches_plain_seed(self):
        # Repeat 0 must reuse base_seed verbatim so one-repeat suite
        # points share cache fingerprints with the figure sweeps.
        base = {
            "name": "seeds",
            "scenario": {"rate_bps": 5e6, "rtts_ms": [20.0],
                         "buffer_mtus": 60,
                         "cca_mix": [["newreno", 1]],
                         "duration_s": 1.0},
            "disciplines": ["fifo"],
            "base_seed": 7,
        }
        single = SuiteSpec.from_dict(dict(base)).compile()
        repeated = SuiteSpec.from_dict(
            dict(base, repeats=3)).compile()
        assert single[0].runspec.seed == 7
        assert repeated[0].runspec.seed == 7
        seeds = [run.runspec.seed for run in repeated]
        assert len(set(seeds)) == 3
