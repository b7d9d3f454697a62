"""The fidelity judge on hand-built runs, the integrity of its target
table, and the committed ``FIDELITY_<n>.json`` documents."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments import cli, fidelity
from repro.experiments.fidelity import (FIFO, TARGETS, TOLERANCE, TWO,
                                        judge, per, shape, value)
from repro.experiments.figures import PAPER_JFI
from repro.experiments.report import mean_half_width
from repro.experiments.table2 import TABLE2_BY_NAME
from repro.suite.registry import paper_names, paper_spec
from tests.test_reports_cli import three_way

ROOT = Path(__file__).resolve().parent.parent
POINT = "table2_row01"
#: Five repeats whose JFIs all differ (see ``three_way``).
RUNS = {POINT: three_way(POINT, 5)}
FIFO_MEAN, FIFO_HALF = mean_half_width(
    [run.jfi for run in RUNS[POINT].runs[FIFO]])


class TestJudge:
    @pytest.mark.parametrize("offset, expected", [
        (0.0, "hit"),
        (TOLERANCE + FIFO_HALF + 0.01, "miss"),
        # Outside the bare tolerance, inside tolerance + half-width.
        (-TOLERANCE - FIFO_HALF / 2, "hit")])
    def test_value_target(self, offset, expected):
        record = judge(value(POINT, FIFO, FIFO_MEAN + offset), RUNS)
        assert record["verdict"] == expected
        assert record["samples"]["fifo"] == [
            run.jfi for run in RUNS[POINT].runs[FIFO]]
        assert record["half_width"]["fifo"] == FIFO_HALF > 0.02

    def test_one_seed_has_no_half_width_to_spare(self):
        one_seed = {POINT: three_way(POINT, 1)}
        only = one_seed[POINT].runs[FIFO][0].jfi
        paper = only - TOLERANCE - FIFO_HALF / 2
        assert judge(value(POINT, FIFO, paper), one_seed)["verdict"] \
            == "miss"

    @pytest.mark.parametrize("holds, expected", [
        (lambda m: m["fifo"] > m["cebinae"], "hit"),
        (lambda m: m["cebinae"] > m["fifo"], "miss")])
    def test_shape_target_is_a_predicate_on_means(self, holds, expected):
        record = judge(shape("order", [POINT], per(POINT, TWO), "", holds),
                       RUNS)
        assert record["verdict"] == expected
        assert {key: len(samples) for key, samples
                in record["samples"].items()} == {"fifo": 5, "cebinae": 5}


def compiled_scaled(point):
    """The scaled scenario of a document point (``figure9#p0``)."""
    return next(run.runspec.scaled
                for run in paper_spec(point.split("#")[0]).compile()
                if run.runspec.scaled.spec.name == point)


class TestTargetTable:
    def test_names_are_unique(self):
        names = [target.name for target in TARGETS]
        assert len(set(names)) == len(names)

    def test_every_point_is_its_documents_named_point(self):
        for target in TARGETS:
            for point in target.points:
                assert point.split("#")[0] in paper_names(), target.name
                assert compiled_scaled(point), target.name
        for rtt, point in fidelity.FIGURE9.items():
            assert compiled_scaled(point).spec.rtts_ms == (256.0, rtt)
        for rtt, point in fidelity.SCALABILITY.items():
            assert compiled_scaled(point).spec.rtts_ms == (rtt,)
        for tau, point in fidelity.FIGURE12_TAU.items():
            assert f"{compiled_scaled(point).cebinae.tau:.0%}" == tau

    def test_value_targets_read_the_paper(self):
        values = [target for target in TARGETS if target.paper is not None]
        assert len(values) == 3 * 7 + 2 * 4
        for target in values:
            point, = target.points
            paper = (TABLE2_BY_NAME[point].paper(target.discipline).jfi
                     if point in TABLE2_BY_NAME
                     else PAPER_JFI[point][target.discipline])
            assert target.paper == paper, target.name

    def test_judged_points_are_every_repeat_of_what_targets_read(self):
        seeds = {}
        for spec in fidelity.judged_points():
            seeds.setdefault((spec.scaled.spec.name, spec.discipline),
                             []).append(spec.seed)
        assert {name for name, _ in seeds} == \
            {point for target in TARGETS for point in target.points}
        assert {len(found) for found in seeds.values()} == \
            {fidelity.REPEATS}
        # Repeat 0 is the document's own seed: today's cache replays.
        assert all(found[0] == 0 for found in seeds.values())


def committed():
    """The root ``FIDELITY_<n>.json`` documents, oldest first."""
    paths = sorted((path for path in ROOT.glob("FIDELITY_*.json")
                    if re.fullmatch(r"FIDELITY_\d+\.json", path.name)),
                   key=lambda path: int(path.stem.split("_")[1]))
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in paths]


class TestCommittedDocuments:
    def test_newest_names_exactly_the_targets(self):
        newest = committed()[-1]
        assert [record["name"] for record in newest["targets"]] == \
            [target.name for target in TARGETS]
        assert (newest["repeats"], newest["tolerance"]) == \
            (fidelity.REPEATS, TOLERANCE)

    def test_no_target_goes_from_hit_to_miss(self):
        documents = committed()
        if len(documents) < 2:
            pytest.skip("one committed fidelity document")
        was = {record["name"]: record["verdict"]
               for record in documents[-2]["targets"]}
        assert not [record["name"] for record in documents[-1]["targets"]
                    if was.get(record["name"]) == "hit"
                    and record["verdict"] == "miss"]

    def test_table2_repeat0_is_what_the_report_printed(self):
        log = (ROOT / "results_table2.log").read_text(encoding="utf-8")
        printed = {(row, disc): float(jfi) for row, disc, jfi in
                   re.findall(r"(table2_row\d+)\s+(\w+): JFI ([0-9.]+)",
                              log)}
        checked = 0
        for record in committed()[-1]["targets"]:
            point, *rest = record["name"].split()
            if point.startswith("table2_") and rest[-1] == "jfi":
                assert round(record["samples"][rest[0]][0], 3) == \
                    printed[point, rest[0]], record["name"]
                checked += 1
        assert checked == 3 * 7


def test_cli_prints_one_line_per_target_and_writes_out(tmp_path,
                                                       monkeypatch,
                                                       capsys):
    targets = (value(POINT, FIFO, 0.5), shape(
        "order", [POINT], per(POINT, TWO), "fifo > cebinae",
        lambda m: m["fifo"] > m["cebinae"]))
    monkeypatch.setattr(fidelity, "fidelity", lambda **pool: {
        "targets": [judge(target, RUNS) for target in targets],
        "calibrated": fidelity.CALIBRATED, "hits": 1, "misses": 1,
        "repeats": 5})
    out = tmp_path / "fidelity.json"
    assert cli.main(["fidelity", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(rf"{POINT} fifo jfi: fifo \S+ ± \S+  \[.*\]  MISS",
                        lines[1])
    assert lines[2].startswith("order: fifo ")
    assert lines[2].endswith("[fifo > cebinae]  hit")
    assert lines[3].startswith("table3: calibrated")
    document = json.loads(out.read_text(encoding="utf-8"))
    assert [record["verdict"] for record in document["targets"]] == \
        ["miss", "hit"]
    assert document["wall_s"] >= 0
