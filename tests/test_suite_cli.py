"""Registry hygiene and the ``cebinae-repro suite`` command.

Exercises the directory loader's identity rules (file stem == spec
name, no duplicates, YAML refused) and the CLI end to end in a tmp
directory: --list, plain runs, --update-golden, --golden agreement,
mismatch exit codes, and the JSON mismatch artifact.
"""

import json
import re

import pytest

from repro.suite import SpecError, SuiteRegistry, load_spec_file
from repro.suite.cli import main as suite_main

TINY_DOC = {
    "schema_version": 1,
    "name": "tiny",
    "scenario": {
        "rate_bps": 100e6,
        "rtts_ms": [20.0],
        "buffer_mtus": 60,
        "cca_mix": [["newreno", 2]],
        "duration_s": 0.5,
    },
    "policy": {"target_rate_bps": 5e6, "max_rate_bps": 5e6},
    "disciplines": ["fifo"],
}


def write_spec(directory, name, **overrides):
    doc = json.loads(json.dumps(TINY_DOC))
    doc["name"] = name
    doc.update(overrides)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


class TestRegistry:
    def test_stem_must_match_spec_name(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(TINY_DOC), encoding="utf-8")
        with pytest.raises(SpecError, match="must match the file stem"):
            load_spec_file(path)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text("x = 1", encoding="utf-8")
        with pytest.raises(SpecError, match="unrecognised spec "
                                            "extension"):
            load_spec_file(path)

    def test_unparseable_json_is_a_spec_error(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError, match="not parseable"):
            load_spec_file(path)

    def test_yaml_gated_with_clear_error(self, tmp_path):
        # Refused by name, directly and from a directory: a YAML spec
        # that was skipped would pass its golden check unrun.
        write_spec(tmp_path, "tiny")
        for name in ("other.yaml", "other.yml"):
            path = tmp_path / name
            path.write_text("name: other\n", encoding="utf-8")
            for load in (lambda: load_spec_file(path),
                         lambda: SuiteRegistry.from_directory(tmp_path)):
                with pytest.raises(SpecError,
                                   match="suite documents are JSON") as err:
                    load()
                assert name in str(err.value)
            path.unlink()

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="no spec files"):
            SuiteRegistry.from_directory(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="not a suite directory"):
            SuiteRegistry.from_directory(tmp_path / "nope")

    def test_iteration_sorted_by_name(self, tmp_path):
        write_spec(tmp_path, "zeta")
        write_spec(tmp_path, "alpha")
        registry = SuiteRegistry.from_directory(tmp_path)
        assert registry.names == ["alpha", "zeta"]
        assert "alpha" in registry
        assert registry.get("alpha").name == "alpha"
        with pytest.raises(SpecError, match="unknown suite spec"):
            registry.get("missing")
        with pytest.raises(SpecError, match="duplicate suite spec"):
            SuiteRegistry(list(registry) * 2)


class TestSuiteCli:
    @pytest.fixture()
    def suite_dir(self, tmp_path):
        directory = tmp_path / "suite"
        directory.mkdir()
        write_spec(directory, "tiny")
        return directory

    def test_list_prints_without_simulating(self, suite_dir, capsys):
        assert suite_main([str(suite_dir), "--list"]) == 0
        out = capsys.readouterr().out
        assert "tiny: dumbbell, 1 run(s)" in out
        assert "tiny/fifo" in out

    @pytest.mark.parametrize("workers", ["0", "-3", "two", "²"])
    def test_bad_workers_is_a_usage_error(self, suite_dir, capsys,
                                          workers):
        with pytest.raises(SystemExit, match="2"):
            suite_main([str(suite_dir), "--workers", workers])
        assert "argument --workers: must be an integer of at least 1" \
            in capsys.readouterr().err.strip().splitlines()[-1]

    def test_bad_spec_exits_2(self, suite_dir, capsys):
        (suite_dir / "bad.json").write_text(
            json.dumps({"name": "bad"}), encoding="utf-8")
        assert suite_main([str(suite_dir), "--list"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("rtts_ms", [float("inf")], r"scenario\.rtts_ms\[0\]"),
        ("duration_s", float("inf"), r"scenario\.duration_s"),
        ("rate_bps", float("inf"), r"scenario\.rate_bps"),
        ("rate_bps", float("-inf"), r"scenario\.rate_bps"),
    ])
    def test_non_finite_number_exits_2_naming_its_path(
            self, suite_dir, capsys, key, value, path):
        # json.dumps writes Infinity / -Infinity, which json.load reads
        # back: the parser, not the JSON layer, must refuse them.
        scenario = dict(TINY_DOC["scenario"], **{key: value})
        write_spec(suite_dir, "tiny", scenario=scenario)
        assert suite_main([str(suite_dir), "--list"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(rf"tiny\.json: {path}: expected a finite "
                         rf"number", err), err

    def test_golden_roundtrip_and_mismatch(self, suite_dir, tmp_path,
                                           capsys):
        golden = tmp_path / "golden"
        cache = tmp_path / "cache"
        assert suite_main([str(suite_dir), "--update-golden",
                           str(golden)]) == 0
        assert (golden / "tiny.json").exists()

        # Fresh run against the goldens we just wrote: conformant.
        assert suite_main([str(suite_dir), "--golden", str(golden),
                           "--cache-dir", str(cache)]) == 0
        assert "golden conformance: all 1 spec(s) ok" in \
            capsys.readouterr().out

        # Corrupt one digest: exit 1 and a mismatch artifact naming it.
        doc = json.loads((golden / "tiny.json").read_text())
        label = sorted(doc["runs"])[0]
        doc["runs"][label]["result_sha256"] = "0" * 64
        (golden / "tiny.json").write_text(json.dumps(doc),
                                         encoding="utf-8")
        artifact = tmp_path / "mismatches.json"
        assert suite_main([str(suite_dir), "--golden", str(golden),
                           "--cache-dir", str(cache),
                           "--mismatch-out", str(artifact)]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "result_sha256" in captured.err
        report = json.loads(artifact.read_text())
        assert report["mismatches"]
        assert report["specs"]["tiny"]["mismatches"]

    def test_stale_spec_reported_as_fingerprint_drift(self, suite_dir,
                                                      tmp_path, capsys):
        golden = tmp_path / "golden"
        assert suite_main([str(suite_dir), "--update-golden",
                           str(golden)]) == 0
        # Edit the spec after goldens were cut: the check must call
        # out staleness (spec fingerprint) rather than a digest diff.
        write_spec(suite_dir, "tiny", base_seed=3)
        assert suite_main([str(suite_dir), "--golden", str(golden),
                           "--no-cache"]) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_missing_golden_suggests_update(self, suite_dir, tmp_path,
                                            capsys):
        golden = tmp_path / "empty-golden"
        golden.mkdir()
        assert suite_main([str(suite_dir), "--golden", str(golden),
                           "--no-cache"]) == 1
        assert "--update-golden" in capsys.readouterr().err

    def test_cache_reused_across_runs(self, suite_dir, tmp_path):
        cache = tmp_path / "cache"
        assert suite_main([str(suite_dir), "--cache-dir",
                           str(cache)]) == 0
        cached = list(cache.rglob("*.json"))
        assert cached
        # Second run hits the cache (same fingerprints, no rewrites).
        mtimes = {path: path.stat().st_mtime_ns for path in cached}
        assert suite_main([str(suite_dir), "--cache-dir",
                           str(cache)]) == 0
        assert {path: path.stat().st_mtime_ns
                for path in cached} == mtimes
