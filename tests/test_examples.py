"""Smoke tests: every example script runs end to end (shortened)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, patches, monkeypatch, capsys):
    """Execute an example with its duration constants shrunk."""
    path = EXAMPLES_DIR / name
    source = path.read_text()
    for old, new in patches.items():
        assert old in source, f"{name}: expected {old!r}"
        source = source.replace(old, new)
    namespace = {"__name__": "__main__"}
    code = compile(source, str(path), "exec")
    exec(code, namespace)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example("quickstart.py",
                          {"DURATION_S = 40.0": "DURATION_S = 4.0"},
                          monkeypatch, capsys)
        assert "FIFO drop-tail" in out and "Cebinae" in out
        assert "JFI" in out

    def test_vegas_starvation(self, monkeypatch, capsys):
        out = run_example(
            "vegas_starvation.py",
            {"DURATION_S = 60.0": "DURATION_S = 3.0",
             "BOTTLENECK_BPS = 50e6": "BOTTLENECK_BPS = 15e6",
             "BUFFER_MTUS = 425": "BUFFER_MTUS = 120"},
            monkeypatch, capsys)
        assert "16x Vegas" in out

    def test_bbr_aggression(self, monkeypatch, capsys):
        out = run_example("bbr_aggression.py",
                          {"DURATION_S = 40.0": "DURATION_S = 4.0"},
                          monkeypatch, capsys)
        assert "BBR" in out and "fair share" in out

    def test_multi_bottleneck(self, monkeypatch, capsys):
        out = run_example(
            "multi_bottleneck.py",
            {"DURATION_S = 40.0": "DURATION_S = 4.0"},
            monkeypatch, capsys)
        assert "normalised JFI" in out
        assert "ideal" in out

    def test_heavy_hitter_detection(self, monkeypatch, capsys):
        out = run_example(
            "heavy_hitter_detection.py",
            {"trials=3": "trials=1",
             "trace_duration_s=0.3": "trace_duration_s=0.05",
             "flows_per_minute=400_000": "flows_per_minute=100_000"},
            monkeypatch, capsys)
        assert "FPR" in out and "FNR" in out

    def test_extensions_demo(self, monkeypatch, capsys):
        out = run_example("extensions_demo.py",
                          {"DURATION_S = 40.0": "DURATION_S = 4.0"},
                          monkeypatch, capsys)
        assert "per-flow" in out and "adaptive" in out
