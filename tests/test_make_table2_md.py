"""``tools/make_table2_md.py``: EXPERIMENTS.md's Table 2 body, generated
from the report lines of ``results_table2.log``."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def table(log, capsys):
    """The tool's table body on ``log``, as rows of cells."""
    spec = importlib.util.spec_from_file_location(
        "make_table2_md", ROOT / "tools" / "make_table2_md.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(str(log))
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in capsys.readouterr().out.splitlines()[2:]]


def test_committed_log_gives_every_row_with_its_jfis(capsys):
    log = ROOT / "results_table2.log"
    printed = {(int(row), disc): f"{jfi} ({paper})" for row, disc, jfi, paper
               in re.findall(r"table2_row(\d+)\s+(\w+): JFI ([0-9.]+) "
                             r"\(paper ([0-9.]+)\)",
                             log.read_text(encoding="utf-8"))}
    rows = table(log, capsys)
    assert [int(row[0]) for row in rows] == list(range(1, 26))
    assert len(printed) == 75
    assert {(int(row[0]), disc): cell for row in rows
            for disc, cell in zip(("fifo", "fq", "cebinae"), row[2:5])} \
        == printed


def test_half_width_is_carried_into_its_cell(tmp_path, capsys):
    log = tmp_path / "results_table2.log"
    log.write_text(
        "table2_row02    fifo: JFI 0.943 ± 0.012 (paper 0.539)  goodput "
        "24.1 Mbps of 25 (paper 95 of 100)\n", encoding="utf-8")
    rows = table(log, capsys)
    assert rows[1][2] == "0.943 ± 0.012 (0.539)"
    assert rows[1][3] == rows[0][2] == "—"
