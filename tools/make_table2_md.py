#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md's Table 2 rows from results_table2.log.

Usage: python tools/make_table2_md.py [results_table2.log]

Parses the CLI harness's per-row summary lines and emits the markdown
table body with measured (paper) JFI triplets, so the document never
contains hand-copied numbers.  A replicated row's ``mean ± half-width``
JFI is carried over as printed.
"""

import re
import sys

from repro.experiments.table2 import TABLE2_ROWS
from repro.experiments.runner import Discipline

LINE = re.compile(
    r"table2_row(\d+)\s+(fifo|fq|cebinae): "
    r"JFI ([0-9.]+)(?: ± ([0-9.]+))? "
    r"\(paper ([0-9.]+)\)\s+goodput ([0-9.]+) Mbps of ([0-9.]+)")

NOTES = {
    4: "long-RTT row",
    7: "**headline: starvation repaired**",
    8: "**headline** (Figure 7)",
    9: "flow-scaled 129→N",
    12: "flow-scaled",
    13: "flow-scaled 1026→N; degenerate at scale",
    16: "deep-buffer BBR row",
    20: "(Figure 8b config)",
    24: "flow-scaled",
    25: "flow-scaled",
}


def main(path="results_table2.log"):
    measured = {}
    goodputs = {}
    for line in open(path):
        match = LINE.search(line)
        if not match:
            continue
        row, disc, jfi, half_width, paper, goodput, rate = match.groups()
        spread = f" ± {half_width}" if half_width else ""
        measured[(int(row), disc)] = (float(jfi), spread, float(paper))
        goodputs[(int(row), disc)] = (float(goodput), float(rate))
    print("| row | config (paper) | JFI FIFO | JFI FQ | JFI Cebinae "
          "| goodput ceb/fifo | notes |")
    print("|---|---|---|---|---|---|---|")
    for index, row in enumerate(TABLE2_ROWS, start=1):
        spec = row.spec
        mix = " + ".join(f"{cca.capitalize()} {count}"
                         for cca, count in spec.cca_mix)
        rtt = "/".join(f"{r:g}" for r in spec.rtts_ms)
        config = (f"{spec.rate_bps / 1e6:.0f}M, {mix}, RTT {rtt}, "
                  f"buf {spec.buffer_mtus}")
        cells = []
        for disc in ("fifo", "fq", "cebinae"):
            if (index, disc) in measured:
                jfi, spread, paper = measured[(index, disc)]
                cells.append(f"{jfi:.3f}{spread} ({paper:.3f})")
            else:
                cells.append("—")
        ratio = "—"
        if (index, "cebinae") in goodputs and (index, "fifo") in goodputs:
            ceb = goodputs[(index, "cebinae")][0]
            fifo = goodputs[(index, "fifo")][0]
            if fifo > 0:
                ratio = f"{ceb / fifo:.3f}"
        note = NOTES.get(index, "")
        print(f"| {index} | {config} | {cells[0]} | {cells[1]} | "
              f"{cells[2]} | {ratio} | {note} |")


if __name__ == "__main__":
    main(*sys.argv[1:])
