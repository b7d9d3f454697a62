"""Table 2: the 25-configuration sweep.

Each row carries the paper's configuration *and* its reported numbers
(throughput, goodput, JFI for FIFO / FQ / Cebinae) so reports can print
paper-vs-measured side by side.  The reproduction target is the shape:
Cebinae's JFI should land far above FIFO's and near FQ's, with a
goodput cost bounded by the (scaled) tax.  :func:`table2` declares the
points; it runs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .parallel import RunSpec, grid
from .runner import Discipline
from .scenarios import DEFAULT_POLICY, ScalePolicy, ScenarioSpec


@dataclass(frozen=True)
class PaperNumbers:
    """One discipline's reported (throughput, goodput, JFI) in a row."""

    throughput_mbps: float
    goodput_mbps: float
    jfi: float


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 with the paper's published results."""

    spec: ScenarioSpec
    fifo: PaperNumbers
    fq: PaperNumbers
    cebinae: PaperNumbers

    def paper(self, discipline: Discipline) -> PaperNumbers:
        return {Discipline.FIFO: self.fifo, Discipline.FQ: self.fq,
                Discipline.CEBINAE: self.cebinae}[discipline]


def _row(index: int, rate_mbps: float, rtts: Tuple[float, ...],
         buf: int, mix: Tuple[Tuple[str, int], ...],
         fifo: Tuple[float, float, float],
         fq: Tuple[float, float, float],
         ceb: Tuple[float, float, float]) -> Table2Row:
    spec = ScenarioSpec(name=f"table2_row{index:02d}",
                        rate_bps=rate_mbps * 1e6,
                        rtts_ms=rtts, buffer_mtus=buf, cca_mix=mix)
    return Table2Row(spec=spec,
                     fifo=PaperNumbers(*fifo),
                     fq=PaperNumbers(*fq),
                     cebinae=PaperNumbers(*ceb))


#: The full Table 2 as published (throughput Mbps, goodput Mbps, JFI).
TABLE2_ROWS: List[Table2Row] = [
    _row(1, 100, (20.8, 28), 250,
         (("newreno", 2), ("newreno", 8)),
         (98.95, 95.35, 0.740), (95.62, 92.16, 0.982),
         (95.92, 92.44, 0.999)),
    _row(2, 100, (20.4, 40), 350,
         (("cubic", 8), ("cubic", 2)),
         (98.96, 95.37, 0.539), (98.95, 95.37, 1.000),
         (98.00, 94.45, 0.980)),
    _row(3, 100, (20.4, 60), 500,
         (("vegas", 2), ("vegas", 8)),
         (98.88, 95.29, 0.873), (98.83, 95.24, 1.000),
         (98.88, 95.29, 0.993)),
    _row(4, 100, (200,), 1700,
         (("newreno", 16), ("cubic", 1)),
         (98.28, 94.38, 0.446), (90.99, 87.61, 0.995),
         (94.53, 91.02, 0.925)),
    _row(5, 100, (100,), 850,
         (("newreno", 16), ("cubic", 1)),
         (98.72, 95.11, 0.857), (91.45, 88.10, 0.998),
         (95.58, 92.08, 0.960)),
    _row(6, 100, (50,), 420,
         (("newreno", 16), ("cubic", 1)),
         (98.90, 95.30, 0.936), (93.86, 90.45, 0.999),
         (95.37, 91.90, 0.993)),
    _row(7, 100, (50,), 420,
         (("vegas", 16), ("cubic", 1)),
         (98.90, 95.30, 0.096), (98.90, 95.30, 1.000),
         (95.47, 91.99, 0.988)),
    _row(8, 100, (100,), 850,
         (("vegas", 16), ("newreno", 1)),
         (98.71, 95.07, 0.093), (97.77, 94.19, 0.999),
         (95.67, 92.16, 0.985)),
    _row(9, 100, (100,), 850,
         (("vegas", 128), ("newreno", 1)),
         (98.88, 95.26, 0.189), (98.74, 95.10, 0.966),
         (97.45, 93.88, 0.976)),
    _row(10, 100, (60,), 500,
         (("vegas", 8), ("newreno", 8), ("cubic", 2)),
         (98.87, 95.27, 0.510), (98.02, 94.45, 0.991),
         (96.52, 93.00, 0.973)),
    _row(11, 1000, (5,), 420,
         (("newreno", 32), ("cubic", 8)),
         (989.8, 954.0, 0.844), (989.8, 954.0, 0.988),
         (985.4, 949.7, 0.955)),
    _row(12, 1000, (10,), 850,
         (("vegas", 128), ("cubic", 1)),
         (989.8, 954.0, 0.048), (989.8, 954.0, 0.966),
         (968.0, 932.9, 0.953)),
    _row(13, 1000, (10,), 850,
         (("vegas", 1024), ("cubic", 2)),
         (989.8, 953.6, 0.275), (989.8, 953.6, 0.833),
         (949.2, 914.1, 0.846)),
    _row(14, 1000, (50,), 4200,
         (("newreno", 128), ("bbr", 1)),
         (988.7, 952.7, 0.992), (923.6, 890.0, 0.975),
         (981.6, 945.8, 0.990)),
    _row(15, 1000, (50,), 4200,
         (("newreno", 128), ("bbr", 2)),
         (988.9, 952.8, 0.951), (953.9, 919.2, 0.963),
         (979.9, 944.2, 0.981)),
    _row(16, 1000, (50,), 21000,
         (("newreno", 128), ("bbr", 2)),
         (988.8, 952.7, 0.773), (953.9, 919.2, 0.963),
         (963.8, 928.7, 0.936)),
    _row(17, 1000, (100,), 8350,
         (("newreno", 128), ("bbr", 2)),
         (986.9, 950.7, 0.884), (938.2, 903.9, 0.968),
         (956.3, 921.1, 0.967)),
    _row(18, 1000, (10,), 850,
         (("vegas", 64), ("newreno", 1)),
         (989.8, 953.8, 0.042), (989.8, 954.0, 0.967),
         (976.2, 940.7, 0.976)),
    _row(19, 1000, (100,), 8500,
         (("vegas", 4), ("newreno", 128)),
         (986.9, 950.8, 0.946), (917.6, 884.1, 0.970),
         (957.3, 922.2, 0.971)),
    _row(20, 1000, (100, 64), 8500,
         (("vegas", 4), ("newreno", 128)),
         (988.4, 952.4, 0.956), (941.1, 906.8, 0.970),
         (959.8, 924.7, 0.964)),
    _row(21, 1000, (100,), 8500,
         (("vegas", 8), ("newreno", 128)),
         (987.0, 950.8, 0.921), (936.1, 901.8, 0.968),
         (964.4, 929.0, 0.969)),
    _row(22, 1000, (10,), 850,
         (("vegas", 128), ("bbr", 1)),
         (989.8, 954.0, 0.886), (989.8, 954.0, 0.965),
         (987.3, 951.5, 0.985)),
    _row(23, 1000, (100,), 8500,
         (("bic", 2), ("cubic", 32)),
         (985.1, 944.9, 0.799), (960.3, 924.9, 0.999),
         (952.6, 911.3, 0.946)),
    _row(24, 10000, (50, 44), 41667,
         (("newreno", 128), ("cubic", 16)),
         (9876, 9514, 0.917), (9705, 9352, 0.969),
         (9780, 9420, 0.968)),
    _row(25, 10000, (28, 28), 25000,
         (("newreno", 128), ("cubic", 128)),
         (9891, 9532, 0.863), (9856, 9498, 0.942),
         (9787, 9432, 0.952)),
]


#: Rows by scenario name: how a report finds the published numbers for
#: a scenario it was handed.
TABLE2_BY_NAME = {row.spec.name: row for row in TABLE2_ROWS}


def table2(rows: Optional[Sequence[Table2Row]] = None,
           policy: ScalePolicy = DEFAULT_POLICY,
           duration_s: Optional[float] = None) -> List[RunSpec]:
    """The (row x discipline) grid of (a subset of) Table 2: up to 75
    independent points, three disciplines per row."""
    selected = TABLE2_ROWS if rows is None else rows
    return grid([policy.apply(row.spec, duration_s=duration_s)
                 for row in selected])
