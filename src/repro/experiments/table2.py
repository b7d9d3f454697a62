"""Table 2: the paper's published numbers for its 25-configuration sweep.

The rows themselves are suite documents (``paper/table2_row01.json`` …
``table2_row25.json``); this module keeps what the paper *reported* per
row — throughput, goodput and JFI for FIFO / FQ / Cebinae — so reports
can print paper-vs-measured side by side.  The reproduction target is
the shape: Cebinae's JFI should land far above FIFO's and near FQ's,
with a goodput cost bounded by the (scaled) tax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..suite.registry import paper_spec
from .runner import Discipline
from .scenarios import ScenarioSpec


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


_Numbers = Tuple[float, float, float]

#: The published (throughput Mbps, goodput Mbps, JFI) per row document,
#: for FIFO, FQ and Cebinae.
PAPER_TABLE2: Dict[str, Tuple[_Numbers, _Numbers, _Numbers]] = {
    "table2_row01": ((98.95, 95.35, 0.740), (95.62, 92.16, 0.982),
                     (95.92, 92.44, 0.999)),
    "table2_row02": ((98.96, 95.37, 0.539), (98.95, 95.37, 1.000),
                     (98.00, 94.45, 0.980)),
    "table2_row03": ((98.88, 95.29, 0.873), (98.83, 95.24, 1.000),
                     (98.88, 95.29, 0.993)),
    "table2_row04": ((98.28, 94.38, 0.446), (90.99, 87.61, 0.995),
                     (94.53, 91.02, 0.925)),
    "table2_row05": ((98.72, 95.11, 0.857), (91.45, 88.10, 0.998),
                     (95.58, 92.08, 0.960)),
    "table2_row06": ((98.90, 95.30, 0.936), (93.86, 90.45, 0.999),
                     (95.37, 91.90, 0.993)),
    "table2_row07": ((98.90, 95.30, 0.096), (98.90, 95.30, 1.000),
                     (95.47, 91.99, 0.988)),
    "table2_row08": ((98.71, 95.07, 0.093), (97.77, 94.19, 0.999),
                     (95.67, 92.16, 0.985)),
    "table2_row09": ((98.88, 95.26, 0.189), (98.74, 95.10, 0.966),
                     (97.45, 93.88, 0.976)),
    "table2_row10": ((98.87, 95.27, 0.510), (98.02, 94.45, 0.991),
                     (96.52, 93.00, 0.973)),
    "table2_row11": ((989.8, 954.0, 0.844), (989.8, 954.0, 0.988),
                     (985.4, 949.7, 0.955)),
    "table2_row12": ((989.8, 954.0, 0.048), (989.8, 954.0, 0.966),
                     (968.0, 932.9, 0.953)),
    "table2_row13": ((989.8, 953.6, 0.275), (989.8, 953.6, 0.833),
                     (949.2, 914.1, 0.846)),
    "table2_row14": ((988.7, 952.7, 0.992), (923.6, 890.0, 0.975),
                     (981.6, 945.8, 0.990)),
    "table2_row15": ((988.9, 952.8, 0.951), (953.9, 919.2, 0.963),
                     (979.9, 944.2, 0.981)),
    "table2_row16": ((988.8, 952.7, 0.773), (953.9, 919.2, 0.963),
                     (963.8, 928.7, 0.936)),
    "table2_row17": ((986.9, 950.7, 0.884), (938.2, 903.9, 0.968),
                     (956.3, 921.1, 0.967)),
    "table2_row18": ((989.8, 953.8, 0.042), (989.8, 954.0, 0.967),
                     (976.2, 940.7, 0.976)),
    "table2_row19": ((986.9, 950.8, 0.946), (917.6, 884.1, 0.970),
                     (957.3, 922.2, 0.971)),
    "table2_row20": ((988.4, 952.4, 0.956), (941.1, 906.8, 0.970),
                     (959.8, 924.7, 0.964)),
    "table2_row21": ((987.0, 950.8, 0.921), (936.1, 901.8, 0.968),
                     (964.4, 929.0, 0.969)),
    "table2_row22": ((989.8, 954.0, 0.886), (989.8, 954.0, 0.965),
                     (987.3, 951.5, 0.985)),
    "table2_row23": ((985.1, 944.9, 0.799), (960.3, 924.9, 0.999),
                     (952.6, 911.3, 0.946)),
    "table2_row24": ((9876, 9514, 0.917), (9705, 9352, 0.969),
                     (9780, 9420, 0.968)),
    "table2_row25": ((9891, 9532, 0.863), (9856, 9498, 0.942),
                     (9787, 9432, 0.952)),
}


def _row(name: str) -> Table2Row:
    scenario = paper_spec(name).scenario
    assert scenario is not None
    fifo, fq, cebinae = PAPER_TABLE2[name]
    return Table2Row(spec=scenario, fifo=PaperNumbers(*fifo),
                     fq=PaperNumbers(*fq), cebinae=PaperNumbers(*cebinae))


#: The full Table 2: each row's document scenario and published numbers.
TABLE2_ROWS: List[Table2Row] = [_row(name) for name in PAPER_TABLE2]

#: Rows by scenario name: how a report finds the published numbers for
#: a scenario it was handed.
TABLE2_BY_NAME = {row.spec.name: row for row in TABLE2_ROWS}
