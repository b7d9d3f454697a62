"""The fidelity judge, ``cebinae-repro fidelity``: each :class:`Target`
is one claim of the paper's evaluation (section 5) about points of its
suite documents, judged from :data:`REPEATS` seeds per point (repeat 0
at the document's ``base_seed``, so a warm cache replays) run through
``run_grid``.  A *value* target hits iff ``|mean - paper| <= TOLERANCE
+ half-width`` (``report.mean_half_width``; the paper's number read
from ``table2.PAPER_TABLE2`` or ``figures.PAPER_JFI``); a *shape*
target is a predicate on the means.  A ``tracked`` target is a known
miss, kept so it is reported as it lands.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import statistics
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..heavyhitter.evaluation import DetectionResult
from ..suite.registry import paper_spec
from .cli import figure13_results
from .figures import PAPER_JFI, parking_lot_ideal
from .parallel import Comparison, RunSpec, run_grid
from .report import mean_half_width, parking_lot_jfi
from .runner import Discipline, ScenarioResult
from .table2 import TABLE2_BY_NAME

#: Seeds per point; a value target's tolerance, before the half-width.
REPEATS, TOLERANCE = 5, 0.05

#: What is reproduced by construction, so it has no verdict.
CALIBRATED = {"table3": "core.resource_model reproduces its rows by "
                        "construction (tests/test_resource_model.py)"}

FIFO, FQ = Discipline.FIFO, Discipline.FQ
CEBINAE, AFQ = Discipline.CEBINAE, Discipline.AFQ
TWO, THREE = (FIFO, CEBINAE), (FIFO, FQ, CEBINAE)

Quantities = Dict[str, float]


@dataclass(frozen=True)
class Repeat:
    """One seed's runs: ``rep(point, discipline)`` is that point's
    result under this seed; ``figure13`` is the detection grid's."""

    comparisons: Mapping[str, Comparison]
    index: int
    figure13: Sequence[DetectionResult] = ()

    def __call__(self, point: str, discipline: Discipline) -> ScenarioResult:
        return self.comparisons[point].runs[discipline][self.index]


@dataclass(frozen=True)
class Target:
    """One claim: ``measure`` maps one seed's runs to named quantities,
    ``holds`` judges their means and half-widths.  ``points`` are what
    it reads (``figure9#p0`` is a grid point; none: Figure 13's one
    trial).  A value target keeps its ``discipline`` and ``paper``."""

    name: str
    points: Tuple[str, ...]
    measure: Callable[[Repeat], Quantities]
    criterion: str
    holds: Callable[[Quantities, Quantities], bool]
    tracked: bool = False
    discipline: Optional[Discipline] = None
    paper: Optional[float] = None


def value(point: str, discipline: Discipline, paper: float,
          measure: Optional[Callable[[Repeat], float]] = None,
          metric: str = "jfi", tracked: bool = False) -> Target:
    """``paper`` against ``point``'s per-seed ``metric`` (its JFI
    unless ``measure`` says otherwise) under ``discipline``."""
    per_seed = measure or (lambda rep: rep(point, discipline).jfi)
    key = discipline.value
    return Target(
        f"{point} {key} {metric}", (point,),
        lambda rep: {key: per_seed(rep)},
        f"|mean - {paper:.3f}| <= {TOLERANCE} + half-width",
        lambda mean, half: abs(mean[key] - paper) <= TOLERANCE + half[key],
        tracked, discipline, paper)


def shape(name: str, points: Sequence[str],
          measure: Callable[[Repeat], Quantities], criterion: str,
          holds: Callable[[Quantities], bool],
          tracked: bool = False) -> Target:
    """A predicate ``holds`` on the means of ``measure``'s quantities."""
    return Target(name, tuple(points), measure, criterion,
                  lambda mean, _: holds(mean), tracked)


OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def compare(name: str, points: Sequence[str],
            measure: Callable[[Repeat], Quantities], a: str, op: str,
            b: str, times: float = 1.0, plus: float = 0.0,
            tracked: bool = False) -> Target:
    """Shape: the mean of ``a`` ``op`` ``times`` x ``b``'s + ``plus``."""
    scale = f"{times:g} x " if times != 1 else ""
    offset = f" {'-' if plus < 0 else '+'} {abs(plus):g}" if plus else ""
    return shape(name, points, measure, f"{a} {op} {scale}{b}{offset}",
                 lambda m: OPS[op](m[a], times * m[b] + plus), tracked)


def above(name: str, points: Sequence[str],
          measure: Callable[[Repeat], Quantities],
          bound: float) -> Target:
    """Shape: every quantity's mean above ``bound``."""
    return shape(name, points, measure, f"each > {bound:g}",
                 lambda m: min(m.values()) > bound)


def per(point: str, disciplines: Sequence[Discipline],
        metric: Callable[[ScenarioResult], float] = lambda run: run.jfi
        ) -> Callable[[Repeat], Quantities]:
    """``metric`` of ``point`` under each discipline, keyed by name."""
    return lambda rep: {d.value: metric(rep(point, d))
                        for d in disciplines}


def link_share(run: ScenarioResult) -> float:
    """Goodput as a fraction of the (scaled) bottleneck rate."""
    return run.total_goodput_bps / run.sim_rate_bps


def mbps(run: ScenarioResult) -> float:
    return run.total_goodput_bps / 1e6


#: Table 2's judged rows (1-based); the rows whose headline is a large
#: lift over FIFO; the rows whose every value is a tracked miss.
TABLE2_JUDGED = (1, 2, 7, 8, 10, 16, 23)
TABLE2_LIFTED = (7, 8, 23)
TABLE2_TRACKED = (2, 16)


def _table2(row: int) -> List[Target]:
    p = f"table2_row{row:02d}"
    targets = [value(p, d, TABLE2_BY_NAME[p].paper(d).jfi,
                     tracked=d is FIFO or row in TABLE2_TRACKED)
               for d in THREE]
    targets.append(shape(
        f"{p} order", [p], per(p, THREE), "fifo <= cebinae <= fq + 0.05",
        lambda m: m["fifo"] <= m["cebinae"] <= m["fq"] + 0.05))
    if row in TABLE2_LIFTED:
        targets.append(compare(f"{p} lift", [p], per(p, TWO), "cebinae",
                               ">=", "fifo", plus=0.2))
    return targets + [shape(
        f"{p} goodput", [p], per(p, THREE, link_share),
        "each > 0.5; cebinae >= 0.8 x fifo",
        lambda m: min(m.values()) > 0.5
        and m["cebinae"] >= 0.8 * m["fifo"])]


#: The judged grid points by their swept value: Figure 9's RTT (ms),
#: Figure 12's threshold δp = δf = τ, section 5.5's RTT (ms).
FIGURE9 = {16: "figure9#p0", 64: "figure9#p2", 256: "figure9#p4"}
FIGURE12_TAU = {"1%": "figure12_tau#p0", "10%": "figure12_tau#p3",
                "100%": "figure12_tau#p6"}
SCALABILITY = {20: "scalability#p0", 80: "scalability#p1",
               320: "scalability#p2"}


def _figures() -> List[Target]:
    f9_16, f9_256 = FIGURE9[16], FIGURE9[256]
    tau_1, tau_10, tau_100 = FIGURE12_TAU.values()
    s20, s320 = SCALABILITY[20], SCALABILITY[320]

    def f7_flows(rep: Repeat) -> Quantities:
        fifo, cebinae = rep("figure7", FIFO), rep("figure7", CEBINAE)
        # The NewReno flow is the mix's last.
        return {"fifo newreno": fifo.goodputs_bps[-1] / 1e6,
                "fifo vegas mean":
                    statistics.fmean(fifo.goodputs_bps[:-1]) / 1e6,
                "cebinae newreno": cebinae.goodputs_bps[-1] / 1e6}

    def bbr_share(rep: Repeat) -> Quantities:
        run = rep("figure8a", CEBINAE)
        bbr = [rate for rate, cca in zip(run.goodputs_bps, run.cca_names)
               if cca == "bbr"]
        return {"bbr share": sum(bbr) / run.total_goodput_bps,
                "fair share": len(bbr) / len(run.goodputs_bps)}

    def f10_windows(rep: Repeat) -> Quantities:
        """Cebinae's minus FIFO's mean JFI per 5-second window."""
        fifo, ceb = (rep("figure10", d).jfi_series() for d in TWO)
        return {f"{start}s": statistics.fmean(ceb[start:start + 5])
                - statistics.fmean(fifo[start:start + 5])
                for start in range(0, len(fifo) - 4, 5)}

    def f11(d: Discipline) -> Callable[[Repeat], float]:
        return lambda rep: parking_lot_jfi(
            rep.comparisons["figure11"], d, rep.index)

    def f11_long(rep: Repeat) -> Quantities:
        ideal = parking_lot_ideal(rep.comparisons["figure11"].scaled.spec)
        rates = [rate for label, rate in
                 zip(ideal, rep("figure11", CEBINAE).goodputs_bps)
                 if label.startswith("long")]
        return {"long mean": statistics.fmean(rates) / 1e6,
                "ideal": ideal["long0"] / 1e6}

    def late_jfi(run: ScenarioResult) -> float:
        """Figure 1's mean per-second JFI over the last third."""
        series = run.jfi_series()
        return statistics.fmean(series[len(series) - len(series) // 3:])

    def over(points: Mapping[Any, str], d: Discipline,
             metric: Callable[[ScenarioResult], float] = lambda r: r.jfi,
             ) -> Callable[[Repeat], Quantities]:
        """``metric`` under ``d`` at each grid point, keyed by value."""
        return lambda rep: {f"{key}": metric(rep(p, d))
                            for key, p in points.items()}

    return [
        compare("figure9 16ms cebinae vs fifo", [f9_16], per(f9_16, TWO),
                "cebinae", ">=", "fifo", plus=-0.05),
        compare("figure9 16ms cebinae vs fq", [f9_16],
                per(f9_16, (FQ, CEBINAE)), "cebinae", ">=", "fq",
                plus=-0.05, tracked=True),
        above("figure9 256ms fair", [f9_256], per(f9_256, THREE), 0.8),
        shape("figure9 fifo monotone", FIGURE9.values(), over(FIGURE9, FIFO),
              "16 <= 64 <= 256", lambda m: m["16"] <= m["64"] <= m["256"]),
        shape("figure9 goodput", FIGURE9.values(),
              lambda rep: {f"{d.value} {rtt}": mbps(rep(p, d))
                           for rtt, p in FIGURE9.items() for d in TWO},
              "cebinae > 0.75 x fifo at each rtt",
              lambda m: all(m[f"cebinae {rtt}"] > 0.75 * m[f"fifo {rtt}"]
                            for rtt in FIGURE9)),
    ] + [value("figure7", d, PAPER_JFI["figure7"][d]) for d in TWO] + [
        compare("figure7 newreno dominates fifo", ["figure7"], f7_flows,
                "fifo newreno", ">", "fifo vegas mean", times=3),
        compare("figure7 newreno cut", ["figure7"], f7_flows,
                "cebinae newreno", "<", "fifo newreno"),
        compare("figure7 lift", ["figure7"], per("figure7", TWO),
                "cebinae", ">=", "fifo", plus=0.2),
        compare("figure7 goodput", ["figure7"],
                per("figure7", TWO, link_share), "cebinae", ">=", "fifo",
                times=0.8),
    ] + [value(part, d, PAPER_JFI[part][d])
         for part in ("figure8a", "figure8b") for d in TWO] + [
        compare("figure8a cebinae vs fifo", ["figure8a"],
                per("figure8a", TWO), "cebinae", ">=", "fifo", plus=-0.15),
        compare("figure8a bbr share", ["figure8a"], bbr_share,
                "bbr share", "<", "fair share", times=4),
        above("figure8b minima", ["figure8b"],
              per("figure8b", TWO, lambda r: min(r.goodputs_bps) / 1e6), 0),
        above("figure10 fair before joins", ["figure10"],
              per("figure10", TWO, lambda r: r.jfi_series()[4]), 0.7),
        compare("figure10 tail", ["figure10"], per(
            "figure10", TWO, lambda r: statistics.fmean(r.jfi_series()[-3:])),
            "cebinae", ">", "fifo", plus=-0.1),
        shape("figure10 windows", ["figure10"], f10_windows,
              "cebinae - fifo >= 0 in >= 5 of the 5-s windows",
              lambda m: sum(diff >= 0 for diff in m.values()) >= 5,
              tracked=True),
    ] + [value("figure11", d, PAPER_JFI["figure11"][d], measure=f11(d),
               metric="normalised jfi", tracked=True) for d in TWO] + [
        compare("figure11 cebinae vs fifo", ["figure11"],
                lambda rep: {d.value: f11(d)(rep) for d in TWO},
                "cebinae", ">=", "fifo", plus=-0.05),
        compare("figure11 long flows", ["figure11"], f11_long,
                "long mean", ">", "ideal", times=0.3),
        compare("figure12 goodput collapse", [tau_1, tau_100],
                over({"1%": tau_1, "100%": tau_100}, CEBINAE, mbps),
                "100%", "<", "1%", times=0.7),
        compare("figure12 10% vs fifo", ["figure12", tau_10],
                lambda rep: {"fifo": rep("figure12", FIFO).jfi,
                             "cebinae": rep(tau_10, CEBINAE).jfi},
                "cebinae", ">", "fifo", plus=-0.1),
        above("figure12 fq fair", ["figure12"], per("figure12", (FQ,)), 0.9),
        compare("figure1 late fairness", ["figure1"],
                per("figure1", TWO, late_jfi), "cebinae", ">", "fifo",
                plus=-0.1),
        above("figure1 goodput", ["figure1"],
              per("figure1", TWO, link_share), 0.6),
        compare("scalability afq horizon drops", [s20, s320],
                over({"20": s20, "320": s320}, AFQ,
                     lambda r: r.horizon_drops), "320", ">", "20",
                tracked=True),
        shape("scalability cebinae horizon drops", SCALABILITY.values(),
              over(SCALABILITY, CEBINAE, lambda r: r.horizon_drops),
              "each = 0", lambda m: not any(m.values())),
        compare("scalability 320ms goodput", [s320],
                per(s320, (AFQ, CEBINAE), mbps), "cebinae", ">", "afq",
                times=0.5),
        above("scalability fairness", SCALABILITY.values(),
              lambda rep: {f"{d.value} {rtt}": rep(p, d).jfi
                           for rtt, p in SCALABILITY.items()
                           for d in (AFQ, CEBINAE)}, 0.6),
        above("scalability afq fair at 20ms", [s20], per(s20, (AFQ,)),
              0.85),
    ]


def _figure13(rep: Repeat) -> Quantities:
    """The ``--quick`` grid's FNR per cell (``<stages>x<slots>@<ms>ms``),
    its largest FPR, the smallest and largest caches' rates, and how
    many cells miss more than a cell with at most their stages and
    slots at the same round interval."""
    cells = {(r.stages, r.slots_per_stage, r.round_interval_ms): r
             for r in rep.figure13}
    small = min(cells, key=lambda cell: cell[0] * cell[1])
    large = max(cells, key=lambda cell: cell[0] * cell[1])
    fnr = {cell: r.false_negative_rate for cell, r in cells.items()}
    return {"max fpr": max(r.false_positive_rate for r in cells.values()),
            "largest cache fpr": cells[large].false_positive_rate,
            "smallest cache fnr": fnr[small],
            "largest cache fnr": fnr[large],
            "monotone violations": sum(
                fnr[big] > fnr[little] for little in fnr for big in fnr
                if little[2] == big[2] and little[0] <= big[0]
                and little[1] <= big[1]),
            **{f"{stages}x{slots}@{ms:g}ms fnr": rate
               for (stages, slots, ms), rate in fnr.items()}}


def _pick(key: Callable[[str], bool]) -> Callable[[Repeat], Quantities]:
    """The Figure 13 quantities whose names ``key`` accepts."""
    return lambda rep: {name: number for name, number
                        in _figure13(rep).items() if key(name)}


#: The paper's default cache, 2 x 2048, and more stages.
FIGURE13_DEFAULT = ("2x2048@10ms fnr", "4x2048@10ms fnr")

#: Every judged claim, in report order.
TARGETS: Tuple[Target, ...] = tuple(
    [target for row in TABLE2_JUDGED for target in _table2(row)]
    + _figures() + [
        shape("figure13 fpr", [], _pick(lambda name: "fpr" in name),
              "max fpr < 1e-3; largest cache fpr < 5e-4",
              lambda m: m["max fpr"] < 1e-3
              and m["largest cache fpr"] < 5e-4),
        above("figure13 smallest cache misses", [],
              _pick(lambda name: name == "smallest cache fnr"), 0),
        shape("figure13 fnr monotone", [],
              _pick(lambda name: "fpr" not in name),
              "monotone violations = 0; largest cache fnr < smallest's",
              lambda m: m["monotone violations"] == 0
              and m["largest cache fnr"] < m["smallest cache fnr"]),
        shape("figure13 default cache", [],
              _pick(lambda name: name in FIGURE13_DEFAULT),
              "each < 0.25", lambda m: max(m.values()) < 0.25)])


def judge(target: Target, comparisons: Mapping[str, Comparison],
          figure13: Sequence[DetectionResult] = ()) -> Dict[str, Any]:
    """``target``'s record: per-seed samples, their means and
    half-widths, its criterion and its verdict."""
    repeats = 1 if not target.points else len(
        next(iter(comparisons[target.points[0]].runs.values())))
    samples: Dict[str, List[float]] = {}
    for index in range(repeats):
        for key, number in target.measure(
                Repeat(comparisons, index, figure13)).items():
            samples.setdefault(key, []).append(float(number))
    mean: Quantities = {}
    half: Quantities = {}
    for key, values in samples.items():
        mean[key], half[key] = mean_half_width(values)
    return {"name": target.name, "points": list(target.points),
            "criterion": target.criterion, "tracked": target.tracked,
            "samples": samples, "mean": mean, "half_width": half,
            "verdict": "hit" if target.holds(mean, half) else "miss"}


def judged_points(wall_limit_s: Optional[float] = None) -> List[RunSpec]:
    """Every repeat of each point :data:`TARGETS` read, in document
    order, each document compiled with :data:`REPEATS`."""
    wanted = [point for target in TARGETS for point in target.points]
    return [dataclasses.replace(run.runspec, wall_limit_s=wall_limit_s)
            for document in dict.fromkeys(p.split("#")[0] for p in wanted)
            for run in dataclasses.replace(paper_spec(document),
                                           repeats=REPEATS).compile()
            if run.runspec.scaled.spec.name in wanted]


def fidelity(workers: int = 1, cache_dir: Optional[str] = None,
             use_cache: bool = True,
             wall_limit_s: Optional[float] = None) -> Dict[str, Any]:
    """Run what :data:`TARGETS` read and judge them all: the fidelity
    document, but for its ``wall_s``."""
    pool = {"workers": workers, "cache_dir": cache_dir,
            "use_cache": use_cache}
    comparisons = {comparison.scaled.spec.name: comparison
                   for comparison in run_grid(
                       judged_points(wall_limit_s),
                       timeout_s=wall_limit_s, **pool)}
    figure13 = figure13_results(quick=True, **pool)
    records = [judge(target, comparisons, figure13) for target in TARGETS]
    hits = sum(record["verdict"] == "hit" for record in records)
    return {"repeats": REPEATS, "tolerance": TOLERANCE, "hits": hits,
            "misses": len(records) - hits, "targets": records,
            "calibrated": CALIBRATED}


def fidelity_report(document: Mapping[str, Any]) -> str:
    """One line per target: name, mean ± half-width per quantity,
    criterion, ``hit``/``MISS``."""
    lines = [f"{record['name']}: " + ", ".join(
        f"{key} {mean:.4g} ± {record['half_width'][key]:.2g}"
        for key, mean in record["mean"].items())
        + f"  [{record['criterion']}]  "
        + ("hit" if record["verdict"] == "hit" else "MISS")
        + (" (tracked)" if record["tracked"] else "")
        for record in document["targets"]]
    lines += [f"{name}: calibrated ({why})"
              for name, why in document["calibrated"].items()]
    return "\n".join(lines + [
        f"fidelity: {document['hits']} hit, {document['misses']} miss "
        f"of {len(document['targets'])} targets at "
        f"{document['repeats']} seeds"])


def dump(document: Mapping[str, Any]) -> str:
    """The ``--out`` text: sorted keys, so a rerun on the same results
    is byte-identical but for ``wall_s``."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"
