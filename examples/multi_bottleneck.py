#!/usr/bin/env python3
"""Global max-min fairness over multiple bottlenecks (Figure 11).

Eight NewReno flows cross three bottleneck links in a 'Parking Lot'
topology, contending with Bic, Vegas, and Cubic cross-traffic at each
hop.  No single router can compute the global max-min allocation, but
per Definition 2 each link only needs local information: taxing its
locally-maximal flows pushes the whole network toward the global
water-filling optimum, computed here exactly for comparison.

Run:
    python examples/multi_bottleneck.py
"""

from repro.experiments.figures import parking_lot_ideal
from repro.experiments.parallel import run_grid
from repro.experiments.report import parking_lot_jfi
from repro.suite.registry import paper_spec

#: Simulated seconds (the paper's figure11 document runs 60).
DURATION_S = 40.0


def show(comparison, discipline):
    print(f"{discipline.value.upper()}: normalised JFI "
          f"{parking_lot_jfi(comparison, discipline):.3f} "
          f"(1.0 = ideal max-min)")
    ideal = parking_lot_ideal(comparison.scaled.spec)
    groups = {}
    for label, rate in zip(ideal,
                           comparison.results[discipline].goodputs_bps):
        key = label.rstrip("0123456789")
        groups.setdefault(key, []).append((rate, ideal[label]))
    for key, values in groups.items():
        avg_rate = sum(rate for rate, _ in values) / len(values)
        ideal_rate = values[0][1]
        print(f"  {key:>6} x{len(values)}: avg {avg_rate / 1e6:5.2f} "
              f"Mbps (ideal {ideal_rate / 1e6:5.2f})")
    print()


def main():
    print("Parking lot: 8 NewReno long flows vs 2 Bic / 8 Vegas / "
          "4 Cubic cross flows on three 25 Mbps bottlenecks\n")
    runs = paper_spec("figure11").with_duration_cap(DURATION_S).compile()
    comparison, = run_grid([run.runspec for run in runs], workers=1)
    for discipline in comparison.results:
        show(comparison, discipline)


if __name__ == "__main__":
    main()
