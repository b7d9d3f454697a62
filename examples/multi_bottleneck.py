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

from repro.experiments.figures import figure11


def show(result):
    print(f"{result.discipline.value.upper()}: normalised JFI "
          f"{result.normalized_jfi:.3f} (1.0 = ideal max-min)")
    groups = {}
    for label, rate, ideal in zip(result.flow_labels,
                                  result.goodputs_bps,
                                  result.ideal_bps):
        key = label.rstrip("0123456789")
        groups.setdefault(key, []).append((rate, ideal))
    for key, values in groups.items():
        avg_rate = sum(rate for rate, _ in values) / len(values)
        ideal = values[0][1]
        print(f"  {key:>6} x{len(values)}: avg {avg_rate / 1e6:5.2f} "
              f"Mbps (ideal {ideal / 1e6:5.2f})")
    print()


def main():
    print("Parking lot: 8 NewReno long flows vs 2 Bic / 8 Vegas / "
          "4 Cubic cross flows on three 25 Mbps bottlenecks\n")
    for result in figure11(duration_s=40.0):
        show(result)


if __name__ == "__main__":
    main()
