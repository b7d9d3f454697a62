"""Ablation: the LBF design choices of section 4.3.

Two knobs the paper motivates but does not ablate explicitly:

* **ECN marking** — Cebinae marks delayed (¬headq) packets' ECN bits as
  an early congestion signal for ECN-capable flows.
* **vdT virtual rounds** — the credit line that limits end-of-round
  catch-up bursts; without it a group could buffer a full round's
  allocation and release it at once, breaking the drain-time bound.

The benchmark quantifies each on the Figure 1 scenario.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import DEFAULT_POLICY, ScenarioSpec

from conftest import bench_duration_s, run_once


def _scenario(duration_s):
    spec = ScenarioSpec(name="ablation", rate_bps=100e6,
                        rtts_ms=(20.4, 40.0), buffer_mtus=350,
                        cca_mix=(("newreno", 1), ("newreno", 1)),
                        duration_s=duration_s)
    return DEFAULT_POLICY.apply(spec)


@pytest.mark.benchmark(group="ablation-lbf")
def test_ecn_marking_ablation(benchmark):
    """ECN on/off with non-ECN-capable flows must behave identically;
    the mechanism is opt-in by the transport."""
    def run_pair():
        scaled = _scenario(bench_duration_s(20.0))
        with_ecn = run_scenario(scaled, Discipline.CEBINAE)
        without = replace(scaled,
                          cebinae=replace(scaled.cebinae,
                                          ecn_marking=False))
        without_ecn = run_scenario(without, Discipline.CEBINAE)
        return with_ecn, without_ecn

    with_ecn, without_ecn = run_once(benchmark, run_pair)
    print(f"\nECN marking on : JFI {with_ecn.jfi:.3f}, "
          f"goodput {with_ecn.total_goodput_bps / 1e6:.1f} Mbps")
    print(f"ECN marking off: JFI {without_ecn.jfi:.3f}, "
          f"goodput {without_ecn.total_goodput_bps / 1e6:.1f} Mbps")
    # NewReno here is not ECN-capable, so marking changes nothing:
    # byte-identical runs.
    assert with_ecn.goodputs_bps == without_ecn.goodputs_bps


@pytest.mark.benchmark(group="ablation-lbf")
def test_vdt_granularity_ablation(benchmark):
    """Coarser virtual rounds permit larger catch-up bursts.  The run
    must stay functional across two orders of magnitude of vdT, with
    drops/delays shifting rather than fairness collapsing."""
    def run_sweep():
        results = {}
        base = _scenario(bench_duration_s(20.0))
        for divisor in (256, 16, 4):
            vdt = max(base.cebinae.dt_ns // divisor, 1_000)
            # Growing vdT consumes Equation (2) headroom: extend dT so
            # the drain-time bound still holds.
            params = replace(base.cebinae, vdt_ns=vdt, l_ns=vdt,
                             dt_ns=base.cebinae.dt_ns + 2 * vdt)
            results[divisor] = run_scenario(
                replace(base, cebinae=params), Discipline.CEBINAE)
        return results

    results = run_once(benchmark, run_sweep)
    print()
    for divisor, result in results.items():
        print(f"vdT = dT/{divisor:>3}: JFI {result.jfi:.3f}, "
              f"goodput {result.total_goodput_bps / 1e6:5.1f} Mbps, "
              f"lbf delays {result.lbf_delays}, "
              f"drops {result.lbf_drops}")
        benchmark.extra_info[f"jfi_dt_over_{divisor}"] = \
            round(result.jfi, 3)
        assert result.total_goodput_bps > 0.5 * result.sim_rate_bps
