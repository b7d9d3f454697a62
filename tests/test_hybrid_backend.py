"""The hybrid fluid/packet backend's fidelity-tier contract.

Three layers of pinning (see DESIGN.md section 14):

* tier-1 figure-class suites are short, transient-dominated runs — the
  policy refuses the handoff (``short_run``) and the hybrid backend is
  *byte-identical* to packet, which satisfies the JFI/share parity
  requirement exactly;
* a moderate steady-state scenario genuinely demotes to fluid and must
  track the packet backend's fairness (JFI within tolerance, per-flow
  throughput shares within 5 percent) while cutting the event count;
* the demotion/promotion rules themselves: faults and unstable warmups
  force full packet granularity, and fluid runs are deterministic.
"""

import dataclasses
import functools
import json
import pathlib

import pytest

from repro.experiments.runner import (BACKENDS, Discipline,
                                      ScenarioResult, run_scenario)
from repro.experiments.scenarios import (DEFAULT_POLICY, ParkingLotSpec,
                                         ScalePolicy, ScenarioSpec)
from repro.faults.spec import FaultSpec
from repro.netsim.fluid import (REASON_FAULTS, REASON_SHORT_RUN,
                                REASON_UNSTABLE, HybridPolicy,
                                MIN_DEMAND_BPS,
                                equilibrium_schedule, measured_rates_bps,
                                pool_rates, rate_divergence,
                                rate_pool_key, wire_overhead_ratio)
from repro.obs import metrics as obs_metrics
from repro.suite.spec import SuiteSpec

TIER1_DIR = pathlib.Path(__file__).parent.parent / "examples" / \
    "suites" / "tier1"
TIER1_SPECS = sorted(path.name for path in TIER1_DIR.glob("*.json"))


def _shares(result):
    total = sum(result.goodputs_bps) or 1.0
    return [goodput / total for goodput in result.goodputs_bps]


# --------------------------------------------------------------------------
# Tier-1 parity: short figure-class runs stay packet, byte for byte.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec_name", TIER1_SPECS)
def test_tier1_hybrid_matches_packet_exactly(spec_name):
    document = json.loads((TIER1_DIR / spec_name).read_text())
    suite = SuiteSpec.from_dict(document, source=spec_name)
    for compiled in suite.compile():
        runspec = compiled.runspec
        assert runspec is not None, "tier-1 suites are all dumbbell"
        kwargs = dict(collect_series=runspec.collect_series,
                      record_history=runspec.record_history,
                      seed=runspec.seed)
        packet = run_scenario(runspec.scaled, runspec.discipline,
                              **kwargs)
        hybrid = run_scenario(runspec.scaled, runspec.discipline,
                              backend="hybrid", **kwargs)

        summary = hybrid.hybrid_summary
        assert summary is not None
        assert summary["mode"] == "packet"
        assert summary["reason"] == REASON_SHORT_RUN

        # Byte identity (modulo the summary key itself) subsumes the
        # JFI-within-1% and shares-within-5% acceptance bounds.
        hybrid_dict = hybrid.to_dict()
        hybrid_dict.pop("hybrid_summary")
        assert hybrid_dict == packet.to_dict()


def test_packet_result_has_no_hybrid_key():
    """Pre-hybrid golden digests must keep verifying."""
    scaled = _moderate_scenario(duration_s=1.0)
    result = run_scenario(scaled, Discipline.FIFO)
    assert result.hybrid_summary is None
    assert "hybrid_summary" not in result.to_dict()


# --------------------------------------------------------------------------
# Moderate steady-state scenario: a genuine fluid phase.
# --------------------------------------------------------------------------

def _moderate_scenario(duration_s=30.0):
    spec = ScenarioSpec(name="validate-hybrid", rate_bps=5e6,
                        rtts_ms=(256.0, 128.0), buffer_mtus=40,
                        cca_mix=(("cubic", 8), ("cubic", 8)),
                        duration_s=duration_s)
    return ScalePolicy().apply(spec)


@functools.lru_cache(maxsize=None)
def _fidelity_pair(discipline_value):
    discipline = Discipline(discipline_value)
    scaled = _moderate_scenario()
    packet = run_scenario(scaled, discipline)
    hybrid = run_scenario(scaled, discipline, backend="hybrid")
    return packet, hybrid


@pytest.mark.parametrize("discipline",
                         [Discipline.FIFO, Discipline.FQ,
                          Discipline.CEBINAE])
def test_steady_state_fidelity(discipline):
    packet, hybrid = _fidelity_pair(discipline.value)

    summary = hybrid.hybrid_summary
    assert summary is not None and summary["mode"] == "fluid"
    assert summary["epochs"] >= 1
    assert summary["fluid_s"] > 0

    assert abs(hybrid.jfi - packet.jfi) < 0.06
    for share_h, share_p in zip(_shares(hybrid), _shares(packet)):
        assert abs(share_h - share_p) < 0.05
    # The point of the exercise: most of the run never costs events.
    assert packet.events / hybrid.events >= 2.0


def test_hybrid_is_deterministic():
    scaled = _moderate_scenario()
    first = run_scenario(scaled, Discipline.FIFO, backend="hybrid")
    second = run_scenario(scaled, Discipline.FIFO, backend="hybrid")
    assert first.to_dict() == second.to_dict()


def test_hybrid_result_round_trips():
    _, hybrid = _fidelity_pair(Discipline.FIFO.value)
    restored = ScenarioResult.from_dict(hybrid.to_dict())
    assert restored.to_dict() == hybrid.to_dict()
    assert restored.hybrid_summary == hybrid.hybrid_summary


# --------------------------------------------------------------------------
# Demotion / promotion rules.
# --------------------------------------------------------------------------

def test_faults_force_packet_granularity():
    scaled = _moderate_scenario(duration_s=16.0)
    faults = FaultSpec(loss_rate=0.001)
    result = run_scenario(scaled, Discipline.FIFO, backend="hybrid",
                          faults=faults)
    summary = result.hybrid_summary
    assert summary is not None
    assert summary["mode"] == "packet"
    assert summary["reason"] == REASON_FAULTS


def test_unstable_warmup_promotes_to_packet():
    # Long enough that one warmup extension still leaves a viable
    # fluid window — the probe must actually retry before giving up.
    scaled = _moderate_scenario(duration_s=24.0)
    # A tolerance no real measurement can meet: every probe reads
    # "diverging", the warmup extends max_extensions times, then the
    # run promotes to full packet granularity.
    policy = HybridPolicy(stability_tol=1e-9, max_extensions=1)
    result = run_scenario(scaled, Discipline.FIFO, backend="hybrid",
                          hybrid_policy=policy)
    summary = result.hybrid_summary
    assert summary is not None
    assert summary["mode"] == "packet"
    assert summary["reason"] == REASON_UNSTABLE
    assert summary["extensions"] == 1
    assert summary["divergence"] is not None


def test_hybrid_metrics_recorded():
    # The demotion is recorded once, in the result, not in the
    # metrics registry.
    scaled = _moderate_scenario(duration_s=16.0)
    with obs_metrics.collected() as registry:
        result = run_scenario(scaled, Discipline.FIFO, backend="hybrid")
    summary = result.hybrid_summary
    assert summary is not None and summary["mode"] == "fluid"
    assert summary["epochs"] > 0 and summary["fluid_s"] > 0
    assert not any(row["name"].startswith("hybrid_")
                   for row in registry.snapshot()["counters"])


# --------------------------------------------------------------------------
# Unit tests: policy arithmetic and the fluid primitives.
# --------------------------------------------------------------------------

class TestHybridPolicy:
    def test_defaults_validate(self):
        HybridPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"min_warmup_s": 0.0},
        {"settle_rtts": -1.0},
        {"post_arrival_settle_s": -0.1},
        {"measure_s": 0.0},
        {"measure_s": 5.0},  # exceeds min_warmup_s
        {"stability_tol": 0.0},
        {"stability_tol": 1.0},
        {"max_extensions": -1},
        {"min_fluid_fraction": 0.0},
        {"min_fluid_fraction": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HybridPolicy(**kwargs)

    def test_settle_takes_the_binding_constraint(self):
        policy = HybridPolicy(min_warmup_s=4.0, settle_rtts=20.0,
                              post_arrival_settle_s=1.0)
        assert policy.settle_s(0.05) == 4.0          # warmup floor
        assert policy.settle_s(0.5) == 10.0          # RTT settling
        assert policy.settle_s(0.05, last_start_s=9.0) == 10.0

    def test_handoff_adds_measurement_window(self):
        policy = HybridPolicy()
        assert policy.handoff_s(0.05) == \
            policy.settle_s(0.05) + policy.measure_s

    def test_fluid_viability(self):
        policy = HybridPolicy()  # handoff at 8s for short RTTs
        assert policy.fluid_viable(30.0, 0.05)
        assert not policy.fluid_viable(9.0, 0.05)


class TestPooling:
    def test_pool_rates_averages_within_class(self):
        pooled = pool_rates([4.0, 2.0, 10.0], ["a", "a", "b"])
        assert pooled == [3.0, 3.0, 10.0]

    def test_pool_rates_conserves_aggregate(self):
        rates = [1.0, 5.0, 2.0, 8.0]
        pooled = pool_rates(rates, ["x", "y", "x", "y"])
        assert sum(pooled) == pytest.approx(sum(rates))

    def test_pool_rates_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pool_rates([1.0], ["a", "b"])

    def test_rate_pool_key_groups_within_factor_of_base(self):
        # A sawtooth phase spread (< 2x) can share a bucket...
        assert rate_pool_key(100.0) == rate_pool_key(150.0)
        # ...a starved flow 100x below its peers cannot.
        assert rate_pool_key(1e6) != rate_pool_key(1e4)

    def test_rate_pool_key_clamps_tiny_rates(self):
        assert rate_pool_key(0.0) == rate_pool_key(MIN_DEMAND_BPS)

    def test_rate_pool_key_rejects_bad_base(self):
        with pytest.raises(ValueError):
            rate_pool_key(100.0, base=1.0)


class TestStabilityProbe:
    def test_measured_rates(self):
        rates = measured_rates_bps([0, 100], [1000, 100], 1_000_000_000)
        assert rates == [8000.0, 0.0]

    def test_measured_rates_rejects_bad_window(self):
        with pytest.raises(ValueError):
            measured_rates_bps([0], [1], 0)

    def test_identical_vectors_have_zero_divergence(self):
        assert rate_divergence([5.0, 3.0], [5.0, 3.0]) == 0.0

    def test_disjoint_vectors_are_maximal(self):
        assert rate_divergence([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_all_zero_reads_as_divergent(self):
        assert rate_divergence([0.0], [0.0]) == 1.0

    def test_distributional_ignores_permutation(self):
        assert rate_divergence([1.0, 9.0], [9.0, 1.0],
                               distributional=True) == 0.0
        assert rate_divergence([1.0, 9.0], [9.0, 1.0]) > 0.5


class TestEquilibriumSchedule:
    def test_fifo_reproduces_feasible_anchors(self):
        anchors = [1e6, 3e6]
        [(span, rates)] = equilibrium_schedule("fifo", anchors, 100)
        assert span == 100
        assert rates == pytest.approx(anchors)

    def test_fq_equalises(self):
        [(_, rates)] = equilibrium_schedule("fq", [1e6, 3e6], 100)
        assert rates == pytest.approx([2e6, 2e6])

    def test_cebinae_converges_toward_equal_split(self):
        scaled = _moderate_scenario(duration_s=1.0)
        params = scaled.cebinae
        anchors = [1e6, 3e6]
        schedule = equilibrium_schedule(
            "cebinae", anchors, 50 * params.dt_ns, cebinae=params)
        assert len(schedule) >= 1
        first_gap = abs(anchors[0] - anchors[1])
        last_gap = abs(schedule[-1][1][0] - schedule[-1][1][1])
        assert last_gap < first_gap

    def test_cebinae_requires_params(self):
        with pytest.raises(ValueError):
            equilibrium_schedule("cebinae", [1.0], 100)

    def test_empty_phase_is_empty(self):
        assert equilibrium_schedule("fifo", [1.0], 0) == []


def test_wire_overhead_ratio_clamps():
    assert wire_overhead_ratio(1500, 1400) == pytest.approx(1500 / 1400)
    assert wire_overhead_ratio(100, 200) == 1.0
    assert wire_overhead_ratio(100, 0) == 1.0


# --------------------------------------------------------------------------
# Wiring: backend validation in the runner and the suite layer.
# --------------------------------------------------------------------------

def test_unknown_backend_rejected():
    scaled = _moderate_scenario(duration_s=1.0)
    with pytest.raises(ValueError, match="unknown backend"):
        run_scenario(scaled, Discipline.FIFO, backend="quantum")


def test_parking_lot_refused_by_the_hybrid_backend():
    # The runner-level twin of SuiteSpec's parse-time refusal.
    lot = ParkingLotSpec(
        name="lot", rate_bps=5e6, buffer_mtus=40, num_long=1,
        long_cca="newreno", cross_mix=(("vegas", 1), ("cubic", 1)),
        duration_s=1.0)
    with pytest.raises(ValueError, match="single bottleneck"):
        run_scenario(lot.scaled(DEFAULT_POLICY), Discipline.FIFO,
                     backend="hybrid")


def test_suite_spec_backend_round_trip():
    document = json.loads(
        (TIER1_DIR / "figure9_class.json").read_text())
    suite = SuiteSpec.from_dict(document, source="figure9_class.json")
    assert suite.backend == "packet"
    assert "backend" not in suite.to_dict()

    hybrid_suite = dataclasses.replace(suite, backend="hybrid")
    assert hybrid_suite.to_dict()["backend"] == "hybrid"
    reparsed = SuiteSpec.from_dict(hybrid_suite.to_dict(),
                                   source="roundtrip")
    assert reparsed.backend == "hybrid"
    for compiled in hybrid_suite.compile():
        assert compiled.runspec is not None
        assert compiled.runspec.backend == "hybrid"
        assert compiled.runspec.label.endswith("~hybrid")
        assert compiled.runspec.params()["backend"] == "hybrid"


def test_backends_constant():
    assert BACKENDS == ("packet", "hybrid")
