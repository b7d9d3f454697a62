"""Tests for the fluid convergence model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import CebinaeParams
from repro.fairness.convergence import taxation_trajectory
from repro.fairness.metrics import jain_fairness_index


def steps(excess_ratio, tau):
    return CebinaeParams(tau=tau).convergence_steps(excess_ratio)


class TestGeometricModel:
    """Section 3.2's law, ``CebinaeParams.convergence_steps``."""

    def test_paper_example_two(self):
        """ln(2/3)/ln(0.99) ~ 40 steps for excess 3/2 at tau 1%."""
        assert steps(1.5, 0.01) == pytest.approx(
            math.log(2 / 3) / math.log(0.99))
        assert 40 < steps(1.5, 0.01) < 41

    def test_no_excess_is_instant(self):
        # ln(1/excess) <= 0 here: a step count, never negative.
        assert steps(1.0, 0.01) == 0.0
        assert steps(0.5, 0.01) == 0.0

    def test_zero_tax_never(self):
        assert steps(2.0, 0.0) == math.inf

    def test_full_tax_one_step(self):
        assert steps(2.0, 1.0) == 1.0

    def test_monotone_in_tau(self):
        taus = [0.01, 0.02, 0.05, 0.1]
        counts = [steps(2.0, tau) for tau in taus]
        assert counts == sorted(counts, reverse=True)


class TestTrajectory:
    def test_strawman_example_converges(self):
        """Figure 2a's {6,1,1,1,1} allocation converges to equality."""
        trace = taxation_trajectory([6, 1, 1, 1, 1], capacity=10,
                                    tau=0.01, steps=800)
        final = trace.rates_per_step[-1]
        assert jain_fairness_index(final) > 0.99
        assert sum(final) == pytest.approx(10, rel=0.02)

    def test_already_fair_stays_fair(self):
        trace = taxation_trajectory([2, 2, 2, 2, 2], capacity=10,
                                    tau=0.01, steps=100)
        assert min(trace.jfi_series()) > 0.999

    def test_higher_tau_converges_faster(self):
        slow = taxation_trajectory([8, 1, 1], capacity=10, tau=0.01,
                                   steps=1000).convergence_step()
        fast = taxation_trajectory([8, 1, 1], capacity=10, tau=0.05,
                                   steps=1000).convergence_step()
        assert fast < slow

    def test_convergence_roughly_matches_geometric_model(self):
        """The trajectory's convergence time has the model's order of
        magnitude (the model ignores the growing denominator, so exact
        equality is not expected)."""
        tau = 0.02
        trace = taxation_trajectory([3, 1], capacity=4, tau=tau,
                                    steps=2000)
        measured = trace.convergence_step(tolerance=0.02)
        model = steps(1.5, tau)
        assert 0.3 * model < measured < 6 * model

    def test_slow_growth_slows_convergence(self):
        fast = taxation_trajectory([8, 1, 1], capacity=10, tau=0.02,
                                   growth_fraction=1.0,
                                   steps=2000).convergence_step()
        slow = taxation_trajectory([8, 1, 1], capacity=10, tau=0.02,
                                   growth_fraction=0.1,
                                   steps=2000).convergence_step()
        assert slow >= fast

    def test_capacity_never_exceeded(self):
        trace = taxation_trajectory([20, 1], capacity=10, tau=0.05,
                                    steps=50)
        for rates in trace.rates_per_step[1:]:
            assert sum(rates) <= 10 * (1 + 1e-9)

    def test_reclaim_weights_split_headroom_proportionally(self):
        """One window: the taxed flow's release lands on the claiming
        flows in proportion to their weights, not equally."""
        equal = taxation_trajectory([8, 1, 1], capacity=10, tau=0.1,
                                    steps=1)
        weighted = taxation_trajectory([8, 1, 1], capacity=10, tau=0.1,
                                       steps=1,
                                       reclaim_weights=[0, 3, 1])
        gain_equal = [after - before for before, after in
                      zip(equal.rates_per_step[0],
                          equal.rates_per_step[1])]
        gain_weighted = [after - before for before, after in
                         zip(weighted.rates_per_step[0],
                             weighted.rates_per_step[1])]
        assert gain_equal[1] == pytest.approx(gain_equal[2])
        assert gain_weighted[1] == pytest.approx(3 * gain_weighted[2])
        # Conservation: the same total headroom moved either way.
        assert sum(gain_weighted) == pytest.approx(sum(gain_equal))

    def test_uniform_reclaim_weights_match_default(self):
        default = taxation_trajectory([6, 1, 1, 1, 1], capacity=10,
                                      tau=0.02, steps=50)
        uniform = taxation_trajectory([6, 1, 1, 1, 1], capacity=10,
                                      tau=0.02, steps=50,
                                      reclaim_weights=[2, 2, 2, 2, 2])
        assert default.rates_per_step == uniform.rates_per_step

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            taxation_trajectory([], capacity=10)
        with pytest.raises(ValueError):
            taxation_trajectory([1.0], capacity=0)
        with pytest.raises(ValueError):
            taxation_trajectory([1.0, 2.0], capacity=10,
                                reclaim_weights=[1.0])

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8),
           st.floats(0.005, 0.1))
    @settings(max_examples=40)
    def test_jfi_converges_for_any_start(self, rates, tau):
        trace = taxation_trajectory(rates, capacity=sum(rates) or 1.0,
                                    tau=tau, steps=3000)
        assert trace.jfi_series()[-1] > 0.95
