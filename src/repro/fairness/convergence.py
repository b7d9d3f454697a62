"""A fluid model of Cebinae's convergence (paper sections 3.2 and 7).

The paper models convergence informally: an aggressive flow holding
``excess``× its fair share is taxed by τ once per recomputation window,
so it reaches the fair share in ``ln(1/excess)/ln(1-τ)`` windows
(:meth:`~repro.core.params.CebinaeParams.convergence_steps`; example 2
instantiates this as ``ln(2/3)/ln(1-τ)``).  Formalising the
convergence behaviour is explicitly left to future work; this module
provides the difference-equation model used by this repository's
analyses:

* per window, every flow within ``δf`` of the maximum is taxed by τ;
* un-taxed flows grow toward the released capacity at a configurable
  aggressiveness (modelling their CCA's ramp rate);
* rates renormalise to the link capacity when over-subscribed.

The model is deliberately simple — it captures who is taxed and how the
gap closes geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from .metrics import jain_fairness_index

if TYPE_CHECKING:
    from ..core.units import BitsPerSec, Ratio


@dataclass
class ConvergenceTrace:
    """The modelled evolution of per-flow rates."""

    rates_per_step: List[List[BitsPerSec]]

    @property
    def steps(self) -> int:
        return len(self.rates_per_step) - 1

    def jfi_series(self) -> List[Ratio]:
        return [jain_fairness_index(rates)
                for rates in self.rates_per_step]

    def convergence_step(self, tolerance: float = 0.05) -> int:
        """First step where JFI is within ``tolerance`` of 1.0.

        Returns ``steps + 1`` if the trace never converges.
        """
        for step, value in enumerate(self.jfi_series()):
            if value >= 1.0 - tolerance:
                return step
        return self.steps + 1


def taxation_trajectory(initial_rates: Sequence[float],
                        capacity: float, tau: float = 0.01,
                        delta_flow: float = 0.01,
                        growth_fraction: float = 1.0,
                        steps: int = 200,
                        reclaim_weights: Optional[Sequence[float]] = None
                        ) -> ConvergenceTrace:
    """Iterate the Cebinae taxation difference equation.

    Args:
        initial_rates: starting allocation (need not be feasible).
        capacity: the shared link capacity.
        tau: tax applied to flows within ``delta_flow`` of the maximum.
        growth_fraction: how much of the released headroom un-taxed
            flows reclaim per window (1.0 = instantly, the paper's
            "flows that can quickly reclaim available bandwidth").
        steps: windows to simulate.
        reclaim_weights: how the released headroom splits across the
            claiming flows.  None (the default) splits equally —
            water-filling's local step.  The hybrid fluid backend
            passes the measured per-flow rates, modelling CCAs that
            reclaim in proportion to their current share (the RTT
            bias packet simulation exhibits), so the modelled
            convergence keeps the packet engine's fairness floor
            instead of idealising past it.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if not initial_rates:
        raise ValueError("need at least one flow")
    if (reclaim_weights is not None
            and len(reclaim_weights) != len(initial_rates)):
        raise ValueError("reclaim_weights must match initial_rates")
    rates = [max(float(rate), 0.0) for rate in initial_rates]
    trace = [list(rates)]
    for _ in range(steps):
        maximum = max(rates)
        if maximum <= 0:
            trace.append(list(rates))
            continue
        threshold = maximum * (1.0 - delta_flow)
        taxed = [rate >= threshold for rate in rates]
        # Tax the bottlenecked set.
        new_rates = [rate * (1.0 - tau) if is_taxed else rate
                     for rate, is_taxed in zip(rates, taxed)]
        # Untaxed flows split the headroom equally (water-filling's
        # local step), scaled by their aggressiveness.  When *every*
        # flow is taxed — the converged state of example (1) — the
        # ensuing utilisation dip desaturates the port, limits are
        # released, and all flows reclaim: model that as everyone
        # splitting the headroom, so the system oscillates around full
        # capacity instead of decaying.
        headroom = capacity - sum(new_rates)
        claimants = [index for index, is_taxed in enumerate(taxed)
                     if not is_taxed]
        if not claimants:
            claimants = list(range(len(rates)))
        if claimants and headroom > 0:
            weight_total = 0.0
            if reclaim_weights is not None:
                weight_total = sum(reclaim_weights[index]
                                   for index in claimants)
            if weight_total > 0 and reclaim_weights is not None:
                reclaimed = growth_fraction * headroom
                for index in claimants:
                    new_rates[index] += (reclaimed
                                         * reclaim_weights[index]
                                         / weight_total)
            else:
                share = growth_fraction * headroom / len(claimants)
                for index in claimants:
                    new_rates[index] += share
        # Renormalise if infeasible (e.g. infeasible initial state).
        total = sum(new_rates)
        if total > capacity:
            new_rates = [rate * capacity / total for rate in new_rates]
        rates = new_rates
        trace.append(list(rates))
    return ConvergenceTrace(rates_per_step=trace)
