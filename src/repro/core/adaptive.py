"""Adaptive parameter control (paper section 7, "fine-grained
adaptation to current network conditions").

The paper leaves τ static and notes that heuristics could "limit
unnecessary oscillations or selectively avoid penalties that cause
out-sized short-term fluctuations".  This module implements a simple,
safe version of that idea as a supervisor over a
:class:`~repro.core.control_plane.CebinaeControlPlane`:

* **Oscillation damping** — if the port's saturation state flaps
  (saturated↔unsaturated transitions above a rate threshold), the tax
  is reduced: the penalties themselves are destabilising utilisation.
* **Stagnation escalation** — if the port stays saturated with a
  persistently skewed ⊤ share (the taxed flows keep holding far more
  than the rest), the tax is increased toward a cap: the current rate
  isn't redistributing fast enough.

Both adjustments are multiplicative with hard bounds, so the supervisor
degenerates to static-τ behaviour in steady conditions — "conservative
values for all parameters result in a correct implementation" still
holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..analysis.invariants import unwrap
from ..netsim.engine import Simulator
from .control_plane import CebinaeControlPlane
from .params import CebinaeParams

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..netsim.queues import QueueDisc
    from ..netsim.topology import PortSpec, QueueFactory
    from .units import Ratio, TimeNs


@dataclass
class AdaptiveTauConfig:
    """Bounds and gains for the τ supervisor."""

    min_tau: float = 0.005
    max_tau: float = 0.16
    #: Supervision period, in recomputation windows.
    window_recomputes: int = 8
    #: Saturation flap fraction above which τ is damped.
    flap_threshold: float = 0.45
    #: ⊤ bandwidth share above which τ is escalated (while saturated).
    skew_threshold: float = 0.7
    decrease_factor: float = 0.8
    increase_factor: float = 1.25


class AdaptiveTauController:
    """Periodically retunes τ on a live control-plane agent."""

    def __init__(self, sim: Simulator, agent: CebinaeControlPlane,
                 config: Optional[AdaptiveTauConfig] = None) -> None:
        self.sim = sim
        self.agent = agent
        self.config = config or AdaptiveTauConfig()
        self._last_seen = 0
        #: (time_ns, new_tau, reason) per retune.
        self.adjustments: List[Tuple[int, float, str]] = []
        if agent.history is None:
            raise ValueError(
                "the supervised agent must record history "
                "(record_history=True)")
        interval = (self.config.window_recomputes
                    * agent.params.recompute_interval_ns)
        self._interval_ns = interval
        self.sim.post(interval, self._supervise)

    @property
    def tau(self) -> Ratio:
        return self.agent.params.tau

    def _set_tau(self, new_tau: Ratio, reason: str) -> None:
        config = self.config
        new_tau = min(max(new_tau, config.min_tau), config.max_tau)
        if abs(new_tau - self.tau) < 1e-9:
            return
        # CebinaeParams is frozen: install a retuned copy (the
        # equivalent of a control-plane register write).
        self.agent.params = replace(self.agent.params, tau=new_tau)
        self.agent.qdisc.params = self.agent.params
        self.adjustments.append((self.sim.now_ns, new_tau, reason))

    def _supervise(self) -> None:
        # Non-None by the constructor's record_history check.
        history = unwrap(self.agent.history, "agent history vanished")
        window = history[self._last_seen:]
        self._last_seen = len(history)
        self.sim.post(self._interval_ns, self._supervise)
        if len(window) < 2:
            return
        flaps = sum(1 for prev, cur in zip(window, window[1:])
                    if prev.saturated != cur.saturated)
        flap_rate = flaps / (len(window) - 1)
        config = self.config
        if flap_rate > config.flap_threshold:
            self._set_tau(self.tau * config.decrease_factor,
                          "oscillation")
            return
        saturated = [s for s in window if s.saturated]
        if len(saturated) == len(window) and saturated:
            capacity = self.agent.capacity_bytes_per_sec
            skew = (sum(s.top_rate_bytes_per_sec for s in saturated)
                    / len(saturated)) / capacity
            if skew > config.skew_threshold:
                self._set_tau(self.tau * config.increase_factor,
                              "stagnation")


def adaptive_cebinae_factory(
        buffer_mtus: int = 100,
        max_rtt_ns: int = 100_000_000,
        config: Optional[AdaptiveTauConfig] = None,
        agents: Optional[List[CebinaeControlPlane]] = None,
        controllers: Optional[List[AdaptiveTauController]] = None,
        params: Optional[CebinaeParams] = None) -> "QueueFactory":
    """Queue factory installing Cebinae plus the τ supervisor."""
    from .control_plane import cebinae_factory

    def factory(spec: "PortSpec") -> "QueueDisc":
        local_agents: List[CebinaeControlPlane] = []
        qdisc = cebinae_factory(params=params, buffer_mtus=buffer_mtus,
                                max_rtt_ns=max_rtt_ns,
                                record_history=True,
                                agents=local_agents)(spec)
        controller = AdaptiveTauController(spec.sim, local_agents[0],
                                           config=config)
        if agents is not None:
            agents.extend(local_agents)
        if controllers is not None:
            controllers.append(controller)
        return qdisc

    return factory
