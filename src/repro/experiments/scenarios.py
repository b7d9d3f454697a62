"""Scenario descriptions and the bandwidth/flow scaling policy.

Every evaluation artifact in the paper is a *scenario*: a topology, a
mix of CCAs with per-group RTTs, a bottleneck rate and buffer, and a
duration.  There are two kinds, :class:`ScenarioSpec` (a dumbbell) and
:class:`ParkingLotSpec` (Figure 11's chain of bottlenecks); the runner
executes either.  Dumbbells are described with the paper's original
numbers; the :class:`ScalePolicy` maps them onto configurations a
pure-Python packet simulator can execute, following the scaling laws
derived in DESIGN.md:

* **Rate scaling** — 100 Mbps-class scenarios run at 25 Mbps by
  default, 1 Gbps at 25 Mbps, 10 Gbps at 50 Mbps.  Buffers scale with
  rate so drain times (and hence Cebinae's dT bound) are preserved.
* **Tax scaling** — Cebinae's control authority is ``τ·C`` per window
  while loss-based TCP regrab is ``MSS/RTT²`` *independent of C*, so a
  faithful reproduction of the tax-vs-AIMD balance requires
  ``τ_sim = τ_paper · (C_paper / C_sim)``, clamped to [1%, 10%].
  ``δp``/``δf`` scale the same way (clamped to 5%) because per-window
  byte counts shrink with the rate.
* **Flow scaling** — scenarios with hundreds of flows cannot run at a
  rate where every flow clears TCP's minimum operating point
  (~2 MSS/RTT); group counts are divided down (never below 1) while
  preserving the mix ratio.

Each scaled scenario records its scale factors so reports can state
them next to the paper's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (Callable, ClassVar, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..netsim.engine import MILLISECOND, seconds
from ..netsim.packet import MSS_BYTES, MTU_BYTES
from ..core.params import CebinaeParams


def known_cca_names() -> Tuple[str, ...]:
    """The CCA names a scenario may reference (sorted registry keys)."""
    from ..tcp.flows import CCA_REGISTRY
    return tuple(sorted(CCA_REGISTRY))


def _require_cca(owner: str, cca: str) -> None:
    from ..tcp.flows import CCA_REGISTRY
    if not isinstance(cca, str) or cca.lower() not in CCA_REGISTRY:
        known = ", ".join(known_cca_names())
        raise ValueError(
            f"{owner}: unknown CCA {cca!r}; known: {known}")


@dataclass(frozen=True)
class FlowPlan:
    """One flow of a scenario, after mix expansion.

    Fields are validated at construction so a malformed plan fails
    here, with the offending value named, rather than deep inside the
    runner's topology build.
    """

    index: int
    cca: str
    rtt_s: float
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        owner = f"flow plan #{self.index}"
        if self.index < 0:
            raise ValueError(f"{owner}: index must be >= 0")
        _require_cca(owner, self.cca)
        if not self.rtt_s > 0:
            raise ValueError(
                f"{owner}: rtt_s must be > 0, got {self.rtt_s!r}")
        if self.start_time_s < 0:
            raise ValueError(
                f"{owner}: start_time_s must be >= 0, got "
                f"{self.start_time_s!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A dumbbell scenario in the paper's own units.

    ``rtts_ms`` aligns with ``cca_mix``: one RTT per mix group (the
    common case in Table 2), one per flow, or a single value for all.

    Construction validates every field (positive rate/duration/RTTs, a
    non-empty mix of known CCAs, start times matching the flow count)
    so degenerate scenarios are rejected with a clear message instead
    of failing mid-simulation.
    """

    name: str
    rate_bps: float
    rtts_ms: Tuple[float, ...]
    buffer_mtus: int
    cca_mix: Tuple[Tuple[str, int], ...]
    duration_s: float = 60.0
    start_times_s: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        owner = f"scenario {self.name!r}"
        if not self.name:
            raise ValueError("scenario name must not be empty")
        if not self.rate_bps > 0:
            raise ValueError(
                f"{owner}: rate_bps must be > 0, got {self.rate_bps!r}")
        if not self.rtts_ms:
            raise ValueError(f"{owner}: rtts_ms must not be empty")
        for rtt in self.rtts_ms:
            if not rtt > 0:
                raise ValueError(
                    f"{owner}: every RTT must be > 0 ms, got {rtt!r}")
        if self.buffer_mtus <= 0:
            raise ValueError(
                f"{owner}: buffer_mtus must be >= 1, got "
                f"{self.buffer_mtus!r}")
        if not self.cca_mix:
            raise ValueError(
                f"{owner}: cca_mix must not be empty (zero flows)")
        for cca, count in self.cca_mix:
            _require_cca(owner, cca)
            if count < 1:
                raise ValueError(
                    f"{owner}: mix group {cca!r} needs count >= 1, "
                    f"got {count!r}")
        if not self.duration_s > 0:
            raise ValueError(
                f"{owner}: duration_s must be > 0, got "
                f"{self.duration_s!r}")
        self._per_group_rtts()  # RTT list must map onto the groups.
        if self.start_times_s is not None:
            if len(self.start_times_s) != self.total_flows:
                raise ValueError(
                    f"{owner}: {len(self.start_times_s)} start times "
                    f"cannot map onto {self.total_flows} flows")
            for start in self.start_times_s:
                if start < 0:
                    raise ValueError(
                        f"{owner}: start times must be >= 0, got "
                        f"{start!r}")

    @property
    def total_flows(self) -> int:
        return sum(count for _, count in self.cca_mix)

    def flow_plans(self) -> List[FlowPlan]:
        """Expand the mix into per-flow plans with RTTs and starts."""
        rtts = self._per_group_rtts()
        plans: List[FlowPlan] = []
        index = 0
        for group, (cca, count) in enumerate(self.cca_mix):
            for _ in range(count):
                start = 0.0
                if self.start_times_s is not None:
                    start = self.start_times_s[index]
                plans.append(FlowPlan(index=index, cca=cca,
                                      rtt_s=rtts[group] / 1e3,
                                      start_time_s=start))
                index += 1
        return plans

    def _per_group_rtts(self) -> List[float]:
        groups = len(self.cca_mix)
        if len(self.rtts_ms) == 1:
            return [self.rtts_ms[0]] * groups
        if len(self.rtts_ms) == groups:
            return list(self.rtts_ms)
        raise ValueError(
            f"{self.name}: {len(self.rtts_ms)} RTTs cannot map onto "
            f"{groups} CCA groups")

    @property
    def max_rtt_s(self) -> float:
        return max(self.rtts_ms) / 1e3

    @property
    def min_rtt_s(self) -> float:
        return min(self.rtts_ms) / 1e3


@dataclass(frozen=True)
class ParkingLotSpec:
    """A multi-bottleneck parking-lot workload (Figure 11's shape).

    ``num_long`` long flows cross every segment; ``cross_mix[i]``
    states the (cca, count) group entering at segment ``i``.  The
    ``tau`` override, when set, replaces the policy-derived Cebinae
    tax (Figure 11 itself needs a raised tax; see DESIGN.md §5.1).
    The spec states its simulated rate next to the paper's, so
    :meth:`scaled` derives the scale factors and rescales nothing.
    """

    name: str
    rate_bps: float
    buffer_mtus: int
    num_long: int
    long_cca: str
    cross_mix: Tuple[Tuple[str, int], ...]
    duration_s: float
    access_delay_ms: float = 8.0
    bottleneck_delay_ms: float = 4.0
    paper_rate_bps: float = 100e6
    tau: Optional[float] = None

    #: Every flow starts at time zero (the runner reads this off
    #: either kind of spec).
    start_times_s: ClassVar[None] = None

    def __post_init__(self) -> None:
        owner = f"parking lot {self.name!r}"
        if not self.name:
            raise ValueError("parking-lot name must not be empty")
        for field_name in ("rate_bps", "duration_s", "access_delay_ms",
                          "bottleneck_delay_ms", "paper_rate_bps"):
            value = getattr(self, field_name)
            if not value > 0:
                raise ValueError(
                    f"{owner}: {field_name} must be > 0, got {value!r}")
        if self.buffer_mtus <= 0:
            raise ValueError(
                f"{owner}: buffer_mtus must be >= 1, got "
                f"{self.buffer_mtus!r}")
        if self.num_long < 1:
            raise ValueError(
                f"{owner}: num_long must be >= 1, got {self.num_long!r}")
        _require_cca(owner, self.long_cca)
        if not self.cross_mix:
            raise ValueError(
                f"{owner}: cross_mix must not be empty (the topology "
                f"needs at least one bottleneck segment)")
        for cca, count in self.cross_mix:
            _require_cca(owner, cca)
            if count < 1:
                raise ValueError(
                    f"{owner}: cross group {cca!r} needs count >= 1, "
                    f"got {count!r}")
        if self.tau is not None and not 0 < self.tau <= 1:
            raise ValueError(
                f"{owner}: tau must be in (0, 1], got {self.tau!r}")

    def _rtt_s(self, segments: int) -> float:
        return (4 * self.access_delay_ms
                + 2 * segments * self.bottleneck_delay_ms) / 1e3

    @property
    def max_rtt_s(self) -> float:
        """The long flows' base RTT: they cross every segment."""
        return self._rtt_s(len(self.cross_mix))

    def flow_plans(self) -> List[FlowPlan]:
        """Long flows first, then each cross group in segment order."""
        flows = [(self.long_cca, self.max_rtt_s)] * self.num_long
        for cca, count in self.cross_mix:
            flows.extend([(cca, self._rtt_s(1))] * count)
        return [FlowPlan(index=index, cca=cca.lower(), rtt_s=rtt_s)
                for index, (cca, rtt_s) in enumerate(flows)]

    def scaled(self, policy: "ScalePolicy") -> "ScaledScenario":
        """This topology with its Cebinae parameters under ``policy``."""
        rate_scale = self.paper_rate_bps / self.rate_bps
        params = policy.cebinae_params(
            self.rate_bps, self.buffer_mtus * MTU_BYTES,
            max_rtt_s=self.max_rtt_s, rate_scale=rate_scale)
        if self.tau is not None:
            params = replace(params, tau=self.tau,
                             delta_port=min(2 * self.tau, 0.16))
        return ScaledScenario(spec=self, paper_spec=self,
                              rate_scale=rate_scale, flow_scale=1.0,
                              cebinae=params)


#: What the runner builds: either topology's description.
TopologySpec = Union[ScenarioSpec, ParkingLotSpec]


@dataclass(frozen=True)
class ScaledScenario:
    """A scenario after the scaling policy has been applied.

    A parking lot is its own ``paper_spec``: it is written at simulator
    scale and names the paper's rate in a field.
    """

    spec: TopologySpec            # With *scaled* rate/buffer/mix.
    paper_spec: TopologySpec      # The original.
    rate_scale: float             # paper rate / sim rate.
    flow_scale: float             # paper flows / sim flows.
    cebinae: CebinaeParams


#: TCP needs roughly this many segments per RTT to avoid RTO collapse.
MIN_SEGMENTS_PER_RTT = 3.0


def _fraction(value: float) -> bool:
    return 0.0 <= value <= 1.0


#: What each :class:`ScalePolicy` field must satisfy: (test, wording).
#: dT must cover the buffer's drain time (Equation 2) and exceed vdT,
#: which the policy fixes at 1 ms.
_POLICY_BOUNDS: Dict[str, Tuple[Callable[[float], bool], str]] = {
    "target_rate_bps": (lambda value: value > 0, "> 0"),
    "max_rate_bps": (lambda value: value > 0, "> 0"),
    "max_flows": (lambda value: value >= 1, ">= 1"),
    "tau_paper": (_fraction, "in [0, 1]"),
    "delta_paper": (_fraction, "in [0, 1]"),
    "tau_cap": (_fraction, "in [0, 1]"),
    "delta_cap": (_fraction, "in [0, 1]"),
    "min_bottom_rate_fraction": (lambda value: 0.0 <= value < 1.0,
                                 "in [0, 1)"),
    "dt_headroom": (lambda value: value >= 1.0, ">= 1"),
    "min_dt_s": (lambda value: value > 0.001, "> 0.001 (vdT)"),
}


def policy_field_problem(name: str, value: float) -> Optional[str]:
    """Why ``value`` is no valid ScalePolicy ``name``, or None."""
    valid, wording = _POLICY_BOUNDS[name]
    return None if valid(value) else f"must be {wording}, got {value!r}"


@dataclass(frozen=True)
class ScalePolicy:
    """Maps paper-scale scenarios onto simulator-scale ones."""

    target_rate_bps: float = 25e6
    max_rate_bps: float = 60e6
    max_flows: int = 40
    tau_paper: float = 0.01
    delta_paper: float = 0.01
    tau_cap: float = 0.08
    delta_cap: float = 0.05
    min_bottom_rate_fraction: float = 0.02
    dt_headroom: float = 1.2
    min_dt_s: float = 0.04

    def __post_init__(self) -> None:
        for name in _POLICY_BOUNDS:
            problem = policy_field_problem(name, getattr(self, name))
            if problem is not None:
                raise ValueError(f"ScalePolicy.{name} {problem}")

    # -- individual scaling rules ---------------------------------------------
    def scale_mix(self, mix: Sequence[Tuple[str, int]]
                  ) -> Tuple[Tuple[Tuple[str, int], ...], float]:
        """Shrink group counts preserving ratios; never below 1."""
        total = sum(count for _, count in mix)
        if total <= self.max_flows:
            return tuple(mix), 1.0
        factor = total / self.max_flows
        scaled = tuple((cca, max(1, round(count / factor)))
                       for cca, count in mix)
        new_total = sum(count for _, count in scaled)
        return scaled, total / new_total

    def sim_rate(self, spec: ScenarioSpec, n_flows: int) -> float:
        """Rate giving every flow a viable fair share, within caps."""
        floor = (n_flows * MIN_SEGMENTS_PER_RTT * MSS_BYTES * 8
                 / spec.min_rtt_s)
        rate = max(self.target_rate_bps, floor)
        rate = min(rate, self.max_rate_bps, spec.rate_bps)
        return rate

    def scaled_threshold(self, paper_value: float, rate_scale: float,
                         cap: float) -> float:
        return min(max(paper_value * rate_scale, paper_value), cap)

    def cebinae_params(self, rate_bps: float, buffer_bytes: int,
                       max_rtt_s: float,
                       rate_scale: float) -> CebinaeParams:
        drain_s = buffer_bytes * 8 / rate_bps
        dt_s = max(self.dt_headroom * drain_s, self.min_dt_s)
        dt_ns = int(math.ceil(dt_s * 1e3)) * MILLISECOND
        recompute = max(1, math.ceil(seconds(max_rtt_s) / dt_ns))
        tau = self.scaled_threshold(self.tau_paper, rate_scale,
                                    self.tau_cap)
        # The saturation threshold must exceed the tax: a taxed link
        # admits ~ (1 - tau) of capacity, and with delta_port <= tau the
        # very act of taxing reads as desaturation, releasing all limits
        # every other window (see DESIGN.md).
        return CebinaeParams(
            delta_port=min(2.0 * tau, 0.16),
            delta_flow=self.scaled_threshold(self.delta_paper,
                                             rate_scale, self.delta_cap),
            tau=tau,
            dt_ns=dt_ns,
            vdt_ns=MILLISECOND,
            l_ns=MILLISECOND,
            recompute_rounds=recompute,
            min_bottom_rate_fraction=self.min_bottom_rate_fraction,
        )

    # -- the composite -----------------------------------------------------------
    def apply(self, spec: ScenarioSpec,
              duration_s: Optional[float] = None) -> ScaledScenario:
        mix, flow_scale = self.scale_mix(spec.cca_mix)
        n_flows = sum(count for _, count in mix)
        rate = self.sim_rate(spec, n_flows)
        rate_scale = spec.rate_bps / rate
        buffer_mtus = max(10, round(spec.buffer_mtus / rate_scale))
        start_times = spec.start_times_s
        if start_times is not None and flow_scale != 1.0:
            raise ValueError("cannot flow-scale staggered-start scenarios")
        scaled_spec = replace(
            spec, rate_bps=rate, buffer_mtus=buffer_mtus, cca_mix=mix,
            duration_s=duration_s if duration_s is not None
            else spec.duration_s)
        params = self.cebinae_params(rate, buffer_mtus * MTU_BYTES,
                                     spec.max_rtt_s, rate_scale)
        return ScaledScenario(spec=scaled_spec, paper_spec=spec,
                              rate_scale=rate_scale,
                              flow_scale=flow_scale, cebinae=params)


#: The default policy used by the benchmark harness.
DEFAULT_POLICY = ScalePolicy()
