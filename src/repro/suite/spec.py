"""The declarative scenario-spec format and its compiler.

A *suite spec* is one JSON document describing a workload:
a topology (dumbbell or parking lot), a flow mix, the disciplines to
compare, an optional scale-policy override, optional Cebinae parameter
overrides, optional fault injection, optional grid axes, and repeats
with derived seeds.  Parsing is strict
— unknown keys, wrong types, and degenerate values are rejected with
the offending JSON path named — and the parsed document compiles into
the existing execution machinery:

* dumbbell specs become :class:`~repro.experiments.scenarios.ScenarioSpec`
  objects scaled by a :class:`~repro.experiments.scenarios.ScalePolicy`;
* parking-lot specs become
  :class:`~repro.experiments.scenarios.ParkingLotSpec` objects, which
  scale themselves under the same policy;
* either way each run is a :class:`~repro.experiments.parallel.RunSpec`
  point.  The paper's own evaluation is written in this format too
  (``repro/experiments/paper/``), so ``cebinae-repro <experiment>`` and
  a suite run of the same document share cache entries.

Determinism contract: a spec is a pure value.  Equal specs have equal
:meth:`SuiteSpec.fingerprint` digests, ``from_dict(to_dict(s)) == s``
holds field for field (``tests/test_scenario_specs.py`` pins both with
hypothesis), and every compiled run is replayable byte-identically —
which is what the golden-conformance harness asserts.  The document is
also the one serialised form of a run: a sweep manifest stores it and
its workers compile it again (:mod:`repro.sweep.manifest`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..analysis.invariants import InvariantViolation
from ..experiments.parallel import (RunSpec, Task, fingerprint,
                                    scenario_task)
from ..experiments.runner import (AFQ_HYBRID_REFUSAL, BACKENDS,
                                  Discipline)
from ..experiments.scenarios import (ParkingLotSpec, ScaledScenario,
                                     ScalePolicy, ScenarioSpec,
                                     policy_field_problem)
from ..faults.schedule import derive_seed
from ..faults.spec import FaultSpec
from ..netsim.engine import seconds
from ..netsim.packet import MTU_BYTES

#: Bump when the document format changes incompatibly.
SPEC_SCHEMA_VERSION = 1

#: What a ``grid`` section may sweep: ScenarioSpec fields, then
#: ``cebinae`` (sparse override objects, merged over the top-level
#: section).
GRID_FIELDS = ("rate_bps", "rtts_ms", "buffer_mtus", "cca_mix",
               "duration_s", "cebinae")

#: The CebinaeParams fields a ``cebinae`` section may override, in
#: canonical order; the last three are integer nanoseconds.
CEBINAE_FIELDS = ("tau", "delta_port", "delta_flow",
                  "min_bottom_rate_fraction", "dt_ns", "vdt_ns", "l_ns")

#: A parsed ``cebinae`` section: (field, value) pairs in canonical order.
Overrides = Tuple[Tuple[str, float], ...]


class SpecError(ValueError):
    """A suite-spec document failed validation.

    The message always names the document (``source``) and the JSON
    path of the offending value, so a broken spec in a directory of
    fifty is locatable without a debugger.
    """


def _fail(source: str, path: str, message: str) -> "SpecError":
    return SpecError(f"{source}: {path}: {message}")


def _expect_mapping(source: str, path: str, value: Any
                    ) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise _fail(source, path, f"expected an object, got "
                    f"{type(value).__name__}")
    return value


def _expect_keys(source: str, path: str, data: Mapping[str, Any],
                 known: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise _fail(source, path,
                    f"unknown key(s) {unknown}; known: {sorted(known)}")


def _expect_number(source: str, path: str, value: Any) -> float:
    # Python's json accepts Infinity and NaN; no field means either.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise _fail(source, path,
                    f"expected a finite number, got {value!r}")
    return float(value)


def _expect_int(source: str, path: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(source, path, f"expected an integer, got {value!r}")
    return value


def _expect_bool(source: str, path: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise _fail(source, path, f"expected a boolean, got {value!r}")
    return value


def _expect_str(source: str, path: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(source, path,
                    f"expected a non-empty string, got {value!r}")
    return value


def _parse_mix(source: str, path: str, value: Any
               ) -> Tuple[Tuple[str, int], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _fail(source, path,
                    "expected a non-empty list of [cca, count] pairs")
    mix: List[Tuple[str, int]] = []
    for index, pair in enumerate(value):
        here = f"{path}[{index}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise _fail(source, here,
                        f"expected a [cca, count] pair, got {pair!r}")
        cca = _expect_str(source, f"{here}[0]", pair[0])
        count = _expect_int(source, f"{here}[1]", pair[1])
        mix.append((cca, count))
    return tuple(mix)


def _parse_floats(source: str, path: str, value: Any
                  ) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _fail(source, path, "expected a non-empty list of numbers")
    return tuple(_expect_number(source, f"{path}[{i}]", v)
                 for i, v in enumerate(value))


# --------------------------------------------------------------------------
# The parking-lot scenario document.
# --------------------------------------------------------------------------

_PARKING_KEYS = ("rate_bps", "buffer_mtus", "num_long", "long_cca",
                 "cross_mix", "duration_s", "access_delay_ms",
                 "bottleneck_delay_ms", "paper_rate_bps", "tau")


def _parse_parking(source: str, name: str, data: Mapping[str, Any]
                   ) -> ParkingLotSpec:
    path = "parking_lot"
    _expect_keys(source, path, data, _PARKING_KEYS)
    for key in ("rate_bps", "buffer_mtus", "num_long", "long_cca",
                "cross_mix", "duration_s"):
        if key not in data:
            raise _fail(source, path, f"missing required key {key!r}")
    kwargs: Dict[str, Any] = {
        "name": name,
        "rate_bps": _expect_number(source, f"{path}.rate_bps",
                                   data["rate_bps"]),
        "buffer_mtus": _expect_int(source, f"{path}.buffer_mtus",
                                   data["buffer_mtus"]),
        "num_long": _expect_int(source, f"{path}.num_long",
                                data["num_long"]),
        "long_cca": _expect_str(source, f"{path}.long_cca",
                                data["long_cca"]),
        "cross_mix": _parse_mix(source, f"{path}.cross_mix",
                                data["cross_mix"]),
        "duration_s": _expect_number(source, f"{path}.duration_s",
                                     data["duration_s"]),
    }
    for key in ("access_delay_ms", "bottleneck_delay_ms",
                "paper_rate_bps"):
        if key in data:
            kwargs[key] = _expect_number(source, f"{path}.{key}",
                                         data[key])
    if data.get("tau") is not None:
        kwargs["tau"] = _expect_number(source, f"{path}.tau",
                                       data["tau"])
    try:
        return ParkingLotSpec(**kwargs)
    except ValueError as exc:
        raise _fail(source, path, str(exc)) from exc


def _parking_to_dict(spec: ParkingLotSpec) -> Dict[str, Any]:
    """The ``parking_lot`` section (the name sits at the top level)."""
    return {
        "rate_bps": spec.rate_bps,
        "buffer_mtus": spec.buffer_mtus,
        "num_long": spec.num_long,
        "long_cca": spec.long_cca,
        "cross_mix": [list(pair) for pair in spec.cross_mix],
        "duration_s": spec.duration_s,
        "access_delay_ms": spec.access_delay_ms,
        "bottleneck_delay_ms": spec.bottleneck_delay_ms,
        "paper_rate_bps": spec.paper_rate_bps,
        "tau": spec.tau,
    }


# --------------------------------------------------------------------------
# The dumbbell scenario document.
# --------------------------------------------------------------------------

_SCENARIO_KEYS = ("rate_bps", "rtts_ms", "buffer_mtus", "cca_mix",
                  "duration_s", "start_times_s")


def _parse_scenario(source: str, name: str, data: Mapping[str, Any]
                    ) -> ScenarioSpec:
    path = "scenario"
    _expect_keys(source, path, data, _SCENARIO_KEYS)
    for key in ("rate_bps", "rtts_ms", "buffer_mtus", "cca_mix",
                "duration_s"):
        if key not in data:
            raise _fail(source, path, f"missing required key {key!r}")
    starts = None
    if data.get("start_times_s") is not None:
        starts = _parse_floats(source, f"{path}.start_times_s",
                               data["start_times_s"])
    try:
        return ScenarioSpec(
            name=name,
            rate_bps=_expect_number(source, f"{path}.rate_bps",
                                    data["rate_bps"]),
            rtts_ms=_parse_floats(source, f"{path}.rtts_ms",
                                  data["rtts_ms"]),
            buffer_mtus=_expect_int(source, f"{path}.buffer_mtus",
                                    data["buffer_mtus"]),
            cca_mix=_parse_mix(source, f"{path}.cca_mix",
                               data["cca_mix"]),
            duration_s=_expect_number(source, f"{path}.duration_s",
                                      data["duration_s"]),
            start_times_s=starts)
    except SpecError:
        raise
    except ValueError as exc:
        raise _fail(source, path, str(exc)) from exc


def _scenario_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    return {
        "rate_bps": spec.rate_bps,
        "rtts_ms": list(spec.rtts_ms),
        "buffer_mtus": spec.buffer_mtus,
        "cca_mix": [list(pair) for pair in spec.cca_mix],
        "duration_s": spec.duration_s,
        "start_times_s": list(spec.start_times_s)
        if spec.start_times_s is not None else None,
    }


# --------------------------------------------------------------------------
# Grid axes and policy overrides.
# --------------------------------------------------------------------------

def _parse_grid(source: str, data: Mapping[str, Any]
                ) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    _expect_keys(source, "grid", data, GRID_FIELDS)
    # Axis order follows the canonical GRID_FIELDS order, not the
    # document's key order, so point numbering is key-order independent.
    for field_name in GRID_FIELDS:
        if field_name not in data:
            continue
        values = data[field_name]
        if not isinstance(values, (list, tuple)) or not values:
            raise _fail(source, f"grid.{field_name}",
                        "expected a non-empty list of values")
        converted: List[Any] = []
        for index, value in enumerate(values):
            here = f"grid.{field_name}[{index}]"
            if field_name == "rtts_ms":
                converted.append(_parse_floats(source, here, value))
            elif field_name == "cca_mix":
                converted.append(_parse_mix(source, here, value))
            elif field_name == "buffer_mtus":
                converted.append(_expect_int(source, here, value))
            elif field_name == "cebinae":
                converted.append(_parse_cebinae(source, here, value))
            else:
                converted.append(_expect_number(source, here, value))
        axes.append((field_name, tuple(converted)))
    return tuple(axes)


def _grid_to_dict(grid: Tuple[Tuple[str, Tuple[Any, ...]], ...]
                  ) -> Dict[str, Any]:
    def encode(field_name: str, value: Any) -> Any:
        if field_name == "rtts_ms":
            return list(value)
        if field_name == "cca_mix":
            return [list(pair) for pair in value]
        if field_name == "cebinae":
            return dict(value)
        return value

    return {field_name: [encode(field_name, v) for v in values]
            for field_name, values in grid}


_POLICY_FIELDS = tuple(f.name for f in
                       dataclasses.fields(ScalePolicy))


def _parse_policy(source: str, data: Mapping[str, Any]) -> ScalePolicy:
    _expect_keys(source, "policy", data, _POLICY_FIELDS)
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "max_flows":
            kwargs[key] = _expect_int(source, f"policy.{key}", value)
        else:
            kwargs[key] = _expect_number(source, f"policy.{key}", value)
        problem = policy_field_problem(key, kwargs[key])
        if problem is not None:
            raise _fail(source, f"policy.{key}", problem)
    return ScalePolicy(**kwargs)


def _policy_to_dict(policy: ScalePolicy) -> Dict[str, Any]:
    """Only the fields that differ from the defaults (sparse docs)."""
    default = ScalePolicy()
    return {f.name: getattr(policy, f.name)
            for f in dataclasses.fields(ScalePolicy)
            if getattr(policy, f.name) != getattr(default, f.name)}


def _parse_cebinae(source: str, path: str, value: Any) -> Overrides:
    data = _expect_mapping(source, path, value)
    _expect_keys(source, path, data, CEBINAE_FIELDS)
    return tuple(
        (key, _expect_int(source, f"{path}.{key}", data[key])
         if key.endswith("_ns")
         else _expect_number(source, f"{path}.{key}", data[key]))
        for key in CEBINAE_FIELDS if key in data)


def _with_cebinae(scaled: ScaledScenario,
                 overrides: Mapping[str, float]) -> ScaledScenario:
    """``scaled`` with fields of its policy-derived Cebinae parameters
    replaced.

    P is derived again from the final dT (``ceil(max_rtt / dT)``, the
    rule of both ``ScalePolicy.cebinae_params`` and
    ``CebinaeParams.for_link``) and the result must satisfy Equation
    (2) on the scaled link; a violation raises ``ValueError``.
    """
    params = dataclasses.replace(scaled.cebinae, **overrides)
    spec = scaled.spec
    params = dataclasses.replace(params, recompute_rounds=max(
        1, math.ceil(seconds(spec.max_rtt_s) / params.dt_ns)))
    params.validate_for_link(spec.rate_bps, spec.buffer_mtus * MTU_BYTES)
    return dataclasses.replace(scaled, cebinae=params)


# --------------------------------------------------------------------------
# Compiled runs.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledRun:
    """One executable point of a suite spec.

    ``runspec`` shares fingerprints — and hence cache entries — with
    the figure sweeps.  ``label`` is unique within the suite and keys
    the golden files.
    """

    label: str
    runspec: RunSpec

    def fingerprint(self) -> str:
        return self.runspec.fingerprint()

    def task(self) -> Task:
        return dataclasses.replace(scenario_task(self.runspec),
                                   label=self.label)


# --------------------------------------------------------------------------
# The suite spec itself.
# --------------------------------------------------------------------------

_TOP_KEYS = ("schema_version", "name", "description", "topology",
             "scenario", "parking_lot", "grid", "policy", "disciplines",
             "collect_series", "record_history", "repeats", "base_seed",
             "faults", "backend", "cebinae")


@dataclass(frozen=True)
class SuiteSpec:
    """One parsed suite document, ready to compile.

    ``scenario`` is set for dumbbell topologies, ``parking`` for
    parking lots — exactly one of the two.  ``grid`` sweeps dumbbell
    scenario fields (cartesian product, canonical axis order);
    ``repeats`` replicates every point with seeds derived from
    ``base_seed`` via :func:`repro.faults.schedule.derive_seed`.
    ``cebinae`` overrides fields of the policy-derived Cebinae
    parameters of every dumbbell point (see :func:`_with_cebinae`).
    """

    name: str
    scenario: Optional[ScenarioSpec] = None
    parking: Optional[ParkingLotSpec] = None
    description: str = ""
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    policy: ScalePolicy = ScalePolicy()
    disciplines: Tuple[Discipline, ...] = (Discipline.FIFO,
                                           Discipline.CEBINAE)
    collect_series: bool = False
    record_history: bool = False
    repeats: int = 1
    base_seed: int = 0
    faults: Optional[FaultSpec] = None
    backend: str = "packet"
    cebinae: Overrides = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("suite spec name must not be empty")
        if self.parking is not None and self.cebinae:
            raise ValueError(
                f"suite spec {self.name!r}: a parking lot's one Cebinae "
                f"override is parking_lot.tau")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"suite spec {self.name!r}: backend must be one of "
                f"{sorted(BACKENDS)}, got {self.backend!r}")
        if self.parking is not None and self.backend != "packet":
            raise ValueError(
                f"suite spec {self.name!r}: the hybrid backend models "
                f"a single bottleneck; parking-lot topologies run "
                f"packet-level only")
        if (Discipline.AFQ in self.disciplines
                and self.backend != "packet"):
            raise ValueError(
                f"suite spec {self.name!r}: {AFQ_HYBRID_REFUSAL}")
        if (self.scenario is None) == (self.parking is None):
            raise ValueError(
                f"suite spec {self.name!r}: exactly one of 'scenario' "
                f"and 'parking_lot' must be given")
        if self.parking is not None and self.grid:
            raise ValueError(
                f"suite spec {self.name!r}: grid axes apply to "
                f"dumbbell scenarios only")
        if self.parking is not None and self.record_history:
            raise ValueError(
                f"suite spec {self.name!r}: record_history keeps one "
                f"bottleneck's control-plane history; a parking lot "
                f"has one agent per segment")
        if not self.disciplines:
            raise ValueError(
                f"suite spec {self.name!r}: disciplines must not be "
                f"empty")
        if len(set(self.disciplines)) != len(self.disciplines):
            raise ValueError(
                f"suite spec {self.name!r}: duplicate disciplines")
        if self.repeats < 1:
            raise ValueError(
                f"suite spec {self.name!r}: repeats must be >= 1, got "
                f"{self.repeats!r}")
        if self.base_seed < 0:
            raise ValueError(
                f"suite spec {self.name!r}: base_seed must be >= 0")

    # -- parsing and serialisation ---------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  source: str = "<spec>") -> "SuiteSpec":
        data = _expect_mapping(source, "$", data)
        _expect_keys(source, "$", data, _TOP_KEYS)
        version = data.get("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise _fail(source, "schema_version",
                        f"unsupported version {version!r} (this build "
                        f"reads version {SPEC_SCHEMA_VERSION})")
        if "name" not in data:
            raise _fail(source, "$", "missing required key 'name'")
        name = _expect_str(source, "name", data["name"])
        topology = data.get("topology", "dumbbell")
        if topology not in ("dumbbell", "parking_lot"):
            raise _fail(source, "topology",
                        f"expected 'dumbbell' or 'parking_lot', got "
                        f"{topology!r}")
        kwargs: Dict[str, Any] = {"name": name}
        if "description" in data:
            kwargs["description"] = data["description"]
            if not isinstance(kwargs["description"], str):
                raise _fail(source, "description",
                            "expected a string")
        if topology == "dumbbell":
            if "scenario" not in data:
                raise _fail(source, "$",
                            "dumbbell specs need a 'scenario' section")
            if "parking_lot" in data:
                raise _fail(source, "parking_lot",
                            "not allowed with topology 'dumbbell'")
            kwargs["scenario"] = _parse_scenario(
                source, name,
                _expect_mapping(source, "scenario", data["scenario"]))
        else:
            if "parking_lot" not in data:
                raise _fail(source, "$", "parking-lot specs need a "
                            "'parking_lot' section")
            if "scenario" in data or "grid" in data:
                raise _fail(source, "$",
                            "'scenario'/'grid' are not allowed with "
                            "topology 'parking_lot'")
            kwargs["parking"] = _parse_parking(
                source, name,
                _expect_mapping(source, "parking_lot",
                                data["parking_lot"]))
        if "grid" in data:
            kwargs["grid"] = _parse_grid(
                source, _expect_mapping(source, "grid", data["grid"]))
        if "policy" in data:
            kwargs["policy"] = _parse_policy(
                source, _expect_mapping(source, "policy",
                                        data["policy"]))
        if "disciplines" in data:
            raw = data["disciplines"]
            if not isinstance(raw, (list, tuple)) or not raw:
                raise _fail(source, "disciplines",
                            "expected a non-empty list")
            disciplines: List[Discipline] = []
            for index, value in enumerate(raw):
                try:
                    disciplines.append(Discipline(value))
                except ValueError:
                    known = ", ".join(d.value for d in Discipline)
                    raise _fail(source, f"disciplines[{index}]",
                                f"unknown discipline {value!r}; known: "
                                f"{known}") from None
            kwargs["disciplines"] = tuple(disciplines)
        for key in ("collect_series", "record_history"):
            if key in data:
                kwargs[key] = _expect_bool(source, key, data[key])
        if "repeats" in data:
            kwargs["repeats"] = _expect_int(source, "repeats",
                                            data["repeats"])
        if "base_seed" in data:
            kwargs["base_seed"] = _expect_int(source, "base_seed",
                                              data["base_seed"])
        if "backend" in data:
            backend = _expect_str(source, "backend", data["backend"])
            if backend not in BACKENDS:
                raise _fail(source, "backend",
                            f"expected one of {sorted(BACKENDS)}, got "
                            f"{backend!r}")
            kwargs["backend"] = backend
        if data.get("faults") is not None:
            try:
                kwargs["faults"] = FaultSpec.from_dict(
                    _expect_mapping(source, "faults", data["faults"]))
            except SpecError:
                raise
            # InvariantViolation: FaultSpec field checks route through
            # the invariants module, not plain ValueError.
            except (TypeError, ValueError, InvariantViolation) as exc:
                raise _fail(source, "faults", str(exc)) from exc
        if "cebinae" in data:
            if topology == "parking_lot":
                raise _fail(source, "cebinae",
                            "not allowed with topology 'parking_lot' "
                            "(its one Cebinae override is "
                            "parking_lot.tau)")
            kwargs["cebinae"] = _parse_cebinae(source, "cebinae",
                                               data["cebinae"])
        try:
            spec = cls(**kwargs)
        except SpecError:
            raise
        except ValueError as exc:
            raise _fail(source, "$", str(exc)) from exc
        if spec.cebinae or "cebinae" in dict(spec.grid):
            # Overrides are checked on every point's scaled link.
            spec._scaled_points(source)
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready document; ``from_dict`` restores it losslessly."""
        data: Dict[str, Any] = {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
        }
        if self.description:
            data["description"] = self.description
        if self.scenario is not None:
            data["topology"] = "dumbbell"
            data["scenario"] = _scenario_to_dict(self.scenario)
        else:
            assert self.parking is not None
            data["topology"] = "parking_lot"
            data["parking_lot"] = _parking_to_dict(self.parking)
        if self.grid:
            data["grid"] = _grid_to_dict(self.grid)
        policy = _policy_to_dict(self.policy)
        if policy:
            data["policy"] = policy
        data["disciplines"] = [d.value for d in self.disciplines]
        data["collect_series"] = self.collect_series
        data["record_history"] = self.record_history
        data["repeats"] = self.repeats
        data["base_seed"] = self.base_seed
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        if self.backend != "packet":
            # Emitted only when non-default so documents written before
            # the hybrid backend existed keep their fingerprints.
            data["backend"] = self.backend
        if self.cebinae:
            # The same rule: emitted only when set.
            data["cebinae"] = dict(self.cebinae)
        return data

    def fingerprint(self) -> str:
        """A stable digest of the whole document.

        Stamped into golden files so a stale golden (spec edited,
        golden not regenerated) is distinguishable from a real
        determinism break.
        """
        return fingerprint("SuiteSpec", {"doc": self.to_dict()})

    def with_backend(self, backend: Optional[str]) -> "SuiteSpec":
        """This spec under a command-line ``--backend`` override.

        None overrides nothing.  Parking lots and specs that run AFQ
        keep the packet backend, the only one they run on.
        """
        if (backend is None or self.parking is not None
                or Discipline.AFQ in self.disciplines):
            return self
        return dataclasses.replace(self, backend=backend)

    def _with_durations(self, duration: Callable[[float], float]
                        ) -> "SuiteSpec":
        """``duration`` applied to the scenario's (or parking lot's)
        duration and to every value of a ``duration_s`` grid axis."""
        if self.parking is not None:
            return dataclasses.replace(self, parking=dataclasses.replace(
                self.parking, duration_s=duration(self.parking.duration_s)))
        assert self.scenario is not None
        grid = tuple(
            (field_name, tuple(duration(value) for value in values)
             if field_name == "duration_s" else values)
            for field_name, values in self.grid)
        return dataclasses.replace(
            self, grid=grid, scenario=dataclasses.replace(
                self.scenario,
                duration_s=duration(self.scenario.duration_s)))

    def with_duration_cap(self, max_s: Optional[float]) -> "SuiteSpec":
        """This spec with no point longer than ``max_s`` seconds (None
        caps nothing): ``cebinae-repro <experiment> --quick``."""
        if max_s is None:
            return self
        return self._with_durations(lambda value: min(value, max_s))

    def base_point(self, duration_s: float,
                   discipline: Discipline) -> RunSpec:
        """The document's one point without its grid or repeats,
        ``duration_s`` long, under ``discipline``: its own policy,
        ``cebinae`` and ``faults`` sections and ``base_seed``.  What
        ``cebinae-repro trace`` runs."""
        base = dataclasses.replace(
            self, grid=(), repeats=1, disciplines=(discipline,)
        )._with_durations(lambda _: duration_s)
        run, = base.compile()
        return run.runspec

    # -- compilation ------------------------------------------------------
    def _points(self) -> List[Tuple[ScenarioSpec, Dict[str, float], str]]:
        """Grid expansion: per point, its ScenarioSpec, its Cebinae
        overrides (a grid value merged over the top-level section) and
        the JSON path they came from."""
        assert self.scenario is not None
        points = [(self.scenario, dict(self.cebinae), "cebinae")]
        for field_name, values in self.grid:
            if field_name == "cebinae":
                points = [(point, {**overrides, **dict(value)},
                           f"grid.cebinae[{index}]")
                          for point, overrides, _ in points
                          for index, value in enumerate(values)]
            else:
                points = [(dataclasses.replace(point,
                                               **{field_name: value}),
                           overrides, path)
                          for point, overrides, path in points
                          for value in values]
        if not self.grid:
            return points
        return [(dataclasses.replace(point, name=f"{self.name}#p{index}"),
                 overrides, path)
                for index, (point, overrides, path) in enumerate(points)]

    def _scaled_points(self, source: str
                       ) -> List[Tuple[str, ScaledScenario]]:
        """Each point's name and scaled scenario, overrides applied; an
        override the point's link rejects is a :class:`SpecError`."""
        if self.parking is not None:
            return [(self.name, self.parking.scaled(self.policy))]
        points = []
        for point, overrides, path in self._points():
            scaled = self.policy.apply(point)
            if overrides:
                try:
                    scaled = _with_cebinae(scaled, overrides)
                except ValueError as exc:
                    raise _fail(source, path,
                                f"{point.name}: {exc}") from exc
            points.append((point.name, scaled))
        return points

    def seeds(self, point_name: str) -> List[int]:
        """Per-repeat seeds: the base, then derived children.

        Repeat 0 uses ``base_seed`` unchanged so a one-repeat suite
        point is fingerprint-identical to the same scenario run by the
        figure sweeps (warm caches stay warm).
        """
        return [self.base_seed if index == 0
                else derive_seed(self.base_seed, point_name, index)
                for index in range(self.repeats)]

    def compile(self) -> List[CompiledRun]:
        """Expand grid x repeats x disciplines into executable runs."""
        if self.parking is not None and self.faults is not None:
            raise SpecError(
                f"suite spec {self.name!r}: fault injection is "
                f"not supported on parking-lot topologies yet")
        runs: List[CompiledRun] = []
        for name, scaled in self._scaled_points(f"suite spec "
                                                f"{self.name!r}"):
            for index, seed in enumerate(self.seeds(name)):
                for discipline in self.disciplines:
                    label = f"{name}/{discipline.value}"
                    if self.repeats > 1:
                        label = f"{label}@rep{index}"
                    runs.append(CompiledRun(
                        label=label,
                        runspec=RunSpec(
                            scaled=scaled, discipline=discipline,
                            collect_series=self.collect_series,
                            record_history=self.record_history,
                            seed=seed, faults=self.faults,
                            backend=self.backend)))
        labels = [run.label for run in runs]
        if len(set(labels)) != len(labels):
            raise SpecError(
                f"suite spec {self.name!r}: compiled labels collide "
                f"({labels})")
        return runs
