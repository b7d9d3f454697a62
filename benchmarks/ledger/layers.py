"""Layer attribution: fold profiles, spans and event counts by layer.

Everything here is a pure function of plain data (a ``pstats`` table,
a list of closed spans, a component->count dict), so the arithmetic is
unit-tested on synthetic inputs without running a simulation.

A *layer* is one of this repo's modules (``netsim.engine``,
``tcp.socket``, ...), or a whole package where the package is the unit
a later PR would optimise (``sweep``, ``suite``, ``obs``, ...).  Time
that belongs to no listed layer -- the standard library, the harness
itself, unlisted ``repro`` modules -- lands in ``python.other``, whose
share of the total is reported as ``trace.unattributed_share``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

OTHER = "python.other"

#: ``repro`` modules that are a layer of their own.
_MODULE_LAYERS = {
    "netsim.engine": "netsim.engine",
    "netsim.link": "netsim.link",
    "netsim.node": "netsim.node",
    "netsim.packet": "netsim.packet",
    "netsim.queues": "netsim.queues",
    "netsim.fq_codel": "netsim.fq_codel",
    "netsim.topology": "netsim.topology",
    "netsim.tracing": "netsim.tracing",
    "netsim.fluid": "netsim.fluid",
    "core.queue_disc": "core.queue_disc",
    "core.lbf": "core.lbf",
    "core.control_plane": "core.control_plane",
    "heavyhitter.hashpipe": "heavyhitter.hashpipe",
    "tcp.socket": "tcp.socket",
    "tcp.intervals": "tcp.intervals",
    "tcp.flows": "tcp.flows",
    # The CCA base class and its four implementations are one layer:
    # an optimisation of "the CCA" is judged across all of them.
    "tcp.cca": "tcp.cca",
    "tcp.newreno": "tcp.cca",
    "tcp.cubic": "tcp.cca",
    "tcp.vegas": "tcp.cca",
    "tcp.bbr": "tcp.cca",
    "experiments.runner": "experiments.runner",
    "experiments.scenarios": "experiments.scenarios",
    "experiments.parallel": "experiments.parallel",
    "analysis.invariants": "analysis.invariants",
}

#: ``repro`` packages folded whole into one layer.
_PACKAGE_LAYERS = ("fairness", "suite", "sweep", "obs", "faults")

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(list(_MODULE_LAYERS.values())
                  + list(_PACKAGE_LAYERS) + [OTHER]))

#: ``HotPathProfiler`` components reported by name; the rest is "other".
EVENT_COMPONENTS = ("Link", "Host", "Router", "TcpSender",
                    "CebinaeControlPlane")

#: Span phase names (``repro.obs.spans.RUN_PHASES``) -> metric suffix.
_PHASE_METRICS = {"warmup": "phase.warmup_s",
                  "stability-probe": "phase.stability_probe_s",
                  "fluid-epoch": "phase.fluid_epoch_s",
                  "drain": "phase.drain_s"}

def owner_of(filename: str) -> Optional[str]:
    """The layer owning a source file, or None for foreign code.

    Foreign code -- C builtins (``~``), the standard library,
    site-packages, generated ``<string>`` code, this harness -- owns no
    time of its own: it is charged to whoever called it.  A ``repro``
    module that is no listed layer owns its time as ``python.other``.
    """
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return None
    module = path[at + len(marker):-3].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    layer = _MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    package = module.split(".", 1)[0]
    return package if package in _PACKAGE_LAYERS else OTHER


FuncKey = Tuple[str, int, str]


#: Columns of a pstats per-caller record: (ncalls, primitive, tottime, ...).
_CALLS, _TIME = 0, 2


def fold_profile(stats: Mapping[FuncKey, Tuple[int, int, float, float,
                                               Mapping[FuncKey, Any]]]
                 ) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats(...).stats`` table into per-layer totals.

    Returns ``{layer: {"self_s": seconds, "calls": count}}`` for every
    layer in :data:`LAYERS`.  A ``repro`` function's ``tottime`` and
    call count go to the layer of its source file.  Foreign code (see
    :func:`owner_of`) has no layer: its ``tottime`` is split among its
    callers in proportion to the per-caller ``tottime`` the profiler
    recorded, and its calls go to the callers that made them; foreign
    code called from foreign code is charged to whoever *that* is
    charged to, and what nobody in ``repro`` called ends in
    ``python.other``.  Both splits are normalised, so the layer sums
    equal the profile's total ``tottime`` and total call count (up to
    float rounding); the call split uses call counts only, so it
    repeats exactly when the calls do.
    """
    folded = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    memo: Dict[Tuple[FuncKey, int], Dict[str, float]] = {}

    def caller_weights(func: FuncKey, column: int
                       ) -> Dict[FuncKey, float]:
        """Each caller's fraction of a callee's cost (sums to 1)."""
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        # Time too small for the clock falls back to call counts.
        for by in (column, _CALLS):
            total = float(sum(record[by] for record in callers.values()))
            if total > 0.0:
                return {caller: record[by] / total
                        for caller, record in callers.items()}
        return {}

    def payers(func: FuncKey, column: int, active: Tuple[FuncKey, ...]
               ) -> Dict[str, float]:
        """Fractions (summing to 1) of a function's cost per layer."""
        owner = owner_of(func[0])
        if owner is not None:
            return {owner: 1.0}
        if (func, column) in memo:
            return memo[func, column]
        weights = caller_weights(func, column)
        if not weights:
            return {OTHER: 1.0}    # A root: nobody to charge.
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            # A cycle of foreign callers (json's encoder, deepcopy)
            # never reaches repro by that path; the part on the active
            # path stays unattributed.
            part = ({OTHER: 1.0} if caller in active
                    else payers(caller, column, active + (func,)))
            for layer, fraction in part.items():
                out[layer] = out.get(layer, 0.0) + fraction * weight
        if not active:
            # Only top-level results are independent of the path.
            memo[func, column] = out
        return out

    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        for column, key, amount in ((_TIME, "self_s", tottime),
                                    (_CALLS, "calls", ncalls)):
            for layer, fraction in payers(func, column, ()).items():
                folded[layer][key] += amount * fraction
    return folded


def fold_events(component_events: Mapping[str, int]) -> Dict[str, int]:
    """``HotPathProfiler`` per-component counts -> ``events.*`` metrics."""
    out = {f"events.{name}": int(component_events.get(name, 0))
           for name in EVENT_COMPONENTS}
    out["events.other"] = int(sum(
        count for name, count in component_events.items()
        if name not in EVENT_COMPONENTS))
    return out


def fold_spans(spans: Iterable[Mapping[str, Any]],
               ops_wall_s: float) -> Dict[str, float]:
    """Phase arithmetic over closed spans (``SpanEvent.to_dict`` rows).

    ``ops_wall_s`` is the host time of the operations the spans were
    recorded under, measured around the public call (``run_scenario``
    or a task function).  Then::

        build   = ops wall - sum(run spans)      # topology, flows
        collect = sum(run spans) - sum(phases)   # result collection

    A parking-lot run opens no ``run`` span, only the engine's; such a
    root ``engine`` span counts as both the run and its ``drain``.
    """
    out = {name: 0.0 for name in _PHASE_METRICS.values()}
    run_wall = 0.0
    rounds = 0
    round_wall = 0.0
    for span in spans:
        kind, wall = span["kind"], float(span["wall_s"])
        if kind == "run":
            run_wall += wall
        elif kind == "phase":
            metric = _PHASE_METRICS.get(span["name"])
            if metric is not None:
                out[metric] += wall
        elif kind == "engine" and not span["parent_id"]:
            run_wall += wall
            out["phase.drain_s"] += wall
        elif kind == "round":
            rounds += 1
            round_wall += wall
    phases = sum(out.values())
    out["phase.build_s"] = max(0.0, ops_wall_s - run_wall)
    out["phase.collect_s"] = max(0.0, run_wall - phases)
    out["control.rounds"] = rounds
    out["control.round_s"] = round_wall
    return out


def fold_fabric_overheads(spans: Iterable[Mapping[str, Any]],
                          cold_s: float, work_s: float
                          ) -> Dict[str, float]:
    """Executor cost per task, from one in-process sweep_fabric body.

    Overhead is the pass's host time minus the time spent *inside* the
    simulations it ran, both taken from the same pass so that a host
    that slows down between passes cannot fake or hide it.  A
    simulation is a ``run`` span, or for a parking-lot task (which
    opens none) its ``engine`` span.  Under the sweep worker those
    spans hang below a ``task`` span; under the pool they are roots.
    """
    pool_inside = fabric_inside = 0.0
    pool_tasks = fabric_tasks = 0
    tasks = set()
    rows = list(spans)
    for span in rows:
        if span["kind"] == "task":
            tasks.add(span["span_id"])
            fabric_tasks += 1
    for span in rows:
        if span["kind"] not in ("run", "engine"):
            continue
        if span["parent_id"] in tasks:
            fabric_inside += float(span["wall_s"])
        elif not span["parent_id"]:
            pool_inside += float(span["wall_s"])
            pool_tasks += 1
    return {
        "parallel.overhead_ms_per_task":
            (cold_s - pool_inside) / max(1, pool_tasks) * 1e3,
        "sweep.overhead_ms_per_task":
            (work_s - fabric_inside) / max(1, fabric_tasks) * 1e3,
    }
