"""The project-wide determinism-taint pass (D2xx).

The D1xx rules see one module at a time, so a wall-clock read in a
helper looks like a local hygiene problem — until a scheduler two
modules away consumes its value and the replay contract breaks.  This
pass builds an import/call graph over *all* linted files and connects
**sources** (the surviving D1xx findings: ``hash()``, unseeded RNGs,
host clocks, set-order leaks) to **sinks** (``Simulator.schedule*`` and
``post*``, ``ScenarioResult`` construction, cache fingerprints, trace
emission) through function calls, reporting at both ends:

* **D201** at the sink: "this schedule()/result/fingerprint can be
  fed by nondeterminism N call-levels away", with the chain.
* **D202** at the source: "this is not just local hygiene — the value
  can reach sink S", with the reverse chain.

Design notes:

* Taint seeds are the **unsuppressed** D1xx findings the module
  checker produced: an ``# simlint: allow[D103] reason`` comment both
  silences the local finding and certifies the value never reaches
  simulation state, so it stops propagation too.  That keeps this
  pass false-positive-free on a tree whose D1xx findings are all
  triaged.
* Propagation is call-graph reachability, an over-approximation of
  dataflow: a sink function that (transitively) calls a source
  function is flagged even if the tainted value does not feed the
  sink argument.  With triaged seeds the residual noise is zero, and
  the over-approximation is what lets the pass run without a full
  interprocedural dataflow engine.
* Call edges resolve module-local names, ``from``-imports, module
  aliases, and ``self.method`` receivers exactly; other attribute
  calls fall back to a unique-name match across the project (skipped
  when ambiguous), so duck-typed helper methods still connect.
* Everything is sorted before traversal, so the emitted findings are
  byte-stable across runs and file orderings.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .astutil import ImportMap, call_name
from .findings import Finding
from .rules import RULES

#: D1xx rules whose findings seed taint.
SOURCE_RULE_IDS = frozenset({"D101", "D102", "D103", "D104"})

#: Call names that constitute determinism sinks, with display labels.
SINK_CALL_NAMES: Dict[str, str] = {
    "schedule": "Simulator.schedule()",
    "schedule_at": "Simulator.schedule_at()",
    "post": "Simulator.post()",
    "post_at": "Simulator.post_at()",
    "ScenarioResult": "ScenarioResult construction",
    "fingerprint": "cache fingerprint",
    "emit": "trace emission",
    "publish": "trace emission",
}


@dataclass(frozen=True)
class RawCall:
    """One unresolved outgoing call recorded during extraction."""

    kind: str          # "local" | "self" | "dotted" | "method"
    target: str        # name, dotted path, or Class.method
    line: int


@dataclass
class FunctionInfo:
    """Call-graph node: one module-level function or method."""

    qual: str
    module: str
    name: str
    path: str
    lineno: int
    end_lineno: int
    sinks: List[Tuple[str, int]] = field(default_factory=list)
    raw_calls: List[RawCall] = field(default_factory=list)
    #: (rule_id, line, summary) seeds attributed from D1xx findings.
    sources: List[Tuple[str, int, str]] = field(default_factory=list)


@dataclass
class ModuleTaintInfo:
    """Everything the project pass needs from one parsed module."""

    path: str
    module: str
    functions: List[FunctionInfo]


def extract_module(path: str, tree: ast.Module,
                   module: str) -> ModuleTaintInfo:
    """Collect function nodes, sink calls and raw call edges."""
    imports = ImportMap(tree, module)
    functions: List[FunctionInfo] = []

    def extract_function(node: ast.AST, qual: str,
                         class_name: Optional[str]) -> FunctionInfo:
        info = FunctionInfo(
            qual=qual, module=module,
            name=qual.rsplit(".", 1)[-1], path=path,
            lineno=node.lineno,
            end_lineno=getattr(node, "end_lineno", node.lineno))
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            callee = call_name(sub.func)
            if callee is None:
                continue
            if callee in SINK_CALL_NAMES:
                info.sinks.append((SINK_CALL_NAMES[callee],
                                   sub.lineno))
            func = sub.func
            if isinstance(func, ast.Name):
                dotted = imports.resolve(func)
                if dotted is not None:
                    info.raw_calls.append(
                        RawCall("dotted", dotted, sub.lineno))
                else:
                    info.raw_calls.append(
                        RawCall("local", callee, sub.lineno))
            elif isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and \
                        func.value.id == "self" and class_name:
                    info.raw_calls.append(RawCall(
                        "self", f"{class_name}.{callee}", sub.lineno))
                    continue
                dotted = imports.resolve(func)
                if dotted is not None:
                    info.raw_calls.append(
                        RawCall("dotted", dotted, sub.lineno))
                else:
                    info.raw_calls.append(
                        RawCall("method", callee, sub.lineno))
        return info

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(extract_function(
                stmt, f"{module}.{stmt.name}", None))
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    functions.append(extract_function(
                        sub, f"{module}.{stmt.name}.{sub.name}",
                        stmt.name))
    return ModuleTaintInfo(path=path, module=module,
                           functions=functions)


def _attribute_sources(modules: Sequence[ModuleTaintInfo],
                       seeds_by_path: Dict[str, List[Finding]]) -> None:
    for info in modules:
        seeds = [f for f in seeds_by_path.get(info.path, ())
                 if f.rule_id in SOURCE_RULE_IDS]
        if not seeds:
            continue
        for function in info.functions:
            for finding in seeds:
                if function.lineno <= finding.line \
                        <= function.end_lineno:
                    function.sources.append((
                        finding.rule_id, finding.line,
                        RULES[finding.rule_id].name))


def _resolve_edges(
        modules: Sequence[ModuleTaintInfo]
) -> Dict[str, List[Tuple[str, int]]]:
    """Turn raw calls into (callee qual, call line) adjacency lists."""
    by_qual: Dict[str, FunctionInfo] = {}
    by_name: Dict[str, List[str]] = {}
    by_class_method: Dict[str, List[str]] = {}
    for info in modules:
        for function in info.functions:
            by_qual[function.qual] = function
            by_name.setdefault(function.name, []).append(function.qual)
            parts = function.qual.rsplit(".", 2)
            if len(parts) == 3:
                by_class_method.setdefault(
                    f"{parts[1]}.{parts[2]}", []).append(function.qual)

    edges: Dict[str, List[Tuple[str, int]]] = {}
    for info in modules:
        for function in info.functions:
            out: List[Tuple[str, int]] = []
            for raw in function.raw_calls:
                target: Optional[str] = None
                if raw.kind == "local":
                    candidate = f"{function.module}.{raw.target}"
                    if candidate in by_qual:
                        target = candidate
                elif raw.kind == "dotted":
                    if raw.target in by_qual:
                        target = raw.target
                elif raw.kind == "self":
                    candidate = f"{function.module}.{raw.target}"
                    if candidate in by_qual:
                        target = candidate
                    else:
                        quals = by_class_method.get(raw.target, ())
                        if len(quals) == 1:
                            target = quals[0]
                elif raw.kind == "method":
                    quals = by_name.get(raw.target, ())
                    if len(quals) == 1:
                        target = quals[0]
                if target is not None and target != function.qual:
                    out.append((target, raw.line))
            # Deterministic, deduplicated adjacency (keep first line).
            seen: Dict[str, int] = {}
            for qual, line in out:
                if qual not in seen:
                    seen[qual] = line
            edges[function.qual] = sorted(seen.items())
    return edges


def run_taint(modules: Sequence[ModuleTaintInfo],
              seeds_by_path: Dict[str, List[Finding]]) -> List[Finding]:
    """The project pass: connect sources to sinks over the call graph."""
    modules = sorted(modules, key=lambda m: (m.path, m.module))
    _attribute_sources(modules, seeds_by_path)
    edges = _resolve_edges(modules)
    by_qual: Dict[str, FunctionInfo] = {
        function.qual: function
        for info in modules for function in info.functions}

    findings: List[Finding] = []
    emitted_sources: Dict[Tuple[str, int], int] = {}
    for info in modules:
        for function in info.functions:
            if not function.sinks:
                continue
            # BFS from the sink function; the first tainted function
            # on each path yields one chain (shortest, deterministic).
            chains = _find_chains(function, edges, by_qual)
            for source_fn, path_quals, entry_line in chains:
                if source_fn.qual == function.qual:
                    continue
                sink_label, sink_line = function.sinks[0]
                chain_text = " -> ".join(
                    by_qual[q].name for q in path_quals)
                for rule_id, src_line, src_name in source_fn.sources:
                    findings.append(Finding(
                        path=function.path, line=sink_line, col=1,
                        rule_id="D201",
                        message=(
                            f"{sink_label} in {function.name}() is "
                            f"reachable from nondeterminism source "
                            f"{src_name} ({rule_id}) at "
                            f"{source_fn.path}:{src_line} via "
                            f"{chain_text}"),
                        related=((source_fn.path, src_line,
                                  f"source {src_name}"),)))
                    key = (source_fn.path, src_line)
                    if key not in emitted_sources:
                        emitted_sources[key] = 1
                        reverse = " <- ".join(
                            by_qual[q].name
                            for q in reversed(path_quals))
                        findings.append(Finding(
                            path=source_fn.path, line=src_line, col=1,
                            rule_id="D202",
                            message=(
                                f"nondeterminism source {src_name} "
                                f"({rule_id}) feeds {sink_label} at "
                                f"{function.path}:{sink_line} via "
                                f"{reverse}"),
                            related=((function.path, sink_line,
                                      f"sink {sink_label}"),)))
    return findings


def _find_chains(
        sink_fn: FunctionInfo,
        edges: Dict[str, List[Tuple[str, int]]],
        by_qual: Dict[str, FunctionInfo],
) -> List[Tuple[FunctionInfo, Tuple[str, ...], int]]:
    """Shortest call chains from ``sink_fn`` to each source function.

    Returns (source function, qual chain sink->source, line of the
    first call edge) triples, one per reachable source function, in
    deterministic order.
    """
    chains: List[Tuple[FunctionInfo, Tuple[str, ...], int]] = []
    visited = {sink_fn.qual}
    queue: deque = deque()
    queue.append((sink_fn.qual, (sink_fn.qual,), None))
    while queue:
        qual, path_quals, entry_line = queue.popleft()
        function = by_qual[qual]
        if function.sources and qual != sink_fn.qual:
            chains.append((function, path_quals,
                           entry_line if entry_line is not None
                           else function.lineno))
            # Do not traverse beyond a tainted function: the nearest
            # source explains the chain.
            continue
        for callee, line in edges.get(qual, ()):
            if callee in visited:
                continue
            visited.add(callee)
            queue.append((callee, path_quals + (callee,),
                          entry_line if entry_line is not None
                          else line))
    return chains
