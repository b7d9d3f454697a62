"""simlint: an AST-based determinism and hygiene analyzer.

The simulator's reproduction claims rest on bit-identical replay: the
same scenario fingerprint must produce the same packet schedule in any
process (see DESIGN.md section 8).  PR 1 found a PYTHONHASHSEED-
dependent ``hash()`` in FQ-CoDel only because a determinism *test*
happened to execute it; this module turns that whole bug class into an
analysis-time gate.

One pass, one pipeline.  :func:`lint_source` is the pipeline for one
module's text: parse (E901) → :class:`_ModuleChecker` (D1xx
determinism, H3xx hygiene) →
``# simlint: allow[ID] reason`` suppressions → the S9xx audit of those
comments → sort.  :func:`lint_paths` is a loop over
:func:`iter_python_files` calling it.  The catalog (IDs, summaries,
hints) is :mod:`repro.analysis.rules`; :class:`Finding` and the
suppression machinery are :mod:`repro.analysis.findings`.

Findings are deliberately *syntactic and conservative*: the checker
only flags what it can prove from one module's AST (a set literal
iterated in a dict comprehension, an unseeded ``random.Random()``), so
a clean run is a meaningful invariant rather than a type-inference
lottery.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from .findings import (Finding, apply_suppressions, audit,
                       collect_suppressions)

#: Wall-clock / host-clock callables (D103).  Monotonic and CPU clocks
#: are included: *any* host clock read inside simulation logic breaks
#: replay, and legitimate host-side timing must be annotated.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module-level functions of :mod:`random` that draw from (or reseed)
#: the hidden global generator (D102).
GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "triangular",
    "choice", "choices", "shuffle", "sample", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getrandbits", "randbytes", "seed",
})

#: Legacy ``numpy.random`` module-level functions (global RandomState).
GLOBAL_NP_RANDOM_FUNCS = frozenset({
    "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "bytes",
    "uniform", "normal", "standard_normal", "poisson", "exponential",
    "binomial", "zipf", "pareto", "seed",
})

#: RNG constructors that are deterministic only when given a seed.
SEEDED_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
})

#: Builtins that consume an iterable without exposing its order (a set
#: flowing straight into one of these cannot leak ordering).
ORDER_INSENSITIVE_SINKS = frozenset({
    "sorted", "sum", "min", "max", "len", "any", "all",
    "set", "frozenset",
})

#: Callables that materialise iteration order (D104 trigger points).
ORDER_MATERIALIZING_CALLS = frozenset({
    "list", "tuple", "enumerate", "iter", "next", "join",
})

#: Set methods whose result is another set.
SET_RETURNING_METHODS = frozenset({
    "difference", "union", "intersection", "symmetric_difference",
    "copy",
})

#: Annotation heads recognised as set types.
SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
    "MutableSet",
})

#: Builtins whose shadowing corrupts later lookups in engine code.
SHADOW_SENSITIVE_BUILTINS = frozenset({
    "hash", "id", "sum", "min", "max", "len", "list", "dict", "set",
    "sorted", "tuple", "type", "next", "filter", "map", "range",
})


def _call_name(func: ast.expr) -> Optional[str]:
    """The trailing identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    head: ast.expr = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr in SET_ANNOTATIONS
    if isinstance(head, ast.Name):
        return head.id in SET_ANNOTATIONS
    if isinstance(head, ast.Constant) and isinstance(head.value, str):
        # String annotation: look at its head token only.
        text = head.value.split("[", 1)[0].strip()
        return text.rsplit(".", 1)[-1] in SET_ANNOTATIONS
    return False


class _ModuleChecker(ast.NodeVisitor):
    """The single-module pass: local D1xx/H3xx rules."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        # Import alias maps: local name -> canonical dotted module/attr.
        self._module_aliases: Dict[str, str] = {}
        self._member_aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self._module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._member_aliases[local] = \
                        f"{node.module}.{alias.name}"
        # Module-level defs/classes/imports for H302.
        self._module_defs: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._module_defs.add(stmt.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self._module_defs.add(
                        alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name != "*":
                        self._module_defs.add(alias.asname or alias.name)
        # Scope stacks.
        self._set_scopes: List[Set[str]] = [set()]
        self._function_depth = 0
        self._param_stack: List[Set[str]] = []
        self._class_set_attrs: List[Set[str]] = []

    # ------------------------------------------------------------------
    # plumbing

    def _flag(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            end_line=getattr(node, "end_lineno", None),
        ))

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, if known."""
        if isinstance(node, ast.Name):
            if node.id in self._member_aliases:
                return self._member_aliases[node.id]
            if node.id in self._module_aliases:
                return self._module_aliases[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def _parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    # ------------------------------------------------------------------
    # set-typedness (D104 support)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if isinstance(node.func, ast.Name) and \
                    name in {"set", "frozenset"}:
                return True
            if isinstance(node.func, ast.Attribute) and \
                    name in SET_RETURNING_METHODS and \
                    self._is_set_expr(node.func.value):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left) or \
                self._is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body) or \
                self._is_set_expr(node.orelse)
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return any(node.attr in attrs
                       for attrs in self._class_set_attrs)
        return False

    def _record_set_binding(self, target: ast.expr,
                            value: Optional[ast.expr],
                            annotation: Optional[ast.expr] = None) -> None:
        is_set = _annotation_is_set(annotation) or (
            value is not None and self._is_set_expr(value))
        if isinstance(target, ast.Name):
            scope = self._set_scopes[-1]
            if is_set:
                scope.add(target.id)
            else:
                scope.discard(target.id)

    # ------------------------------------------------------------------
    # scopes

    def _visit_function(self, node: Union[ast.FunctionDef,
                                          ast.AsyncFunctionDef]) -> None:
        self._check_mutable_defaults(node)
        args = node.args
        params = {a.arg for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs))}
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        param_sets = {
            a.arg for a in (list(args.posonlyargs) + list(args.args)
                            + list(args.kwonlyargs))
            if _annotation_is_set(a.annotation)}
        self._param_stack.append(params)
        self._set_scopes.append(set(param_sets))
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1
        self._set_scopes.pop()
        self._param_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        attrs: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign) and \
                    _annotation_is_set(sub.annotation):
                if isinstance(sub.target, ast.Name):
                    attrs.add(sub.target.id)
                elif isinstance(sub.target, ast.Attribute) and \
                        isinstance(sub.target.value, ast.Name) and \
                        sub.target.value.id == "self":
                    attrs.add(sub.target.attr)
            elif isinstance(sub, ast.Assign) and isinstance(
                    sub.value, (ast.Set, ast.SetComp)):
                for target in sub.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        attrs.add(target.attr)
        self._class_set_attrs.append(attrs)
        self.generic_visit(node)
        self._class_set_attrs.pop()

    # ------------------------------------------------------------------
    # H301: mutable defaults

    def _check_mutable_defaults(self, node: Union[
            ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        defaults: List[Optional[ast.expr]] = list(node.args.defaults)
        defaults += list(node.args.kw_defaults)
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if isinstance(default, ast.Call):
                mutable = _call_name(default.func) in {
                    "list", "dict", "set", "deque", "defaultdict",
                    "Counter", "OrderedDict", "bytearray"}
            if mutable:
                self._flag(default, "H301",
                           f"mutable default argument in "
                           f"{node.name}() is shared across calls")

    # ------------------------------------------------------------------
    # H302: shadowing

    def _check_shadowing(self, target: ast.expr) -> None:
        if self._function_depth == 0:
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if any(name in params for params in self._param_stack):
            return
        if name in SHADOW_SENSITIVE_BUILTINS:
            self._flag(target, "H302",
                       f"local '{name}' shadows the builtin")
        elif name in self._module_defs:
            self._flag(target, "H302",
                       f"local '{name}' shadows the module-level "
                       f"definition")

    # ------------------------------------------------------------------
    # assignments: H302, set tracking

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    self._check_shadowing(element)
            else:
                self._check_shadowing(target)
            self._record_set_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_shadowing(node.target)
        self._record_set_binding(node.target, node.value,
                                 node.annotation)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_shadowing(node.target)
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "D104",
                       "for-loop iterates a set; body effects occur "
                       "in hash order")
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._check_shadowing(item.optional_vars)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._check_shadowing(node.target)
        self._record_set_binding(node.target, node.value)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls: D101, D102, D103, D104 sinks

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # D101: builtin hash().
        if isinstance(func, ast.Name) and func.id == "hash":
            self._flag(node, "D101",
                       "builtin hash() is PYTHONHASHSEED-randomised; "
                       "flow/bucket mappings derived from it differ "
                       "across processes")
        resolved = self._resolve(func)
        if resolved is not None:
            self._check_rng_call(node, resolved)
            if resolved in WALL_CLOCK_CALLS:
                self._flag(node, "D103",
                           f"{resolved}() reads the host clock; "
                           f"simulation time is Simulator.now_ns")
        # D104: materialising the order of a set.
        self._check_order_materializing_call(node, _call_name(func))
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, resolved: str) -> None:
        if resolved in SEEDED_RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self._flag(node, "D102",
                           f"{resolved}() constructed without a seed")
            return
        module, _, attr = resolved.rpartition(".")
        if module == "random" and attr in GLOBAL_RANDOM_FUNCS:
            self._flag(node, "D102",
                       f"{resolved}() uses the hidden global RNG")
        elif module == "numpy.random" and \
                attr in GLOBAL_NP_RANDOM_FUNCS:
            self._flag(node, "D102",
                       f"{resolved}() uses the global NumPy RNG")

    def _check_order_materializing_call(
            self, node: ast.Call, callee: Optional[str]) -> None:
        if callee not in ORDER_MATERIALIZING_CALLS or not node.args:
            return
        candidate = node.args[0]
        if not self._is_set_expr(candidate):
            return
        parent = self._parent(node)
        if isinstance(parent, ast.Call) and node in parent.args and \
                _call_name(parent.func) in ORDER_INSENSITIVE_SINKS:
            return
        self._flag(candidate, "D104",
                   f"{callee}() materialises set iteration order")

    # ------------------------------------------------------------------
    # D104: comprehensions and unpacking

    def _check_comprehension(self, node: Union[
            ast.ListComp, ast.DictComp, ast.GeneratorExp]) -> None:
        for generator in node.generators:
            if not self._is_set_expr(generator.iter):
                continue
            parent = self._parent(node)
            if isinstance(parent, ast.Call) and node in parent.args \
                    and _call_name(parent.func) in \
                    ORDER_INSENSITIVE_SINKS:
                continue
            what = "dict built" if isinstance(node, ast.DictComp) \
                else "sequence built"
            self._flag(generator.iter, "D104",
                       f"{what} by iterating a set; insertion order "
                       f"follows hash order")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if isinstance(self._parent(node),
                      (ast.Call, ast.List, ast.Tuple)) and \
                self._is_set_expr(node.value):
            self._flag(node.value, "D104",
                       "unpacking a set materialises its iteration "
                       "order")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# the driver


def _sort_key(finding: Finding) -> Tuple[int, int, str]:
    return (finding.line, finding.col, finding.rule_id)


def lint_source(source: str, path: str = "<string>",
                select: Optional[Set[str]] = None) -> List[Finding]:
    """Analyze one module's source text and return its findings.

    ``select`` restricts output to the given rule IDs (a syntax error,
    E901, is reported regardless); suppression hygiene (S9xx) is only
    checked on unrestricted runs, so a filtered run never reports
    allow-comments for deselected rules as stale.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, rule_id="E901",
                        message=f"syntax error: {exc.msg}")]
    checker = _ModuleChecker(path, tree)
    checker.visit(tree)
    suppressions = collect_suppressions(source)
    kept = apply_suppressions(checker.findings, suppressions)
    if select is not None:
        kept = [f for f in kept if f.rule_id in select]
    else:
        kept = kept + audit(suppressions, path)
    kept.sort(key=_sort_key)
    return kept


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield the .py files under ``paths`` in sorted, stable order.

    ``__pycache__`` and dot-directories are skipped *below* each given
    directory, which itself may be spelt ``../src`` or absolutely.  A
    path that does not exist raises :class:`FileNotFoundError`.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                candidate for candidate in path.rglob("*.py")
                if not any(part == "__pycache__" or part.startswith(".")
                           for part in
                           candidate.relative_to(path).parts))
        elif not path.exists():
            raise FileNotFoundError(
                f"no such file or directory: {raw}")
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[Union[str, Path]],
               select: Optional[Set[str]] = None) -> List[Finding]:
    """Lint every Python file under ``paths``: files in traversal
    order, each file's findings sorted by (line, col, rule)."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_source(
            file_path.read_text(encoding="utf-8"), str(file_path),
            select=select))
    return findings
