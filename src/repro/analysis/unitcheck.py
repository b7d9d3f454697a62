"""The flow-sensitive dimensional-unit pass (U4xx).

The token-level U2xx rules in :mod:`repro.analysis.linter` only see one
expression at a time: ``run(timeout_ns=duration_seconds)`` is caught,
``tmp = duration_seconds; run(timeout_ns=tmp)`` is not.  This pass
closes that gap by *inferring* a dimension for every local value and
propagating it through assignments, arithmetic and call sites.

Dimensions come from three places, in priority order:

1. **Annotations** naming a :mod:`repro.core.units` alias
   (``TimeNs``/``Seconds``/``Bytes``/``Bits``/``BitsPerSec``/
   ``Ratio``) on parameters, targets and returns.
2. **Name suffixes** (``_ns``/``_us``/``_ms``/``_s``/``_bytes``/
   ``_bits``/``_bps``), the repo's naming contract.
3. **Known callables**: the units conversion helpers, the engine's
   ``seconds``/``to_seconds``, and — generically — any callee whose
   own name carries a unit suffix (``serialization_delay_ns(...)``
   is nanoseconds).

The algebra is deliberately partial.  Scale factors the codebase uses
for *conversion* (``SECOND``, ``1e9``, ``* 8``…) launder the dimension
to unknown rather than producing a wrong one, so a clean run means
"no provable mix", never "no inference failure".  The pass only flags
when **both** sides of an operation or flow have known, incompatible
dimensions — which keeps it false-positive-free on the real tree (the
acceptance bar) at the cost of missing what it cannot prove.

Rules:

* **U401** — arithmetic/comparison across incompatible dimensions.
* **U402** — a value of one inferred dimension flowing into a target
  (assignment / argument / return) declared with another.
* **U403** — bytes↔bits mixes, including the classic rate-boundary
  bug ``size_bytes / rate_bps`` (missing ×8).
* **U404** — a float-contaminated value reaching an integer-ns slot
  through one or more assignments (the dataflow closure of U201).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .astutil import (TIME_DIMS, ImportMap, annotation_dim, call_name,
                      name_dim)
from .findings import Finding

#: Names treated as unit *scale factors*: multiplying or dividing by
#: one is how this codebase converts, so the result dimension is
#: unknown (laundered), never wrong.
SCALE_CONSTANT_NAMES = frozenset({
    "NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND",
    "NS_PER_S", "BITS_PER_BYTE", "CODEL_TARGET_NS", "CODEL_INTERVAL_NS",
})

#: Literal values likewise treated as scale factors (1e9 ns/s, ...).
SCALE_LITERALS = frozenset({
    1_000, 1_000_000, 1_000_000_000,
    1e3, 1e6, 1e9, 1e-3, 1e-6, 1e-9,
})

#: Callables that preserve their argument's dimension (and strip float).
INT_PRESERVING_CALLS = frozenset({
    "int", "round", "floor", "ceil", "trunc", "abs",
})

#: Dimension-polymorphic callables: result dimension = argument's.
DIM_PRESERVING_CALLS = frozenset({
    "min", "max", "sum", "float",
})

#: Known callable signatures: name -> (param dims, return dim).
#: ``None`` in a position means "unconstrained".  These cover the
#: engine and units helpers that predate annotation coverage; the
#: project signature index (built by the driver from annotations and
#: suffixes) extends this table dynamically.
@dataclass(frozen=True)
class FuncSig:
    """Parameter/return dimensions of one known callable."""

    name: str
    param_dims: Tuple[Optional[str], ...]
    param_names: Tuple[str, ...]
    return_dim: Optional[str]
    #: Return values float-typed?  (None = unknown.)
    returns_float: Optional[bool] = None


KNOWN_SIGNATURES: Dict[str, FuncSig] = {
    sig.name: sig for sig in (
        # repro.netsim.engine
        FuncSig("seconds", ("s",), ("value",), "ns", False),
        FuncSig("to_seconds", ("ns",), ("value_ns",), "s", True),
        FuncSig("schedule", ("ns",), ("delay_ns",), None),
        FuncSig("schedule_at", ("ns",), ("time_ns",), None),
        FuncSig("post", ("ns",), ("delay_ns",), None),
        FuncSig("post_at", ("ns",), ("time_ns",), None),
        # repro.core.units
        FuncSig("ns_from_seconds", ("s",), ("value_s",), "ns", False),
        FuncSig("seconds_from_ns", ("ns",), ("value_ns",), "s", True),
        FuncSig("bits_from_bytes", ("bytes",), ("size_bytes",),
                "bits", False),
        FuncSig("bytes_from_bits", ("bits",), ("size_bits",),
                "bytes", False),
        FuncSig("rate_from_volume", ("bits", "s"),
                ("size_bits", "duration_s"), "bps", True),
        FuncSig("transmit_time_ns", ("bytes", "bps"),
                ("size_bytes", "rate_bps"), "ns", False),
        FuncSig("ratio_of", (None, None),
                ("numerator", "denominator"), "ratio", True),
    )
}

#: Unit-alias constructors: TimeNs(x) asserts the dimension.
CONSTRUCTOR_DIMS: Dict[str, Tuple[str, bool]] = {
    "TimeNs": ("ns", False),
    "Seconds": ("s", True),
    "Bytes": ("bytes", False),
    "Bits": ("bits", False),
    "BitsPerSec": ("bps", True),
    "Ratio": ("ratio", True),
}


@dataclass
class Val:
    """Inferred properties of one expression value."""

    dim: Optional[str] = None        # None = unknown
    poly: bool = False               # dimensionless literal (adapts)
    isfloat: Optional[bool] = None   # None = unknown
    origin_line: Optional[int] = None  # where floatness was acquired

    @staticmethod
    def unknown() -> "Val":
        return Val()


_POLY = "«poly»"


def _merge_env(base: Dict[str, Val],
               branches: Sequence[Dict[str, Val]]) -> Dict[str, Val]:
    """Conservative join: keep facts only where every branch agrees."""
    if not branches:
        return base
    merged: Dict[str, Val] = {}
    keys = set(branches[0])
    for env in branches[1:]:
        keys &= set(env)
    for key in sorted(keys):
        vals = [env[key] for env in branches]
        dim = vals[0].dim if all(v.dim == vals[0].dim for v in vals) \
            else None
        isfloat = vals[0].isfloat \
            if all(v.isfloat == vals[0].isfloat for v in vals) else None
        origin = vals[0].origin_line if isfloat else None
        merged[key] = Val(dim=dim, isfloat=isfloat, origin_line=origin)
    return merged


def collect_signatures(tree: ast.Module,
                       module: str) -> Dict[str, FuncSig]:
    """Index every function's parameter/return dims in one module.

    Keys are emitted at several precisions (``mod.Class.f``,
    ``Class.f``, ``f``) so call sites can resolve with whatever
    context they have; the driver merges per-module indexes into the
    project-wide table, dropping bare-name keys that collide with
    *different* signatures (conservative: ambiguity means no check).
    """
    index: Dict[str, FuncSig] = {}

    def visit(body: Sequence[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                args = node.args
                params = list(args.posonlyargs) + list(args.args)
                if params and params[0].arg in ("self", "cls") \
                        and prefix:
                    params = params[1:]
                dims = tuple(
                    annotation_dim(a.annotation) or name_dim(a.arg)
                    for a in params)
                names = tuple(a.arg for a in params)
                return_dim = annotation_dim(node.returns) \
                    or name_dim(node.name)
                sig = FuncSig(node.name, dims, names, return_dim)
                qual = f"{prefix}{node.name}"
                index[f"{module}.{qual}"] = sig
                index.setdefault(qual, sig)
                if "." in qual:
                    index.setdefault(node.name, sig)
                visit(node.body, f"{prefix}{node.name}.<locals>.")

    visit(tree.body, "")
    return index


def merge_signature_indexes(
        indexes: Sequence[Dict[str, FuncSig]]) -> Dict[str, FuncSig]:
    """Project-wide signature table; ambiguous short keys are dropped."""
    merged: Dict[str, FuncSig] = {}
    ambiguous = set()
    for index in indexes:
        for key, sig in index.items():
            if key in ambiguous:
                continue
            existing = merged.get(key)
            if existing is None:
                merged[key] = sig
            elif (existing.param_dims != sig.param_dims
                  or existing.return_dim != sig.return_dim):
                del merged[key]
                ambiguous.add(key)
    return merged


class _FunctionUnits:
    """Infers dimensions through one function body and emits findings."""

    def __init__(self, pass_: "UnitPass",
                 node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                 class_name: Optional[str]) -> None:
        self.pass_ = pass_
        self.node = node
        self.class_name = class_name
        self.env: Dict[str, Val] = {}
        self.return_dim = annotation_dim(node.returns) \
            or name_dim(node.name)
        args = node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            dim = annotation_dim(arg.annotation) or name_dim(arg.arg)
            isfloat = self._annotation_floatness(arg.annotation)
            self.env[arg.arg] = Val(dim=dim, isfloat=isfloat)

    @staticmethod
    def _annotation_floatness(
            annotation: Optional[ast.expr]) -> Optional[bool]:
        if isinstance(annotation, ast.Name):
            if annotation.id in ("float", "Seconds", "BitsPerSec",
                                 "Ratio"):
                return True
            if annotation.id in ("int", "TimeNs", "Bytes", "Bits"):
                return False
        return None

    # -- plumbing ----------------------------------------------------------

    def _flag(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.pass_.flag(node, rule_id, message)

    def _key(self, node: ast.expr) -> Optional[str]:
        """Env key for a trackable target (``x`` or ``self.attr``)."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return f"self.{node.attr}"
        return None

    def _target_name(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _declared_dim(self, node: ast.expr,
                      annotation: Optional[ast.expr] = None
                      ) -> Optional[str]:
        return annotation_dim(annotation) \
            or name_dim(self._target_name(node))

    # -- expression evaluation --------------------------------------------

    def _eval(self, node: ast.expr) -> Val:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                    node.value, (int, float)):
                return Val.unknown()
            return Val(dim=_POLY, poly=True,
                       isfloat=isinstance(node.value, float),
                       origin_line=node.lineno
                       if isinstance(node.value, float) else None)
        if isinstance(node, (ast.Name, ast.Attribute)):
            return self._eval_name(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            body = self._eval(node.body)
            orelse = self._eval(node.orelse)
            if body.dim == orelse.dim and body.isfloat == orelse.isfloat:
                return body
            return Val.unknown()
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return Val(isfloat=False)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return Val.unknown()
        return Val.unknown()

    def _eval_name(self, node: ast.expr) -> Val:
        key = self._key(node)
        if key is not None and key in self.env:
            known = self.env[key]
            if known.dim is not None or known.isfloat is not None:
                return known
        name = self._target_name(node)
        if isinstance(node, ast.Name) and name in SCALE_CONSTANT_NAMES:
            return Val(dim=_POLY, poly=True, isfloat=False)
        dim = name_dim(name)
        if dim is not None:
            return Val(dim=dim)
        return Val.unknown()

    def _is_scale_factor(self, node: ast.expr, value: Val) -> bool:
        if isinstance(node, ast.Name) and \
                node.id in SCALE_CONSTANT_NAMES:
            return True
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (int, float)) and \
                not isinstance(node.value, bool):
            return node.value in SCALE_LITERALS
        return False

    def _eval_binop(self, node: ast.BinOp) -> Val:
        left = self._eval(node.left)
        right = self._eval(node.right)
        isfloat: Optional[bool]
        if isinstance(node.op, ast.Div):
            isfloat = True
        elif isinstance(node.op, (ast.FloorDiv, ast.Mod,
                                  ast.LShift, ast.RShift, ast.BitOr,
                                  ast.BitAnd, ast.BitXor)):
            isfloat = False if not (left.isfloat or right.isfloat) \
                else None
        elif left.isfloat or right.isfloat:
            isfloat = True
        elif left.isfloat is False and right.isfloat is False:
            isfloat = False
        else:
            isfloat = None
        origin = node.lineno if isfloat else None

        if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv)):
            # ``* 8`` / ``// 8`` against bytes/bits is the repo's
            # inline conversion idiom; other ×8 uses launder.
            lit8 = self._bytes_bits_literal8(node, left, right,
                                             isfloat, origin)
            if lit8 is not None:
                return lit8
            # Scale factors launder the dimension: * SECOND, / 1e9...
            if self._is_scale_factor(node.left, left) or \
                    self._is_scale_factor(node.right, right):
                return Val(isfloat=isfloat, origin_line=origin)

        if isinstance(node.op, (ast.Add, ast.Sub)):
            dim = self._combine_linear(node, left, right)
            return Val(dim=dim, poly=(left.poly and right.poly),
                       isfloat=isfloat, origin_line=origin)
        if isinstance(node.op, ast.Mod):
            dim = self._combine_linear(node, left, right)
            return Val(dim=dim, isfloat=isfloat, origin_line=origin)
        if isinstance(node.op, ast.Mult):
            dim = self._combine_product(left, right)
            return Val(dim=dim, isfloat=isfloat, origin_line=origin)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            dim = self._combine_quotient(node, left, right)
            return Val(dim=dim, isfloat=isfloat, origin_line=origin)
        return Val(isfloat=isfloat, origin_line=origin)

    def _bytes_bits_literal8(self, node: ast.BinOp, left: Val,
                             right: Val, isfloat: Optional[bool],
                             origin: Optional[int]) -> Optional[Val]:
        """``bytes * 8`` -> bits, ``bits // 8`` -> bytes, other ×8
        uses launder to unknown.  None when no literal 8 is involved."""
        lit8 = (isinstance(node.right, ast.Constant)
                and not isinstance(node.right.value, bool)
                and node.right.value in (8, 8.0))
        if not lit8:
            return None
        if isinstance(node.op, ast.Mult) and left.dim == "bytes":
            return Val(dim="bits", isfloat=isfloat, origin_line=origin)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)) and \
                left.dim == "bits":
            return Val(dim="bytes", isfloat=isfloat, origin_line=origin)
        return Val(isfloat=isfloat, origin_line=origin)

    def _combine_linear(self, node: ast.BinOp, left: Val,
                        right: Val) -> Optional[str]:
        """Dim of ``a + b`` / ``a - b`` / ``a % b``; flags mixes."""
        a, b = left.dim, right.dim
        if a == _POLY:
            return b if b != _POLY else _POLY
        if b == _POLY or b is None:
            return a
        if a is None:
            return b
        if a == b:
            return a
        self._flag_mix(node, a, b, "combined with "
                       + {ast.Add: "'+'", ast.Sub: "'-'",
                          ast.Mod: "'%'"}.get(type(node.op), "operator"))
        return None

    def _combine_product(self, left: Val,
                         right: Val) -> Optional[str]:
        a, b = left.dim, right.dim
        pair = {a, b}
        if pair == {"bps", "s"}:
            return "bits"
        if a == "ratio" and b not in (None, _POLY):
            return b
        if b == "ratio" and a not in (None, _POLY):
            return a
        if a == _POLY and b not in (None, _POLY):
            return b
        if b == _POLY and a not in (None, _POLY):
            return a
        if a == _POLY and b == _POLY:
            return _POLY
        return None

    def _combine_quotient(self, node: ast.BinOp, left: Val,
                          right: Val) -> Optional[str]:
        a, b = left.dim, right.dim
        if a == "bytes" and b == "bps":
            self._flag(node, "U403",
                       "bytes divided by a bits-per-second rate "
                       "(missing ×8 bytes→bits conversion)")
            return None
        if a == "bits" and b == "bps":
            return "s"
        if a == "bits" and b == "s":
            return "bps"
        if a is not None and a != _POLY and a == b:
            return "ratio"
        if a in TIME_DIMS and b in TIME_DIMS and a != b:
            self._flag_mix(node, a, b, "divided")
            return None
        if b in (_POLY, None) and a not in (None, _POLY):
            return a if b == _POLY else None
        return None

    def _flag_mix(self, node: ast.AST, a: str, b: str,
                  how: str) -> None:
        pair = {a, b}
        if pair == {"bytes", "bits"}:
            self._flag(node, "U403",
                       f"bytes and bits {how} without the ×8 "
                       f"conversion")
        else:
            self._flag(node, "U401",
                       f"incompatible dimensions {how}: "
                       f"{a} vs {b}")

    def _check_compare(self, node: ast.Compare) -> None:
        values = [node.left] + list(node.comparators)
        if any(not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq))
               for op in node.ops):
            return
        dims = []
        for value in values:
            val = self._eval(value)
            dims.append(val.dim)
        known = [d for d in dims if d not in (None, _POLY)]
        for a, b in zip(known, known[1:]):
            if a != b:
                self._flag_mix(node, a, b, "compared")
                return

    # -- calls -------------------------------------------------------------

    def _resolve_signature(self, node: ast.Call) -> Optional[FuncSig]:
        func = node.func
        name = call_name(func)
        if name is None:
            return None
        signatures = self.pass_.signatures
        candidates: List[str] = []
        if isinstance(func, ast.Name):
            resolved = self.pass_.imports.resolve(func)
            if resolved is not None:
                candidates.append(resolved)
            candidates.append(f"{self.pass_.module}.{name}")
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and \
                    func.value.id == "self" and self.class_name:
                candidates.append(
                    f"{self.pass_.module}.{self.class_name}.{name}")
                candidates.append(f"{self.class_name}.{name}")
            resolved = self.pass_.imports.resolve(func)
            if resolved is not None:
                candidates.append(resolved)
        for candidate in candidates:
            if candidate in signatures:
                return signatures[candidate]
        if name in KNOWN_SIGNATURES:
            return KNOWN_SIGNATURES[name]
        return None

    def _eval_call(self, node: ast.Call) -> Val:
        name = call_name(node.func)
        arg_vals = [self._eval(arg) for arg in node.args]
        kw_vals = {kw.arg: self._eval(kw.value)
                   for kw in node.keywords if kw.arg is not None}

        if name in CONSTRUCTOR_DIMS and isinstance(node.func, ast.Name):
            dim, isfloat = CONSTRUCTOR_DIMS[name]
            return Val(dim=dim, isfloat=isfloat)
        if name in INT_PRESERVING_CALLS and node.args:
            inner = arg_vals[0]
            keeps_float = name == "round" and len(node.args) > 1
            return Val(dim=None if inner.dim == _POLY else inner.dim,
                       isfloat=inner.isfloat if keeps_float else False)
        if name in DIM_PRESERVING_CALLS and node.args:
            dims = {v.dim for v in arg_vals}
            dims.discard(_POLY)
            dim = dims.pop() if len(dims) == 1 else None
            isfloat = True if name == "float" else None
            return Val(dim=dim, isfloat=isfloat,
                       origin_line=node.lineno if isfloat else None)

        sig = self._resolve_signature(node)
        if sig is not None:
            self._check_call_args(node, sig, arg_vals, kw_vals)
            returns_float = sig.returns_float
            return Val(dim=sig.return_dim, isfloat=returns_float,
                       origin_line=node.lineno if returns_float
                       else None)
        # Fall back to the callee's own name suffix.
        dim = name_dim(name)
        if dim is not None:
            return Val(dim=dim)
        return Val.unknown()

    def _check_call_args(self, node: ast.Call, sig: FuncSig,
                         arg_vals: List[Val],
                         kw_vals: Dict[str, Val]) -> None:
        for index, (arg, val) in enumerate(zip(node.args, arg_vals)):
            if index >= len(sig.param_dims):
                break
            self._check_flow_into(
                arg, val, sig.param_dims[index],
                f"parameter '{sig.param_names[index]}' of "
                f"{sig.name}()")
        for keyword in node.keywords:
            if keyword.arg is None or keyword.arg not in kw_vals:
                continue
            if keyword.arg in sig.param_names:
                index = sig.param_names.index(keyword.arg)
                self._check_flow_into(
                    keyword.value, kw_vals[keyword.arg],
                    sig.param_dims[index],
                    f"parameter '{keyword.arg}' of {sig.name}()")

    # -- flow checks -------------------------------------------------------

    def _suffix_covered(self, node: ast.expr, val: Val) -> bool:
        """True when the token-level U2xx rules already see this flow.

        A bare name/attribute whose dimension comes from its *own*
        suffix is U202's territory; flagging it again as U402 would
        double-report.  Values whose dimension was inferred (env,
        call result, arithmetic) are this pass's alone.
        """
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return False
        return name_dim(self._target_name(node)) == val.dim

    def _check_flow_into(self, value_node: ast.expr, val: Val,
                         target_dim: Optional[str],
                         target_desc: str) -> None:
        if target_dim is None or val.dim in (None, _POLY):
            self._check_float_flow(value_node, val, target_dim,
                                   target_desc)
            return
        if val.dim != target_dim:
            if not self._suffix_covered(value_node, val):
                pair = {val.dim, target_dim}
                rule = "U403" if pair == {"bytes", "bits"} else "U402"
                self._flag(value_node, rule,
                           f"value inferred as {val.dim} flows into "
                           f"{target_desc} ({target_dim}) without "
                           f"conversion")
            return
        self._check_float_flow(value_node, val, target_dim, target_desc)

    def _check_float_flow(self, value_node: ast.expr, val: Val,
                          target_dim: Optional[str],
                          target_desc: str) -> None:
        """U404: tracked float reaching an integer-ns target by name."""
        if target_dim != "ns" or val.isfloat is not True:
            return
        if not isinstance(value_node, (ast.Name, ast.Attribute)):
            # Direct float expressions are U201's territory.
            return
        where = f" (float since line {val.origin_line})" \
            if val.origin_line else ""
        self._flag(value_node, "U404",
                   f"float-contaminated value flows into "
                   f"{target_desc}{where}; the clock contract is "
                   f"integer nanoseconds")

    # -- statement execution ----------------------------------------------

    def run(self) -> None:
        self._exec(self.node.body)

    def _exec(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, val, None)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                val = self._eval(stmt.value)
                self._assign(stmt.target, stmt.value, val,
                             stmt.annotation)
            else:
                key = self._key(stmt.target)
                if key is not None:
                    dim = self._declared_dim(stmt.target,
                                             stmt.annotation)
                    self.env[key] = Val(dim=dim)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._eval(stmt.value)
                if self.return_dim is not None:
                    self._check_flow_into(
                        stmt.value, val, self.return_dim,
                        f"the return of {self.node.name}()")
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt.target, stmt.iter)
            self._exec_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._exec(stmt.body)
        elif isinstance(stmt, ast.Try):
            branches = [stmt.body + stmt.orelse]
            for handler in stmt.handlers:
                branches.append(handler.body)
            self._exec_branches(branches)
            self._exec(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # Nested scopes are visited separately by the pass.
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _exec_branches(self,
                       branches: Sequence[Sequence[ast.stmt]]) -> None:
        snapshots: List[Dict[str, Val]] = []
        base = dict(self.env)
        for branch in branches:
            self.env = dict(base)
            self._exec(branch)
            snapshots.append(self.env)
        if not any(branches):
            self.env = base
            return
        self.env = _merge_env(base, snapshots)

    def _bind_loop_target(self, target: ast.expr,
                          iterable: ast.expr) -> None:
        key = self._key(target)
        if key is None:
            return
        # A collection named with a unit suffix holds values of that
        # unit (``for rtt_ms in rtts_ms``).
        dim = name_dim(self._target_name(iterable)) \
            if isinstance(iterable, (ast.Name, ast.Attribute)) else None
        self.env[key] = Val(dim=dim)

    def _assign(self, target: ast.expr, value_node: ast.expr, val: Val,
                annotation: Optional[ast.expr]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value_node, Val.unknown(), None)
            return
        key = self._key(target)
        declared = self._declared_dim(target, annotation)
        if declared is not None:
            self._check_flow_into(value_node, val, declared,
                                  f"'{self._target_name(target)}'")
        if key is not None:
            dim = declared if declared is not None else (
                None if val.dim == _POLY else val.dim)
            self.env[key] = Val(dim=dim, isfloat=val.isfloat,
                                origin_line=val.origin_line)

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        key = self._key(stmt.target)
        target_val = self._eval(stmt.target)
        value = self._eval(stmt.value)
        synthetic = ast.BinOp(left=stmt.target, op=stmt.op,
                              right=stmt.value)
        ast.copy_location(synthetic, stmt)
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            self._combine_linear(synthetic, target_val, value)
        if key is not None and key in self.env:
            declared = self.env[key].dim
            isfloat: Optional[bool]
            if isinstance(stmt.op, ast.Div):
                isfloat = True
            elif target_val.isfloat or value.isfloat:
                isfloat = True
            elif target_val.isfloat is False and value.isfloat is False:
                isfloat = False
            else:
                isfloat = None
            self.env[key] = Val(dim=declared, isfloat=isfloat,
                                origin_line=stmt.lineno
                                if isfloat else None)


class UnitPass:
    """Runs the U4xx inference over every function of one module."""

    def __init__(self, path: str, tree: ast.Module, module: str,
                 signatures: Optional[Dict[str, FuncSig]] = None) -> None:
        self.path = path
        self.tree = tree
        self.module = module
        self.imports = ImportMap(tree, module)
        own = collect_signatures(tree, module)
        if signatures:
            merged = dict(signatures)
            merged.update(own)
            self.signatures = merged
        else:
            self.signatures = own
        self.findings: List[Finding] = []

    def flag(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            end_line=getattr(node, "end_lineno", None),
        ))

    def run(self) -> List[Finding]:
        self._visit(self.tree.body, None)
        return self.findings

    def _visit(self, body: Sequence[ast.stmt],
               class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                _FunctionUnits(self, node, class_name).run()
                self._visit(node.body, None)
