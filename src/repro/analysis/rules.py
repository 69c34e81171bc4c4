"""The dmverify S-rule catalog and the CFG-based lint rules.

Syntactic rules (S002/S004/S005/S006 and L001/L002/L006) walk the CFG
node set - each statement of a file is owned by exactly one node, so
nothing is scanned twice (``finally`` duplicates are deduped by the
driver).  Flow rules (S001/S003) live in :mod:`repro.analysis.dataflow`
and are orchestrated by the driver.

Scoping: S001-S004 govern client protocol code and inherit the lint
exemption lists (the dm/sim/obs/bench layers pace engine events, own
the data plane, or replay recovery - their loops and CASes are not
client retries or client locks).  S005 and S006 apply everywhere: a
dead verb or a malformed observer class is a bug in any layer.
"""

from __future__ import annotations

import ast
import re as _re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import model
from .cfg import BRANCH, CFG, DISPATCH, RETURN, STMT, contains_yield
from .dataflow import RawFinding

# Canonical exemption lists (lint imports these; see lint.py L001/L006
# docs for the rationale).
L001_EXEMPT_PARTS: Tuple[str, ...] = (
    "repro/dm/", "repro/tools/", "repro/san/", "repro/fault/")
L006_EXEMPT_PARTS: Tuple[str, ...] = L001_EXEMPT_PARTS + (
    "repro/sim/", "repro/obs/", "repro/bench/", "repro/ycsb/")

_DATA_PLANE_METHODS = frozenset(
    {"read", "write", "read_u64", "write_u64", "cas_u64", "faa_u64"})

_MEMORY_NAME = _re.compile(r"(^|_)(mem|memory|memories)($|_|\b)")


def is_exempt(rel: str, parts: Tuple[str, ...]) -> bool:
    normalized = rel.replace("\\", "/")
    return any(part in normalized for part in parts)


# ----------------------------------------------------------------------
# Statement ownership: the expressions each CFG node is responsible for
# ----------------------------------------------------------------------

def node_exprs(cfg: CFG) -> Iterator[Tuple[int, ast.AST]]:
    """(line, expr-or-stmt) pairs covering every expression of the CFG's
    statements exactly once (modulo ``finally`` duplication)."""
    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        if node.kind == STMT:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in stmt.decorator_list:
                    yield stmt.lineno, dec
                for default in (stmt.args.defaults
                                + [d for d in stmt.args.kw_defaults
                                   if d is not None]):
                    yield stmt.lineno, default
            elif isinstance(stmt, ast.ClassDef):
                for dec in stmt.decorator_list:
                    yield stmt.lineno, dec
                for base in stmt.bases:
                    yield stmt.lineno, base
                for keyword in stmt.keywords:
                    yield stmt.lineno, keyword.value
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    yield stmt.lineno, item.context_expr
            else:
                yield stmt.lineno, stmt
        elif node.kind == BRANCH:
            if isinstance(stmt, (ast.If, ast.While)):
                yield stmt.lineno, stmt.test
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield stmt.lineno, stmt.iter
                yield stmt.lineno, stmt.target
            elif isinstance(stmt, ast.Match):
                yield stmt.lineno, stmt.subject
        elif node.kind == DISPATCH:
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    if handler.type is not None:
                        yield handler.lineno, handler.type
        elif node.kind == RETURN:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                yield stmt.lineno, stmt.value
        # RAISE exit nodes duplicate a stmt already owned elsewhere.


def _walk_calls(expr: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call):
            yield sub


def _cfg_env(cfg: CFG) -> Dict[str, Optional[ast.expr]]:
    if cfg.func is not None:
        return model.local_env(cfg.func.body)
    return {}


# ----------------------------------------------------------------------
# Lint rules on the CFG (L001 / L002 / L006)
# ----------------------------------------------------------------------

def _looks_like_memory(node: ast.expr) -> bool:
    return any(_MEMORY_NAME.search(name)
               for name in model.identifiers(node))


def lint_rules(cfgs: Sequence[CFG], l001_exempt: bool,
               l006_exempt: bool) -> List[RawFinding]:
    findings: List[RawFinding] = []
    for cfg in cfgs:
        for line, owned in node_exprs(cfg):
            if not l001_exempt:
                for call in _walk_calls(owned):
                    if isinstance(call.func, ast.Attribute) \
                            and call.func.attr in _DATA_PLANE_METHODS \
                            and _looks_like_memory(call.func.value):
                        findings.append(RawFinding(
                            "L001", call.lineno,
                            f"direct Memory.{call.func.attr}() bypasses "
                            f"the executors (and DMSan); go through "
                            f"verb generators, or pragma a "
                            f"control-plane exception"))
        for node in cfg.nodes:
            stmt = node.stmt
            # L002: discarded `yield CasOp(...)` result.
            if node.kind == STMT and isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Yield) \
                    and stmt.value.value is not None:
                yielded = stmt.value.value
                if isinstance(yielded, ast.Call) \
                        and isinstance(yielded.func, ast.Name) \
                        and yielded.func.id == "CasOp":
                    findings.append(RawFinding(
                        "L002", stmt.lineno,
                        "CAS result discarded: the swapped flag must "
                        "be consumed (an unchecked CAS is a lock that "
                        "may have silently failed)"))
            # L006: bare retry loop over a literal range.
            if not l006_exempt and node.kind == BRANCH \
                    and isinstance(stmt, ast.For) \
                    and isinstance(stmt.iter, ast.Call) \
                    and isinstance(stmt.iter.func, ast.Name) \
                    and stmt.iter.func.id == "range" \
                    and stmt.iter.args \
                    and all(isinstance(a, ast.Constant)
                            for a in stmt.iter.args):
                yields_verbs = any(
                    isinstance(sub, (ast.Yield, ast.YieldFrom))
                    for child in stmt.body for sub in ast.walk(child))
                if yields_verbs:
                    findings.append(RawFinding(
                        "L006", stmt.lineno,
                        "bare retry loop: a bounded loop that yields "
                        "verbs must iterate RetryPolicy.attempts() "
                        "(see repro.fault.retry), or pragma an "
                        "intrinsic protocol bound with a "
                        "justification"))
    return findings


# ----------------------------------------------------------------------
# S002: lock-acquiring CAS without a lease tag
# ----------------------------------------------------------------------

def s002_rules(cfgs: Sequence[CFG]) -> List[RawFinding]:
    findings: List[RawFinding] = []
    for cfg in cfgs:
        env = _cfg_env(cfg)
        for _line, owned in node_exprs(cfg):
            for call in _walk_calls(owned):
                if model.call_name(call) != "CasOp":
                    continue
                if not model.is_acquire_cas(call, env):
                    continue
                if model.lease_kind(call) != "none":
                    continue
                addr = (model.unparse(call.args[0])
                        if call.args else "<addr>")
                findings.append(RawFinding(
                    "S002", call.lineno,
                    f"lock-acquiring CAS on `{addr}` carries no lease "
                    f"tag: crash recovery cannot reclaim an untagged "
                    f"lock - pass lease=(...) as repro.core.lock does"))
    return findings


# ----------------------------------------------------------------------
# S004: retry loop not routed through RetryPolicy
# ----------------------------------------------------------------------

def _const_int(expr: ast.expr,
               env: Dict[str, Optional[ast.expr]]) -> Optional[int]:
    resolved = model.resolve_expr(expr, env)
    if isinstance(resolved, ast.Constant) \
            and isinstance(resolved.value, int) \
            and not isinstance(resolved.value, bool):
        return resolved.value
    return None


def _body_yields(body: Sequence[ast.stmt]) -> bool:
    return any(contains_yield(child) for child in body)


def s004_rules(cfgs: Sequence[CFG]) -> List[RawFinding]:
    findings: List[RawFinding] = []
    for cfg in cfgs:
        env = _cfg_env(cfg)
        for node in cfg.nodes:
            stmt = node.stmt
            if node.kind != BRANCH or stmt is None:
                continue
            if isinstance(stmt, ast.For):
                finding = _s004_for(stmt, env)
            elif isinstance(stmt, ast.While):
                finding = _s004_while(stmt, env)
            else:
                finding = None
            if finding is not None:
                findings.append(finding)
    return findings


def _s004_for(stmt: ast.For,
              env: Dict[str, Optional[ast.expr]]) -> Optional[
                  RawFinding]:
    it = stmt.iter
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range" and it.args):
        return None
    bounds = [_const_int(arg, env) for arg in it.args]
    if any(bound is None for bound in bounds):
        return None
    if not _body_yields(stmt.body):
        return None
    bound = bounds[1] if len(bounds) > 1 else bounds[0]
    return RawFinding(
        "S004", stmt.lineno,
        f"retry loop with a magic bound ({bound}): a bounded loop "
        f"that yields verbs must iterate RetryPolicy.attempts() "
        f"(repro.fault.retry), or pragma an intrinsic protocol bound")


def _s004_while(stmt: ast.While,
                env: Dict[str, Optional[ast.expr]]) -> Optional[
                    RawFinding]:
    test = stmt.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Lt, ast.LtE, ast.Gt,
                                         ast.GtE))):
        return None
    left, right = test.left, test.comparators[0]
    counter: Optional[str] = None
    bound: Optional[int] = None
    for name_side, const_side in ((left, right), (right, left)):
        if isinstance(name_side, ast.Name):
            value = _const_int(const_side, env)
            if value is not None:
                counter, bound = name_side.id, value
                break
    if counter is None or bound is None:
        return None
    increments = False
    for child in stmt.body:
        for sub in ast.walk(child):
            if isinstance(sub, ast.AugAssign) \
                    and isinstance(sub.target, ast.Name) \
                    and sub.target.id == counter:
                increments = True
            elif isinstance(sub, ast.Assign) \
                    and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and sub.targets[0].id == counter \
                    and counter in model.names_loaded(sub.value):
                increments = True
    if not increments or not _body_yields(stmt.body):
        return None
    return RawFinding(
        "S004", stmt.lineno,
        f"retry loop with a magic bound (`{counter}` vs {bound}): a "
        f"bounded loop that yields verbs must iterate "
        f"RetryPolicy.attempts() (repro.fault.retry), or pragma an "
        f"intrinsic protocol bound")


# ----------------------------------------------------------------------
# S005: verb constructed but never yielded
# ----------------------------------------------------------------------

def _is_verb_value(value: ast.expr) -> bool:
    if isinstance(value, ast.Call):
        return model.call_name(value) in (model.VERB_NAMES
                                          | {model.BATCH_NAME})
    if isinstance(value, (ast.List, ast.Tuple)):
        return bool(value.elts) and all(
            isinstance(elt, ast.Call)
            and model.call_name(elt) in model.VERB_NAMES
            for elt in value.elts)
    if isinstance(value, ast.ListComp):
        return (isinstance(value.elt, ast.Call)
                and model.call_name(value.elt) in model.VERB_NAMES)
    return False


def s005_rules(cfgs: Sequence[CFG]) -> List[RawFinding]:
    findings: List[RawFinding] = []
    for cfg in cfgs:
        if cfg.func is None:
            continue  # module/class level: a verb constant is not dead
        used = model.names_loaded(cfg.func)
        for node in cfg.nodes:
            stmt = node.stmt
            if node.kind != STMT or stmt is None:
                continue
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Call) \
                    and _is_verb_value(stmt.value):
                name = model.call_name(stmt.value)
                findings.append(RawFinding(
                    "S005", stmt.lineno,
                    f"{name}(...) constructed and discarded: a verb "
                    f"that is never yielded never reaches the "
                    f"executor, the fault injector, or the tracer"))
            elif isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and _is_verb_value(stmt.value) \
                    and stmt.targets[0].id not in used:
                target = stmt.targets[0].id
                findings.append(RawFinding(
                    "S005", stmt.lineno,
                    f"verb(s) assigned to `{target}` but `{target}` is "
                    f"never yielded or read: the op silently never "
                    f"executes"))
    return findings


# ----------------------------------------------------------------------
# S006: observer classes must conform to the executor interface
# ----------------------------------------------------------------------

# An observer is a class deriving from ``Observer`` or handed to
# ``attach(...)``.  Required (method -> positional args excluding self),
# from the call sites in repro/dm/{rdma,memory}.py: every hook is called
# on every attached observer, so a class without the no-op ``Observer``
# base must define them all.
_OBSERVER_IFACE: Dict[str, int] = {
    "on_post": 1,
    "on_apply": 1,
    "on_complete": 1,
    "op_begin": 3,
    "on_round_trip": 1,
    "on_fault": 4,
    "op_end": 3,            # status is passed positionally
    "on_alloc": 4,
    "on_free": 4,
    "on_retire": 4,
}
_OBSERVER_BASE = "Observer"


def _class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    methods: Dict[str, ast.FunctionDef] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            methods[stmt.name] = stmt
    return methods


def _attached_classes(tree: ast.Module) -> Set[str]:
    """Names of the classes handed to ``attach(X())`` style calls."""
    env: Dict[str, str] = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.targets[0], ast.Name) \
                and isinstance(sub.value, ast.Call) \
                and isinstance(sub.value.func, ast.Name):
            env[sub.targets[0].id] = sub.value.func.id
    attached: Set[str] = set()
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call) or model.call_name(sub) != "attach":
            continue
        for arg in sub.args:
            if isinstance(arg, ast.Call) \
                    and isinstance(arg.func, ast.Name):
                attached.add(arg.func.id)
            elif isinstance(arg, ast.Name) and arg.id in env:
                attached.add(env[arg.id])
    return attached


def _accepts(fn: ast.FunctionDef, n_pos: int) -> Optional[str]:
    """None when ``fn(self, *<n_pos args>)`` is callable; otherwise a
    short description of the mismatch."""
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    is_static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                    for dec in fn.decorator_list)
    if not is_static and positional \
            and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    n_params = len(positional)
    n_defaults = len(args.defaults)
    min_required = n_params - n_defaults
    if n_pos < min_required:
        return (f"takes at least {min_required} argument(s), call "
                f"sites pass {n_pos}")
    if n_pos > n_params and args.vararg is None:
        return (f"takes at most {n_params} argument(s), call sites "
                f"pass {n_pos}")
    missing = [k.arg for k, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is None]
    if missing:
        return ("requires keyword-only argument(s) "
                + ", ".join(f"`{m}`" for m in sorted(missing))
                + " the call sites never pass")
    return None


def _base_names(cls: ast.ClassDef) -> List[Optional[str]]:
    return [base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else None
            for base in cls.bases]


def s006_rules(tree: ast.Module) -> List[RawFinding]:
    findings: List[RawFinding] = []
    attached = _attached_classes(tree)
    classes = {sub.name: sub for sub in ast.walk(tree)
               if isinstance(sub, ast.ClassDef)}
    for cls in classes.values():
        methods = _class_methods(cls)
        bases = _base_names(cls)
        parents = [classes[base] for base in bases
                   if base is not None and base in classes]
        for parent in parents:  # fold one level of local inheritance
            for name, fn in _class_methods(parent).items():
                methods.setdefault(name, fn)
        inherits_noops = _OBSERVER_BASE in bases or any(
            _OBSERVER_BASE in _base_names(parent) for parent in parents)
        if not (inherits_noops or cls.name in attached):
            continue
        if any(base not in classes and base not in (_OBSERVER_BASE, "object")
               for base in bases):
            continue  # inherited methods are invisible to us
        problems: List[str] = []
        for name, n_pos in sorted(_OBSERVER_IFACE.items()):
            fn = methods.get(name)
            if fn is None:
                if not inherits_noops:
                    problems.append(f"missing {name}()")
                continue
            mismatch = _accepts(fn, n_pos)
            if mismatch is not None:
                problems.append(f"{name}() {mismatch}")
        if problems:
            findings.append(RawFinding(
                "S006", cls.lineno,
                f"class {cls.name} is an executor observer but does not "
                f"conform to the observer interface: "
                + "; ".join(problems)))
    return findings
