"""AST-level model of the one-sided verb vocabulary.

Everything the checker knows about the protocol layer that is not generic
control flow lives here: which calls construct verbs, what a lease tag
looks like, what counts as a lock word, and how to enumerate the verbs
inside a yielded expression (including ``Batch`` literals, list
comprehensions, and ``+``-concatenated verb lists).

Lock-word detection is two-tiered.  A resolved expression containing a
``pack(...)`` call with an explicit ``locked=<constant>`` keyword is
decisive (``locked=1`` -> lock word, ``locked=0`` -> unlock word).
Otherwise identifier heuristics apply: any identifier in the original
or resolved expression matching ``lock``/``locked``/``LOCKED`` word
fragments marks it as a lock word.  Resolution follows function-local
single-assignment names one step at a time (``locked = _Header(1, ...);
yield CasOp(a, idle.pack(), locked.pack())``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

VERB_NAMES = frozenset({"ReadOp", "WriteOp", "CasOp", "FaaOp"})
WRITE_VERBS = frozenset({"WriteOp", "CasOp", "FaaOp"})
BATCH_NAME = "Batch"
LOCAL_COMPUTE_NAME = "LocalCompute"

_LOCKED_IDENT = re.compile(r"(^|_)lock(ed)?($|_)|LOCKED")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def unparse(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed synthetic nodes
        return "<expr>"


def call_name(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def get_keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def lease_kind(call: ast.Call) -> str:
    """``"none"`` (absent or ``lease=None``), ``"release"``, or
    ``"acquire"`` (any other non-None tag)."""
    value = get_keyword(call, "lease")
    if value is None:
        return "none"
    if isinstance(value, ast.Constant) and value.value is None:
        return "none"
    if isinstance(value, ast.Tuple) and value.elts:
        head = value.elts[0]
        if isinstance(head, ast.Constant) and head.value == "release":
            return "release"
    return "acquire"


def identifiers(node: ast.AST) -> List[str]:
    out: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def key_tokens(key: str) -> List[str]:
    """Identifier tokens of an abstract lock key (an unparsed expr)."""
    return [tok for tok in _IDENT.findall(key)
            if tok not in ("self", "cls")]


# -- function-local constant environment --------------------------------

class _EnvCollector(ast.NodeVisitor):
    """name -> value expr for names assigned exactly once by a plain
    ``name = value`` statement; names assigned any other way (tuple
    unpack, augmented, loop target, with-as) map to None (ambiguous)."""

    def __init__(self) -> None:
        self.env: Dict[str, Optional[ast.expr]] = {}

    def _spoil(self, target: ast.expr) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                self.env[sub.id] = None

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0],
                                                 ast.Name):
            name = node.targets[0].id
            if name in self.env:
                self.env[name] = None
            else:
                self.env[name] = node.value
        else:
            for target in node.targets:
                self._spoil(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._spoil(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._spoil(node.target)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._spoil(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._spoil(node.target)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._spoil(item.optional_vars)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def local_env(body: Sequence[ast.stmt]) -> Dict[str, Optional[ast.expr]]:
    collector = _EnvCollector()
    for stmt in body:
        collector.visit(stmt)
    return collector.env


def resolve_expr(expr: ast.expr,
                 env: Dict[str, Optional[ast.expr]],
                 depth: int = 3) -> ast.expr:
    while depth > 0 and isinstance(expr, ast.Name):
        value = env.get(expr.id)
        if value is None:
            break
        expr = value
        depth -= 1
    return expr


# -- lock words ---------------------------------------------------------

def packs_locked_flag(expr: ast.AST) -> Optional[bool]:
    """Decisive verdict from an explicit ``locked=<const>`` keyword on
    any call inside ``expr``; None when no such keyword appears."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call):
            value = get_keyword(sub, "locked")
            if isinstance(value, ast.Constant):
                return bool(value.value)
    return None


def is_locked_word(expr: ast.expr,
                   env: Dict[str, Optional[ast.expr]]) -> bool:
    resolved = resolve_expr(expr, env)
    for candidate in (expr, resolved):
        verdict = packs_locked_flag(candidate)
        if verdict is not None:
            return verdict
    for candidate in (expr, resolved):
        if any(_LOCKED_IDENT.search(name)
               for name in identifiers(candidate)):
            return True
    return False


def is_acquire_cas(call: ast.Call,
                   env: Dict[str, Optional[ast.expr]]) -> bool:
    """A CAS that transitions a word unlocked -> locked.

    Both halves matter: a CAS whose *expected* word is already locked
    (a fencing CAS bumping the version of a word it is about to take
    over, as crash recovery does) is an ownership transfer, not an
    acquisition, and is deliberately excluded - see DESIGN.md sec. 10.
    """
    if call_name(call) != "CasOp" or len(call.args) < 3:
        return False
    expected, desired = call.args[1], call.args[2]
    return is_locked_word(desired, env) and not is_locked_word(expected,
                                                               env)


def release_key(call: ast.Call,
                env: Dict[str, Optional[ast.expr]]) -> Optional[str]:
    """The addr text of a lock this verb construction releases, or
    None.  Strong signal: a ``lease=("release",)`` tag on a write/CAS.
    Weak signal: an untagged WriteOp whose payload packs ``locked=0``
    (matched against held locks by exact key only)."""
    name = call_name(call)
    if name not in WRITE_VERBS:
        return None
    if lease_kind(call) == "release":
        return unparse(call.args[0]) if call.args else "*"
    if name == "WriteOp" and len(call.args) >= 2 \
            and lease_kind(call) == "none":
        payload = resolve_expr(call.args[1], env)
        if packs_locked_flag(payload) is False:
            return unparse(call.args[0])
    return None


def is_strong_release(call: ast.Call) -> bool:
    return lease_kind(call) == "release"


def contains_release_verb(expr: ast.AST,
                          env: Dict[str, Optional[ast.expr]]) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call) and release_key(sub, env) is not None:
            return True
    return False


# -- yielded verb enumeration -------------------------------------------

@dataclass(frozen=True)
class YieldedItem:
    """One item found inside a yielded expression.

    kind is ``"verb"`` (a direct verb constructor call), ``"call"`` (a
    non-verb call - possibly a factory helper), or ``"name"`` (a bare
    name, possibly a previously-built release list).
    """

    kind: str
    call: Optional[ast.Call] = None
    name: Optional[str] = None
    comp: bool = False          # inside a comprehension / unknown arity
    direct: bool = False        # the whole yielded expression
    batch_index: Optional[int] = None  # index in a Batch list literal


def yielded_items(value: ast.expr) -> List[YieldedItem]:
    items: List[YieldedItem] = []

    def add(elt: ast.expr, comp: bool, direct: bool,
            batch_index: Optional[int]) -> None:
        if isinstance(elt, ast.Call):
            name = call_name(elt)
            if name in VERB_NAMES:
                items.append(YieldedItem("verb", call=elt, comp=comp,
                                         direct=direct,
                                         batch_index=batch_index))
            elif name == BATCH_NAME:
                for arg in elt.args:
                    if isinstance(arg, ast.List):
                        for index, sub in enumerate(arg.elts):
                            add(sub, comp, False, index)
                    else:
                        add(arg, comp, False, None)
            elif name == LOCAL_COMPUTE_NAME:
                pass
            else:
                items.append(YieldedItem("call", call=elt, comp=comp,
                                         direct=direct,
                                         batch_index=batch_index))
        elif isinstance(elt, ast.Name):
            items.append(YieldedItem("name", name=elt.id, comp=comp,
                                     direct=direct,
                                     batch_index=batch_index))
        elif isinstance(elt, (ast.List, ast.Tuple)):
            for sub in elt.elts:
                add(sub, comp, False, None)
        elif isinstance(elt, ast.Starred):
            add(elt.value, True, False, None)
        elif isinstance(elt, (ast.ListComp, ast.GeneratorExp,
                              ast.SetComp)):
            add(elt.elt, True, False, None)
        elif isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add):
            add(elt.left, comp, False, None)
            add(elt.right, comp, False, None)
        elif isinstance(elt, ast.IfExp):
            add(elt.body, comp, False, None)
            add(elt.orelse, comp, False, None)

    add(value, False, True, None)
    return items


def names_loaded(node: ast.AST) -> Set[str]:
    loaded: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loaded.add(sub.id)
    return loaded
