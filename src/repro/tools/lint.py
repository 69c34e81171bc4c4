"""Repo-invariant lint: static AST checks for the protocol idioms that
keep this codebase honest.

The simulator can only catch what a workload happens to execute; these
rules catch the same classes of bug at rest:

* **L001** - direct ``Memory`` data-plane access (``read``/``write``/
  ``read_u64``/``write_u64``/``cas_u64``/``faa_u64`` on a memory object)
  outside ``repro/dm/`` and ``repro/tools/``.  Protocol code must go
  through verb generators so executors (and DMSan) see every access;
  host-side control-plane exceptions carry an explicit pragma.
* **L002** - a ``yield CasOp(...)`` whose result is discarded.  A CAS
  that nobody checks is a lock/claim that may silently have failed.
* **L003** - an empty ``Batch([])`` literal.  The runtime rejects empty
  doorbells too (see :class:`repro.dm.rdma.Batch`); the lint catches the
  obvious literal before anything runs.
* **L004** - ``raise`` of a builtin exception type.  Library errors must
  derive from :class:`repro.errors.ReproError` so callers can catch
  library failures without masking programming errors.
* **L005** - a compiled ``.pyc`` file tracked by git.  Bytecode is
  interpreter-specific build output; committing it bloats diffs and can
  shadow source changes.  ``.gitignore`` keeps new ones out; this rule
  fails the build if one sneaks back in.
* **L006** - a bare retry loop in protocol code: ``for ... in range(<
  literal>)`` whose body yields verbs.  Every bounded remote-op loop
  must iterate the one shared :class:`repro.fault.RetryPolicy`'s
  ``attempts()`` (budget, op deadline, backoff clamp) - magic-number
  retry budgets drift apart and make timeout behaviour impossible to
  reason about globally.
  Loops whose bound is intrinsic to the protocol (not a tunable) carry a
  pragma with a justification.  Infrastructure layers (dm/sim/obs/bench/
  ycsb) are exempt: their loops pace engine events, not client retries.

L001, L002, and L006 run over the CFGs built by :mod:`repro.analysis`
(the same graphs dmverify's flow rules use), so each statement is
checked exactly once and the exemption lists live in one place
(``repro.analysis.rules``).  L003/L004 remain a plain AST visitor and
L005 a git query.  ``python -m repro.tools.dmverify`` layers the
path-sensitive S-rules on top; S004 is the semantic upgrade of L006
(constants are propagated, ``while`` counters count) and honors
``# lint: disable=L006`` pragmas at the same site.

Suppressions: append ``# lint: disable=L001`` to the offending line, or
put ``# lint: disable-file=L001`` in the first ten lines of a file.
Run as ``python -m repro.tools.lint [--format=text|json] [paths...]``;
exits non-zero when findings remain.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis import rules as _rules
from repro.analysis.cfg import build_cfgs
from repro.analysis.findings import (Finding, Suppressions, dedupe,
                                     sort_key)

_BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "ValueError", "KeyError", "TypeError", "RuntimeError",
    "IndexError", "LookupError", "ArithmeticError", "OSError",
    "AttributeError", "MemoryError",
})

#: Directories whose files own the data plane and may touch Memory
#: directly.  Canonical list lives in repro.analysis.rules.
_L001_EXEMPT_PARTS = _rules.L001_EXEMPT_PARTS

#: Layers whose loops pace engine/bench events rather than client-side
#: protocol retries; L006 only governs the latter.
_L006_EXEMPT_PARTS = _rules.L006_EXEMPT_PARTS


class _Visitor(ast.NodeVisitor):
    """L003 (empty Batch literal) and L004 (builtin raise)."""

    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.findings: List[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "Batch" \
                and len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            if isinstance(arg, (ast.List, ast.Tuple)) and not arg.elts:
                self.findings.append(Finding(
                    self.rel, node.lineno, "L003",
                    "empty Batch literal: a doorbell needs >= 1 verb"))
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            self.findings.append(Finding(
                self.rel, node.lineno, "L004",
                f"raise of builtin {name}: library errors must derive "
                f"from ReproError (see repro.errors)"))
        self.generic_visit(node)


def lint_file(path: Path, root: Optional[Path] = None) -> List[Finding]:
    rel = str(path.relative_to(root)) if root else str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(rel, exc.lineno or 0, "L000",
                        f"syntax error: {exc.msg}")]
    cfgs = build_cfgs(tree, modname=rel)
    raw = _rules.lint_rules(
        cfgs,
        l001_exempt=_rules.is_exempt(rel, _L001_EXEMPT_PARTS),
        l006_exempt=_rules.is_exempt(rel, _L006_EXEMPT_PARTS))
    findings = [Finding(rel, item.line, item.rule, item.message)
                for item in raw]
    visitor = _Visitor(rel)
    visitor.visit(tree)
    findings.extend(visitor.findings)
    suppressions = Suppressions.for_source("lint", source)
    kept = [f for f in findings
            if not suppressions.suppressed(f.rule, f.line)]
    return dedupe(sorted(kept, key=sort_key))


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    findings: List[Finding] = []
    for base in paths:
        base = base.resolve()
        if base.is_dir():
            for file in sorted(base.rglob("*.py")):
                findings.extend(lint_file(file, base.parent))
        else:
            findings.extend(lint_file(base, base.parent))
    return findings


def lint_tracked_pyc(start: Optional[Path] = None) -> List[Finding]:
    """L005: ``.pyc`` files tracked by git.

    Resolves the repository containing ``start`` (default: this package)
    and asks ``git ls-files`` for tracked bytecode.  Outside a git
    checkout - an sdist, a plain copy - there is nothing to check and
    the rule passes silently.
    """
    where = (start if start is not None else Path(__file__)).resolve()
    if where.is_file():
        where = where.parent
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=where,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return []
    if top.returncode != 0:
        return []
    root = top.stdout.strip()
    tracked = subprocess.run(
        ["git", "ls-files", "--", "*.pyc"], cwd=root,
        capture_output=True, text=True, timeout=30)
    if tracked.returncode != 0:
        return []
    return [Finding(path, 0, "L005",
                    "tracked .pyc: bytecode is build output, untrack it "
                    "(git rm --cached) - __pycache__/ is gitignored")
            for path in sorted(tracked.stdout.splitlines()) if path]


def default_target() -> Path:
    """The installed ``repro`` package (what CI lints)."""
    return Path(__file__).resolve().parent.parent


def main(argv: Optional[Iterable[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    fmt = "text"
    paths: List[str] = []
    for arg in args:
        if arg in ("--format=text", "--format=json"):
            fmt = arg.split("=", 1)[1]
        elif arg == "--format" or arg.startswith("--format="):
            print("lint: error: --format requires =text or =json",
                  file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    targets = [Path(p) for p in paths] if paths else [default_target()]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"lint: error: no such file or directory: {target}",
                  file=sys.stderr)
        return 2
    findings = lint_paths(targets)
    findings.extend(lint_tracked_pyc(targets[0]))
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    if fmt == "json":
        payload = {
            "tool": "lint",
            "version": 1,
            "targets": [str(t) for t in targets],
            "counts": counts,
            "findings": [f.to_json() for f in findings],
            "clean": not findings,
            "exit_code": 1 if findings else 0,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if findings else 0
    for finding in findings:
        print(finding.render())
    if findings:
        breakdown = ", ".join(f"{r}={n}" for r, n in sorted(counts.items()))
        print(f"lint: {len(findings)} finding(s) ({breakdown})")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
