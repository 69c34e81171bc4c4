"""The static checker: repo-invariant lint rules and the path-sensitive
protocol rules, one driver and one CLI.

The simulator can only catch what a workload happens to execute; these
rules catch the same classes of bug at rest.  Every file is parsed once
and its CFGs are built once (:func:`repro.analysis.analyze_paths`); each
rule below runs over those graphs, except L005, a git query.

==== ============================================================ =====
Rule Protocol invariant it guards                                 Scope
==== ============================================================ =====
L001 protocol code reaches ``Memory`` only through verbs, so the  not dm/
     executors, the fault injector and DMSan see every access     tools/san/fault
L002 a ``yield CasOp(...)`` result is consumed: an unchecked CAS  all
     is a lock or claim that may silently have failed
L003 no empty ``Batch([])`` literal: a doorbell needs >= 1 verb   all
L004 raises derive from ``ReproError``, not a builtin exception   all
L005 no compiled ``.pyc`` is tracked by git                       repo
S001 an acquired node/leaf lock is released on every path,        client
     exception exits included (findings carry a path witness)     protocol
S002 a lock-acquiring CAS carries a lease tag, so crash recovery  client
     can reclaim it                                               protocol
S003 no remote write through a released lock key: the in-place    client
     checksum update stays inside its lock window                 protocol
S004 every retry loop is bounded by ``RetryPolicy.attempts()``,   client
     not a magic constant (constants are propagated; ``while``    protocol
     counters count)
S005 a constructed verb is yielded, or it never reaches the       all
     executor, the fault injector or the tracer
S006 executor observers conform to the observer interface         all
==== ============================================================ =====

"Client protocol" excludes the layers that pace engine events or own
the data plane (``repro.analysis.rules.PROTOCOL_EXEMPT_PARTS``).  L000
reports a file that does not parse; S000 reports a function whose flow
analysis exceeded its state budget (S001/S003 unchecked there).

Suppressions: append ``# lint: disable=S004`` to the offending line, or
put ``# lint: disable-file=L001`` in the first ten lines of a file; a
pragma names the rules it silences and carries its justification.

Usage::

    python -m repro.tools.lint [--format=text|json] [paths...]

With no paths, checks the installed ``repro`` package (what CI gates).
Exits 0 when clean, 1 on findings, 2 on a usage error.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from repro.analysis import Report, analyze_paths
from repro.analysis.findings import Finding


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
    """The installed ``repro`` package (what CI checks)."""
    return Path(__file__).resolve().parent.parent


def check(targets: List[Path]) -> Report:
    """Every rule over ``targets``: the CFG rules plus the L005 query."""
    report = analyze_paths(targets)
    report.findings.extend(lint_tracked_pyc(targets[0]))
    return report


def render_text(report: Report) -> str:
    lines: List[str] = []
    for finding in report.findings:
        lines.append(finding.render())
        lines.extend(finding.render_witness())
    if report.findings:
        breakdown = ", ".join(f"{rule}={count}" for rule, count
                              in sorted(report.counts().items()))
        lines.append(f"lint: {len(report.findings)} finding(s) "
                     f"({breakdown})")
    else:
        lines.append(f"lint: clean ({report.files} files, "
                     f"{report.functions} functions analyzed)")
    return "\n".join(lines)


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
        elif arg.startswith("-"):
            print(f"lint: error: unknown option: {arg}", file=sys.stderr)
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
    report = check(targets)
    if fmt == "json":
        payload = report.to_json(targets=[str(t) for t in targets])
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
