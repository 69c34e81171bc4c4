"""DMVerify CLI: path-sensitive static verification of the protocol
layer.

Usage::

    python -m repro.tools.dmverify [--format=text|json] [paths...]

With no paths, verifies the installed ``repro`` package (what CI
gates).  Exit codes mirror lint: 0 clean, 1 findings, 2 usage error.

Rules (see DESIGN.md section 10 for the catalog with examples):

* **S001** - lock acquired (lock CAS, segment-split CAS, or an acquire
  helper) but not released on some path, including exception exits.
  Findings carry a path witness: the acquire, the flag tests, and the
  exit that leaks.
* **S002** - lock-acquiring CAS (unlocked -> locked transition) with
  no lease tag; crash recovery cannot reclaim what it cannot see.
* **S003** - remote write through a released lock key: mutations of a
  locked structure must stay inside the acquire/release window.
* **S004** - retry loop with a magic constant bound (semantic upgrade
  of lint L006: constants are propagated, `while` counters count).
* **S005** - verb constructed but never yielded: invisible to the
  executor, the fault injector, and the tracer.
* **S006** - an executor observer (an ``Observer`` subclass, or a class
  handed to ``Cluster.attach``) whose hooks do not match the interface.

Suppressions: ``# dmverify: disable=S001`` on the line, or
``# dmverify: disable-file=S001`` in the first ten lines.  Rules that
upgrade a lint rule also honor the older pragma at the same site
(``# lint: disable=L006`` silences S004).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from repro.analysis import Report, analyze_paths


def default_target() -> Path:
    """The installed ``repro`` package (what CI verifies)."""
    return Path(__file__).resolve().parent.parent


def render_text(report: Report) -> str:
    lines: List[str] = []
    for finding in report.findings:
        lines.append(finding.render())
        lines.extend(finding.render_witness())
    if report.findings:
        breakdown = ", ".join(f"{rule}={count}" for rule, count
                              in sorted(report.counts().items()))
        lines.append(f"dmverify: {len(report.findings)} finding(s) "
                     f"({breakdown})")
    else:
        lines.append(f"dmverify: clean ({report.files} files, "
                     f"{report.functions} functions analyzed)")
    return "\n".join(lines)


def main(argv: Iterable[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    fmt = "text"
    paths: List[str] = []
    for arg in args:
        if arg in ("--format=text", "--format=json"):
            fmt = arg.split("=", 1)[1]
        elif arg == "--format":
            print("dmverify: error: --format requires =text or =json",
                  file=sys.stderr)
            return 2
        elif arg.startswith("-"):
            print(f"dmverify: error: unknown option: {arg}",
                  file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    targets = [Path(p) for p in paths] if paths else [default_target()]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"dmverify: error: no such file or directory: "
                  f"{target}", file=sys.stderr)
        return 2
    report = analyze_paths(targets)
    if fmt == "json":
        payload = report.to_json(targets=[str(t) for t in targets])
        payload["exit_code"] = 0 if report.clean else 1
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
