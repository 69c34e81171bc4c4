"""Findings and inline suppressions of the static checker.

A :class:`Finding` is one diagnostic anchored to a file/line; flow
findings (S001/S003) additionally carry a *witness* - the sequence of
abstract events (lock acquired here, CAS flag tested there) along the
concrete CFG path that reaches the violation, so a reader can replay
the path without re-running the analysis.

:class:`Suppressions` implements the one pragma namespace, for every
rule::

    yield CasOp(a, 0, 1)  # lint: disable=S002
    # lint: disable-file=L001,S001   (first ten lines of the file)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line: RULE message`` plus a path witness."""

    path: str
    line: int
    rule: str
    message: str
    witness: Tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def render_witness(self, indent: str = "    ") -> List[str]:
        if not self.witness:
            return []
        lines = [f"{indent}path witness:"]
        lines.extend(f"{indent}  - {step}" for step in self.witness)
        return lines

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }
        if self.witness:
            payload["witness"] = list(self.witness)
        return payload


def sort_key(finding: Finding) -> Tuple[str, int, str, str]:
    return (finding.path, finding.line, finding.rule, finding.message)


def dedupe(findings: List[Finding]) -> List[Finding]:
    """Drop duplicate (path, line, rule, message) findings, keep order.

    The CFG builder duplicates ``finally`` bodies per exit route, so one
    source statement may be analyzed on several routes and report the
    same violation more than once; only the first (with its witness) is
    kept.
    """
    seen: Set[Tuple[str, int, str, str]] = set()
    out: List[Finding] = []
    for finding in findings:
        key = (finding.path, finding.line, finding.rule, finding.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(finding)
    return out


_LINE_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+)")
_FILE_PRAGMA = re.compile(r"#\s*lint:\s*disable-file=([A-Z0-9,\s]+)")


def _rule_ids(match: "re.Match[str]") -> Set[str]:
    return {rule.strip() for rule in match.group(1).split(",")}


@dataclass
class Suppressions:
    """The ``# lint:`` line and file pragmas of one source file."""

    lines: List[str] = field(default_factory=list)
    _file_disabled: Set[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        disabled: Set[str] = set()
        for line in self.lines[:10]:
            match = _FILE_PRAGMA.search(line)
            if match:
                disabled.update(_rule_ids(match))
        self._file_disabled = disabled

    @classmethod
    def for_source(cls, source: str) -> "Suppressions":
        return cls(lines=source.splitlines())

    def suppressed(self, rule: str, lineno: int) -> bool:
        if rule in self._file_disabled:
            return True
        if 1 <= lineno <= len(self.lines):
            match = _LINE_PRAGMA.search(self.lines[lineno - 1])
            if match and rule in _rule_ids(match):
                return True
        return False

    def apply(self, findings: List[Finding]) -> List[Finding]:
        return [f for f in findings
                if not self.suppressed(f.rule, f.line)]
