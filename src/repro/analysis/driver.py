"""File discovery, the summary fixpoint, and report assembly: the one
driver behind ``python -m repro.tools.lint``.

Per file: parse once, build CFGs once (module body, class bodies, one
per def), read the ``# lint:`` pragmas, and run every CFG rule - the
lint rules L001-L004 and the protocol S-rules - over those graphs.

Across files: function summaries (acquire helpers, release helpers,
verb factories) are iterated to a fixpoint - protocol helpers call at
most a couple of levels deep, so the iteration is capped and in
practice converges in two rounds - then a final pass collects flow
findings against the stable table.

Determinism: files are discovered in sorted order, abstract state is
built from sorted tuples, the worklist is FIFO, and findings are
sorted and deduped before reporting, so two runs over the same tree
produce byte-identical JSON regardless of hash seed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import model, rules
from .cfg import CFG, build_cfgs, is_generator
from .dataflow import (SEED_SUMMARIES, FlowAnalysis, FuncSummary,
                       RawFinding, Resolver, factory_summary)
from .findings import Finding, Suppressions, dedupe, sort_key

_MAX_SUMMARY_ROUNDS = 4


@dataclass
class _FileUnit:
    rel: str
    tree: ast.Module
    cfgs: List[CFG]
    suppressions: Suppressions
    protocol: bool  # S001-S004 apply (not an infrastructure layer)

    def function_cfgs(self) -> List[CFG]:
        return [cfg for cfg in self.cfgs if cfg.func is not None]


class _Summaries:
    """name -> {(rel, cls, qualname): summary} with scoped resolution:
    same class, then same file, then unique global, then seeds."""

    def __init__(self) -> None:
        self._table: Dict[str, Dict[Tuple[str, str, str],
                                    FuncSummary]] = {}

    def set(self, name: str, rel: str, cls: Optional[str],
            qualname: str, summary: FuncSummary) -> bool:
        group = self._table.setdefault(name, {})
        key = (rel, cls or "", qualname)
        changed = group.get(key) != summary
        group[key] = summary
        return changed

    def resolver(self, rel: str, cls: Optional[str]) -> Resolver:
        def resolve(name: str) -> Optional[FuncSummary]:
            group = self._table.get(name)
            if not group:
                return SEED_SUMMARIES.get(name)
            items = sorted(group.items())
            if cls:
                for (item_rel, item_cls, _q), summary in items:
                    if item_rel == rel and item_cls == cls:
                        return summary
            for (item_rel, _item_cls, _q), summary in items:
                if item_rel == rel:
                    return summary
            summaries = {summary for _key, summary in items}
            if len(summaries) == 1:
                return summaries.pop()
            return SEED_SUMMARIES.get(name)
        return resolve


@dataclass
class Report:
    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    functions: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out

    def to_json(self, targets: Sequence[str] = ()) -> Dict[str, object]:
        return {
            "tool": "lint",
            "version": 2,
            "targets": list(targets),
            "files": self.files,
            "functions": self.functions,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
            "clean": self.clean,
            "exit_code": 0 if self.clean else 1,
        }


def discover(paths: Sequence[Path]) -> List[Tuple[Path, str]]:
    """(path, display-relative-name) pairs, sorted: directories are
    walked recursively and names are relative to the directory's
    parent."""
    out: List[Tuple[Path, str]] = []
    for base in paths:
        base = base.resolve()
        if base.is_dir():
            for file in sorted(base.rglob("*.py")):
                out.append((file, str(file.relative_to(base.parent))))
        else:
            out.append((base, str(base.relative_to(base.parent))))
    return out


def _load(path: Path, rel: str) -> "Tuple[Optional[_FileUnit], Optional[Finding]]":
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(rel, exc.lineno or 0, "L000",
                             f"syntax error: {exc.msg}")
    unit = _FileUnit(
        rel=rel, tree=tree,
        cfgs=build_cfgs(tree, modname=rel),
        suppressions=Suppressions.for_source(source),
        protocol=not rules.is_exempt(rel, rules.PROTOCOL_EXEMPT_PARTS))
    return unit, None


def _flow_findings(unit: _FileUnit, table: _Summaries,
                   collect: bool) -> Tuple[List[RawFinding], bool]:
    """Run the dataflow over the unit's generators; update summaries.
    Returns (findings if collect else [], any summary changed)."""
    findings: List[RawFinding] = []
    changed = False
    for cfg in unit.function_cfgs():
        assert cfg.func is not None
        if not is_generator(cfg.func):
            continue
        env = model.local_env(cfg.func.body)
        analysis = FlowAnalysis(cfg, env,
                                table.resolver(unit.rel, cfg.cls))
        outcome = analysis.run()
        changed |= table.set(cfg.func.name, unit.rel, cfg.cls,
                             cfg.name, outcome.summary)
        if collect and not outcome.overflowed:
            findings.extend(outcome.findings)
        if collect and outcome.overflowed:
            findings.append(RawFinding(
                "S000", cfg.func.lineno,
                f"analysis of {cfg.name} exceeded the state budget; "
                f"S001/S003 were not checked here"))
    return findings, changed


def analyze_paths(paths: Sequence[Path]) -> Report:
    report = Report()
    units: List[_FileUnit] = []
    parse_failures: List[Finding] = []
    for path, rel in discover(paths):
        unit, failure = _load(path, rel)
        if failure is not None:
            parse_failures.append(failure)
        if unit is not None:
            units.append(unit)
    report.files = len(units) + len(parse_failures)
    report.functions = sum(len(u.function_cfgs()) for u in units)

    table = _Summaries()
    for unit in units:
        for cfg in unit.function_cfgs():
            assert cfg.func is not None
            factory = factory_summary(cfg.func)
            if factory is not None:
                table.set(cfg.func.name, unit.rel, cfg.cls, cfg.name,
                          factory)
    flow_units = [unit for unit in units if unit.protocol]
    for _round in range(_MAX_SUMMARY_ROUNDS):
        changed = False
        for unit in flow_units:
            _ignored, unit_changed = _flow_findings(unit, table,
                                                    collect=False)
            changed = changed or unit_changed
        if not changed:
            break

    findings: List[Finding] = list(parse_failures)
    for unit in units:
        raw = rules.lint_rules(
            unit.cfgs,
            l001_exempt=rules.is_exempt(unit.rel, rules.L001_EXEMPT_PARTS))
        if unit.protocol:
            flow_found, _changed = _flow_findings(unit, table,
                                                  collect=True)
            raw.extend(flow_found)
            raw.extend(rules.s002_rules(unit.cfgs))
            raw.extend(rules.s004_rules(unit.cfgs))
        raw.extend(rules.s005_rules(unit.cfgs))
        raw.extend(rules.s006_rules(unit.tree))
        wrapped = [Finding(unit.rel, item.line, item.rule, item.message,
                           witness=item.witness)
                   for item in raw]
        findings.extend(unit.suppressions.apply(wrapped))
    report.findings = dedupe(sorted(findings, key=sort_key))
    return report
