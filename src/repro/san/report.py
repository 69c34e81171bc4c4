"""DMSan configuration, violations, and run reports.

Mirrors the shape of :class:`repro.tools.fsck.FsckReport` so both
correctness tools read the same way in test assertions and logs: a
``clean`` flag, a list of rendered findings, and counters summarizing how
much work the analysis actually did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List

from ..dm.memory import format_addr
from ..errors import SanViolation

# Violation kinds (stable strings - tests match on them).
UNLOCKED_WRITE = "unlocked-write"
TORN_READ = "torn-read"
ATOMIC_MIX = "atomic-mix"
USE_AFTER_FREE = "use-after-free"
WRITE_AFTER_FREE = "write-after-free"

# Warning kinds.
ABA = "aba"
STALE_READ = "stale-read"


# Which protocol defenses DMSan trusts, per allocation category - the
# sanitizer analogue of a suppression file, fixed to this repo's shipped
# protocols.

TEAR_TOLERANT_CATEGORIES: FrozenSet[str] = frozenset({"leaf"})
"""Allocation categories whose multi-word reads may race writes: the
protocol carries an explicit tear detector (leaf CRC32)."""

CHECKSUMMED_CATEGORIES: FrozenSet[str] = frozenset({"leaf"})
"""Categories where a read of a freed block is degraded to a
:data:`STALE_READ` warning: readers validate content (checksum + key)
before trusting it, which is the repo's documented defense for leaves
reclaimed while stale pointers exist."""

EXTERNAL_SYNC_CATEGORIES: FrozenSet[str] = frozenset({"hash_table"})
"""Categories whose plain writes may be guarded by a lock in a
*different* object (the RACE directory is repointed under the old
segment's group locks); the writer must still hold some CAS-acquired
word somewhere."""

MAX_WARNINGS = 64
"""Warnings are sampled beyond this count (counters keep counting)."""


@dataclass(frozen=True)
class SanConfig:
    """Policy knob for the sanitizer."""

    on_violation: str = "record"
    """``"record"`` collects violations into the report; ``"raise"`` turns
    the first one into a :class:`repro.errors.SanViolation`."""


@dataclass(frozen=True)
class Violation:
    """One observed protocol violation."""

    kind: str
    client: str
    addr: int
    size: int
    sim_time: int
    detail: str

    def render(self) -> str:
        return (f"[{self.kind}] t={self.sim_time}ns client={self.client} "
                f"{format_addr(self.addr)}+{self.size}B: {self.detail}")


@dataclass
class SanReport:
    """Outcome of one monitored run (mirrors ``FsckReport``)."""

    events: int = 0
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    objects_tracked: int = 0
    objects_freed: int = 0
    objects_retired: int = 0
    torn_tolerated: int = 0
    stale_reads: int = 0
    untracked_accesses: int = 0
    violations: List[Violation] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    warning_count: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def render_violations(self, limit: int = 10) -> List[str]:
        return [v.render() for v in self.violations[:limit]]

    def summary(self) -> str:
        status = ("CLEAN" if self.clean
                  else f"{len(self.violations)} VIOLATIONS")
        return (f"dmsan: {status} - {self.events} events "
                f"({self.reads} reads, {self.writes} writes, "
                f"{self.atomics} atomics), {self.objects_tracked} objects "
                f"({self.objects_freed} freed, {self.objects_retired} "
                f"retired), {self.torn_tolerated} tolerated torn reads, "
                f"{self.stale_reads} stale reads, "
                f"{self.warning_count} warnings")


def raise_or_record(report: SanReport, config: SanConfig,
                    violation: Violation) -> None:
    report.violations.append(violation)
    if config.on_violation == "raise":
        raise SanViolation(violation.render())


def warn(report: SanReport, message: str) -> None:
    report.warning_count += 1
    if len(report.warnings) < MAX_WARNINGS:
        report.warnings.append(message)
