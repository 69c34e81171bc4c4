"""Offline consistency checker for on-MN index structures.

Like a filesystem's fsck: walks the tree directly in simulated MN memory
(no client, no clock) and validates every structural invariant the
protocols rely on.  Used by the concurrency test-suite as ground truth
after chaotic interleavings, by :class:`repro.recover.RecoveryManager`
as its online repair stage, and available to users debugging their own
workloads (``python -m repro.tools.fsck`` runs a self-contained crash
scenario - see :func:`main`).

Checked invariants
------------------

Tree:
* headers decode, node types are legal, status is Idle/Locked (a
  *reachable* Invalid node is an error - type switches must unlink first);
* depths strictly increase along every path;
* the 42-bit header prefix hash matches the node's real prefix (recovered
  from any leaf below it);
* no duplicate partial bytes among a node's occupied slots;
* small-node append cursors: occupied slots fit below the cursor, cursor
  within capacity;
* leaves: checksum valid, status Idle/Locked, key consistent with every
  ancestor's (depth, partial) constraint, no duplicate keys in the tree.

Sphinx extras:
* every reachable inner node (except the root) has a hash-table entry at
  its prefix pointing to its address with the right node type and fp2;
* hash-table entries pointing at Invalid/retired nodes are counted as
  tolerated garbage (reported, not errors);
* a raw enumeration of every table segment catches **orphan** entries -
  occupied INHT slots whose target node is Invalid, undecodable, or not
  reachable from the tree at all (half-installed by a crashed client).

Repair
------

Some defects carry enough context to fix online; they are reported as
structured :class:`Finding` records alongside the human-readable error
strings, and ``check_index(..., repair=True)`` (the CLI's ``--repair``)
applies them through a :class:`~repro.dm.rdma.DirectExecutor` - CAS-
discipline only, so a racing live client can never be half-overwritten:

* ``invalid_leaf`` - a reachable Invalid leaf (crashed delete): CAS the
  parent slot clear;
* ``inht_missing`` - a reachable inner node with no hash-table entry
  (crashed insert/split): re-insert the entry;
* ``inht_orphan`` - an occupied table entry with no live target: CAS the
  entry clear;
* ``orphan_lock`` - a node/leaf/group lock held at rest: reported but
  **not** repaired here; only the lease table knows whether the owner is
  dead (see DESIGN.md §9).

MNs marked crashed by the fault injector (``crash_mn``) are skipped with
a warning rather than reported as a forest of errors: their memory was
blanked, and nothing behind a dead MN is repairable until it returns.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, \
    Tuple

from ..art.keys import common_prefix_len
from ..art.layout import (
    HASH_ENTRY_ADDR_MASK,
    HASH_ENTRY_OCCUPIED,
    Header,
    NODE256,
    NODE_CAPACITY,
    NODE_TYPES,
    SLOT_ADDR_MASK,
    SLOT_LEAF,
    SLOT_OCCUPIED,
    SLOT_PARTIAL_SHIFT,
    SLOT_SIZE_MASK,
    SLOT_SIZE_SHIFT,
    STATUS_IDLE,
    STATUS_INVALID,
    STATUS_LOCKED,
    decode_leaf,
    decode_node,
    node_size,
)
from ..dm.cluster import Cluster
from ..dm.memory import addr_mn, addr_offset
from ..dm.rdma import CasOp
from ..errors import ReproError
from ..race.layout import DIR_ENTRY
from ..util.bits import u64_from_bytes
from ..util.hashing import prefix_hash42


@dataclass(frozen=True)
class Finding:
    """A structured defect record (the machine-readable twin of an entry
    in ``FsckReport.errors``/``warnings``)."""

    kind: str          # invalid_leaf | inht_missing | inht_orphan | orphan_lock
    addr: int          # address the finding anchors to
    detail: str
    repairable: bool
    meta: tuple = ()   # repair context, kind-specific


@dataclass
class FsckReport:
    """Outcome of one consistency check."""

    inner_nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    inht_checked: int = 0
    inht_missing: int = 0
    inht_stale_tolerated: int = 0
    inht_entries: int = 0
    inht_orphans: int = 0
    findings: List[Finding] = field(default_factory=list)
    repaired: int = 0
    reachable: Dict[bytes, Tuple[int, int]] = field(default_factory=dict)
    reachable_nodes: Set[int] = field(default_factory=set)
    #: ``{key: value}`` of every leaf the tree walk accepted (not
    #: Invalid, checksum ok, inside its ancestors' key constraints):
    #: what the rack's replica-agreement stage compares.
    values: Dict[bytes, bytes] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.errors

    @property
    def unrepairable(self) -> List[Finding]:
        return [f for f in self.findings if not f.repairable]

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def find(self, kind: str, addr: int, detail: str, repairable: bool,
             meta: tuple = ()) -> None:
        self.findings.append(Finding(kind, addr, detail, repairable, meta))

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.errors)} ERRORS"
        repaired = f", {self.repaired} repaired" if self.repaired else ""
        return (f"fsck: {status} - {self.inner_nodes} inner nodes, "
                f"{self.leaves} leaves, depth {self.max_depth}, "
                f"{len(self.warnings)} warnings, "
                f"INHT {self.inht_checked} checked / "
                f"{self.inht_missing} missing{repaired}")


def _dead_mns(cluster: Cluster) -> Set[int]:
    injector = cluster.injector
    return set() if injector is None else set(injector.dead_mns)


def _read_node_raw(cluster: Cluster, addr: int, node_type: int):
    memory = cluster.memories[addr_mn(addr)]
    return decode_node(memory.read(addr_offset(addr), node_size(node_type)))


def _read_leaf_raw(cluster: Cluster, addr: int, units: int):
    memory = cluster.memories[addr_mn(addr)]
    return decode_leaf(memory.read(addr_offset(addr), units * 64))


def check_tree(cluster: Cluster, root_addr: int,
               report: Optional[FsckReport] = None
               ) -> Tuple[FsckReport, Dict[bytes, int]]:
    """Validate the tree rooted at ``root_addr``.

    Returns (report, {inner_prefix: node_addr}) - the prefix map feeds
    the INHT cross-check.  ``report.reachable`` additionally carries the
    node type per prefix (repair needs it), ``report.reachable_nodes``
    every visited inner-node address (the orphan walk needs it) and
    ``report.values`` every accepted leaf's value (the rack's replica
    agreement needs it).
    """
    report = report if report is not None else FsckReport()
    prefixes: Dict[bytes, int] = {}
    values = report.values
    visited: Set[int] = set()
    dead = _dead_mns(cluster)

    def walk(addr: int, node_type: int, path) -> Optional[bytes]:
        """Recursive DFS; returns a witness key from the subtree."""
        if addr in visited:
            report.error(f"node {addr:#x} reachable twice (cycle/alias)")
            return None
        visited.add(addr)
        if addr_mn(addr) in dead:
            report.warn(f"node {addr:#x}: MN {addr_mn(addr)} crashed; "
                        "subtree skipped")
            return None
        try:
            view = _read_node_raw(cluster, addr, node_type)
        except ReproError as exc:
            report.error(f"node {addr:#x} undecodable: {exc}")
            return None
        header = view.header
        report.inner_nodes += 1
        report.max_depth = max(report.max_depth, header.depth)
        if header.node_type != node_type:
            report.error(f"node {addr:#x}: slot said type {node_type}, "
                         f"header says {header.node_type}")
            return None
        if header.status == STATUS_INVALID:
            report.error(f"node {addr:#x}: reachable but Invalid")
            return None
        if header.status not in (STATUS_IDLE, STATUS_LOCKED):
            report.error(f"node {addr:#x}: bad status {header.status}")
        if header.status == STATUS_LOCKED:
            report.find("orphan_lock", addr,
                        f"node {addr:#x} locked at rest", repairable=False)
        capacity = NODE_CAPACITY[header.node_type]
        if header.node_type != NODE256:
            if header.count > capacity:
                report.error(f"node {addr:#x}: cursor {header.count} "
                             f"exceeds capacity {capacity}")
            for i, word in enumerate(view.words):
                if i >= header.count and word & SLOT_OCCUPIED:
                    report.error(f"node {addr:#x}: occupied slot {i} at/"
                                 f"past append cursor {header.count}")
        occupied = [(i, w) for i, w in enumerate(view.words)
                    if w & SLOT_OCCUPIED]
        partials = [(w >> SLOT_PARTIAL_SHIFT) & 0xFF for _i, w in occupied]
        if len(partials) != len(set(partials)):
            report.error(f"node {addr:#x}: duplicate partial bytes "
                         f"{sorted(partials)}")
        witness: Optional[bytes] = None
        for (index, word), partial in zip(occupied, partials):
            child_path = path + [(header.depth, partial)]
            slot_addr = addr + 8 + index * 8
            child = word & SLOT_ADDR_MASK
            size_class = (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK
            if word & SLOT_LEAF:
                if addr_mn(child) in dead:
                    report.warn(f"leaf {child:#x}: MN crashed; skipped")
                    continue
                leaf = _read_leaf_raw(cluster, child, size_class)
                report.leaves += 1
                if leaf.status == STATUS_INVALID:
                    report.error(f"leaf {child:#x}: reachable but "
                                 "Invalid (delete did not clear slot)")
                    report.find("invalid_leaf", child,
                                f"reachable Invalid leaf under {addr:#x}",
                                repairable=True, meta=(slot_addr, word))
                    continue
                if leaf.status == STATUS_LOCKED:
                    report.find("orphan_lock", child,
                                f"leaf {child:#x} locked at rest",
                                repairable=False)
                if not leaf.checksum_ok:
                    if leaf.status == STATUS_LOCKED:
                        report.warn(f"leaf {child:#x}: torn under an "
                                    "in-flight lock")
                    else:
                        report.error(f"leaf {child:#x}: checksum "
                                     "mismatch at rest")
                    continue
                bad = False
                for depth, key_byte in child_path:
                    if len(leaf.key) <= depth or leaf.key[depth] != key_byte:
                        report.error(
                            f"leaf {child:#x} key {leaf.key!r} violates "
                            f"ancestor constraint (depth {depth}, "
                            f"partial {key_byte})")
                        bad = True
                        break
                if bad:
                    continue
                if leaf.key in values:
                    report.error(f"duplicate key {leaf.key!r}")
                values[leaf.key] = leaf.value
                if witness is None:
                    witness = leaf.key
            else:
                sub = walk(child, size_class, child_path)
                if witness is None and sub is not None:
                    witness = sub
        # Prefix-hash check needs real bytes: recover from a witness leaf.
        if witness is not None:
            prefix = witness[:header.depth]
            if prefix_hash42(prefix) != header.prefix_hash:
                report.error(f"node {addr:#x}: prefix hash mismatch for "
                             f"recovered prefix {prefix!r}")
            else:
                prefixes[prefix] = addr
                report.reachable[prefix] = (addr, header.node_type)
        elif occupied:
            report.warn(f"node {addr:#x}: no live leaves below; prefix "
                        "unverifiable")
        return witness

    walk(root_addr, NODE256, [])
    report.reachable_nodes |= visited
    return report, prefixes


def _walk_tables_raw(cluster: Cluster, index, report: FsckReport) -> None:
    """Enumerate every occupied INHT entry straight from segment memory
    and flag orphans - entries whose target node is not reachable from
    the tree *and* not live (crashed half-installs, unretired garbage).
    Locked group headers are reported as orphan-lock findings."""
    dead = _dead_mns(cluster)
    reachable = report.reachable_nodes
    for mn, info in sorted(index.inht.tables.items()):
        if mn in dead:
            report.warn(f"INHT table on MN {mn}: MN crashed; skipped")
            continue
        memory = cluster.memories[mn]
        params = info.params
        dir_raw = memory.read(addr_offset(info.dir_addr),
                              params.directory_slots * 8)
        segments: Dict[int, int] = {}
        for idx in range(params.directory_slots):
            entry = DIR_ENTRY.unpack(
                u64_from_bytes(dir_raw[idx * 8: idx * 8 + 8]))
            if entry["occupied"]:
                segments.setdefault(entry["addr"], entry["local_depth"])
        for seg_addr in sorted(segments):
            seg_raw = memory.read(addr_offset(seg_addr), params.segment_size)
            for g in range(params.groups_per_segment):
                base = params.group_offset(g)
                header = u64_from_bytes(seg_raw[base:base + 8])
                if (header >> 8) & 1:
                    report.find(
                        "orphan_lock", seg_addr + base,
                        f"table group {seg_addr + base:#x} locked at rest",
                        repairable=False, meta=(seg_addr, header & 0xFF))
                for s in range(params.slots_per_group):
                    off = base + 8 + s * 8
                    word = u64_from_bytes(seg_raw[off:off + 8])
                    if not word & HASH_ENTRY_OCCUPIED:
                        continue
                    report.inht_entries += 1
                    target = word & HASH_ENTRY_ADDR_MASK
                    if target in reachable:
                        continue
                    slot_addr = seg_addr + off
                    detail = _classify_orphan(cluster, target, dead)
                    if detail is None:
                        continue  # live-but-unvisited (e.g. dead-MN skip)
                    report.inht_orphans += 1
                    report.warn(f"INHT entry {slot_addr:#x} -> "
                                f"{target:#x}: {detail}")
                    report.find("inht_orphan", slot_addr,
                                f"entry -> {target:#x}: {detail}",
                                repairable=True, meta=(word,))


def _classify_orphan(cluster: Cluster, target: int,
                     dead: Set[int]) -> Optional[str]:
    """Why an unreachable INHT entry pointing at ``target`` is garbage,
    or None if unknowable."""
    mn = addr_mn(target)
    if mn in dead:
        return None
    memory = cluster.memories[mn]
    try:
        word = memory.read_u64(addr_offset(target))
        header = Header.unpack(word)
    except ReproError:
        return "target undecodable"
    if header.status == STATUS_INVALID:
        return "target node Invalid (retired)"
    if header.node_type not in NODE_TYPES:
        return "target not a node"
    return "target unreachable from the tree"


def check_sphinx(cluster: Cluster, index, report: Optional[FsckReport] = None
                 ) -> FsckReport:
    """Full check of a Sphinx index: tree + inner-node hash table."""
    report, prefixes = check_tree(cluster, index.root_addr, report)
    inht_client = index.client(0).inht
    executor = cluster.direct_executor()
    dead = _dead_mns(cluster)
    for prefix, node_addr in prefixes.items():
        if prefix == b"":
            continue  # the root has no hash-table entry (known statically)
        table_mn = inht_client._client_for(prefix).info.mn_id
        if table_mn in dead:
            report.warn(f"INHT check for {prefix!r} skipped: MN "
                        f"{table_mn} crashed")
            continue
        report.inht_checked += 1
        try:
            matches = executor.run(inht_client.lookup(prefix))
        except ReproError:
            # A bucket stuck behind an abandoned split lock: recovery's
            # job, not fsck's - report the lock, skip the cross-check.
            report.warn(f"INHT check for {prefix!r} skipped: bucket "
                        "unreadable (locked group?)")
            continue
        live = [word for _slot, word in matches
                if (word & HASH_ENTRY_ADDR_MASK) == node_addr]
        stale = len(matches) - len(live)
        if not live:
            report.inht_missing += 1
            report.error(f"INHT: no entry for reachable prefix {prefix!r} "
                         f"-> node {node_addr:#x}")
            _addr, node_type = report.reachable[prefix]
            report.find("inht_missing", node_addr,
                        f"no INHT entry for prefix {prefix!r}",
                        repairable=True, meta=(prefix, node_type))
        report.inht_stale_tolerated += stale
    _walk_tables_raw(cluster, index, report)
    return report


def repair_findings(cluster: Cluster, index,
                    report: FsckReport) -> Tuple[int, int]:
    """Apply every repairable finding in ``report``.

    Returns (repaired, failed).  Repairs go through a DirectExecutor
    with CAS discipline - a finding whose on-MN state moved since the
    check simply fails its CAS and is left for the next pass.
    """
    executor = cluster.direct_executor()
    inht_client = None
    if hasattr(index, "inht"):
        inht_client = index.client(0).inht
    repaired = failed = 0
    for finding in report.findings:
        if not finding.repairable:
            continue
        ok = False
        if finding.kind == "invalid_leaf":
            slot_addr, slot_word = finding.meta

            def clear_slot(addr: int = slot_addr,
                           word: int = slot_word
                           ) -> Iterator[CasOp]:
                swapped, _ = yield CasOp(addr, word, 0)
                return swapped

            ok = executor.run(clear_slot())
        elif finding.kind == "inht_orphan":
            (entry_word,) = finding.meta

            def clear_entry(addr: int = finding.addr,
                            word: int = entry_word
                            ) -> Iterator[CasOp]:
                swapped, _ = yield CasOp(addr, word, 0)
                return swapped

            ok = executor.run(clear_entry())
        elif finding.kind == "inht_missing" and inht_client is not None:
            prefix, node_type = finding.meta
            executor.run(inht_client.insert(prefix, finding.addr, node_type))
            ok = True
        if ok:
            repaired += 1
        else:
            failed += 1
    return repaired, failed


def check_index(cluster: Cluster, index, repair: bool = False) -> FsckReport:
    """Dispatch: Sphinx gets the INHT cross-check, baselines tree-only.

    With ``repair=True``, repairable findings are applied and the check
    re-run; the returned (post-repair) report carries ``repaired``.
    """
    def run() -> FsckReport:
        if hasattr(index, "inht"):
            return check_sphinx(cluster, index)
        report, _prefixes = check_tree(cluster, index.root_addr)
        return report

    report = run()
    if not repair or not any(f.repairable for f in report.findings):
        return report
    repaired, _failed = repair_findings(cluster, index, report)
    report = run()
    report.repaired = repaired
    return report


# -- CLI ---------------------------------------------------------------------

EXIT_CLEAN = 0
EXIT_REPAIRED = 1
EXIT_UNREPAIRABLE = 2


def _build_scenario(keys: int, seed: int,
                    crash_verb: int) -> Tuple[Any, Any, Any]:
    """A self-contained Sphinx workload; with ``crash_verb`` > 0 a
    ``crash_cn`` fault kills the churn client mid-run, leaving orphan
    locks and half-writes for fsck/recovery to find."""
    import random

    from ..art import encode_u64
    from ..core import SphinxConfig, SphinxIndex
    from ..dm import ClusterConfig
    from ..errors import ClientCrash, InjectedFault, RetryLimitExceeded
    from ..fault import FaultPlan, crash_cn

    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    loader = cluster.direct_executor()
    rng = random.Random(seed)
    key_bytes = [encode_u64(rng.getrandbits(64)) for _ in range(keys)]
    for i, key in enumerate(key_bytes):
        loader.run(client.insert(key, f"v{i}".encode()))
    manager = cluster.attach_recovery()
    if crash_verb > 0:
        cluster.attach_faults(FaultPlan(
            rules=(crash_cn(crash_verb, applied_prob=0.5),), seed=seed))
        churn = cluster.direct_executor()
        try:
            for _ in range(100_000):
                key = rng.choice(key_bytes)
                roll = rng.random()
                if roll < 0.5:
                    churn.run(client.insert(key, b"x" * rng.randrange(1, 64)))
                elif roll < 0.75:
                    churn.run(client.update(key, b"y" * rng.randrange(1, 64)))
                else:
                    churn.run(client.delete(key))
        except ClientCrash:
            pass
        except (InjectedFault, RetryLimitExceeded):
            pass
    return cluster, index, manager


def exit_code(report: FsckReport, dry_run: bool, recovered: bool) -> int:
    """The CLI's exit convention for ``report``; :func:`repro.tenancy.
    run_rack` maps every group's dry-run report through it too."""
    if dry_run:
        if report.clean and not report.findings:
            return EXIT_CLEAN
        if report.findings and all(f.repairable for f in report.findings):
            return EXIT_REPAIRED
        return EXIT_UNREPAIRABLE
    if not report.clean or report.unrepairable:
        # Unrepairable findings (e.g. an orphaned lock, which only lease
        # recovery may clear) fail the check even when they are
        # warning-level: exit 2 tells the operator to run --recover.
        return EXIT_UNREPAIRABLE
    if report.repaired or recovered:
        return EXIT_REPAIRED
    return EXIT_CLEAN


def report_json(report: FsckReport, exit_code: int,
                recovery_summary: Optional[str] = None
                ) -> Dict[str, Any]:
    """Machine-readable twin of the text output; ``exit_code`` mirrors
    the process exit status (0 clean / 1 repaired / 2 unrepairable)."""
    return {
        "tool": "fsck",
        "version": 1,
        "exit_code": exit_code,
        "clean": report.clean,
        "summary": report.summary(),
        "inner_nodes": report.inner_nodes,
        "leaves": report.leaves,
        "max_depth": report.max_depth,
        "inht": {
            "checked": report.inht_checked,
            "missing": report.inht_missing,
            "stale_tolerated": report.inht_stale_tolerated,
            "entries": report.inht_entries,
            "orphans": report.inht_orphans,
        },
        "errors": list(report.errors),
        "warnings": list(report.warnings),
        "findings": [{"kind": f.kind, "addr": f.addr, "detail": f.detail,
                      "repairable": f.repairable}
                     for f in report.findings],
        "repaired": report.repaired,
        "recovery": recovery_summary,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fsck",
        description="Consistency-check (and optionally repair) a Sphinx "
                    "index in a self-contained scenario.")
    parser.add_argument("--keys", type=int, default=400,
                        help="keys to load (default 400)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload/fault seed")
    parser.add_argument("--crash-verb", type=int, default=0,
                        help="kill the churn client at this verb count "
                             "(0 = no crash)")
    parser.add_argument("--recover", action="store_true",
                        help="run lease-based recovery before checking")
    parser.add_argument("--repair", action="store_true",
                        help="apply repairable findings, then re-check")
    parser.add_argument("--dry-run", action="store_true",
                        help="report findings without writing anything")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default text)")
    parser.add_argument("--max-exit", type=int, metavar="CODE",
                        choices=(0, 1, 2),
                        help="tolerate fsck exit codes up to CODE by "
                             "exiting 0 for them (e.g. --max-exit 1 "
                             "accepts clean and repaired).  Unlike a "
                             "shell-side '|| test $? -le 1', a non-fsck "
                             "failure (import error, crash) still exits "
                             "nonzero.")
    args = parser.parse_args(argv)

    cluster, index, manager = _build_scenario(args.keys, args.seed,
                                              args.crash_verb)
    recovery_summary = None
    if args.recover:
        recovery = manager.recover(index=index)
        recovery_summary = recovery.summary()
        if args.format == "text":
            print(recovery_summary)
    repair = args.repair and not args.dry_run
    report = check_index(cluster, index, repair=repair)
    recovered = bool(args.recover and manager.last_report is not None
                     and manager.last_report.reclaimed)
    code = exit_code(report, args.dry_run, recovered)
    # --max-exit folds tolerated codes to 0 at the process boundary only;
    # the JSON report keeps the true fsck verdict.
    status = 0 if args.max_exit is not None and code <= args.max_exit \
        else code
    if args.format == "json":
        import json
        print(json.dumps(report_json(report, code, recovery_summary),
                         indent=2, sort_keys=True))
        return status
    print(report.summary())
    for finding in report.findings:
        action = ("repairable" if finding.repairable else "unrepairable")
        print(f"  [{finding.kind}] {finding.addr:#x}: {finding.detail} "
              f"({action})")
    return status


if __name__ == "__main__":
    sys.exit(main())
