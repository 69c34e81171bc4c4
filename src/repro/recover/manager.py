"""Lease table and recovery manager (DESIGN.md §9).

Protocol summary
----------------

Lock-acquiring CASes across the index protocols carry a ``lease`` tag
(:class:`repro.dm.rdma.CasOp`): ``("node",)`` for ART node headers,
``("leaf",)`` for leaf in-place-update locks, ``("hash", seg_addr,
local_depth)`` for hash-table split group locks.  Lock-releasing verbs
carry ``("release",)``.  When a :class:`RecoveryManager` is attached to
the cluster, its :class:`LeaseTable` observes every applied verb and
keeps the tagged ones, so it always knows **who** holds **which** remote
lock word and **since when** - state the 8-byte lock words themselves
have no room for.

After a crash (``crash_cn`` kills a client mid-operation, abandoning its
locks) a survivor calls :meth:`RecoveryManager.recover`:

1. every expired lease - owner crashed, or held for ``lease_ns`` or more
   - is reclaimed: re-read the word, and if it still holds the recorded
   locked value, CAS it back to Idle (node/leaf kinds);
2. ``hash`` leases delegate to
   :meth:`repro.race.client.RaceClient.recover_segment`, which decides
   roll-forward vs roll-back from remote state alone;
3. with an index given, an online ``fsck --repair`` pass fixes what lock
   reclamation cannot see (reachable Invalid leaves, missing INHT
   entries).

Recovery is quiescent-by-convention: run it while no *live* client is
mutating (survivors naturally stall on the orphaned locks anyway).  The
recovery pass itself runs under the same fault injector as regular
clients, so its verbs can be dropped or NAKed - every step retries
through the shared :class:`repro.fault.RetryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..dm.memory import addr_mn
from ..dm.rdma import CasOp, Observer, ReadOp, VerbRecord
from ..errors import ConfigError, InjectedFault, MNUnavailable
from ..fault.retry import DEFAULT_RETRY, UNTIMED, RetryPolicy
from ..util.bits import u64_from_bytes

# Where the status lives inside each kind's lock word (STATUS_IDLE is 0
# for both layouts, so clearing the field unlocks):
_NODE_STATUS_MASK = 0x3    # art.layout.Header: status in bits 0-1
_LEAF_STATUS_MASK = 0xFF   # art.layout.leaf_status_word: bits 0-7


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables for lease expiry and repair."""

    lease_ns: int = 2_000_000      # lease lifetime; >= this age == expired
    repair: bool = True            # run fsck --repair when an index is given
    retry: RetryPolicy = DEFAULT_RETRY

    def validate(self) -> None:
        if self.lease_ns < 0:
            raise ConfigError("lease_ns must be non-negative")
        self.retry.validate()


@dataclass(frozen=True)
class LeaseRecord:
    """One held remote lock, as observed from the acquiring CAS."""

    addr: int                 # global address of the lock word
    owner: str                # executor client_id that won the CAS
    epoch: int                # engine time at acquisition
    word: int                 # the locked value the CAS installed
    kind: str                 # "node" | "leaf" | "hash"
    meta: Tuple[int, ...]     # kind extras; hash: (seg_addr, local_depth)


class LeaseTable(Observer):
    """Live leases keyed by lock-word address.

    Fed by executors (:meth:`on_apply`); a lock word is held by at most
    one client at a time, so the address is a sufficient key.
    """

    def __init__(self) -> None:
        self._leases: Dict[int, LeaseRecord] = {}
        self.acquired = 0
        self.released = 0

    def __len__(self) -> int:
        return len(self._leases)

    def records(self) -> List[LeaseRecord]:
        return list(self._leases.values())

    def get(self, addr: int) -> Optional[LeaseRecord]:
        return self._leases.get(addr)

    def drop(self, addr: int) -> None:
        if self._leases.pop(addr, None) is not None:
            self.released += 1

    def on_apply(self, rec: VerbRecord) -> None:
        """Observer hook, *after* a verb applied: keep what a verb
        carrying a lease tag acquired or released."""
        verb, result = rec.op, rec.result
        tag = getattr(verb, "lease", None)
        if tag is None:
            return
        if tag[0] == "release":
            # A release CAS that lost did not release anything (e.g. a
            # split-undo CAS racing another client); a release WRITE is
            # unconditional (the writer owns the word).
            if isinstance(verb, CasOp) and not result[0]:
                return
            if self._leases.pop(verb.addr, None) is not None:
                self.released += 1
            return
        if not result[0]:
            return  # lost the acquiring CAS: no lock, no lease
        self._leases[verb.addr] = LeaseRecord(
            verb.addr, rec.client, rec.t_applied, verb.desired, tag[0],
            tuple(tag[1:]))
        self.acquired += 1


@dataclass
class RecoveryReport:
    """Outcome of one :meth:`RecoveryManager.recover` pass."""

    reclaimed: int = 0    # node/leaf locks CASed back to Idle
    released: int = 0     # lock already released remotely; lease dropped
    raced: int = 0        # word moved under us; someone else resolved it
    unreachable: int = 0  # lease on a crashed MN (or no client); left live
    skipped: int = 0      # leases not yet expired (owner alive and timely)
    segments: Dict[int, str] = field(default_factory=dict)
    fsck: Optional[object] = None   # FsckReport from the repair pass

    def summary(self) -> str:
        seg = ", ".join(f"{addr:#x}:{status}"
                        for addr, status in sorted(self.segments.items()))
        tail = f" [{seg}]" if seg else ""
        fsck = "" if self.fsck is None else f"; {self.fsck.summary()}"
        return (f"recover: {self.reclaimed} reclaimed, "
                f"{self.released} released, {self.raced} raced, "
                f"{self.unreachable} unreachable, "
                f"{self.skipped} skipped{tail}{fsck}")


class RecoveryManager:
    """Orphan-lock reclamation and online repair for one cluster."""

    def __init__(self, cluster, config: Optional[RecoveryConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else RecoveryConfig()
        self.config.validate()
        self.lease_table = LeaseTable()
        self._declared_dead: Set[str] = set()
        self.recoveries = 0
        self.last_report: Optional[RecoveryReport] = None

    # -- membership ------------------------------------------------------
    def declare_dead(self, client_id: str) -> None:
        """Manually mark a client crashed (tests / external detectors);
        ``crash_cn`` victims are picked up from the injector directly."""
        self._declared_dead.add(client_id)

    def dead_clients(self) -> Set[str]:
        dead = set(self._declared_dead)
        injector = self.cluster.injector
        if injector is not None:
            dead |= injector.crashed_clients
        return dead

    def expired_leases(self, now: Optional[int] = None) -> List[LeaseRecord]:
        """Leases eligible for reclamation: the owner is known dead, or
        the lease has been held for ``lease_ns`` or more (``>=``: a lease
        expires *exactly* at its deadline, not one tick after)."""
        now = self.cluster.engine.now if now is None else now
        dead = self.dead_clients()
        return [lease for lease in self.lease_table.records()
                if lease.owner in dead
                or now - lease.epoch >= self.config.lease_ns]

    # -- recovery --------------------------------------------------------
    def _run(self, executor, thunk):
        """Drive one recovery op generator, retrying injected faults
        through the shared policy (the recovery pass runs under the same
        chaotic network as everyone else).  Untimed: it repairs state a
        dead client left behind, so it keeps its budget only."""
        for _ in self.config.retry.attempts(self.cluster, "recovery op",
                                            deadline=UNTIMED):
            try:
                return executor.run(thunk())
            except InjectedFault:
                continue

    @staticmethod
    def _idle_word(lease: LeaseRecord) -> int:
        if lease.kind == "node":
            return lease.word & ~_NODE_STATUS_MASK
        if lease.kind == "leaf":
            return lease.word & ~_LEAF_STATUS_MASK
        raise ConfigError(f"no idle form for lease kind {lease.kind!r}")

    def _reclaim(self, lease: LeaseRecord):
        """Op generator: expire one node/leaf lease.

        Only reclaims if the word still holds the exact locked value the
        lease recorded - anything else means the owner (or a previous
        recovery) already moved it, and the CAS-expected discipline makes
        the reclaim safe against the owner's own late unlock racing us:
        exactly one of the two writes can win.
        """
        word = u64_from_bytes((yield ReadOp(lease.addr, 8)))
        if word != lease.word:
            return "released"
        swapped, _old = yield CasOp(lease.addr, lease.word,
                                    self._idle_word(lease),
                                    lease=("release",))
        return "reclaimed" if swapped else "raced"

    @staticmethod
    def _clients_by_mn(race_clients: Iterable, index) -> Dict[int, object]:
        """Resolve hash-table clients per MN: explicit ones win; a Sphinx
        index contributes its INHT clients (the same discovery rule fsck
        uses)."""
        clients: Dict[int, object] = {}
        if index is not None and hasattr(index, "inht"):
            inht = index.client(0).inht
            clients.update(inht._clients)
        for client in race_clients:
            clients[client.info.mn_id] = client
        return clients

    def recover(self, index=None, race_clients: Iterable = (),
                now: Optional[int] = None,
                repair: Optional[bool] = None) -> RecoveryReport:
        """One full recovery pass; see the module docstring.

        ``index`` (optional) enables the fsck repair stage and INHT
        client discovery; ``race_clients`` supplies hash-table clients
        for standalone-RACE recovery; ``now`` overrides the engine clock
        for lease-age tests; ``repair`` overrides ``config.repair`` (the
        in-run recovery daemon reclaims locks online but defers the fsck
        walk, which wants a quiescent tree, to after the run).
        """
        report = RecoveryReport()
        now = self.cluster.engine.now if now is None else now
        executor = self.cluster.direct_executor()
        expired = self.expired_leases(now)
        report.skipped = len(self.lease_table) - len(expired)
        segments: Dict[int, int] = {}
        for lease in expired:
            if lease.kind == "hash":
                seg_addr, depth = lease.meta
                segments.setdefault(seg_addr, depth)
                continue
            try:
                outcome = self._run(executor,
                                    lambda l=lease: self._reclaim(l))
            except MNUnavailable:
                report.unreachable += 1   # lease kept: MN may come back
                continue
            if outcome == "reclaimed":
                report.reclaimed += 1     # the release CAS popped the lease
            elif outcome == "released":
                report.released += 1
                self.lease_table.drop(lease.addr)
            else:
                report.raced += 1
                self.lease_table.drop(lease.addr)
        clients = self._clients_by_mn(race_clients, index)
        for seg_addr, depth in sorted(segments.items()):
            client = clients.get(addr_mn(seg_addr))
            if client is None:
                report.segments[seg_addr] = "no_client"
                report.unreachable += 1
                continue
            try:
                status = self._run(
                    executor,
                    lambda c=client, s=seg_addr, d=depth:
                        c.recover_segment(s, d))
            except MNUnavailable:
                report.segments[seg_addr] = "unreachable"
                report.unreachable += 1
                continue
            report.segments[seg_addr] = status
            for lease in self.lease_table.records():
                if lease.kind == "hash" and lease.meta \
                        and lease.meta[0] == seg_addr:
                    self.lease_table.drop(lease.addr)
        repair = self.config.repair if repair is None else repair
        if index is not None and repair:
            from ..tools import fsck   # local import: tools sits above us
            report.fsck = fsck.check_index(self.cluster, index, repair=True)
        self.recoveries += 1
        self.last_report = report
        return report

    # -- observability ---------------------------------------------------
    def counters(self):
        """Snapshot into the shared :class:`repro.obs.Counters` shape."""
        from ..obs.counters import Counters
        data = {
            "leases_live": len(self.lease_table),
            "leases_acquired": self.lease_table.acquired,
            "leases_released": self.lease_table.released,
            "recoveries": self.recoveries,
        }
        report = self.last_report
        if report is not None:
            data["locks_reclaimed"] = report.reclaimed
            data["locks_raced"] = report.raced
            data["leases_unreachable"] = report.unreachable
            data["segments_rolled_forward"] = sum(
                1 for s in report.segments.values() if s == "rolled_forward")
            data["segments_rolled_back"] = sum(
                1 for s in report.segments.values() if s == "rolled_back")
        return Counters(data)
