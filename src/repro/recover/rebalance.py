"""Online shard rebalancing for rack-scale clusters (DESIGN.md §13-14).

When an MN group joins or leaves a :class:`repro.dm.rack.Rack`, the
shards the consistent-hash ring reassigns must move while traffic runs.
The :class:`Rebalancer` migrates one shard at a time with the copy
protocol the router understands:

1. publish a :class:`~repro.dm.rack.Migration` for the shard - from this
   instant the router serves a key from the destination iff it is in the
   migration's ``copied`` set, and writes brand-new keys straight to the
   destination;
2. sweep the shard's key registry in sorted order, copying each pending
   key (read from source, insert at destination, mark copied, delete at
   source) through a *timed* executor, so a migration competes for NIC
   bandwidth like any tenant.  The router flip (``copied.add``) happens
   *after* the destination copy is durable and *before* the source copy
   is removed, so a concurrent reader always finds the key in whichever
   cell it is routed to - the source delete runs while readers are
   already served by the destination;
3. repeat the sweep until it finds nothing pending (concurrent deletes
   un-mark keys; concurrent inserts self-mark), then flip
   ``assignment[shard]`` and retire the migration.

Routing never jumps ahead of the data: every key is served by exactly
one cell at every instant, which is the invariant the post-run fsck and
the possible-state oracle check.  A value updated at the source after
its copy departs is lost to the copy - last-writer-wins at copy time -
the same relaxation online resharding systems document; the differential
oracle treats both the pre- and post-copy value as possible.

Every control-plane verb - migration, re-replication, and the failover
manager's anti-entropy - goes through one guarded step,
:meth:`_Session.step`, which runs one op on one group's cell and names
its failure ``"dead"`` (the cell is gone) or ``"transient"`` (a lost
reply, an exhausted retry budget, or a crash of the coordinator itself,
after which the session continues on a fresh executor).  Every key a
migration, a re-replication or an abort's restore moves goes through one
copy step, :meth:`Rebalancer.copy_key`: read at the source (a dead or
``None`` source falls back to the first live replica holding the key),
insert at the destination, and return one outcome.  Callers keep only
their outcome -> action table:

=========  ==========================  =============  =============
outcome    ``migrate_shard``           sync_replicas  abort restore
=========  ==========================  =============  =============
copied     flip; retire source copy    count          (cannot)
recovered  flip (source is dead)       count          keep
absent     mark copied, not moved      ``note_lag``   (cannot)
lost       forfeit: source died        ``note_lag``   forfeit
transient  retry next sweep [*]_       ``note_lag``   forfeit
dst_dead   abort (K>0), forfeit (K=0)  ``note_lag``   forfeit
=========  ==========================  =============  =============

.. [*] A key whose copy keeps failing across :data:`MAX_KEY_ATTEMPTS`
   sweeps is forfeited as **chaos damage** (``forfeited_chaos``):
   chaos-era "applied" write drops can leave a key in a state no online
   retry resolves (only ``fsck --repair`` can), and a migration must
   converge rather than sweep such a key forever.  Every other forfeit
   is **source-died** (``forfeited_dead``).

:meth:`Rebalancer.sync_replicas` is the replica-set reconciler the same
machinery exposes to the failover manager: it moves a shard's replica
set to whatever the current ring's successor chain picks, copying keys
to newly chosen replica groups and dropping the shard's keys from
groups that lost the role.  Writes keep fanning out to the old replica
set until the copy ends, so every gaining group starts with a recorded
debt (``Rack.note_lag``) that the failover manager's first clean compare
clears.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dm.rack import Migration, Rack
from ..dm.rdma import OpStats
from ..errors import (
    ClientCrash,
    InjectedFault,
    MNUnavailable,
    RetryLimitExceeded,
)

#: The CN whose NIC every control-plane verb crosses.
CONTROL_CN = 0
#: Sweeps a migrating key may fail transiently before it is forfeited.
MAX_KEY_ATTEMPTS = 8

_TRANSIENT = (RetryLimitExceeded, InjectedFault)


class _Session:
    """One control-plane invocation's timed executor and its one guarded
    step.  Made per invocation, never shared: a coordinator crash latches
    its executor, and the topology and replication daemons run
    concurrently."""

    def __init__(self, rack: Rack, op_stats: OpStats):
        self.rack = rack
        self.op_stats = op_stats
        self.executor = rack.cluster.sim_executor(CONTROL_CN, op_stats)

    def step(self, gid: int, op: str, *args):
        """Run ``op`` (``search`` / ``insert`` / ``delete``) on group
        ``gid``'s cell; returns ``(value, failure)`` with ``failure``
        ``None``, ``"dead"`` or ``"transient"``."""
        client = self.rack.group_index(gid).client(CONTROL_CN)
        try:
            value = yield from self.executor.run(getattr(client, op)(*args))
        except MNUnavailable:
            return None, "dead"
        except _TRANSIENT:
            return None, "transient"
        except ClientCrash:
            # The coordinator CN was a crash victim: later steps run on a
            # fresh executor, as the recovery manager's daemons do.
            self.executor = self.rack.cluster.sim_executor(
                CONTROL_CN, self.op_stats)
            return None, "transient"
        return value, None


class Rebalancer:
    """Migrates shards between a rack's MN groups while traffic runs."""

    def __init__(self, rack: Rack):
        self.rack = rack
        #: Verb totals of every control-plane step (migration, re-
        #: replication, anti-entropy; timed, so that traffic shows up in
        #: NIC utilization like any tenant).
        self.op_stats = OpStats()
        #: ``[(shard, src, dst, keys_moved), ...]`` of finished moves.
        self.completed: List[Tuple[int, int, int, int]] = []
        #: Keys whose copy kept failing (chaos damage) and whose data was
        #: forfeited so the migration could converge.
        self.forfeited_chaos: List[Tuple[int, bytes]] = []
        #: Keys forfeited because a cell died under their copy: a dead
        #: source with no replica holding the key, a dead destination at
        #: K=0, or an abort restore that failed (always empty when
        #: ``spec.replicas > 0`` and the replica chain survives).
        self.forfeited_dead: List[Tuple[int, bytes]] = []
        #: Groups mid-drain: still ring members, but no longer eligible
        #: replica targets (their keys are on the way out).
        self.draining: set = set()

    def session(self) -> _Session:
        return _Session(self.rack, self.op_stats)

    # -- membership changes (simulation processes) -------------------------
    def join(self, gid: Optional[int] = None):
        """Provision a fresh MN group (unless ``gid`` names one already
        provisioned) and migrate the shards the ring moves onto it."""
        rack = self.rack
        if gid is None:
            gid = rack.add_group()
        moves = rack.shards.plan_join(gid)
        rack.shards.commit_join(gid)
        for shard, src, dst in moves:
            if rack.shards.assignment[shard] != src:
                # A failover promotion re-homed the shard while earlier
                # moves ran; this plan entry is stale.
                continue
            yield from self.migrate_shard(shard, src, dst)
        yield from self.sync_all_replicas()
        return gid

    def leave(self, gid: Optional[int] = None):
        """Drain ``gid`` (default: lowest live group) to the owners the
        shrunk ring picks, then retire it."""
        rack = self.rack
        if gid is None:
            gid = rack.live_groups()[0]
        self.draining.add(gid)
        # A group that crashed before its drain started was already
        # commit_left by the failover manager; nothing is left to plan.
        moves = rack.shards.plan_leave(gid) \
            if gid in rack.shards.groups else []
        for shard, src, dst in moves:
            if rack.shards.assignment[shard] != src:
                # The failover manager promoted this shard off the
                # (crashed) draining group while an earlier move ran;
                # its data lives at the new primary, so draining the
                # stale source would forfeit live keys.
                continue
            yield from self.migrate_shard(shard, src, dst)
        if gid in rack.shards.groups:
            # The failover manager commit_leaves a group the instant it
            # dies; a planned drain of a group that crashed mid-drain
            # must not commit it out of the ring twice.
            rack.shards.commit_leave(gid)
        # A destination death can abort a drain move; re-plan any shard
        # still assigned to the leaving group against the shrunk ring
        # until the group is fully drained.
        # Intrinsic protocol bound, not a retry budget: each round
        # re-plans against a ring that lost at least one candidate, so
        # the rounds are bounded by the (tiny) group count.
        for _attempt in range(3):  # lint: disable=S004
            stuck = [] if gid in rack.failed_groups \
                else rack.shards.shards_of(gid)
            if not stuck:
                break
            for shard in stuck:
                dst = self._pick_owner(shard, exclude={gid})
                if dst is None:
                    break
                yield from self.migrate_shard(shard, gid, dst)
        yield from self.sync_all_replicas()
        rack.retired_groups.add(gid)
        self.draining.discard(gid)
        return gid

    def _pick_owner(self, shard: int, exclude=()) -> Optional[int]:
        """First group on the current ring chain that can own ``shard``."""
        rack = self.rack
        banned = set(exclude) | rack.failed_groups | rack.retired_groups
        for gid in rack.shards.owner_chain(shard):
            if gid not in banned:
                return gid
        return None

    # -- the one copy step -------------------------------------------------
    def copy_key(self, session: _Session, shard: int, key: bytes,
                 src: Optional[int], dst: int):
        """Copy ``key`` of ``shard`` from group ``src`` to group ``dst``
        (a simulation process).  The value comes from ``src``, or - when
        ``src`` is dead or ``None`` - from the first live replica that
        holds it.  Returns the one outcome:

        * ``"copied"`` / ``"recovered"``: durable at ``dst``, read from
          ``src`` / from a replica;
        * ``"absent"``: ``src`` no longer holds the key;
        * ``"lost"``: ``src`` is gone and no live replica holds it;
        * ``"transient"``: the ``src`` read or the ``dst`` insert failed
          transiently;
        * ``"dst_dead"``: ``dst`` is gone."""
        rack = self.rack
        value, failure = None, "dead"
        if src is not None:
            value, failure = yield from session.step(src, "search", key)
        outcome = "copied"
        if failure == "dead":
            outcome = "recovered"
            for gid in rack.live_replicas(shard):
                value, _failure = yield from session.step(gid, "search", key)
                if value is not None:
                    rack.repl.inc("replica_recovered_reads")
                    break
            else:
                return "lost"
        elif failure:
            return "transient"
        elif value is None:
            return "absent"
        _, failure = yield from session.step(dst, "insert", key, value)
        if failure:
            return "dst_dead" if failure == "dead" else "transient"
        return outcome

    def _abort_migration(self, session: _Session, migration: Migration):
        """Destination died mid-copy: restore copied keys to the source
        and retire the migration without flipping.  Source copies are
        deleted only after a replicated migration completes, so the
        common case finds every copied key still at the source; replicas
        back up anything the source lost."""
        rack = self.rack
        shard, src = migration.shard, migration.src
        for key in sorted(rack.registry[shard] & migration.copied):
            value, _failure = yield from session.step(src, "search", key)
            if value is not None:
                continue              # the source never lost it
            outcome = yield from self.copy_key(session, shard, key, None, src)
            if outcome != "recovered":
                rack.registry[shard].discard(key)
                self.forfeited_dead.append((shard, key))
        del rack.migrations[shard]
        rack.repl.inc("migrations_aborted")

    def sync_all_replicas(self):
        """Reconcile every shard's replica set to the current ring."""
        for shard in range(self.rack.spec.num_shards):
            yield from self.sync_replicas(shard)

    def sync_replicas(self, shard: int):
        """Move ``shard``'s replica set to the current ring's successor-
        chain picks: copy the shard's keys to groups gaining the replica
        role, drop them from live groups losing it.  Returns the number
        of keys copied.  A no-op whenever the materialized set already
        matches (always, at K=0) - the common case, so calling this for
        every shard after a membership change stays cheap."""
        rack = self.rack
        exclude = rack.retired_groups | rack.failed_groups | self.draining
        desired = rack.shards.desired_replicas(shard, exclude=exclude)
        current = rack.shards.replica_assignment[shard]
        if desired == current:
            return 0
        primary = rack.shards.assignment[shard]
        session = self.session()
        copied = 0
        for gid in [g for g in desired if g not in current]:
            # Writes fan out to ``current`` until the copy ends, so one
            # committed mid-copy can miss ``gid``: it owes a compare.
            rack.note_lag(shard, gid)
            for key in sorted(rack.registry[shard]):
                outcome = yield from self.copy_key(session, shard, key,
                                                   primary, gid)
                if outcome in ("copied", "recovered"):
                    copied += 1
                else:  # one more key for anti-entropy to repair
                    rack.note_lag(shard, gid)
        for gid in [g for g in current if g not in desired]:
            rack.replica_lag[shard].pop(gid, None)
            if gid == primary or gid in rack.failed_groups \
                    or gid in rack.retired_groups:
                # A promoted replica keeps its data (it *is* the
                # primary's data now); dead/retiring cells keep theirs
                # for the coroner.
                continue
            for key in sorted(rack.registry[shard]):
                yield from session.step(gid, "delete", key)
        rack.shards.replica_assignment[shard] = desired
        if copied:
            rack.repl.inc("rereplicated_keys", copied)
        return copied

    def migrate_shard(self, shard: int, src: int, dst: int):
        """Copy one shard from group ``src`` to ``dst`` (see protocol
        above); a simulation process, composable with ``yield from``."""
        rack = self.rack
        migration = Migration(shard=shard, src=src, dst=dst)
        rack.migrations[shard] = migration
        session = self.session()
        moved = 0
        failures: dict = {}
        # Replicated racks retire source copies only after the whole
        # shard is moved: if the destination is also the shard's replica
        # group, a per-key source delete would leave both live copies of
        # a copied key on one group mid-migration, and that group's
        # death would forfeit it.  Deferring the deletes keeps the
        # source a full fallback for the abort path.  K=0 keeps the
        # original per-key delete (and its verb schedule) exactly.
        deferred_deletes: List[bytes] = []

        def forfeit(key: bytes, into: list) -> None:
            # Mark the key copied so the migration still converges; its
            # data is gone (fsck finds any debris).
            migration.copied.add(key)
            rack.registry[shard].discard(key)
            into.append((shard, key))

        while True:
            pending = sorted(rack.registry[shard] - migration.copied)
            if not pending:
                break
            for key in pending:
                outcome = yield from self.copy_key(session, shard, key,
                                                   src, dst)
                if outcome == "transient":
                    # Leave the key pending; the next sweep retries it -
                    # up to the per-key budget, past which the damage is
                    # beyond online repair and the key's data is forfeit.
                    failures[key] = failures.get(key, 0) + 1
                    if failures[key] >= MAX_KEY_ATTEMPTS:
                        forfeit(key, self.forfeited_chaos)
                    continue
                if outcome == "dst_dead" and rack.spec.replicas:
                    yield from self._abort_migration(session, migration)
                    return
                if outcome in ("lost", "dst_dead"):
                    forfeit(key, self.forfeited_dead)
                    continue
                # The copy is durable at the destination (or there is
                # none to make): flip the router first, then retire the
                # source copy - readers in the delete window are already
                # served by the destination.
                migration.copied.add(key)
                if outcome == "absent":
                    continue
                moved += 1
                if outcome == "recovered":
                    # The source cell is dead; there is no copy to
                    # retire there.
                    continue
                if rack.spec.replicas:
                    deferred_deletes.append(key)
                    continue
                # A source copy that outlives a failed delete is an
                # orphan in a cell that is either about to retire or
                # internally consistent without it.
                yield from session.step(src, "delete", key)
        rack.shards.assignment[shard] = dst
        del rack.migrations[shard]
        for key in deferred_deletes:
            # Unconditional: even a key concurrently deleted or updated
            # mid-migration must lose its (stale) source copy.
            yield from session.step(src, "delete", key)
        self.completed.append((shard, src, dst, moved))
        yield from self.sync_replicas(shard)
