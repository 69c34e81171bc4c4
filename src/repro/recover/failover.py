"""MN-group failover and anti-entropy for replicated racks (DESIGN.md §14).

A replicated rack (``ClusterSpec.replicas > 0``) keeps K replica groups
per shard; this module supplies the control plane that makes the
replicas worth their verbs:

* **Failure detection.**  :meth:`FailoverManager.dead_groups` reads the
  fault injector's ``dead_mns`` set: any group with a crashed MN is a
  dead group (a blanked MN guts the cell spread across the group).

* **Failover.**  :meth:`FailoverManager.failover` retires the dead
  group from the shard ring, then per shard: promotes the **freshest**
  live replica (minimal recorded write lag, ties to the lowest gid) to
  primary, bumps the shard's epoch - fencing every write that routed
  against the deposed primary (:class:`repro.errors.StaleEpoch`) - and
  flips the router's materialized ``assignment``.  A shard whose
  migration *source* died is left to the migration (its sweep recovers
  values from replicas and lands them at the destination); a shard with
  no live replica left forfeits its keys explicitly rather than
  silently serving a blank cell.  Re-replication of every degraded
  shard is then scheduled through the :class:`.rebalance.Rebalancer`'s
  ``sync_replicas`` machinery.

* **Anti-entropy.**  :meth:`FailoverManager.anti_entropy` checksum-
  compares one shard's primary against each live replica (a CRC over
  the sorted key/value stream, then a per-key diff on mismatch) and
  repairs divergence by re-applying the primary's values - the backstop
  for replica applies lost to chaos.  Everything is reported through
  the rack's Counters facade (``repro.obs``).

* **The daemon.**  :meth:`FailoverManager.daemon` is the online loop
  the rack runner spawns next to recoveryd: every :data:`INTERVAL_NS`
  it fails over any newly dead group, then sweeps one shard - lagging
  shards first, else round-robin - so repair bandwidth is bounded and
  the schedule is a pure function of the seeded simulation state.

The manager issues its verbs through its rebalancer's guarded step
(:meth:`.rebalance.Rebalancer.session`): failover and repair traffic is
timed, competes for NIC bandwidth with the tenants it protects, and is
counted in the rebalancer's one control-plane ``OpStats``.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from ..dm.rack import Rack
from .rebalance import Rebalancer

#: The replicationd tick, in simulated ns.
INTERVAL_NS = 2_000_000


def _digest(items: List[Tuple[bytes, Optional[bytes]]]) -> int:
    """CRC32 over a sorted key/value stream - the per-shard checksum the
    anti-entropy sweep compares before diffing key by key."""
    crc = 0
    for key, value in items:
        crc = zlib.crc32(key, crc)
        crc = zlib.crc32(value if value is not None else b"\x00<missing>",
                         crc)
    return crc


def _read_all(session, gid: int, keys: List[bytes]):
    """``({key: value}, failure)`` of one cell's ``keys``; stops at the
    first failed step."""
    values: Dict[bytes, Optional[bytes]] = {}
    for key in keys:
        values[key], failure = yield from session.step(gid, "search", key)
        if failure:
            return values, failure
    return values, None


class FailoverManager:
    """Promotes replicas over dead MN groups and repairs divergence."""

    def __init__(self, rack: Rack, rebalancer: Optional[Rebalancer] = None):
        self.rack = rack
        self.rebalancer = rebalancer if rebalancer is not None \
            else Rebalancer(rack)
        #: ``[(shard, dead_gid, new_gid, epoch), ...]`` promotions.
        self.promotions: List[Tuple[int, int, int, int]] = []
        #: Keys lost because a shard's primary died with no live replica
        #: (replication exhausted - K simultaneous failures).
        self.forfeited: List[Tuple[int, bytes]] = []
        #: Promotions that raced an in-flight migration (the property
        #: suite asserts its crash schedule actually lands mid-copy).
        self.mid_migration_failovers = 0

    # -- failure detection -------------------------------------------------
    def dead_groups(self) -> List[int]:
        """Live groups with at least one crashed MN, in gid order."""
        injector = self.rack.cluster.injector
        if injector is None or not injector.dead_mns:
            return []
        dead_mns = injector.dead_mns
        out = []
        for gid in self.rack.live_groups():
            if gid in self.rack.failed_groups:
                continue
            if any(mn in dead_mns for mn in self.rack.group_view(gid).mn_ids):
                out.append(gid)
        return out

    # -- failover ----------------------------------------------------------
    def failover(self, gid: int):
        """Retire dead group ``gid``, promote replicas for every shard it
        owned, and re-replicate every shard it degraded (a simulation
        process)."""
        rack = self.rack
        if gid in rack.failed_groups:
            return
        rack.repl.inc("failovers")
        rack.failed_groups.add(gid)
        rack.retired_groups.add(gid)
        if gid in rack.shards.groups:
            rack.shards.commit_leave(gid)
        touched = []
        for shard in range(rack.spec.num_shards):
            migration = rack.migrations.get(shard)
            if rack.shards.assignment[shard] == gid:
                if migration is not None and migration.src == gid:
                    # Mid-migration source death: the sweep recovers the
                    # remaining values from the replicas and the router
                    # flips to the destination when it converges - a
                    # promotion here would fight the migration.
                    self.mid_migration_failovers += 1
                    rack.repl.inc("mid_migration_failovers")
                else:
                    self._promote(shard, gid)
                    touched.append(shard)
            if gid in rack.shards.replica_assignment[shard]:
                rack.shards.replica_assignment[shard] = [
                    g for g in rack.shards.replica_assignment[shard]
                    if g != gid]
                rack.replica_lag[shard].pop(gid, None)
                touched.append(shard)
        for shard in sorted(set(touched)):
            yield from self.rebalancer.sync_replicas(shard)

    def _promote(self, shard: int, dead_gid: int) -> None:
        """Flip ``shard`` to its freshest live replica and fence the old
        primary's epoch."""
        rack = self.rack
        live = rack.live_replicas(shard)
        if not live:
            # Replication exhausted: the committed keys died with the
            # primary.  Forfeit them explicitly (the registry must not
            # claim keys no live cell holds) and re-home the empty shard
            # on the ring so future inserts land somewhere live.
            lost = sorted(rack.registry[shard])
            self.forfeited.extend((shard, key) for key in lost)
            rack.repl.inc("failover_forfeited_keys", len(lost))
            rack.registry[shard].clear()
            new = next((g for g in rack.shards.owner_chain(shard)
                        if g not in rack.failed_groups
                        and g not in rack.retired_groups), None)
            if new is None:
                return
        else:
            lag = rack.replica_lag[shard]
            new = min(live, key=lambda g: (lag.get(g, 0), g))
        rack.epochs[shard] += 1
        rack.shards.assignment[shard] = new
        rack.shards.replica_assignment[shard] = [
            g for g in rack.shards.replica_assignment[shard] if g != new]
        rack.replica_lag[shard].pop(new, None)
        self.promotions.append((shard, dead_gid, new, rack.epochs[shard]))
        rack.repl.inc("promotions")

    # -- anti-entropy ------------------------------------------------------
    def anti_entropy(self, shard: int):
        """Checksum-compare ``shard``'s primary against each live replica
        and repair divergence from the primary (a simulation process).
        Returns the number of keys repaired."""
        rack = self.rack
        if shard in rack.migrations:
            return 0
        primary = rack.shards.assignment[shard]
        if primary in rack.failed_groups:
            return 0
        replicas = rack.live_replicas(shard)
        if not replicas:
            return 0
        session = self.rebalancer.session()
        keys = sorted(rack.registry[shard])
        pvals, failure = yield from _read_all(session, primary, keys)
        if failure:
            rack.repl.inc("anti_entropy_aborts")
            return 0
        pdigest = _digest([(k, pvals[k]) for k in keys])
        repaired = 0
        for gid in replicas:
            rvals, failure = yield from _read_all(session, gid, keys)
            if failure:
                rack.repl.inc("anti_entropy_aborts")
                continue
            rack.repl.inc("anti_entropy_compares")
            if _digest([(k, rvals[k]) for k in keys]) == pdigest:
                rack.replica_lag[shard].pop(gid, None)
                continue
            rack.repl.inc("anti_entropy_checksum_mismatches")
            clean = True
            for key in keys:
                if rvals[key] == pvals[key] or pvals[key] is None:
                    continue
                _, failure = yield from session.step(gid, "insert", key,
                                                     pvals[key])
                if failure:
                    clean = False
                else:
                    repaired += 1
            if clean:
                rack.replica_lag[shard].pop(gid, None)
        if repaired:
            rack.repl.inc("anti_entropy_repaired_keys", repaired)
        return repaired

    # -- orchestration -----------------------------------------------------
    def settle(self):
        """Drain all outstanding failover work: fail over any dead group,
        reconcile every replica set, then run one full anti-entropy pass.
        The rack runner drives this to completion after traffic ends so
        the post-run fsck sees replicas at rest, not mid-repair."""
        for gid in self.dead_groups():
            yield from self.failover(gid)
        yield from self.rebalancer.sync_all_replicas()
        for shard in range(self.rack.spec.num_shards):
            yield from self.anti_entropy(shard)

    def daemon(self):
        """The online loop (replicationd): spawn as an engine process."""
        rack = self.rack
        engine = rack.cluster.engine
        cursor = 0
        while True:
            yield engine.timeout(INTERVAL_NS)
            for gid in self.dead_groups():
                yield from self.failover(gid)
            dirty = [s for s in range(rack.spec.num_shards)
                     if rack.replica_lag[s] and s not in rack.migrations]
            if dirty:
                shard = dirty[0]
            else:
                shard = cursor
                cursor = (cursor + 1) % rack.spec.num_shards
            yield from self.anti_entropy(shard)
