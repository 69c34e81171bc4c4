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

* **Repair by exception.**  A replica owes a compare exactly when the
  CN recorded a debt for it (``Rack.note_lag``): a replicated write it
  missed, a copy that failed, or a re-replication that made it a replica
  while writes still fanned out to the old set.
  :meth:`FailoverManager.anti_entropy` compares one shard's primary
  against each live replica that owes one, value map against value map,
  repairs divergence by re-applying the primary's values, and clears the
  debt on the first clean compare.  A shard without a debt costs no
  verb.  Everything is reported through the rack's Counters facade
  (``repro.obs``).

* **The daemon.**  :meth:`FailoverManager.daemon` is the online loop
  the rack runner spawns next to recoveryd: every :data:`INTERVAL_NS`
  it fails over any newly dead group, then repairs the first shard with
  a debt (or issues no verb at all), so repair bandwidth is bounded and
  the schedule is a pure function of the seeded simulation state.  Once
  :meth:`FailoverManager.stop` is called its next tick is
  :meth:`FailoverManager.settle` and it exits, so one repairer at a
  time ever compares a shard.

The manager issues its verbs through its rebalancer's guarded step
(:meth:`.rebalance.Rebalancer.session`): failover and repair traffic is
timed, competes for NIC bandwidth with the tenants it protects, and is
counted in the rebalancer's one control-plane ``OpStats``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dm.rack import Rack
from .rebalance import Rebalancer

#: The replicationd tick, in simulated ns.
INTERVAL_NS = 2_000_000


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
        self._stopping = False

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
                    rack.repl.inc("mid_migration_failovers")
                else:
                    self._promote(shard)
                    touched.append(shard)
            if gid in rack.shards.replica_assignment[shard]:
                rack.shards.replica_assignment[shard] = [
                    g for g in rack.shards.replica_assignment[shard]
                    if g != gid]
                rack.replica_lag[shard].pop(gid, None)
                touched.append(shard)
        for shard in sorted(set(touched)):
            yield from self.rebalancer.sync_replicas(shard)

    def _promote(self, shard: int) -> None:
        """Flip ``shard`` to its freshest live replica and fence the old
        primary's epoch."""
        rack = self.rack
        live = rack.live_replicas(shard)
        if not live:
            # Replication exhausted: the committed keys died with the
            # primary.  Forfeit them explicitly (the registry must not
            # claim keys no live cell holds) and re-home the empty shard
            # on the ring so future inserts land somewhere live.
            rack.repl.inc("failover_forfeited_keys",
                          len(rack.registry[shard]))
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
        rack.repl.inc("promotions")

    # -- anti-entropy ------------------------------------------------------
    def anti_entropy(self, shard: int):
        """Compare ``shard``'s primary against each live replica that
        carries a debt and repair divergence from the primary (a
        simulation process).  Returns the number of keys repaired."""
        rack = self.rack
        if shard in rack.migrations:
            return 0
        primary = rack.shards.assignment[shard]
        if primary in rack.failed_groups:
            return 0
        lag = rack.replica_lag[shard]
        debtors = [g for g in rack.live_replicas(shard) if g in lag]
        if not debtors:
            return 0
        session = self.rebalancer.session()
        keys = sorted(rack.registry[shard])
        pvals, failure = yield from _read_all(session, primary, keys)
        if failure:
            rack.repl.inc("anti_entropy_aborts")
            return 0
        repaired = 0
        for gid in debtors:
            rvals, failure = yield from _read_all(session, gid, keys)
            if failure:
                rack.repl.inc("anti_entropy_aborts")
                continue
            rack.repl.inc("anti_entropy_compares")
            if rvals == pvals:
                lag.pop(gid, None)
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
                lag.pop(gid, None)
        if repaired:
            rack.repl.inc("anti_entropy_repaired_keys", repaired)
        return repaired

    # -- orchestration -----------------------------------------------------
    def settle(self):
        """Drain all outstanding failover work: fail over any dead group,
        reconcile every replica set, then compare every shard that
        carries a debt.  The rack runner makes this the daemon's last
        tick after traffic ends, so the post-run fsck sees replicas at
        rest, not mid-repair; its replica-agreement stage proves the
        shards no debt named."""
        for gid in self.dead_groups():
            yield from self.failover(gid)
        yield from self.rebalancer.sync_all_replicas()
        for shard in range(self.rack.spec.num_shards):
            yield from self.anti_entropy(shard)     # no debt, no verb

    def stop(self) -> None:
        """Make the daemon's next tick :meth:`settle`, then end it."""
        self._stopping = True

    def daemon(self):
        """The online loop (replicationd): spawn as an engine process."""
        rack = self.rack
        engine = rack.cluster.engine
        while True:
            yield engine.timeout(INTERVAL_NS)
            if self._stopping:
                yield from self.settle()
                return
            for gid in self.dead_groups():
                yield from self.failover(gid)
            for shard in range(rack.spec.num_shards):
                if rack.replica_lag[shard] and shard not in rack.migrations:
                    yield from self.anti_entropy(shard)
                    break
