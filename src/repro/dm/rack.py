"""Rack-scale topology: MN groups, key-space shards, elastic membership.

The paper's testbed is three machines; :class:`Rack` scales the simulated
cluster an order of magnitude by composing one big :class:`Cluster` (all
the CNs, MNs and NICs share a single engine, so the whole rack is still
one deterministic simulation) out of **MN groups**: each group of
``group_size`` memory nodes hosts one index cell whose node placement is
confined to the group, and a :class:`~repro.dm.placement.ShardMap`
assigns every key-space shard to exactly one group.

Routing is a thin client tier: :class:`RackClient` mirrors the per-CN
index-client API (``search``/``insert``/``update``/``delete``/
``scan_count`` op generators), hashes the key to its shard, and delegates
to the owning group's real index client.  During an online migration the
router consults the shard's ``copied`` set, so a key is served by the
source cell until the very completion of its copy and by the destination
cell afterwards - reads never block on a rebalance.

Elasticity: :meth:`Rack.add_group` provisions ``group_size`` fresh MNs
(memory + NIC) on the live cluster and builds an empty index cell for
them; draining and shard migration are the
:class:`repro.recover.Rebalancer`'s job (it reuses the recovery/fsck
primitives).  ``scan_count`` on a rack is a *per-shard* scan: hash
sharding does not preserve global key order, the same honest limitation
real hash-sharded stores have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..errors import (
    ConfigError,
    InjectedFault,
    MNUnavailable,
    RetryLimitExceeded,
    StaleEpoch,
)
from ..obs.counters import Counters
from .cluster import Cluster, ClusterConfig
from .network import NetworkConfig, Nic
from .memory import Memory
from .placement import NodePlacement, ShardMap


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a rack-scale, group-sharded cluster.

    ``num_mns`` MNs are partitioned into groups of ``group_size``;
    ``num_shards`` key-space shards spread over the groups via consistent
    hashing.  ``clients`` is the default number of closed-loop client
    generators the rack runner spreads over the CNs.
    """

    num_cns: int = 32
    num_mns: int = 32
    group_size: int = 4
    num_shards: int = 128
    clients: int = 2000
    mn_capacity_bytes: int = 1 << 30
    network: NetworkConfig = field(default_factory=NetworkConfig)
    ring_vnodes: int = 64
    placement_seed: int = 11
    shard_seed: int = 23
    shard_vnodes: int = 32
    #: Replication degree K: each shard keeps K replica groups beyond
    #: its primary (0 = unreplicated: the same code runs with empty
    #: replica sets).
    replicas: int = 0

    def validate(self) -> None:
        if self.num_cns < 1:
            raise ConfigError("need at least one compute node")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if self.num_mns < self.group_size \
                or self.num_mns % self.group_size != 0:
            raise ConfigError("num_mns must be a positive multiple of "
                              "group_size")
        if self.num_shards < self.num_mns // self.group_size:
            raise ConfigError("need at least one shard per group")
        if self.clients < 1:
            raise ConfigError("need at least one client generator")
        if self.replicas < 0:
            raise ConfigError("replicas must be >= 0")
        if self.replicas >= self.num_groups:
            raise ConfigError("replicas must leave at least one group "
                              "as primary (replicas < num_groups)")

    @property
    def num_groups(self) -> int:
        return self.num_mns // self.group_size


@dataclass(frozen=True)
class TopologyEvent:
    """A scheduled elastic-membership event the rack runner executes.

    ``mn_join`` provisions one fresh MN group and rebalances shards onto
    it; ``mn_leave`` drains ``group`` (default: the lowest live group)
    and retires it.  Both run *online*, interleaved with traffic.
    """

    at_ns: int
    kind: str  # "mn_join" | "mn_leave"
    group: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in ("mn_join", "mn_leave"):
            raise ConfigError(f"unknown topology event kind {self.kind!r}")
        if self.at_ns < 0:
            raise ConfigError("TopologyEvent.at_ns must be >= 0")


class GroupCluster:
    """A group-scoped view of the rack's cluster.

    Same engine, NICs, executors and attachment points (observers, fault
    injector, recovery) as the underlying :class:`Cluster` - but
    ``memories`` and node placement restricted to the group's MNs, so an
    index built against the view allocates, hashes and creates its INHT
    tables only inside the group.  Everything else delegates.
    """

    def __init__(self, cluster: Cluster, mn_ids: Sequence[int], *,
                 vnodes: int = 64, seed: int = 11):
        self._cluster = cluster
        self.mn_ids = list(mn_ids)
        self.memories = {mn: cluster.memories[mn] for mn in mn_ids}
        self.placement = NodePlacement(self.mn_ids, vnodes=vnodes, seed=seed)

    def __getattr__(self, name):
        # Everything not group-scoped (engine, executors, alloc/free,
        # injector, observers, recovery, config, NIC dicts...) is the rack's.
        return getattr(self._cluster, name)

    def alloc_for_prefix(self, prefix: bytes, size: int,
                         category: str = "generic") -> int:
        return self._cluster.alloc(self.placement.mn_for_prefix(prefix),
                                   size, category)

    def alloc_for_leaf(self, key: bytes, size: int,
                       category: str = "leaf") -> int:
        return self._cluster.alloc(self.placement.mn_for_leaf(key),
                                   size, category)


@dataclass
class Migration:
    """Live state of one in-flight shard migration (router-visible)."""

    shard: int
    src: int
    dst: int
    copied: Set[bytes] = field(default_factory=set)


class Rack:
    """The rack-scale testbed: one cluster, many group-sharded cells.

    Every group hosts one Sphinx cell built against its
    :class:`GroupCluster` view.  The rack itself quacks like an index
    for the YCSB runner: ``client(cn)`` returns a routing
    :class:`RackClient`.
    """

    def __init__(self, spec: ClusterSpec | None = None):
        self.spec = spec if spec is not None else ClusterSpec()
        self.spec.validate()
        self.cluster = Cluster(ClusterConfig(
            num_mns=self.spec.num_mns, num_cns=self.spec.num_cns,
            mn_capacity_bytes=self.spec.mn_capacity_bytes,
            network=self.spec.network, ring_vnodes=self.spec.ring_vnodes,
            placement_seed=self.spec.placement_seed))
        self._groups: Dict[int, GroupCluster] = {}
        self._indexes: Dict[int, object] = {}
        self._next_mn = self.spec.num_mns
        self._next_group = self.spec.num_groups
        for gid in range(self.spec.num_groups):
            base = gid * self.spec.group_size
            self._provision(gid, list(range(base, base + self.spec.group_size)))
        self.shards = ShardMap(self.spec.num_shards,
                               list(range(self.spec.num_groups)),
                               seed=self.spec.shard_seed,
                               vnodes=self.spec.shard_vnodes,
                               replicas=self.spec.replicas)
        #: Committed keys per shard - the migration source of truth.
        self.registry: List[Set[bytes]] = [set() for _ in
                                           range(self.spec.num_shards)]
        self.migrations: Dict[int, Migration] = {}
        self.retired_groups: Set[int] = set()
        #: Groups lost to ``crash_mn`` (a subset of ``retired_groups``
        #: once the failover manager has processed them).
        self.failed_groups: Set[int] = set()
        #: Per-shard failover epochs.  A replicated write captures its
        #: shard's epoch at route time and re-checks it before every
        #: apply; a failover promotion bumps the epoch, fencing off
        #: writes routed against the deposed primary (DESIGN.md §14).
        self.epochs: List[int] = [0] * self.spec.num_shards
        #: Per-shard ``{replica_gid: debts}`` - the repair debts each
        #: replica ran up since its last clean anti-entropy compare (a
        #: missed replicated apply, a failed copy, a re-replication that
        #: made it a replica).  The only trigger of a repair; "freshest
        #: replica" at promotion time = fewest debts (ties broken by
        #: lowest gid).
        self.replica_lag: List[Dict[int, int]] = [
            {} for _ in range(self.spec.num_shards)]
        #: Replication-tier counters (fallback reads, fenced writes,
        #: failovers, anti-entropy repairs...), the Counters facade the
        #: rack runner folds into its digest.
        self.repl = Counters()
        self._clients: Dict[int, RackClient] = {}

    # -- topology ----------------------------------------------------------
    def _provision(self, gid: int, mn_ids: List[int]) -> None:
        view = GroupCluster(self.cluster, mn_ids,
                            vnodes=self.spec.ring_vnodes,
                            seed=self.spec.placement_seed ^ (gid * 0x9E37))
        self._groups[gid] = view
        from ..core import SphinxConfig, SphinxIndex  # local: core uses dm
        self._indexes[gid] = SphinxIndex(
            view, SphinxConfig(filter_budget_bytes=1 << 16))

    def add_group(self) -> int:
        """Provision one fresh MN group (the ``mn_join`` event body).

        New memories and NICs join the live cluster dicts, so executors,
        the fault injector and NIC accounting - all of which hold those
        dict references - see the new nodes without re-attachment; the
        new memories report to the cluster's observers.
        """
        net = self.cluster.config.network
        mn_ids = []
        for _ in range(self.spec.group_size):
            mn = self._next_mn
            self._next_mn += 1
            memory = self.cluster.memories[mn] = Memory(
                mn, self.spec.mn_capacity_bytes)
            memory.observers = self.cluster.observers
            self.cluster.mn_nics[mn] = Nic(
                self.cluster.engine, f"mn{mn}.nic", net, "mn",
                net.mn_nic_capacity)
            mn_ids.append(mn)
        gid = self._next_group
        self._next_group += 1
        self._provision(gid, mn_ids)
        return gid

    def live_groups(self) -> List[int]:
        return [g for g in sorted(self._indexes)
                if g not in self.retired_groups]

    def group_view(self, gid: int) -> GroupCluster:
        return self._groups[gid]

    def group_index(self, gid: int):
        return self._indexes[gid]

    # -- routing -----------------------------------------------------------
    def shard_of(self, key: bytes) -> int:
        return self.shards.shard_for_key(key)

    def group_of(self, key: bytes) -> int:
        """Migration-aware owner group of ``key`` right now."""
        shard = self.shards.shard_for_key(key)
        migration = self.migrations.get(shard)
        if migration is None:
            return self.shards.assignment[shard]
        return migration.dst if key in migration.copied else migration.src

    def client(self, cn_id: int) -> "RackClient":
        if cn_id not in self._clients:
            self._clients[cn_id] = RackClient(self, cn_id)
        return self._clients[cn_id]

    # -- epoch fencing (DESIGN.md §14) --------------------------------------
    def check_epoch(self, shard: int, epoch: int) -> None:
        """Fence: raise :class:`~repro.errors.StaleEpoch` when a write's
        captured epoch no longer matches the shard's (a failover
        promotion happened while the op was in flight)."""
        current = self.epochs[shard]
        if epoch != current:
            self.repl.inc("fenced_writes")
            raise StaleEpoch(
                f"shard {shard}: write captured epoch {epoch}, "
                f"fenced at epoch {current}",
                shard=shard, expected=epoch, current=current)

    def live_replicas(self, shard: int) -> List[int]:
        return [g for g in self.shards.replica_assignment[shard]
                if g not in self.failed_groups]

    def note_lag(self, shard: int, gid: int) -> None:
        """Record one repair debt: replica ``gid`` of ``shard`` missed
        one write or copy, or just gained the replica role; anti-entropy
        compares it later."""
        lag = self.replica_lag[shard]
        lag[gid] = lag.get(gid, 0) + 1

    # -- accounting / checking ---------------------------------------------
    def total_keys(self) -> int:
        return sum(len(keys) for keys in self.registry)

    def keys_by_group(self) -> Dict[int, int]:
        out: Dict[int, int] = {g: 0 for g in sorted(self._indexes)}
        for shard, keys in enumerate(self.registry):
            out[self.shards.assignment[shard]] += len(keys)
        return out

    def fsck_all(self, repair: bool = False) -> List[tuple]:
        """Run the offline consistency check on every group cell.

        Returns ``[(gid, FsckReport), ...]``; pure memory walks, so the
        check never creates engine events or perturbs a paused run.
        With replication enabled a final rack-level report (gid ``-1``)
        verifies replica agreement: every registered key present at its
        primary cell, present with the identical value at every live
        replica cell, and present *nowhere else*.  Groups a failover
        retired (``failed_groups``) are skipped: their cells are
        half-blanked corpses already out of service, and their shards'
        health is judged by the replica-agreement stage instead.
        """
        from ..tools.fsck import check_index  # local: tools imports dm
        reports = [(gid, check_index(self._groups[gid], self._indexes[gid],
                                     repair=repair))
                   for gid in sorted(self._indexes)
                   if gid not in self.failed_groups]
        if self.spec.replicas:
            reports.append((-1, self.check_replica_agreement()))
        return reports

    def check_replica_agreement(self):
        """Offline replica-agreement check (the rack-level fsck stage).

        Enumerates every live cell's leaves straight from MN memory (no
        clock, no verbs, no injector RNG) and cross-checks them against
        the shard registry and the replica map:

        * ``replica_missing``  - a registered key absent from its
          primary cell or from a live replica cell;
        * ``replica_divergence`` - a replica holds the key with a value
          different from the primary's (anti-entropy's repair target,
          so the finding is marked repairable);
        * ``replica_leak``     - a live cell holds a key of a shard it
          neither owns nor replicates.
        """
        from ..tools.fsck import FsckReport, collect_leaves
        report = FsckReport()
        live = [g for g in self.live_groups() if g not in self.failed_groups]
        cells = {gid: collect_leaves(self._groups[gid],
                                     self._indexes[gid].root_addr)
                 for gid in live}
        for shard, keys in enumerate(self.registry):
            primary = self.shards.assignment[shard]
            replicas = [g for g in self.shards.replica_assignment[shard]
                        if g in cells]
            pcell = cells.get(primary)
            for key in sorted(keys):
                pval = pcell.get(key) if pcell is not None else None
                if pcell is not None and pval is None:
                    report.error(f"shard {shard}: registered key {key!r} "
                                 f"absent from primary group {primary}")
                    report.find("replica_missing", 0,
                                f"key {key!r} absent from primary "
                                f"group {primary}", repairable=False)
                for gid in replicas:
                    rval = cells[gid].get(key)
                    if rval is None:
                        report.error(f"shard {shard}: key {key!r} absent "
                                     f"from replica group {gid}")
                        report.find("replica_missing", 0,
                                    f"key {key!r} absent from replica "
                                    f"group {gid}", repairable=False)
                    elif pval is not None and rval != pval:
                        report.find("replica_divergence", 0,
                                    f"shard {shard} key {key!r}: replica "
                                    f"group {gid} diverges from primary "
                                    f"{primary}", repairable=True)
        for gid in live:
            for key in sorted(cells[gid]):
                shard = self.shards.shard_for_key(key)
                if gid != self.shards.assignment[shard] \
                        and gid not in self.shards.replica_assignment[shard]:
                    report.error(f"group {gid}: holds key {key!r} of "
                                 f"shard {shard} it neither owns nor "
                                 "replicates")
                    report.find("replica_leak", 0,
                                f"group {gid} leaks key {key!r} "
                                f"(shard {shard})", repairable=False)
        return report


class RackClient:
    """One CN's routing client over the rack's group cells.

    Mirrors the index-client op-generator API so the YCSB runner (and
    ``bulk_load``/``warm_clients``) drive a rack exactly like a single
    index.  Route choice happens at generator-construction time, which
    the runner immediately follows with execution - there is no simulated
    time between the two.
    """

    def __init__(self, rack: Rack, cn_id: int):
        self.rack = rack
        self.cn_id = cn_id
        self._made: Dict[int, object] = {}

    def _client(self, gid: int):
        client = self._made.get(gid)
        if client is None:
            client = self.rack.group_index(gid).client(self.cn_id)
            self._made[gid] = client
        return client

    def _route(self, key: bytes):
        return self._client(self.rack.group_of(key))

    # -- replication plumbing (no-ops at K=0) ------------------------------
    def _replicate(self, shard: int, epoch: int, op: str, key: bytes,
                   value: Optional[bytes] = None):
        """Apply one committed write to the shard's live replicas.

        Each apply is fenced on the captured epoch, so a straggler write
        routed before a failover never lands on a stale replica chain.
        A replica that faults mid-apply is skipped and its per-shard lag
        recorded - the anti-entropy sweep repairs it later - because the
        primary apply already committed the op.
        """
        rack = self.rack
        for gid in rack.shards.replica_assignment[shard]:
            if gid in rack.failed_groups:
                continue
            rack.check_epoch(shard, epoch)
            client = self._client(gid)
            try:
                if op == "delete":
                    yield from client.delete(key)
                else:
                    # Upsert: a lagging replica may not hold the key yet.
                    yield from client.insert(key, value)
            except (RetryLimitExceeded, InjectedFault, MNUnavailable):
                rack.note_lag(shard, gid)
                rack.repl.inc("replica_write_failures")
            else:
                rack.repl.inc("replica_writes")

    def _replica_read(self, shard: int, key: bytes, error: MNUnavailable):
        """Read fallback: serve ``key`` from the freshest live replica
        chain after the primary failed with ``error``, which is re-raised
        when no replica answers."""
        rack = self.rack
        for gid in rack.live_replicas(shard):
            try:
                result = yield from self._client(gid).search(key)
            except MNUnavailable:
                continue
            rack.repl.inc("replica_fallback_reads")
            return result
        raise error

    # -- op generators -----------------------------------------------------
    def search(self, key: bytes):
        try:
            result = yield from self._route(key).search(key)
        except MNUnavailable as error:
            result = yield from self._replica_read(
                self.rack.shard_of(key), key, error)
        return result

    def update(self, key: bytes, value: bytes):
        rack = self.rack
        shard = rack.shard_of(key)
        epoch = rack.epochs[shard]
        result = yield from self._route(key).update(key, value)
        yield from self._replicate(shard, epoch, "update", key, value)
        return result

    def insert(self, key: bytes, value: bytes):
        rack = self.rack
        shard = rack.shard_of(key)
        epoch = rack.epochs[shard]
        fresh = key not in rack.registry[shard]
        migration = rack.migrations.get(shard)
        if migration is not None and fresh:
            # A brand-new key lands in a migrating shard: write it to the
            # destination outright and mark it copied, so the source cell
            # never grows behind the copier's back.
            result = yield from self._client(migration.dst).insert(key, value)
            migration.copied.add(key)
        else:
            result = yield from self._route(key).insert(key, value)
        rack.registry[shard].add(key)
        try:
            yield from self._replicate(shard, epoch, "insert", key, value)
        except StaleEpoch:
            # The op fails (stale route) and must not claim a commit: a
            # key this op introduced is unregistered again - its only
            # apply landed on the deposed (dead) primary.
            if fresh:
                rack.registry[shard].discard(key)
            raise
        return result

    def delete(self, key: bytes):
        rack = self.rack
        shard = rack.shard_of(key)
        epoch = rack.epochs[shard]
        removed = yield from self._route(key).delete(key)
        rack.registry[shard].discard(key)
        migration = rack.migrations.get(shard)
        if migration is not None:
            migration.copied.discard(key)
        yield from self._replicate(shard, epoch, "delete", key)
        return removed

    def scan_count(self, key: bytes, length: int):
        # Per-shard scan: hash sharding does not keep global key order.
        result = yield from self._route(key).scan_count(key, length)
        return result

    # -- introspection -----------------------------------------------------
    def counters(self) -> Counters:
        """Merged counters of every group client this CN materialized."""
        return Counters.aggregate(
            self._made[gid].counters() for gid in sorted(self._made))

    def cn_cache_bytes(self) -> int:
        return sum(self._made[gid].cn_cache_bytes()
                   for gid in sorted(self._made))
