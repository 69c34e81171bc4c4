"""Placement of index data across memory nodes.

The paper distributes ART nodes (and their inner-node-hash-table entries)
evenly across MNs with consistent hashing (Fig 1).  Placement is keyed by
a node's **full prefix**, so the hash entry for a prefix and the node it
points at can live on different MNs - exactly as in the paper, where the
client first visits the MN owning the hash entry and then the MN owning
the node.

Rack-scale clusters add a second tier above this: :class:`ShardMap`
splits the key space into a fixed number of hash shards and assigns each
shard to one **MN group** (a small set of MNs hosting one index cell)
through the same consistent-hashing machinery, so that adding or removing
a group moves only the shards that land on it - the minimal-movement
property online rebalancing relies on.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import ConfigError, InvalidArgument
from ..util.hashing import ConsistentHashRing, hash64, hash64_raw

#: Virtual nodes per MN on a node-placement ring, and the ring's seed
#: (a rack group's ring salts it per group id).
RING_VNODES = 64
PLACEMENT_SEED = 11
#: Virtual nodes per group on the shard ring, and its seed.
SHARD_VNODES = 32
SHARD_SEED = 23
_SHARD_KEY_SEED = SHARD_SEED ^ 0x5A4D


class NodePlacement:
    """Consistent-hashing placement over a fixed set of memory nodes."""

    def __init__(self, mn_ids: Sequence[int], seed: int = PLACEMENT_SEED):
        self._ring = ConsistentHashRing(mn_ids, vnodes=RING_VNODES, seed=seed)
        self._mn_ids = list(mn_ids)

    @property
    def mn_ids(self) -> list:
        return list(self._mn_ids)

    def mn_for_prefix(self, prefix: bytes) -> int:
        """The MN that owns the ART node (and INHT entry) for ``prefix``."""
        return self._ring.lookup(prefix)

    def mn_for_leaf(self, key: bytes) -> int:
        """The MN that stores the leaf for ``key``.

        Leaves hash by full key so that hot inner prefixes do not
        concentrate leaf traffic on one MN.  A key is placed when its
        leaf is allocated, about once per key, so its hash is not
        memoised (a memo entry would keep ``b"leaf:" + key`` alive).
        """
        return self._ring.lookup(b"leaf:" + key, hash64_raw)


class ShardMap:
    """Key-space sharding across MN groups.

    The key space is cut into ``num_shards`` hash shards; each shard is
    assigned to one group by a consistent-hash ring over the live group
    ids.  The materialized ``assignment`` list - not the ring - is the
    source of truth for routing: membership changes (:meth:`commit_join`
    / :meth:`commit_leave`) only update the ring, and the rebalancer
    flips ``assignment[shard]`` one shard at a time as each migration
    completes, so routing never jumps ahead of the data.
    """

    def __init__(self, num_shards: int, groups: Sequence[int], *,
                 replicas: int = 0):
        if num_shards < 1:
            raise InvalidArgument("need at least one shard")
        if not groups:
            raise InvalidArgument("need at least one group")
        if replicas < 0:
            raise InvalidArgument("replicas must be >= 0")
        self.num_shards = num_shards
        self._groups: List[int] = sorted(groups)
        ring = self._ring()
        self._cur_ring = ring
        self.assignment: List[int] = [ring.lookup(self._token(s))
                                      for s in range(num_shards)]
        #: Replication degree K: each shard keeps K replica groups beyond
        #: its primary, picked as the ring's successor chain.
        self.replicas = replicas
        #: Materialized replica sets per shard - like ``assignment``, the
        #: list (not the ring) is the routing truth: failover and the
        #: rebalancer's re-replication edit it one shard at a time.
        self.replica_assignment: List[List[int]] = [
            self.desired_replicas(s) for s in range(num_shards)]

    @staticmethod
    def _token(shard: int) -> bytes:
        return b"shard:%d" % shard

    def _ring(self, groups: Sequence[int] | None = None) -> ConsistentHashRing:
        return ConsistentHashRing(self._groups if groups is None
                                  else sorted(groups),
                                  vnodes=SHARD_VNODES, seed=SHARD_SEED)

    @property
    def groups(self) -> List[int]:
        return list(self._groups)

    def shard_for_key(self, key: bytes) -> int:
        return hash64(key, _SHARD_KEY_SEED) % self.num_shards

    def group_for_key(self, key: bytes) -> int:
        return self.assignment[self.shard_for_key(key)]

    def shards_of(self, group: int) -> List[int]:
        return [s for s, g in enumerate(self.assignment) if g == group]

    # -- replica placement -------------------------------------------------
    def desired_replicas(self, shard: int,
                         primary: int | None = None,
                         exclude: Sequence[int] = ()) -> List[int]:
        """The K replica groups the *current* ring picks for ``shard``:
        the first K distinct successors of the shard's token, skipping
        the primary and anything in ``exclude`` (draining/failed
        groups).  Successor chains inherit consistent hashing's
        minimal-movement property: a membership change only perturbs the
        chains that cross the changed token arcs.  Returns fewer than K
        when the ring has too few eligible groups.
        """
        if self.replicas == 0:
            return []
        primary = self.assignment[shard] if primary is None else primary
        banned = {primary} | set(exclude)
        chain = self._cur_ring.lookup_chain(self._token(shard),
                                            len(self._groups))
        return [g for g in chain if g not in banned][:self.replicas]

    def owner_chain(self, shard: int) -> List[int]:
        """Every current ring member in successor order from the shard's
        token - the candidate list failover re-homing walks."""
        return self._cur_ring.lookup_chain(self._token(shard),
                                           len(self._groups))

    def replicas_of(self, group: int) -> List[int]:
        """Shards currently keeping a replica on ``group``."""
        return [s for s, gs in enumerate(self.replica_assignment)
                if group in gs]

    # -- rebalancing plans -------------------------------------------------
    def plan_join(self, new_group: int) -> List[Tuple[int, int, int]]:
        """Moves ``[(shard, src, dst), ...]`` a joining group triggers.

        Consistent hashing guarantees only shards the *new* ring assigns
        to ``new_group`` move; every other shard keeps its owner.
        """
        if new_group in self._groups:
            raise ConfigError(f"group {new_group} already a member")
        ring = self._ring(self._groups + [new_group])
        return [(s, self.assignment[s], new_group)
                for s in range(self.num_shards)
                if ring.lookup(self._token(s)) == new_group
                and self.assignment[s] != new_group]

    def plan_leave(self, group: int) -> List[Tuple[int, int, int]]:
        """Moves that drain ``group`` before it leaves: its shards go to
        the owners the shrunk ring picks; nothing else moves."""
        if group not in self._groups:
            raise ConfigError(f"group {group} not a member")
        remaining = [g for g in self._groups if g != group]
        if not remaining:
            raise ConfigError("cannot drain the last group")
        ring = self._ring(remaining)
        return [(s, group, ring.lookup(self._token(s)))
                for s in range(self.num_shards)
                if self.assignment[s] == group]

    # -- membership commits ------------------------------------------------
    def commit_join(self, group: int) -> None:
        self._groups = sorted(self._groups + [group])
        self._cur_ring = self._ring()

    def commit_leave(self, group: int) -> None:
        self._groups = [g for g in self._groups if g != group]
        self._cur_ring = self._ring()
