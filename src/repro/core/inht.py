"""The Inner Node Hash Table (paper Sec. III-A).

One RACE-style table per memory node; the table on MN *m* holds the hash
entries of exactly the inner nodes that consistent hashing placed on *m*.
The table key is an inner node's **full prefix**; the 8-byte value packs
the node's address, a 12-bit fingerprint fp2 and the node type, so a
client that resolved a prefix locally (via the succinct filter cache) can
reach the node with one bucket read plus one node read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..art.layout import hash_entry_word
from ..dm.cluster import Cluster
from ..fault.retry import UNTIMED
from ..race.client import RaceClient
from ..race.layout import TableInfo, TableParams, fp2_of, key_hash
from ..race.table import create_table


@dataclass
class InnerNodeHashTable:
    """Cluster-wide INHT metadata: one table per MN."""

    tables: Dict[int, TableInfo]

    @classmethod
    def create(cls, cluster: Cluster, params: TableParams
               ) -> "InnerNodeHashTable":
        tables = {
            mn: create_table(cluster, mn, TableParams(
                seed=params.seed ^ (mn * 0x9E3779B1),
                groups_per_segment=params.groups_per_segment,
                slots_per_group=params.slots_per_group,
                initial_depth=params.initial_depth,
                max_depth=params.max_depth))
            for mn in cluster.memories
        }
        return cls(tables=tables)

    def total_bytes(self, cluster: Cluster) -> int:
        return sum(
            cluster.memories[mn].allocated_by_category.get("hash_table", 0)
            for mn in self.tables)


class InhtClient:
    """One CN's client of the cluster-wide INHT.

    Wraps one :class:`RaceClient` (with its own directory cache) per MN
    and routes every prefix to the MN that owns it.
    """

    def __init__(self, cluster: Cluster, inht: InnerNodeHashTable,
                 retry=None):
        self._placement = cluster.placement
        self._clients: Dict[int, RaceClient] = {
            mn: RaceClient(cluster, info, retry=retry)
            for mn, info in inht.tables.items()}

    def _client_for(self, prefix: bytes) -> RaceClient:
        return self._clients[self._placement.mn_for_prefix(prefix)]

    def entry_for(self, prefix: bytes, node_addr: int,
                  node_type: int) -> int:
        """The wire entry word for ``prefix`` (fp2 derived per-table)."""
        client = self._client_for(prefix)
        h = key_hash(prefix, client.params.seed)
        return hash_entry_word(node_addr, fp2_of(h), node_type)

    # -- op generators -----------------------------------------------------
    def lookup(self, prefix: bytes, deadline: Optional[int] = None):
        """Candidate entries for ``prefix`` -> [(slot_addr, word)]."""
        return (yield from self._client_for(prefix).lookup(prefix, deadline))

    def insert(self, prefix: bytes, node_addr: int, node_type: int):
        """Register a freshly published inner node: post-commit
        bookkeeping, so it runs ``UNTIMED``."""
        word = self.entry_for(prefix, node_addr, node_type)
        return (yield from self._client_for(prefix).insert(prefix, word,
                                                           UNTIMED))

    def update_for_type_switch(self, prefix: bytes, old_addr: int,
                               old_type: int, new_addr: int, new_type: int):
        """Repoint a prefix after a node type switch: one guarded
        :meth:`RaceClient.replace`.  False if the old entry was gone and
        the new one was installed outright.  The switch is already
        published, so it runs ``UNTIMED``."""
        return (yield from self._client_for(prefix).replace(
            prefix, self.entry_for(prefix, old_addr, old_type),
            self.entry_for(prefix, new_addr, new_type), UNTIMED))

    def probe_all(self, prefixes: List[bytes]):
        """Read the hash-entry buckets of many prefixes in one doorbell
        batch (the paper's Theta(L) parallel read, Sec. III-A).

        Returns {prefix: matches-or-None}; None marks a group that was
        locked or stale, which the caller resolves with a precise
        :meth:`lookup`.
        """
        from ..dm.rdma import Batch
        prepared = []
        for prefix in prefixes:
            client = self._client_for(prefix)
            group_addr, h, local_depth = yield from client.probe_prepare(
                prefix)
            prepared.append((prefix, client, group_addr, h, local_depth))
        blobs = yield Batch([client.probe_read_op(group_addr)
                             for _p, client, group_addr, _h, _d in prepared])
        out = {}
        for (prefix, client, group_addr, h, local_depth), blob in zip(
                prepared, blobs):
            out[prefix] = client.probe_parse(group_addr, blob, h, local_depth)
        return out

    def delete(self, prefix: bytes, node_addr: int):
        removed = yield from self._client_for(prefix).delete(prefix,
                                                             node_addr)
        return removed

    # -- introspection -----------------------------------------------------
    def directory_cache_bytes(self) -> int:
        return sum(c.directory_cache_bytes() for c in self._clients.values())

    def splits(self) -> int:
        return sum(c.splits for c in self._clients.values())
