"""Baseline: SMART (Luo et al., OSDI'23) - ART on DM with node caching.

We reproduce the two design points the paper measures SMART by:

* **Node-256 preallocation.**  Every inner node is physically a Node-256
  (2056 B) regardless of its fanout.  Inner-node addresses are therefore
  stable for the node's whole lifetime (no type switches), which is what
  makes CN-side node caching coherent - at the cost of the 2.1-3.0x MN
  memory blow-up shown in Fig 6.
* **Node-based CN cache.**  Clients cache inner-node snapshots in a
  byte-budgeted LRU.  An operation walks the cached path as far as it can,
  re-reads the deepest cached node remotely (the validation read implied
  by SMART's reverse-check mechanism), and continues the traversal
  remotely from there.  Because addresses are stable, a stale cached slot
  can only be *missing* a recent child or pointing at a since-replaced
  leaf slot - both cases stop the local walk early and are corrected by
  the fresh read, never mislead it.

Scans use doorbell batching, as in SMART.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..art.layout import (
    NODE256,
    SLOT_ADDR_MASK,
    SLOT_LEAF,
    STATUS_INVALID,
    NodeView,
)
from ..core.remote_art import RETRY, OpContext, RemoteArtTree
from ..dm.cluster import Cluster
from ..errors import ReproError
from ..fault.retry import DEFAULT_RETRY, RetryPolicy
from ..util.hashing import prefix_hash42
from .cache import NodeCache


@dataclass(frozen=True)
class SmartConfig:
    cache_budget_bytes: int = 20 << 20
    """CN-side node-cache budget (paper: 20 MB, 200 MB for SMART+C)."""

    retry: RetryPolicy = DEFAULT_RETRY
    """The unified retry/backoff/timeout policy (see repro.fault.retry)."""


class SmartIndex:
    """Cluster-wide SMART state (root; nodes are all Node-256)."""

    def __init__(self, cluster: Cluster, config: SmartConfig | None = None):
        self.cluster = cluster
        self.config = config if config is not None else SmartConfig()
        self.root_addr = RemoteArtTree.create_root(cluster)
        self._clients: Dict[int, SmartClient] = {}

    def client(self, cn_id: int) -> "SmartClient":
        if cn_id not in self._clients:
            self._clients[cn_id] = SmartClient(self, cn_id)
        return self._clients[cn_id]


class SmartClient(RemoteArtTree):
    """One compute node's SMART client (workers share the node cache)."""

    def __init__(self, index: SmartIndex, cn_id: int):
        super().__init__(index.cluster, index.root_addr,
                         retry=index.config.retry)
        self.index = index
        self.cn_id = cn_id
        self.cache = NodeCache(index.config.cache_budget_bytes)

    # -- policy: every inner node is a preallocated Node-256 -------------
    def node_type_for(self, child_count: int) -> int:
        return NODE256

    def grown_type(self, node_type: int) -> int:  # pragma: no cover
        raise ReproError("SMART nodes are Node-256 and never grow")

    # -- cache maintenance -------------------------------------------------
    def note_visited(self, addr: int, view: NodeView) -> None:
        self.cache.put(addr, view)

    def counters(self):
        """Tree metrics plus the node-cache counters, in the shared
        :class:`repro.obs.Counters` shape."""
        counters = super().counters()
        counters.merge({
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_evictions": self.cache.evictions,
        })
        return counters

    def invalidate_hint(self, addr: int) -> None:
        self.cache.drop(addr)

    # -- locate: local cache walk, optimistically trusted ------------------
    def locate_start(self, ctx: OpContext):
        """Walk the CN node cache as deep as it goes and hand the engine
        the deepest cached node *without* a network round trip.

        The engine treats the returned view as untrusted: positive
        results and CAS-guarded mutations proceed directly (SMART's
        coherence argument - preallocated Node-256s never move, so cached
        pointers stay valid and staleness only manifests as a missing
        recent child or a replaced leaf slot, both caught by the
        reverse checks / CAS failures); negative verdicts trigger a
        refresh first.  On retries (``ctx.attempt > 0``) the stop node is
        re-read remotely, healing whatever staleness caused the retry.
        """
        key = ctx.key
        stop_addr, stop_view = self.root_addr, self.cache.get(self.root_addr)
        if stop_view is not None:
            cur_addr, cur = self.root_addr, stop_view
            while True:
                depth = cur.header.depth
                if depth >= len(key):
                    break
                word = cur.child_word(key[depth])
                if not word or word & SLOT_LEAF:
                    break
                child_addr = word & SLOT_ADDR_MASK
                child = self.cache.get(child_addr)
                if child is None:
                    break
                cheader = child.header
                if cheader.status == STATUS_INVALID:
                    self.cache.drop(child_addr)
                    break
                if (cheader.depth > ctx.limit
                        or cheader.depth >= len(key)
                        or cheader.prefix_hash
                        != prefix_hash42(key[:cheader.depth])):
                    break
                cur_addr, cur = child_addr, child
            stop_addr, stop_view = cur_addr, cur
        if stop_view is not None and ctx.attempt == 0:
            return stop_addr, stop_view, False  # trust the cache for now
        # Cold cache or a retry: validate the stop node remotely.
        fresh = yield from self._read_node(stop_addr, NODE256)
        if fresh is None or fresh.header.status == STATUS_INVALID:
            self.cache.drop(stop_addr)
            if stop_addr == self.root_addr:
                return RETRY
            fresh = yield from self._read_node(self.root_addr, NODE256)
            if fresh is None:
                return RETRY
            return self.root_addr, fresh, True
        return stop_addr, fresh, True

    # -- introspection -----------------------------------------------------
    def cn_cache_bytes(self) -> int:
        return self.cache.bytes
