"""Sphinx: the paper's hybrid index (Inner Node Hash Table + Succinct
Filter Cache) as a client of the shared remote-ART engine.

An index operation runs in three round trips in the common case:

1. *Locally*, probe the succinct filter cache with every prefix of the
   key, longest first, to find the deepest inner node's prefix ``P``.
2. Read the inner-node hash-table bucket for ``P`` (one round trip) and,
   from its fp2-matching entries, read the node(s) in one doorbell batch
   (one round trip).  Entries are validated against the node header's
   depth and 42-bit full-prefix hash; invalid or colliding entries fall
   back to the next shorter filter hit, and ultimately to the root.
3. Descend (usually one hop) to the leaf and read it (one round trip).

``use_filter=False`` gives the paper's base design (Sec. III-A): the
client reads the hash entries of *all* Theta(L) prefixes in one doorbell
batch instead of consulting the filter - same round trips, much more NIC
load.  This is the ablation Fig 4's analysis rests on.

``use_locator=True`` additionally grafts in an Outback-style leaf
locator (:mod:`repro.core.leaf_locator`): a CN cache mapping full keys
straight to their MN leaf address, probed before the filter/INHT ladder.
A locator hit turns a point read into a *single* round trip - one leaf
READ verified by the leaf's own fence (checksum + status + stored key);
any mismatch (stale entry after an out-of-place move, tag collision,
torn read) falls back to the regular path, so the locator can only ever
cost a wasted round trip, never a wrong answer.  The default is off, and
off is the exact pre-locator hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..art.layout import (
    HASH_ENTRY_ADDR_MASK,
    HASH_ENTRY_TYPE_MASK,
    HASH_ENTRY_TYPE_SHIFT,
    LEAF_ALIGN,
    STATUS_INVALID,
    decode_leaf,
    decode_node,
    node_size,
)
from ..dm.cluster import Cluster
from ..dm.rdma import Batch, LocalCompute, ReadOp
from ..errors import (
    InjectedFault,
    MNUnavailable,
    ReproError,
    RetryLimitExceeded,
)
from ..fault.retry import DEFAULT_RETRY, UNTIMED, RetryPolicy, expired
from ..filters.hotness import SuccinctFilterCache
from ..race.layout import TableParams
from ..util.hashing import prefix_hash42
from .inht import InhtClient, InnerNodeHashTable
from .leaf_locator import LeafLocator
from .remote_art import RETRY, OpContext, RemoteArtTree


#: Seed of the inner-node hash table's bucket hash.
TABLE_SEED = 0xD15C0
#: Caps the INHT's preallocated directory at 2^10 slots per MN (8 KiB);
#: the fp2 scheme allows up to 12.
TABLE_MAX_DEPTH = 10


@dataclass(frozen=True)
class SphinxConfig:
    """Tunables of one Sphinx index (defaults follow the paper)."""

    filter_budget_bytes: int = 1 << 20
    """CN-side budget of the succinct filter cache (paper: 20 MB for 60 M
    keys; scale proportionally to dataset size)."""

    filter_fp_bits: int = 12

    use_filter: bool = True
    """False = base design: batched Theta(L) hash-entry reads (Sec III-A)."""

    table_groups_per_segment: int = 64
    table_slots_per_group: int = 8
    table_initial_depth: int = 2

    retry: RetryPolicy = DEFAULT_RETRY
    """The unified retry/backoff/timeout policy (see repro.fault.retry)."""

    use_locator: bool = False
    """Graft in the Outback-style leaf-locator tier: point reads probe a
    CN key->leaf-address cache first and finish in one round trip on a
    hit.  Off (the default) is bit-identical to the pre-locator client -
    no extra state, verbs, or RNG draws."""

    locator_budget_bytes: int = 1 << 16
    """CN-side budget of the leaf locator (16 B per entry)."""

    def table_params(self) -> TableParams:
        return TableParams(seed=TABLE_SEED,
                           groups_per_segment=self.table_groups_per_segment,
                           slots_per_group=self.table_slots_per_group,
                           initial_depth=self.table_initial_depth,
                           max_depth=TABLE_MAX_DEPTH)


class _InhtSplitCoupling:
    """Piggybacks the INHT insert of a freshly split-off inner node onto
    the split's own doorbell batches (paper Sec. IV, Insert).

    The hash-table bucket read rides the batch that writes the new leaf
    and inner node; the entry CAS runs right after the split becomes
    visible.  Cold directory caches or full/raced buckets fall back to
    the regular two-round-trip insert.
    """

    def __init__(self, client: "SphinxClient", prefix: bytes, addr: int,
                 node_type: int):
        self._sphinx = client
        self._prefix = prefix
        self._race = client.inht._client_for(prefix)
        self._entry = client.inht.entry_for(prefix, addr, node_type)
        self._location = self._race.cached_group_location(prefix)
        self._group = None

    def pre_ops(self):
        if self._location is None:
            return []
        group_addr, _h, _depth = self._location
        return [self._race.probe_read_op(group_addr)]

    def parse(self, results) -> None:
        if self._location is None or not results:
            return
        group_addr, _h, local_depth = self._location
        group = self._race._parse_group(group_addr, results[0])
        if not group.locked and group.local_depth == local_depth:
            self._group = group

    def commit(self):
        installed = False
        if self._group is not None:
            installed = yield from self._race.insert_into_group(
                self._prefix, self._entry, self._group)
        if not installed:  # the split is published: post-commit, UNTIMED
            yield from self._race.insert(self._prefix, self._entry, UNTIMED)
        if self._sphinx.config.use_filter:
            self._sphinx.filter.insert(self._prefix)


class SphinxIndex:
    """Cluster-wide Sphinx index: the remote tree plus its INHT."""

    def __init__(self, cluster: Cluster,
                 config: SphinxConfig | None = None):
        self.cluster = cluster
        self.config = config if config is not None else SphinxConfig()
        self.root_addr = RemoteArtTree.create_root(cluster)
        self.inht = InnerNodeHashTable.create(cluster,
                                              self.config.table_params())
        self._clients: Dict[int, SphinxClient] = {}

    def client(self, cn_id: int) -> "SphinxClient":
        """The per-CN client (workers on one CN share its caches)."""
        if cn_id not in self._clients:
            self._clients[cn_id] = SphinxClient(self, cn_id)
        return self._clients[cn_id]

    def inht_bytes(self) -> int:
        """MN memory the inner node hash table occupies."""
        return self.inht.total_bytes(self.cluster)


class SphinxClient(RemoteArtTree):
    """One compute node's Sphinx client."""

    def __init__(self, index: SphinxIndex, cn_id: int):
        config = index.config
        super().__init__(index.cluster, index.root_addr,
                         retry=config.retry)
        self.index = index
        self.cn_id = cn_id
        self.config = config
        self.filter = SuccinctFilterCache(
            config.filter_budget_bytes, fp_bits=config.filter_fp_bits)
        self.inht = InhtClient(index.cluster, index.inht,
                               retry=config.retry)
        self.multi_candidate_lookups = 0
        """How often an INHT bucket held >1 fp2-matching entry (the paper
        cites MemC3: typically one candidate)."""
        self.inht_fallbacks = 0
        """Searches that degraded to root traversal because the INHT was
        unreachable (e.g. a bucket stuck behind an abandoned lock)."""
        self.locator = LeafLocator(config.locator_budget_bytes) \
            if config.use_locator else None
        self.locator_fallbacks = 0
        """Locator-guided leaf reads rejected by the fence check (stale
        address, tag collision, torn read, fault) and retried via the
        regular filter/INHT ladder."""
        # The ``locate_start`` hook, bound once: the config is frozen, so
        # no op pays a dispatch frame to re-ask which ladder it climbs.
        self.locate_start = self._locate_with_filter \
            if config.use_filter else self._locate_parallel

    # ------------------------------------------------------------------
    # Hook implementations
    # ------------------------------------------------------------------
    def on_path(self, prefix: bytes) -> None:
        # Freshness rule (Sec. IV, Search): any on-path prefix reached by
        # traversal rather than by the filter gets (re)inserted locally.
        if self.config.use_filter and prefix:
            self.metrics.stale_filter_fills += 1
            self.filter.insert(prefix)

    def after_new_inner(self, prefix: bytes, addr: int, node_type: int):
        yield from self.inht.insert(prefix, addr, node_type)
        if self.config.use_filter:
            self.filter.insert(prefix)

    def after_type_switch(self, prefix: bytes, old_addr: int, old_type: int,
                          new_addr: int, new_type: int):
        yield from self.inht.update_for_type_switch(
            prefix, old_addr, old_type, new_addr, new_type)

    def make_split_coupling(self, prefix: bytes, addr: int, node_type: int):
        return _InhtSplitCoupling(self, prefix, addr, node_type)

    def note_leaf(self, key: bytes, addr: int, units: int) -> None:
        if self.locator is not None:
            self.locator.put(key, addr, units)

    def forget_leaf(self, key: bytes) -> None:
        if self.locator is not None:
            self.locator.drop(key)

    # ------------------------------------------------------------------
    # The leaf-locator fast path (1 round trip on a hit)
    # ------------------------------------------------------------------
    def search(self, key: bytes):
        """Op generator: value for ``key`` or None.

        With the locator enabled a hit resolves in one leaf READ; every
        rung of the fallback ladder (miss -> mismatch -> fault) lands on
        the regular filter/INHT search, so results are identical to the
        locator-disabled client - the locator only changes round trips.
        """
        if self.locator is None:
            return (yield from super().search(key))
        self.metrics.searches += 1
        hit = self.locator.get(key)
        if hit is not None:
            addr, units = hit
            try:
                data = yield ReadOp(addr, units * LEAF_ALIGN)
            except (RetryLimitExceeded, InjectedFault, MNUnavailable):
                # Fabric fault or crashed MN on the hinted read: the
                # regular path (with its own retry budget) decides.
                self.locator_fallbacks += 1
            else:
                leaf = decode_leaf(data)
                if leaf.checksum_ok and leaf.status != STATUS_INVALID \
                        and leaf.key == key:
                    # Fence check passed: this is key's live leaf.  A
                    # Locked-but-consistent image is trustworthy, same
                    # as the descent path's read_leaf semantics.
                    return leaf.value
                if leaf.checksum_ok:
                    # Provably not key's leaf (moved, deleted, or a tag
                    # collision): the hint is garbage, drop it.  A torn
                    # read, by contrast, keeps the entry - the address
                    # is fine, the image just raced an in-place writer.
                    self.locator.drop(key)
                self.locator_fallbacks += 1
        return (yield from self._run(self._search_once,
                                     OpContext(key, len(key) - 1), "search"))

    # ------------------------------------------------------------------
    # Locate via the succinct filter cache (common case: 2 round trips
    # to the start node, leaf read is the third)
    # ------------------------------------------------------------------
    def _locate_with_filter(self, ctx: OpContext):
        key = ctx.key
        depth = self.filter.deepest_hit(key, min(len(key) - 1, ctx.limit))
        while depth:
            try:
                found = yield from self._fetch_via_inht(ctx, depth)
            except (RetryLimitExceeded, InjectedFault, MNUnavailable):
                # An INHT bucket stuck behind an abandoned segment-split
                # lock, an injected fabric fault on the INHT path, or a
                # crashed MN hosting the table must not take searches
                # down with it: the tree is still intact, so degrade to
                # root traversal - unless the op's deadline is what ran
                # out, which stops the op instead.
                if expired(self.cluster, ctx.deadline):
                    raise
                self.inht_fallbacks += 1
                break
            if found is not None:
                return found
            # False positive (or evicted/stale entry): fall through to
            # the next shorter prefix present in the filter.
            self.metrics.fp_restarts += 1
            depth = self.filter.deepest_hit(key, depth - 1)
        return (yield from super().locate_start(ctx))

    def _fetch_via_inht(self, ctx: OpContext, depth: int):
        """Hash-entry read + validated candidate node reads for the
        op's ``depth``-byte prefix, within the op's deadline."""
        prefix = ctx.key[:depth]
        # One extra attempt is intrinsic: a type switch's fresh entry
        # lands within one round trip (backoff below is policy-derived).
        for _attempt in range(2):  # lint: disable=S004
            matches = yield from self.inht.lookup(prefix, ctx.deadline)
            if not matches:
                return None
            if len(matches) > 1:
                self.multi_candidate_lookups += 1
            blobs = yield self._candidate_reads(matches)
            found = self._validate_candidates(prefix, depth, matches, blobs)
            if found is not RETRY:
                return found
            # A type switch is propagating to the hash table; the fresh
            # entry lands within one round trip - retry the lookup once.
            yield LocalCompute(self.retry.flat_delay())
        return None

    # ------------------------------------------------------------------
    # Locate via parallel hash-entry reads (base design, Sec. III-A)
    # ------------------------------------------------------------------
    def _locate_parallel(self, ctx: OpContext):
        key = ctx.key
        max_depth = min(len(key) - 1, ctx.limit)
        probes: dict = {}
        if max_depth >= 1:
            try:
                probes = yield from self.inht.probe_all(
                    [key[:d] for d in range(1, max_depth + 1)])
            except MNUnavailable:
                # The MN hosting a probed table crashed: the base design's
                # batched probe cannot complete, but the tree survives.
                self.inht_fallbacks += 1
        for depth in range(max_depth, 0, -1):
            prefix = key[:depth]
            matches = probes.get(prefix)
            if matches is None:  # stale/locked group: precise fallback
                try:
                    matches = yield from self.inht.lookup(prefix, ctx.deadline)
                except MNUnavailable:
                    self.inht_fallbacks += 1
                    continue
            if not matches:
                continue
            blobs = yield self._candidate_reads(matches)
            found = self._validate_candidates(prefix, depth, matches, blobs)
            # RETRY (an Invalid candidate) is just "no match" here: the
            # next shorter prefix is already probed, nothing to wait for.
            if found is not None and found is not RETRY:
                return found
        return (yield from super().locate_start(ctx))

    @staticmethod
    def _candidate_reads(matches: List[Tuple[int, int]]) -> Batch:
        """One doorbell batch reading every fp2-matching INHT candidate
        (``matches``: ``(slot_addr, entry_word)``)."""
        return Batch([ReadOp(word & HASH_ENTRY_ADDR_MASK, node_size(
            (word >> HASH_ENTRY_TYPE_SHIFT) & HASH_ENTRY_TYPE_MASK))
            for _slot, word in matches])

    @staticmethod
    def _validate_candidates(prefix: bytes, depth: int,
                             matches: List[Tuple[int, int]], blobs):
        """Validate the candidates' images (``_candidate_reads``) by node
        type, header depth and 42-bit prefix hash.  A plain function: no
        generator frame between the ladder and its verbs.

        Returns the ``located`` triple of the match, None if there is
        none, or RETRY if there is none but a candidate was Invalid (a
        type switch whose fresh entry has not reached the table yet).
        """
        target_hash = prefix_hash42(prefix)
        saw_invalid = False
        for (_slot, word), blob in zip(matches, blobs):
            try:
                view = decode_node(blob)
            except ReproError:
                continue
            header = view.header
            entry_type = (word >> HASH_ENTRY_TYPE_SHIFT) & HASH_ENTRY_TYPE_MASK
            if header.node_type != entry_type:
                continue
            if header.status == STATUS_INVALID:
                saw_invalid = True
            elif (header.depth == depth
                    and header.prefix_hash == target_hash):
                return word & HASH_ENTRY_ADDR_MASK, view, True
        return RETRY if saw_invalid else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cn_cache_bytes(self) -> int:
        """Total CN-side cache memory: filter + directory + locator."""
        total = self.filter.size_bytes() + self.inht.directory_cache_bytes()
        if self.locator is not None:
            total += self.locator.size_bytes()
        return total

    def counters(self):
        """Tree metrics plus the Sphinx-specific filter/INHT counters,
        in the shared :class:`repro.obs.Counters` shape."""
        counters = super().counters()
        counters.merge({
            "filter_hits": self.filter.hits,
            "filter_misses": self.filter.misses,
            "filter_evictions": self.filter.evictions,
            "inht_splits": self.inht.splits(),
            "inht_fallbacks": self.inht_fallbacks,
            "multi_candidate_lookups": self.multi_candidate_lookups,
        })
        if self.locator is not None:
            # Keys appear only with the locator enabled so disabled
            # clients report the exact pre-locator counter shape.
            counters.merge({
                "locator_hits": self.locator.hits,
                "locator_misses": self.locator.misses,
                "locator_fallbacks": self.locator_fallbacks,
            })
        return counters
