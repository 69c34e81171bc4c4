"""The remote ART engine: index operations over the Fig-3 byte layouts.

This module implements everything the three evaluated systems share - the
descent loop, leaf installation, leaf/edge splits, node type switches,
deletion and range scans - as op generators against simulated MN memory.
The systems differ only in *how a client reaches a starting node* and in
*what bookkeeping follows structural changes*, so those points are
template-method hooks:

==================  ========================  ==========================
hook                Sphinx                     SMART / ART-on-DM
==================  ========================  ==========================
``locate_start``    filter cache + INHT       cached-node walk / root
``note_visited``    (nothing)                 fill the CN node cache
``invalidate_hint`` (nothing)                 drop the cached node
``on_path``         filter freshness insert   (nothing)
``note_leaf``       leaf-locator put          (nothing)
``forget_leaf``     leaf-locator drop         (nothing)
``after_new_inner`` INHT insert + filter      (nothing)
``make_split_..``   INHT insert on the        (nothing: falls back to
                    split's own doorbells     ``after_new_inner``)
``after_switch``    INHT entry CAS            n/a (SMART never switches)
``node_type_for``   smallest fitting type     SMART: always Node-256
``grown_type``      next larger type          SMART: raises (never grows)
==================  ========================  ==========================

Every point operation is the same optimistic walk (``_descend``: per hop
check header status, depth and the 42-bit prefix hash) plus a different
action at the *landing* where the walk ends; ``_absent`` owns the
negative verdict there.

Concurrency follows the paper's Sec. III-C: lock-free reads validated by
header metadata (status / depth / 42-bit prefix hash) and leaf checksums;
node-grained header locks for structural writes; doorbell batching to
piggyback lock acquisition onto data writes; old nodes marked *Invalid*
after a type switch so readers holding stale pointers retry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..art.keys import common_prefix_len
from ..art.layout import (
    HEADER_SIZE,
    NODE256,
    NODE_CAPACITY,
    SLOT_ADDR_MASK,
    SLOT_LEAF,
    SLOT_OCCUPIED,
    SLOT_PARTIAL_SHIFT,
    SLOT_SIZE,
    SLOT_SIZE_MASK,
    SLOT_SIZE_SHIFT,
    STATUS_IDLE,
    STATUS_INVALID,
    STATUS_LOCKED,
    EMPTY_WORD,
    HEADER_COUNT_ONE,
    Header,
    NodeView,
    decode_node,
    encode_leaf,
    encode_node,
    encode_node_words,
    leaf_fields,
    leaf_status_word,
    leaf_units_for,
    next_node_type,
    node_size,
    slot_word,
    smallest_type_for,
)
from ..dm.cluster import Cluster
from ..dm.memory import addr_mn, addr_offset, format_addr
from ..dm.rdma import Batch, CasOp, LocalCompute, ReadOp, WriteOp
from ..errors import InjectedFault, ReproError
from ..fault.retry import DEFAULT_RETRY, UNTIMED, RetryPolicy
from ..obs.counters import Counters
from ..util.bits import u64_to_bytes
from ..util.hashing import prefix_hash42
from . import leaf as leaf_ops
from .lock import idle_word, invalidate_op, try_lock_node, unlock_op

RETRY = object()
"""Internal sentinel: the attempt raced a concurrent writer; re-run it."""

EMPTY_SUBTREE = object()
"""Sentinel from prefix recovery: the subtree holds no live leaves.

Deletes clear slots without collapsing inner nodes (paper Sec. IV), so a
node can end up childless; an insert whose key diverges at such a node
cannot learn its compressed prefix from a leaf and instead replaces the
empty node outright (see ``_replace_empty_child``)."""

INNER_CATEGORY = "inner"
LEAF_ALIGN = 64


@dataclass
class TreeMetrics:
    """Per-client operation/bookkeeping counters."""

    searches: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    scans: int = 0
    op_restarts: int = 0
    fp_restarts: int = 0
    fault_restarts: int = 0  # restarts caused by injected faults
    lock_failures: int = 0
    leaf_splits: int = 0
    edge_splits: int = 0
    type_switches: int = 0
    empty_replacements: int = 0
    stale_filter_fills: int = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def counters(self) -> Counters:
        return Counters(self.as_dict())


@dataclass
class _ScanState:
    """Mutable state of one range scan (results + deferred leaf reads)."""

    start_key: bytes
    count: Optional[int]
    hi: Optional[bytes]
    results: List[Tuple[bytes, bytes]] = field(default_factory=list)
    pending: List[int] = field(default_factory=list)  # raw leaf slot words
    flush_chunk: int = 64  # buffer bound for unbounded (hi-only) scans


@dataclass
class OpContext:
    """State threaded through one logical operation's retries."""

    key: bytes
    limit: int  # longest prefix length locate_start may use
    attempt: int = 0  # retry number; caches revalidate when attempt > 0
    deadline: Optional[int] = None  # the op's; nested pre-commit loops obey it

    def shrink(self, new_limit: int) -> None:
        self.limit = min(self.limit, max(new_limit, 0))


class RemoteArtTree:
    """Base class: a client of a remote ART living in MN memory."""

    def __init__(self, cluster: Cluster, root_addr: int,
                 retry: RetryPolicy | None = None):
        self.cluster = cluster
        self.root_addr = root_addr
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.retry.validate()
        self.metrics = TreeMetrics()
        self.scan_batched = True
        # Cluster-scoped seed: a process-global counter here would tie
        # the jitter stream to process history (see Cluster.next_seed).
        self._backoff_rng = random.Random(cluster.next_seed(0xBACC0FF))

    def counters(self) -> Counters:
        """Per-client counters in the shared :class:`repro.obs.Counters`
        shape (subclasses merge their cache/filter counters in)."""
        return self.metrics.counters()

    def _backoff_delay(self, attempt: int) -> int:
        """Exponential backoff with jitter (hot zipfian keys put many
        writers on one leaf lock; jitter breaks the retry convoy)."""
        return self.retry.backoff_delay(self._backoff_rng, attempt)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def create_root(cluster: Cluster) -> int:
        """Allocate and initialize the (always Node-256) root."""
        addr = cluster.alloc_for_prefix(b"", node_size(NODE256),
                                        INNER_CATEGORY)
        header = Header(STATUS_IDLE, NODE256, 0, prefix_hash42(b""), 0)
        image = encode_node(header, [None] * NODE_CAPACITY[NODE256])
        cluster.memories[addr_mn(addr)].write(  # lint: disable=L001
            addr_offset(addr), image)
        return addr

    # ------------------------------------------------------------------
    # Policy hooks (overridden by Sphinx / SMART)
    # ------------------------------------------------------------------
    def node_type_for(self, child_count: int) -> int:
        return smallest_type_for(child_count)

    def grown_type(self, node_type: int) -> int:
        return next_node_type(node_type)

    def locate_start(self, ctx: OpContext):
        """Default: read the root (one round trip).

        Returns ``(addr, view, trusted)``.  ``trusted`` is False when the
        view may be stale (SMART's CN node cache); the descent loops then
        refresh the node before concluding a key *absent* or acting on
        it structurally - positive results and CAS-guarded mutations are
        safe on untrusted views.
        """
        view = yield from self._read_node(self.root_addr, NODE256)
        if view is None:
            return RETRY
        return self.root_addr, view, True

    def note_visited(self, addr: int, view: NodeView) -> None:
        """Called after every remote inner-node read (SMART cache fill)."""

    def note_leaf(self, key: bytes, addr: int, units: int) -> None:
        """Called whenever an op pinned down ``key``'s live leaf address
        (positive search, installed/updated/split-off leaf).  Sphinx's
        optional leaf locator feeds on this; the default is a no-op.
        Plain method, never a generator: noting a leaf costs no verbs."""

    def forget_leaf(self, key: bytes) -> None:
        """Called once ``key``'s leaf is deleted (Sphinx locator drop)."""

    def invalidate_hint(self, addr: int) -> None:
        """Called when a node is discovered Invalid (SMART cache drop)."""

    def on_path(self, prefix: bytes) -> None:
        """Called for every on-path inner prefix (Sphinx filter refresh)."""

    def after_new_inner(self, prefix: bytes, addr: int, node_type: int):
        """Bookkeeping after a split created an inner node (op generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def make_split_coupling(self, prefix: bytes, addr: int, node_type: int):
        """Optional doorbell piggyback for split bookkeeping.

        Sphinx returns an object with ``pre_ops() -> [Verb]`` (extra verbs
        riding the split's node-write batch), ``parse(results)`` and
        ``commit()`` (op generator run once the split is visible); the
        default None makes splits fall back to :meth:`after_new_inner`.
        """
        return None

    def after_type_switch(self, prefix: bytes, old_addr: int, old_type: int,
                          new_addr: int, new_type: int):
        """Bookkeeping after a node type switch (op generator)."""
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Small shared helpers
    # ------------------------------------------------------------------
    def _read_node(self, addr: int, node_type: int):
        """Read + decode a node; None means the read was inconsistent
        (freed/retyped memory) and the operation should retry."""
        return self._visit_node(
            addr, node_type, (yield ReadOp(addr, node_size(node_type))))

    def _visit_node(self, addr: int, node_type: int, data: bytes):
        """The node a READ of ``addr`` returned as ``data``, noted as
        visited; None if the image is not a ``node_type`` node.  Plain
        method: the scan walk posts its child READs itself."""
        try:
            view = decode_node(data)
        except ReproError:
            return None
        if view.header.node_type != node_type:
            return None
        self.note_visited(addr, view)
        return view

    @staticmethod
    def _slot_addr(node_addr: int, index: int) -> int:
        return node_addr + HEADER_SIZE + index * SLOT_SIZE

    def _alloc_leaf(self, key: bytes, value: bytes) -> Tuple[int, int]:
        units = leaf_units_for(len(key), len(value))
        addr = self.cluster.alloc_for_leaf(key, units * LEAF_ALIGN)
        return addr, units

    def _free_leaf(self, addr: int, units: int) -> None:
        self.cluster.free(addr, units * LEAF_ALIGN, leaf_ops.LEAF_CATEGORY)

    def _alloc_inner(self, prefix: bytes, node_type: int) -> int:
        return self.cluster.alloc_for_prefix(prefix, node_size(node_type),
                                             INNER_CATEGORY)

    def _free_inner(self, addr: int, node_type: int) -> None:
        """Release a never-published node (safe to recycle immediately)."""
        self.cluster.free(addr, node_size(node_type), INNER_CATEGORY)

    def _retire_inner(self, addr: int, node_type: int) -> None:
        """Release a node that remote readers may still reach through
        stale pointers (type-switch victims): accounting-only free."""
        self.cluster.retire(addr, node_size(node_type), INNER_CATEGORY)

    def _build_node_image(self, header: Header,
                          children: List[int]) -> bytes:
        """Serialize a node from its children's slot words, honouring
        direct indexing for Node-256 and append order for the smaller
        types."""
        capacity = NODE_CAPACITY[header.node_type]
        words = [EMPTY_WORD] * capacity
        if header.node_type == NODE256:
            for word in children:
                words[(word >> SLOT_PARTIAL_SHIFT) & 0xFF] = word
        else:
            if len(children) > capacity:
                raise ReproError("too many children for node type")
            words[:len(children)] = children
        return encode_node_words(header, words)

    # ------------------------------------------------------------------
    # Retry harness
    # ------------------------------------------------------------------
    def _run(self, once, ctx: OpContext, op_name: str):
        attempts = self.retry.attempts(self.cluster, op_name, ctx.key)
        ctx.deadline = attempts.deadline
        for attempt in attempts:
            ctx.attempt = attempt
            try:
                result = yield from once(ctx)
            except InjectedFault:
                # A lost completion / NAK surfaced mid-attempt: any
                # partially applied state is handled by the normal
                # validation on the next descent.
                self.metrics.fault_restarts += 1
            else:
                if result is not RETRY:
                    return result
                self.metrics.op_restarts += 1
            yield attempts.pause(self._backoff_delay(attempt))

    # ------------------------------------------------------------------
    # The one descent
    # ------------------------------------------------------------------
    def _descend(self, ctx: OpContext, located, note_path: bool = True):
        """Walk from ``located`` (``locate_start``'s answer) towards
        ``ctx.key`` until the key's byte has no validated inner child.

        Per hop: an Invalid node or an inconsistent child read restarts
        the op; a node at or below the key's length is a filter false
        positive (shrink the limit, restart); a child whose depth and
        42-bit prefix hash match the key is on the path - it becomes the
        current node and, having just been read, is trusted.

        Returns RETRY or the *landing* ``(addr, view, trusted, word,
        child, parent)``: ``word`` is the raw slot word for the key's byte
        - 0 (no child), a leaf slot (``child`` None, leaf not read yet),
        or an inner slot whose ``child`` diverges from the key; ``parent``
        is the ``(addr, view)`` hop above ``addr``, None when the walk
        never advanced.
        """
        if located is RETRY:
            return RETRY
        key = ctx.key
        key_len = len(key)
        addr, view, trusted = located
        parent: Optional[Tuple[int, NodeView]] = None
        while True:
            header = view.header
            if header.status == STATUS_INVALID:
                self.invalidate_hint(addr)
                return RETRY
            depth = header.depth
            if depth >= key_len:
                return self._false_positive(ctx, depth)
            word = view.child_word(key[depth])
            if not word or word & SLOT_LEAF:
                return addr, view, trusted, word, None, parent
            child_addr = word & SLOT_ADDR_MASK
            child = yield from self._read_node(
                child_addr, (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK)
            if child is None:
                return RETRY
            cheader = child.header
            if cheader.status == STATUS_INVALID:
                self.invalidate_hint(child_addr)
                return RETRY
            if cheader.depth <= depth:
                return RETRY  # structurally impossible -> stale read
            if (cheader.depth >= key_len
                    or cheader.prefix_hash
                    != prefix_hash42(key[:cheader.depth])):
                return addr, view, trusted, word, child, parent
            if note_path:
                self.on_path(key[:cheader.depth])
            parent = (addr, view)
            addr, view, trusted = child_addr, child, True

    def _absent(self, ctx: OpContext, landing, leaf):
        """The negative verdict at ``landing``: the key's byte has no
        child, its leaf (``leaf``, else None) holds another key, or the
        child there diverges.

        Returns None when the key is absent; a ``located`` triple to
        descend from again when the view was untrusted (a cached node is
        re-read before anything is concluded from it); RETRY when that
        read was inconsistent or the leaf shows the walk started from an
        unmatched node.
        """
        addr, view, trusted = landing[:3]
        if not trusted:
            fresh = yield from self._read_node(addr, view.header.node_type)
            return RETRY if fresh is None else (addr, fresh, True)
        depth = view.header.depth
        if leaf is not None and common_prefix_len(ctx.key, leaf.key) < depth:
            return self._false_positive(ctx, depth)
        return None

    def _false_positive(self, ctx: OpContext, depth: int):
        """The walk is off the key's path, so it started from an
        unmatched node (filter false positive, or the double hash
        collision of paper Sec. III-B): restart from a shorter prefix."""
        self.metrics.fp_restarts += 1
        ctx.shrink(depth - 1)
        return RETRY

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: bytes):
        """Op generator: value for ``key`` or None."""
        self.metrics.searches += 1
        return (yield from self._run(self._search_once,
                                     OpContext(key, len(key) - 1), "search"))

    def _search_once(self, ctx: OpContext):
        key = ctx.key
        located = yield from self.locate_start(ctx)
        while True:  # a second pass only after _absent refreshed the view
            landing = yield from self._descend(ctx, located)
            if landing is RETRY:
                return RETRY
            word = landing[3]
            leaf = None
            if word & SLOT_LEAF:
                leaf_addr = word & SLOT_ADDR_MASK
                units = (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK
                leaf = yield from leaf_ops.read_leaf(leaf_addr, units,
                                                     retry=self.retry)
                if leaf.status == STATUS_INVALID:
                    return RETRY  # mid-delete; retry until slot clears
                if leaf.key == key:
                    self.note_leaf(key, leaf_addr, units)
                    return leaf.value
            located = yield from self._absent(ctx, landing, leaf)
            if located is None:
                return None

    # ------------------------------------------------------------------
    # Insert (upsert)
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: bytes):
        """Op generator: True if the key was new, False if overwritten."""
        self.metrics.inserts += 1
        return (yield from self._run(
            lambda ctx: self._insert_once(ctx, value),
            OpContext(key, len(key) - 1), "insert"))

    def _insert_once(self, ctx: OpContext, value: bytes):
        # Inserts need no trust refreshes: every mutation below is CAS-
        # guarded (count-bumping lock CAS, slot CAS), so a stale cached
        # view can only cause a failed CAS and a retry, never corruption.
        key = ctx.key
        located = yield from self.locate_start(ctx)
        landing = yield from self._descend(ctx, located)
        if landing is RETRY:
            return RETRY
        addr, view, _trusted, word, child, parent = landing
        depth = view.header.depth
        if not word:
            return (yield from self._install_new_leaf(
                addr, view, parent, key, value))
        if child is None:
            leaf = yield from leaf_ops.read_leaf(
                word & SLOT_ADDR_MASK,
                (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK, retry=self.retry)
            if leaf.status != STATUS_IDLE:
                return RETRY
            if leaf.key == key:
                outcome = yield from self._update_leaf(
                    addr, view, word, leaf, value)
                return False if outcome is not RETRY else RETRY
            existing_key = leaf.key
            split_depth = common_prefix_len(key, existing_key)
            if split_depth < depth:
                return self._false_positive(ctx, depth)
        else:
            # The child's compressed prefix diverges: split the edge.
            witness = yield from self._recover_leaf_key(child)
            if witness is None:
                return RETRY
            if witness is EMPTY_SUBTREE:
                return (yield from self._replace_empty_child(
                    addr, view, word, child, key, value))
            existing_key = witness[:child.header.depth]
            split_depth = common_prefix_len(key, existing_key)
            if not depth < split_depth < child.header.depth:
                return RETRY  # raced a structural change
        outcome = yield from self._split_at_slot(
            addr, view, word, key, value,
            existing_key=existing_key, split_depth=split_depth)
        if outcome is RETRY:
            return RETRY
        if child is None:
            self.metrics.leaf_splits += 1
        else:
            self.metrics.edge_splits += 1
        return True

    def _install_new_leaf(self, node_addr: int, view: NodeView,
                          parent: Optional[Tuple[int, NodeView]],
                          key: bytes, value: bytes):
        """Add a leaf child to ``view`` (which has no child for the byte)."""
        if view.header.status != STATUS_IDLE:
            # A locked view is mid-install: its count is already bumped
            # but the new slot may not be visible yet, so the count-CAS
            # below would not protect against a duplicate partial byte.
            return RETRY
        depth = view.header.depth
        leaf_addr, units = self._alloc_leaf(key, value)
        leaf_image = encode_leaf(key, value)
        leaf_word = slot_word(leaf_addr, key[depth], units, is_leaf=True)
        if view.header.node_type == NODE256:
            # Lock-free install: leaf write + slot CAS in one doorbell.
            _w, cas = yield Batch([
                WriteOp(leaf_addr, leaf_image),
                CasOp(self._slot_addr(node_addr, key[depth]), 0, leaf_word),
            ])
            if cas[0]:
                self.note_leaf(key, leaf_addr, units)
                return True
            self._free_leaf(leaf_addr, units)
            return RETRY
        # Small node.  The header's count field is an append cursor: the
        # lock CAS expects (Idle, count=k) and installs (Locked, k+1), so
        # it doubles as a version check - it fails if *any* concurrent
        # install touched the node since our view, which is exactly when
        # our "no child for this byte" conclusion might be stale.  On
        # success the new slot is appended at index k; the paper's
        # doorbell batching piggybacks the leaf write on the lock CAS and
        # the unlock on the slot write (2 round trips total, no re-read).
        header = view.header
        count = header.count
        if count >= NODE_CAPACITY[header.node_type]:
            outcome = yield from self._install_into_full(
                node_addr, view, parent, key, leaf_word,
                leaf_addr, leaf_image)
            if outcome is RETRY:
                self._free_leaf(leaf_addr, units)
                return RETRY
            self.note_leaf(key, leaf_addr, units)
            return True
        idle = idle_word(header)
        unlocked = idle + HEADER_COUNT_ONE
        locked = unlocked | STATUS_LOCKED
        cas, _w = yield Batch([
            CasOp(node_addr, idle, locked, lease=("node",)),
            WriteOp(leaf_addr, leaf_image),
        ])
        if not cas[0]:
            self.metrics.lock_failures += 1
            self._free_leaf(leaf_addr, units)
            return RETRY
        yield Batch([
            WriteOp(self._slot_addr(node_addr, count),
                    u64_to_bytes(leaf_word)),
            WriteOp(node_addr, u64_to_bytes(unlocked), lease=("release",)),
        ])
        self.note_leaf(key, leaf_addr, units)
        return True

    def _install_into_full(self, node_addr: int, view: NodeView,
                           parent: Optional[Tuple[int, NodeView]],
                           key: bytes, leaf_word: int,
                           leaf_addr: int, leaf_image: bytes):
        """Install into a node whose append cursor hit capacity: reuse a
        hole left by a delete if one exists, otherwise type-switch."""
        idle = idle_word(view.header)
        cas, _w = yield Batch([
            CasOp(node_addr, idle, idle | STATUS_LOCKED, lease=("node",)),
            WriteOp(leaf_addr, leaf_image),
        ])
        if not cas[0]:
            self.metrics.lock_failures += 1
            return RETRY
        fresh = yield from self._read_node(node_addr, view.header.node_type)
        if fresh is None or fresh.child_word(key[view.header.depth]):
            yield unlock_op(node_addr, view.header)
            return RETRY
        free_index = fresh.first_free_index()
        if free_index is not None:
            yield Batch([
                WriteOp(self._slot_addr(node_addr, free_index),
                        u64_to_bytes(leaf_word)),
                unlock_op(node_addr, fresh.header),
            ])
            return True
        outcome = yield from self._type_switch(
            node_addr, fresh, parent, key, extra_child=leaf_word)
        return outcome

    def _replace_empty_child(self, node_addr: int, view: NodeView,
                             word: int, child: NodeView, key: bytes,
                             value: bytes):
        """Swap a verifiably empty inner child for a fresh leaf.

        The child is locked first so no concurrent insert can land in it,
        re-checked for emptiness, unlinked via the parent slot, and only
        then marked Invalid and retired.  Its hash-table entry cannot be
        removed (the prefix of an empty node is unrecoverable); lookups
        tolerate entries pointing at Invalid nodes, so the entry is a
        bounded space leak, not a correctness issue.
        """
        child_addr = word & SLOT_ADDR_MASK
        child_type = (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK
        locked = yield from try_lock_node(child_addr, child.header)
        if not locked:
            self.metrics.lock_failures += 1
            return RETRY
        fresh = yield from self._read_node(child_addr, child_type)
        if fresh is None:
            yield unlock_op(child_addr, child.header)
            return RETRY
        if fresh.occupied_count() > 0:
            yield unlock_op(child_addr, fresh.header)
            return RETRY
        leaf_addr, units = self._alloc_leaf(key, value)
        depth = view.header.depth
        new_word = slot_word(leaf_addr, key[depth], units, is_leaf=True)
        yield WriteOp(leaf_addr, encode_leaf(key, value))
        ok = yield from self._replace_slot(node_addr, view, word, new_word)
        if not ok:
            yield unlock_op(child_addr, fresh.header)
            self._free_leaf(leaf_addr, units)
            return RETRY
        yield invalidate_op(child_addr, fresh.header)
        self.invalidate_hint(child_addr)
        self._retire_inner(child_addr, child_type)
        self.metrics.empty_replacements += 1
        self.note_leaf(key, leaf_addr, units)
        return True

    def _update_leaf(self, node_addr: int, view: NodeView, word: int,
                     leaf, value: bytes):
        """Overwrite an existing leaf's value, in place when it fits.

        Hot keys see heavy lock contention on one leaf; losing the lock
        CAS retries *here* (re-read + CAS, 2 round trips) with jittered
        backoff instead of restarting the whole operation (~5 round
        trips), which is both cheaper and far less convoy-prone.
        """
        leaf_addr = word & SLOT_ADDR_MASK
        if leaf_units_for(len(leaf.key), len(value)) <= leaf.units:
            for attempt in range(self.retry.inplace_update_retries):
                ok = yield from leaf_ops.in_place_update(leaf_addr, leaf,
                                                         value)
                if ok:
                    self.note_leaf(leaf.key, leaf_addr, leaf.units)
                    return True
                yield LocalCompute(self._backoff_delay(attempt))
                leaf = yield from leaf_ops.read_leaf(
                    leaf_addr, (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK,
                    retry=self.retry)
                if (leaf.status != STATUS_IDLE
                        or not leaf.checksum_ok
                        or leaf_units_for(len(leaf.key), len(value))
                        > leaf.units):
                    return RETRY
            return RETRY
        # Out-of-place: take ownership of the old leaf first, then
        # repoint the parent slot and retire the old leaf.
        idle = leaf_status_word(STATUS_IDLE, leaf.units, len(leaf.key),
                                len(leaf.value))
        locked = leaf_status_word(STATUS_LOCKED, leaf.units, len(leaf.key),
                                  len(leaf.value))
        swapped, _ = yield CasOp(leaf_addr, idle, locked, lease=("leaf",))
        if not swapped:
            return RETRY
        new_addr, units = self._alloc_leaf(leaf.key, value)
        new_word = slot_word(new_addr, (word >> SLOT_PARTIAL_SHIFT) & 0xFF,
                             units, is_leaf=True)
        yield WriteOp(new_addr, encode_leaf(leaf.key, value))
        ok = yield from self._replace_slot(node_addr, view, word, new_word)
        if not ok:
            # Roll back: release the old leaf and drop the new one.
            unlocked, _ = yield CasOp(leaf_addr, locked, idle,
                                      lease=("release",))
            if not unlocked:
                # We hold this leaf's lock; nobody may touch the word.
                raise ReproError(
                    f"leaf unlock CAS failed while holding the lock at "
                    f"{format_addr(leaf_addr)}: index corruption")
            self._free_leaf(new_addr, units)
            return RETRY
        invalid = leaf_status_word(STATUS_INVALID, leaf.units, len(leaf.key),
                                   len(leaf.value))
        yield WriteOp(leaf_addr, invalid.to_bytes(8, "little"),
                      lease=("release",))
        self._free_leaf(leaf_addr, leaf.units)
        self.note_leaf(leaf.key, new_addr, units)
        return True

    def _split_at_slot(self, node_addr: int, view: NodeView, word: int,
                       key: bytes, value: bytes, existing_key: bytes,
                       split_depth: int):
        """Replace the slot holding ``word`` with a new inner node holding
        the existing child and a new leaf for ``key`` (leaf split or edge
        split)."""
        prefix = key[:split_depth]
        leaf_addr, units = self._alloc_leaf(key, value)
        node_type = self.node_type_for(2)
        inner_addr = self._alloc_inner(prefix, node_type)
        existing_child = slot_word(
            word & SLOT_ADDR_MASK, existing_key[split_depth],
            (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK,
            is_leaf=bool(word & SLOT_LEAF))
        new_leaf_child = slot_word(leaf_addr, key[split_depth], units,
                                   is_leaf=True)
        header = Header(STATUS_IDLE, node_type, split_depth,
                        prefix_hash42(prefix), 2)
        image = self._build_node_image(header,
                                       [existing_child, new_leaf_child])
        coupling = self.make_split_coupling(prefix, inner_addr, node_type)
        extra_ops = coupling.pre_ops() if coupling is not None else []
        results = yield Batch([
            WriteOp(leaf_addr, encode_leaf(key, value)),
            WriteOp(inner_addr, image),
        ] + list(extra_ops))
        if coupling is not None and extra_ops:
            coupling.parse(results[2:])
        inner_slot = slot_word(inner_addr, (word >> SLOT_PARTIAL_SHIFT) & 0xFF,
                               node_type, is_leaf=False)
        ok = yield from self._replace_slot(node_addr, view, word, inner_slot)
        if not ok:
            self._free_leaf(leaf_addr, units)
            self._free_inner(inner_addr, node_type)
            return RETRY
        if coupling is not None:
            yield from coupling.commit()
        else:
            yield from self.after_new_inner(prefix, inner_addr, node_type)
        self.note_leaf(key, leaf_addr, units)
        return True

    def _replace_slot(self, node_addr: int, view: NodeView, old_word: int,
                      new_word: int):
        """Atomically swap one child slot of ``node_addr`` from the raw
        word ``old_word`` (the CAS's expected value) to ``new_word``.

        Node-256 slots are CASed lock-free (a Node-256 never type-switches,
        so the slot address is stable); smaller nodes take the node lock to
        exclude a concurrent type switch migrating the slots.
        """
        if view.header.node_type == NODE256:
            slot_addr = self._slot_addr(
                node_addr, (old_word >> SLOT_PARTIAL_SHIFT) & 0xFF)
            swapped, _ = yield CasOp(slot_addr, old_word, new_word)
            return swapped
        # Small node, 2 round trips: lock, then [slot CAS + unlock] in one
        # doorbell.  The slot CAS needs no fresh read - slot indexes are
        # stable (append-only cursor) and the CAS expected value detects
        # any concurrent replacement; the unlock rides the same batch, so
        # a failed CAS leaves the node consistent and the caller retries.
        index = view.find_index_by_addr(old_word & SLOT_ADDR_MASK)
        if index is None:
            return False
        locked = yield from try_lock_node(node_addr, view.header)
        if not locked:
            self.metrics.lock_failures += 1
            return False
        cas, _u = yield Batch([
            CasOp(self._slot_addr(node_addr, index), old_word, new_word),
            unlock_op(node_addr, view.header),
        ])
        return cas[0]

    def _type_switch(self, old_addr: int, fresh: NodeView,
                     parent: Optional[Tuple[int, NodeView]],
                     key: bytes, extra_child: int):
        """Grow a full node (whose lock we hold) into the next type.

        Order per the paper: make the new node visible via the parent
        slot, mark the old node Invalid, then repoint the hash-table
        entry (Sphinx hook).
        """
        header = fresh.header
        old_type = header.node_type
        new_type = self.grown_type(old_type)
        depth = header.depth
        prefix = key[:depth]
        children = [word for word in fresh.words if word & SLOT_OCCUPIED]
        children.append(extra_child)
        new_header = Header(STATUS_IDLE, new_type, depth,
                            header.prefix_hash, len(children))
        new_addr = self._alloc_inner(prefix, new_type)
        yield WriteOp(new_addr, self._build_node_image(new_header, children))
        if parent is None:
            parent = yield from self._find_parent(key, old_addr, depth)
        if parent is None:
            yield unlock_op(old_addr, header)
            self._free_inner(new_addr, new_type)
            return RETRY
        parent_addr, parent_view = parent
        partial = key[parent_view.header.depth]
        old_parent_word = slot_word(old_addr, partial, old_type,
                                    is_leaf=False)
        new_parent_word = slot_word(new_addr, partial, new_type,
                                    is_leaf=False)
        ok = yield from self._replace_slot(parent_addr, parent_view,
                                           old_parent_word, new_parent_word)
        if not ok:
            yield unlock_op(old_addr, header)
            self._free_inner(new_addr, new_type)
            return RETRY
        yield invalidate_op(old_addr, header)
        yield from self.after_type_switch(prefix, old_addr, old_type,
                                          new_addr, new_type)
        self.invalidate_hint(old_addr)
        self._retire_inner(old_addr, old_type)
        self.metrics.type_switches += 1
        return True

    def _find_parent(self, key: bytes, child_addr: int, child_depth: int):
        """Locate the node whose slot points at ``child_addr`` (needed
        when a filter-located start node type-switches)."""
        ctx = OpContext(key, child_depth - 1, attempt=1)
        located = yield from self.locate_start(ctx)
        if located is RETRY:
            return None
        cur_addr, cur, _trusted = located
        # Descent-depth cap (max key length), not a retry budget.
        for _ in range(256):  # lint: disable=S004
            header = cur.header
            if header.status == STATUS_INVALID or header.depth >= child_depth:
                return None
            word = cur.child_word(key[header.depth])
            if not word or word & SLOT_LEAF:
                return None
            addr = word & SLOT_ADDR_MASK
            if addr == child_addr:
                return cur_addr, cur
            child = yield from self._read_node(
                addr, (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK)
            if child is None or child.header.status == STATUS_INVALID:
                return None
            cur_addr, cur = addr, child
        return None

    def _recover_leaf_key(self, view: NodeView, depth_budget: int = 64):
        """Recover any full key stored under ``view`` (optimistic path
        compression needs leaf bytes to learn a node's real prefix).

        Returns the key, ``EMPTY_SUBTREE`` if the subtree verifiably holds
        no live leaves, or None on transient trouble (mid-delete leaves,
        retired nodes) - callers retry on None.
        """
        if depth_budget <= 0:
            return None
        occupied = [word for word in view.words if word & SLOT_OCCUPIED]
        if not occupied:
            return EMPTY_SUBTREE
        transient = False
        for word in occupied:
            addr = word & SLOT_ADDR_MASK
            size_class = (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK
            if word & SLOT_LEAF:
                leaf = yield from leaf_ops.read_leaf(addr, size_class,
                                                     retry=self.retry)
                if leaf.status == STATUS_INVALID or not leaf.checksum_ok:
                    transient = True
                    continue
                return leaf.key
            child = yield from self._read_node(addr, size_class)
            if child is None or child.header.status == STATUS_INVALID:
                transient = True
                continue
            sub = yield from self._recover_leaf_key(child, depth_budget - 1)
            if sub is EMPTY_SUBTREE:
                continue
            if sub is None:
                transient = True
                continue
            return sub
        return None if transient else EMPTY_SUBTREE

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def update(self, key: bytes, value: bytes):
        """Op generator: overwrite ``key``; False if the key is absent."""
        self.metrics.updates += 1
        return (yield from self._run(
            lambda ctx: self._update_once(ctx, value),
            OpContext(key, len(key) - 1), "update"))

    def _update_once(self, ctx: OpContext, value: bytes):
        key = ctx.key
        located = yield from self.locate_start(ctx)
        while True:  # a second pass only after _absent refreshed the view
            landing = yield from self._descend(ctx, located)
            if landing is RETRY:
                return RETRY
            addr, view, _trusted, word, _child, _parent = landing
            leaf = None
            if word & SLOT_LEAF:
                leaf = yield from leaf_ops.read_leaf(
                    word & SLOT_ADDR_MASK,
                    (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK,
                    retry=self.retry)
                # Unlike search / delete, a Locked leaf restarts the
                # update *before* its key is compared (DESIGN.md 4.1).
                if leaf.status != STATUS_IDLE:
                    return RETRY
                if leaf.key == key:
                    return (yield from self._update_leaf(
                        addr, view, word, leaf, value))
            located = yield from self._absent(ctx, landing, leaf)
            if located is None:
                return False

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes):
        """Op generator: remove ``key``; False if absent."""
        self.metrics.deletes += 1
        return (yield from self._run(self._delete_once,
                                     OpContext(key, len(key) - 1), "delete"))

    def _delete_once(self, ctx: OpContext):
        key = ctx.key
        located = yield from self.locate_start(ctx)
        while True:  # a second pass only after _absent refreshed the view
            # Delete alone walks without on_path, as it always has;
            # filling the filter from deletes would move simulated
            # digits (DESIGN.md 4.1).
            landing = yield from self._descend(ctx, located, note_path=False)
            if landing is RETRY:
                return RETRY
            addr, view, _trusted, word, _child, _parent = landing
            leaf = None
            if word & SLOT_LEAF:
                leaf_addr = word & SLOT_ADDR_MASK
                leaf = yield from leaf_ops.read_leaf(
                    leaf_addr, (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK,
                    retry=self.retry)
                if leaf.status == STATUS_INVALID:
                    return RETRY  # another delete is mid-flight
                if leaf.key == key:
                    if leaf.status != STATUS_IDLE:
                        return RETRY
                    ok = yield from leaf_ops.invalidate_leaf(leaf_addr, leaf)
                    if not ok:
                        return RETRY
                    return (yield from self._clear_leaf_slot(
                        key, addr, view, word, leaf.units))
            located = yield from self._absent(ctx, landing, leaf)
            if located is None:
                return False

    def _clear_leaf_slot(self, key: bytes, node_addr: int, view: NodeView,
                         word: int, units: int):
        """Unlink the leaf a delete just invalidated, then free it.

        The invalid leaf's slot must be cleared before the delete
        finishes (readers retry on Invalid leaves), and the leaf block
        may only be freed once it is provably unlinked.  Care: a racing
        split/type switch (or a stale cached parent view) can have
        RELINKED the leaf under a new inner node - the clear must chase
        it to its *current* parent, never assume "slot changed => already
        cleared".  The leaf is already invalidated, so this loop keeps
        its budget but ignores the op's deadline (DESIGN.md 7.3).
        """
        victim_addr = word & SLOT_ADDR_MASK
        attempts = self.retry.attempts(self.cluster, "clear leaf slot", key,
                                       UNTIMED)
        for _ in attempts:
            cleared = yield from self._replace_slot(node_addr, view, word, 0)
            if not cleared:
                found = yield from self._chase_leaf_slot(key, victim_addr)
                if found is RETRY:
                    yield attempts.pause(self.retry.flat_delay())
                    continue
                if found is not None:  # relinked: clear it where it is
                    node_addr, view, word = found
                    continue
            # Cleared, or the key's path no longer reaches the victim:
            # either way it is unlinked and safe to reclaim.
            self.forget_leaf(key)
            self._free_leaf(victim_addr, units)
            return True

    def _chase_leaf_slot(self, key: bytes, leaf_addr: int):
        """Find the (node, view, word) currently linking ``leaf_addr`` on
        ``key``'s path, descending from the root with full validation.

        Returns the triple, None if the key's path *definitely* does not
        reach ``leaf_addr`` (it is unlinked), or RETRY on transient state
        (locked/invalid nodes mid-change) - the caller backs off.
        """
        ctx = OpContext(key, 0)
        # The root itself, never a subclass's cached / filter-located node.
        located = yield from RemoteArtTree.locate_start(self, ctx)
        landing = yield from self._descend(ctx, located, note_path=False)
        if landing is RETRY:
            return RETRY
        addr, view, _trusted, word, _child, _parent = landing
        if word & SLOT_LEAF and (word & SLOT_ADDR_MASK) == leaf_addr:
            return addr, view, word
        return None  # path ends, diverges, or reaches a different leaf

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------
    def scan_count(self, start_key: bytes, count: int):
        """Op generator: first ``count`` pairs with key >= start_key.

        Scans traverse from the root (paper Sec. IV).  With doorbell
        batching (Sphinx, SMART) the leaf reads - "the main bottleneck of
        the workload" (Sec. V-B) - are deferred into a buffer and fetched
        in result-budget-sized batches that span subtree boundaries; the
        plain ART port issues every read sequentially.
        """
        self.metrics.scans += 1
        results = yield from self._run(
            lambda ctx: self._scan_once(_ScanState(start_key, count, None)),
            OpContext(start_key, 0), "scan_count")
        return results[:count]

    def scan_range(self, lo: bytes, hi: bytes):
        """Op generator: all pairs with lo <= key <= hi."""
        self.metrics.scans += 1
        return (yield from self._run(
            lambda ctx: self._scan_once(_ScanState(lo, None, hi)),
            OpContext(lo, 0), "scan_range"))

    def _scan_once(self, state: "_ScanState"):
        root = yield from self._read_node(self.root_addr, NODE256)
        if root is not None:
            yield from self._scan_walk(root, state)
            yield from self._flush_leaves(state)
        return state.results

    def _flush_leaves(self, state: "_ScanState"):
        """Fetch and filter the buffered leaf slot words (one doorbell
        batch when batching is on, sequential reads otherwise).  Returns
        True once the scan is over: budget met, or a leaf above ``hi``."""
        pending = state.pending
        if not pending:
            return False
        reads = [ReadOp(w & SLOT_ADDR_MASK,
                        ((w >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK) * LEAF_ALIGN)
                 for w in pending]
        if self.scan_batched:
            blobs = yield Batch(reads)
        else:
            blobs = []
            for op in reads:
                blobs.append((yield op))
        start_key, count, hi = state.start_key, state.count, state.hi
        results = state.results
        over = False
        for word, blob in zip(pending, blobs):
            if count is not None and len(results) >= count:
                break
            status, _units, key, value, ok, _version = leaf_fields(blob)
            if not ok:
                leaf = yield from leaf_ops.read_leaf(
                    word & SLOT_ADDR_MASK,
                    (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK,
                    retry=self.retry)
                status, key, value, ok = \
                    leaf.status, leaf.key, leaf.value, leaf.checksum_ok
            if status == STATUS_INVALID or not ok:
                continue
            if key < start_key:
                continue
            if hi is not None and key > hi:
                # Leaves are buffered in key order: nothing later fits.
                over = True
                break
            results.append((key, value))
        pending.clear()
        return over or (count is not None and len(results) >= count)

    def _scan_walk(self, root: NodeView, state: "_ScanState"):
        """DFS in key order over raw slot words, buffering leaf words for
        batched fetching; returns once the scan is satisfied or the tree
        is exhausted.

        One generator with an explicit stack: a verb result is delivered
        to this frame (plus ``_flush_leaves``), not through one ``yield
        from`` frame per tree level or per child read.  A stack entry is
        ``(children, real_prefix, threshold)`` with ``children`` a live
        iterator, so popping an entry resumes its node's loop.
        """
        start_key, hi, count = state.start_key, state.hi, state.count
        results, pending = state.results, state.pending
        bounded = count is not None
        # Buffered leaves that trigger a flush: what the result budget
        # still lacks, or the chunk bound of an unbounded (hi-only) scan.
        # Only a flush moves it, so it is re-derived there and nowhere else.
        want = count - len(results) if bounded else state.flush_chunk
        if want <= 0:
            return
        stack: list = []
        entering = (root, b"", True)
        while True:
            if entering is not None:
                # A `continue` below skips the node: with `entering`
                # cleared, the next pass resumes the innermost open node.
                view, real_prefix, ambiguous = entering
                entering = None
                depth = view.header.depth
                if depth > len(real_prefix) and (ambiguous or hi is not None):
                    # Path compression hid bytes a bound still depends on
                    # (otherwise the whole subtree is known in-range).
                    witness = yield from self._recover_leaf_key(view)
                    if witness is EMPTY_SUBTREE or witness is None:
                        continue  # nothing live below (or mid-churn)
                    real_prefix = witness[:depth]
                if ambiguous:
                    head = start_key[:depth]
                    if real_prefix < head:
                        continue  # entire subtree below the range start
                    if real_prefix > head:
                        ambiguous = False
                if hi is not None and real_prefix > hi[:depth]:
                    # Entire subtree above the range end: the walk is
                    # over.  The leaves buffered so far sort before this
                    # subtree; the caller's last flush fetches them.
                    return
                threshold = start_key[depth] \
                    if ambiguous and depth < len(start_key) else None
                low = 0 if threshold is None else threshold
                # Conservative upper prune: children strictly above hi's
                # byte can only hold keys > hi when the prefix equals
                # hi's head.
                high = hi[depth] if hi is not None and depth < len(hi) \
                    and real_prefix == hi[:depth] else 255
                # Decorated sort: (partial, index, word) orders exactly as
                # a stable sort of the occupied slots by partial byte.
                children = sorted([
                    ((word >> SLOT_PARTIAL_SHIFT) & 0xFF, index, word)
                    for index, word in enumerate(view.words)
                    if word & SLOT_OCCUPIED])
                if low > 0 or high < 255:
                    children = [c for c in children if low <= c[0] <= high]
                stack.append((iter(children), real_prefix, threshold))
            if not stack:
                return
            children, real_prefix, threshold = stack[-1]
            for partial, _index, word in children:
                if word & SLOT_LEAF:
                    pending.append(word)
                    if len(pending) >= want:
                        if (yield from self._flush_leaves(state)):
                            return
                        if bounded:
                            want = count - len(results)
                    continue
                # Descend; len(pending) < want here (every append above is
                # checked), so there is never a flush to do first.
                addr = word & SLOT_ADDR_MASK
                node_type = (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK
                child = self._visit_node(
                    addr, node_type,
                    (yield ReadOp(addr, node_size(node_type))))
                if child is None or child.header.status == STATUS_INVALID:
                    continue  # retired under a held parent image: skipped
                # Only the child on the start key's own path stays
                # ambiguous (threshold is None off that path).
                entering = (child, real_prefix + bytes((partial,)),
                            partial == threshold)
                break
            else:
                stack.pop()
