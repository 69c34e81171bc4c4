"""Extension baseline: a Sherman-style B+ tree on disaggregated memory.

The paper's introduction motivates ART-based indexes by contrast with
fixed-size-key B+ trees like Sherman (SIGMOD'22): a B+ tree must pad every
key to the maximum length, so variable-length keys (the email dataset)
inflate both node fan-in traffic and MN memory.  This module implements a
one-sided B+ tree faithful to that trade-off so the claim can be measured
(see ``benchmarks/test_extra_bplus.py``):

* fixed-width keys (configurable; email keys are padded to 32 B);
* internal and leaf nodes are flat arrays read in one RDMA READ;
* search descends level by level (one round trip per level) and reads the
  value blob last;
* writers use top-down *preemptive splitting* with header lock coupling:
  while descending, any full child is split before entering it, so splits
  never propagate upward and at most two node locks are held at a time;
* readers are lock-free and validate with the header version, retrying
  around in-flight writers.

Values live in the same 64-byte-aligned checksummed blobs as the ART
systems (reusing :mod:`repro.core.leaf`), which keeps the value path and
the memory accounting comparable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..art.layout import STATUS_IDLE, STATUS_INVALID
from ..core import leaf as leaf_ops
from ..dm.cluster import Cluster
from ..dm.memory import addr_mn, addr_offset
from ..dm.rdma import Batch, CasOp, LocalCompute, ReadOp, WriteOp
from ..errors import (ConfigError, InjectedFault, KeyCodecError,
                      RetryLimitExceeded)
from ..fault.retry import DEFAULT_RETRY, RetryPolicy
from ..util.bits import u64_to_bytes

BPLUS_CATEGORY = "bplus_node"

# Node header (8 bytes): status(2) | is_leaf(1) | count(10) | version(51)
_STATUS_MASK = 0x3
_LEAF_BIT = 1 << 2
_COUNT_SHIFT, _COUNT_MASK = 3, (1 << 10) - 1
_VERSION_SHIFT = 13


def _pack_header(status: int, is_leaf: bool, count: int, version: int) -> int:
    return (status | (_LEAF_BIT if is_leaf else 0)
            | (count << _COUNT_SHIFT)
            | ((version & ((1 << 51) - 1)) << _VERSION_SHIFT))


@dataclass(frozen=True)
class _Header:
    status: int
    is_leaf: bool
    count: int
    version: int

    @staticmethod
    def unpack(word: int) -> "_Header":
        return _Header(word & _STATUS_MASK, bool(word & _LEAF_BIT),
                       (word >> _COUNT_SHIFT) & _COUNT_MASK,
                       word >> _VERSION_SHIFT)

    def pack(self) -> int:
        return _pack_header(self.status, self.is_leaf, self.count,
                            self.version)


@dataclass(frozen=True)
class BplusConfig:
    """Geometry and limits of the remote B+ tree."""

    key_width: int = 8
    """Every key is padded to exactly this many bytes (the B+ tree's
    fundamental limitation for variable-length keys)."""

    order: int = 32
    """Maximum entries per node (fan-out)."""

    retry: RetryPolicy = DEFAULT_RETRY
    """The unified retry/backoff/timeout policy (see repro.fault.retry)."""

    @property
    def entry_size(self) -> int:
        return self.key_width + 8  # key + child/value address

    @property
    def node_size(self) -> int:
        # +1 slot: the B-link (high key, right sibling) entry that lets
        # lock-free readers recover from concurrent splits.
        return 8 + (self.order + 1) * self.entry_size

    @property
    def split_point(self) -> int:
        return self.order // 2


class _NodeView:
    """Decoded B+ node: sorted (key, addr) entries + B-link sibling."""

    __slots__ = ("header", "keys", "addrs", "link_key", "link_addr")

    def __init__(self, header: _Header, keys: List[bytes],
                 addrs: List[int], link_key: bytes = b"",
                 link_addr: int = 0):
        self.header = header
        self.keys = keys
        self.addrs = addrs
        self.link_key = link_key
        self.link_addr = link_addr

    def find_child_index(self, key: bytes) -> int:
        """Index of the child subtree for ``key`` (internal nodes):
        the last entry with separator <= key, else 0."""
        index = 0
        for i, sep in enumerate(self.keys):
            if sep <= key:
                index = i
            else:
                break
        return index

    def find_key_index(self, key: bytes) -> Optional[int]:
        for i, stored in enumerate(self.keys):
            if stored == key:
                return i
        return None


def _decode_node(config: BplusConfig, data: bytes) -> _NodeView:
    header = _Header.unpack(struct.unpack_from("<Q", data, 0)[0])
    keys: List[bytes] = []
    addrs: List[int] = []
    offset = 8
    for _ in range(header.count):
        keys.append(data[offset:offset + config.key_width])
        addrs.append(struct.unpack_from("<Q", data,
                                        offset + config.key_width)[0])
        offset += config.entry_size
    link_offset = 8 + config.order * config.entry_size
    link_key = data[link_offset:link_offset + config.key_width]
    link_addr = struct.unpack_from("<Q", data,
                                   link_offset + config.key_width)[0]
    return _NodeView(header, keys, addrs, link_key, link_addr)


def _encode_node(config: BplusConfig, status: int, is_leaf: bool,
                 version: int, entries: List[Tuple[bytes, int]],
                 link: Optional[Tuple[bytes, int]] = None) -> bytes:
    if len(entries) > config.order:
        raise ConfigError("too many entries for node order")
    out = bytearray(u64_to_bytes(_pack_header(status, is_leaf,
                                              len(entries), version)))
    for key, addr in entries:
        if len(key) != config.key_width:
            raise KeyCodecError("entry key width mismatch")
        out += key + struct.pack("<Q", addr)
    out += bytes(8 + config.order * config.entry_size - len(out))
    if link is not None:
        out += link[0] + struct.pack("<Q", link[1])
    out += bytes(config.node_size - len(out))
    return bytes(out)


class BplusIndex:
    """Cluster-wide B+ tree: a root pointer cell plus nodes on MNs."""

    def __init__(self, cluster: Cluster, config: BplusConfig | None = None):
        self.cluster = cluster
        self.config = config if config is not None else BplusConfig()
        # The root pointer lives in a fixed 8-byte cell so that root
        # splits can swing it with a single CAS.
        self.root_ptr_addr = cluster.alloc(0, 8, BPLUS_CATEGORY)
        root_addr = self._alloc_node()
        self._write_node_direct(root_addr, STATUS_IDLE, True, 0, [])
        cluster.memories[0].write_u64(  # lint: disable=L001
            addr_offset(self.root_ptr_addr), root_addr)
        self._clients: Dict[int, BplusClient] = {}

    # -- control-plane helpers -------------------------------------------
    def _alloc_node(self) -> int:
        # Spread nodes round-robin over MNs.
        self._next_mn = (getattr(self, "_next_mn", -1) + 1) \
            % len(self.cluster.memories)
        return self.cluster.alloc(self._next_mn, self.config.node_size,
                                  BPLUS_CATEGORY)

    def _write_node_direct(self, addr: int, status: int, is_leaf: bool,
                           version: int,
                           entries: List[Tuple[bytes, int]]) -> None:
        image = _encode_node(self.config, status, is_leaf, version, entries)
        self.cluster.memories[addr_mn(addr)].write(  # lint: disable=L001
            addr_offset(addr), image)

    def client(self, cn_id: int) -> "BplusClient":
        if cn_id not in self._clients:
            self._clients[cn_id] = BplusClient(self, cn_id)
        return self._clients[cn_id]

    def pad_key(self, key: bytes) -> bytes:
        """Pad a variable-length key to the fixed width (the B+ tree
        tax); rejects keys that do not fit."""
        if len(key) > self.config.key_width:
            raise KeyCodecError(
                f"key of {len(key)} bytes exceeds the B+ tree's fixed "
                f"width {self.config.key_width}")
        return key + bytes(self.config.key_width - len(key))


class BplusClient:
    """One compute node's B+ tree client (op generators)."""

    def __init__(self, index: BplusIndex, cn_id: int):
        self.index = index
        self.cn_id = cn_id
        self.config = index.config
        self.cluster = index.cluster
        import random as _random
        self._rng = _random.Random(0xB9 ^ cn_id)
        self.metrics = {"searches": 0, "inserts": 0, "updates": 0,
                        "splits": 0, "restarts": 0}

    def counters(self):
        """Snapshot into the shared :class:`repro.obs.Counters` shape."""
        from ..obs.counters import Counters
        return Counters(self.metrics)

    # -- small helpers -----------------------------------------------------
    def _backoff(self, attempt: int) -> int:
        return self.config.retry.backoff_delay(self._rng, attempt)

    def _read_node(self, addr: int):
        data = yield ReadOp(addr, self.config.node_size)
        return _decode_node(self.config, data)

    def _read_root(self):
        root_addr = yield ReadOp(self.index.root_ptr_addr, 8)
        addr = struct.unpack("<Q", root_addr)[0]
        view = yield from self._read_node(addr)
        return addr, view

    def _lock(self, addr: int, header: _Header):
        idle = _Header(STATUS_IDLE, header.is_leaf, header.count,
                       header.version)
        locked = _Header(1, header.is_leaf, header.count, header.version)
        swapped, _ = yield CasOp(addr, idle.pack(), locked.pack(),
                                 lease=("node",))
        return swapped

    def _write_and_unlock(self, addr: int, is_leaf: bool, version: int,
                          entries: List[Tuple[bytes, int]],
                          link: Optional[Tuple[bytes, int]] = None):
        image = _encode_node(self.config, STATUS_IDLE, is_leaf,
                             version + 1, entries, link=link)
        yield WriteOp(addr, image, lease=("release",))

    # -- search -------------------------------------------------------------
    def search(self, key: bytes):
        """Op generator: value for ``key`` or None."""
        self.metrics["searches"] += 1
        key = self.index.pad_key(key)
        for attempt in range(self.config.retry.max_retries):
            try:
                result = yield from self._search_once(key)
            except InjectedFault:
                result = _RETRY
            if result is not _RETRY:
                return result
            self.metrics["restarts"] += 1
            yield LocalCompute(self._backoff(attempt))
        raise RetryLimitExceeded(f"bplus search({key!r})",
                                 addr=self.index.root_ptr_addr)

    def _search_once(self, key: bytes):
        _addr, view = yield from self._read_root()
        # Descent + B-link lateral-hop cap (tree geometry), not a retry
        # budget; genuine retries wrap this in the policy-bound caller.
        for _hop in range(512):  # lint: disable=L006
            if view.header.status == STATUS_INVALID:
                return _RETRY
            # B-link lateral move: a concurrent split may have shifted the
            # key range into the right sibling after we read the parent.
            if view.link_addr and view.link_key and key >= view.link_key:
                view = yield from self._read_node(view.link_addr)
                continue
            if view.header.is_leaf:
                index = view.find_key_index(key)
                if index is None:
                    return None
                leaf = yield from leaf_ops.read_leaf(
                    view.addrs[index], 2, retry=self.config.retry)
                if leaf.status == STATUS_INVALID:
                    return _RETRY
                if leaf.key.ljust(self.config.key_width, b"\0") != key:
                    return _RETRY  # raced a value-blob replacement
                return leaf.value
            child = view.addrs[view.find_child_index(key)] \
                if view.keys else 0
            if child == 0:
                return None
            view = yield from self._read_node(child)
        return _RETRY

    # -- insert / update ------------------------------------------------------
    def insert(self, key: bytes, value: bytes):
        """Op generator: upsert; True if the key was new."""
        self.metrics["inserts"] += 1
        if 16 + self.config.key_width + len(value) > 128:
            raise ConfigError(
                "bplus value blobs are fixed at 128 B: value too large")
        key = self.index.pad_key(key)
        for attempt in range(self.config.retry.max_retries):
            try:
                result = yield from self._insert_once(key, value)
            except InjectedFault:
                result = _RETRY
            if result is not _RETRY:
                return result
            self.metrics["restarts"] += 1
            yield LocalCompute(self._backoff(attempt))
        raise RetryLimitExceeded(f"bplus insert({key!r})",
                                 addr=self.index.root_ptr_addr)

    def update(self, key: bytes, value: bytes):
        """Op generator: overwrite; False when absent."""
        self.metrics["updates"] += 1
        padded = self.index.pad_key(key)
        for attempt in range(self.config.retry.max_retries):
            try:
                result = yield from self._search_once(padded)
            except InjectedFault:
                result = _RETRY
            if result is _RETRY:
                yield LocalCompute(self._backoff(attempt))
                continue
            if result is None:
                return False
            yield from self.insert(key, value)  # upsert path overwrites
            return True
        raise RetryLimitExceeded(f"bplus update({key!r})",
                                 addr=self.index.root_ptr_addr)

    def _insert_once(self, key: bytes, value: bytes):
        """Top-down descent with preemptive splitting under lock coupling."""
        config = self.config
        root_addr, root = yield from self._read_root()
        # Lock the root (it anchors the lock coupling).
        locked = yield from self._lock(root_addr, root.header)
        if not locked:
            return _RETRY
        root = yield from self._read_node(root_addr)  # stable under lock
        if root.header.count >= config.order:
            yield from self._split_root(root_addr, root)
            return _RETRY
        cur_addr, cur = root_addr, root
        while not cur.header.is_leaf:
            if cur.link_addr and cur.link_key and key >= cur.link_key:
                # Lateral move: lock the right sibling, release current.
                sibling = yield from self._read_node(cur.link_addr)
                locked = yield from self._lock(cur.link_addr, sibling.header)
                if not locked:
                    yield from self._unlock_only(cur_addr, cur)
                    return _RETRY
                sibling = yield from self._read_node(cur.link_addr)
                yield from self._unlock_only(cur_addr, cur)
                if sibling.header.count >= config.order:
                    yield from self._unlock_only(cur.link_addr, sibling)
                    return _RETRY  # let a fresh descent split it
                cur_addr, cur = cur.link_addr, sibling
                continue
            child_index = cur.find_child_index(key) if cur.keys else 0
            if not cur.addrs:
                # Degenerate empty internal node cannot happen (roots
                # start as leaves); treat defensively.
                yield from self._write_and_unlock(
                    cur_addr, cur.header.is_leaf, cur.header.version,
                    list(zip(cur.keys, cur.addrs)))
                return _RETRY
            child_addr = cur.addrs[child_index]
            child = yield from self._read_node(child_addr)
            locked = yield from self._lock(child_addr, child.header)
            if not locked:
                yield from self._unlock_only(cur_addr, cur)
                return _RETRY
            child = yield from self._read_node(child_addr)
            if child.header.count >= config.order:
                yield from self._split_child(cur_addr, cur, child_index,
                                             child_addr, child)
                return _RETRY  # re-descend through the new shape
            # Hand over: unlock the parent, keep the child.
            yield from self._unlock_only(cur_addr, cur)
            cur_addr, cur = child_addr, child
        # At a locked, non-full leaf node; laterally move if a racing
        # split shifted our key range right while we were descending.
        if cur.link_addr and cur.link_key and key >= cur.link_key:
            yield from self._unlock_only(cur_addr, cur)
            return _RETRY
        entries = list(zip(cur.keys, cur.addrs))
        existing = cur.find_key_index(key)
        if existing is not None:
            blob_addr = cur.addrs[existing]
            leaf = yield from leaf_ops.read_leaf(blob_addr, 2,
                                                 retry=self.config.retry)
            yield from self._unlock_only(cur_addr, cur)
            if leaf.status != STATUS_IDLE:
                return _RETRY
            ok = yield from leaf_ops.in_place_update(blob_addr, leaf, value)
            return False if ok else _RETRY
        blob_addr = self.cluster.alloc_for_leaf(key, 128)
        entries.append((key, blob_addr))
        entries.sort(key=lambda e: e[0])
        yield Batch([
            WriteOp(blob_addr, _leaf_image(key, value)),
        ])
        yield from self._write_and_unlock(
            cur_addr, True, cur.header.version, entries,
            link=(cur.link_key, cur.link_addr))
        return True

    def _unlock_only(self, addr: int, view: _NodeView):
        header = _Header(STATUS_IDLE, view.header.is_leaf,
                         view.header.count, view.header.version + 1)
        yield WriteOp(addr, u64_to_bytes(header.pack()), lease=("release",))

    def _split_child(self, parent_addr: int, parent: _NodeView,
                     child_index: int, child_addr: int, child: _NodeView):
        """Split a full child (both parent and child are locked)."""
        config = self.config
        entries = list(zip(child.keys, child.addrs))
        mid = config.split_point
        left, right = entries[:mid], entries[mid:]
        separator = right[0][0]
        right_addr = self.index._alloc_node()
        right_image = _encode_node(config, STATUS_IDLE,
                                   child.header.is_leaf, 0, right,
                                   link=(child.link_key, child.link_addr))
        left_image = _encode_node(config, STATUS_IDLE,
                                  child.header.is_leaf,
                                  child.header.version + 1, left,
                                  link=(separator, right_addr))
        parent_entries = list(zip(parent.keys, parent.addrs))
        parent_entries.insert(child_index + 1, (separator, right_addr))
        parent_image = _encode_node(config, STATUS_IDLE, False,
                                    parent.header.version + 1,
                                    parent_entries)
        # Publish right sibling, then rewrite child and parent (both
        # locked by us), releasing the locks with the rewrites.
        yield Batch([WriteOp(right_addr, right_image),
                     WriteOp(child_addr, left_image, lease=("release",)),
                     WriteOp(parent_addr, parent_image,
                             lease=("release",))])
        self.metrics["splits"] += 1

    def _split_root(self, root_addr: int, root: _NodeView):
        """Split a full root: move entries into two children, keep the
        root's address stable (the root pointer cell never changes)."""
        config = self.config
        entries = list(zip(root.keys, root.addrs))
        mid = config.split_point
        left, right = entries[:mid], entries[mid:]
        left_addr = self.index._alloc_node()
        right_addr = self.index._alloc_node()
        new_root_entries = [(bytes(config.key_width), left_addr),
                            (right[0][0], right_addr)]
        yield Batch([
            WriteOp(left_addr, _encode_node(
                config, STATUS_IDLE, root.header.is_leaf, 0, left,
                link=(right[0][0], right_addr))),
            WriteOp(right_addr, _encode_node(
                config, STATUS_IDLE, root.header.is_leaf, 0, right,
                link=(root.link_key, root.link_addr))),
        ])
        yield WriteOp(root_addr, _encode_node(
            config, STATUS_IDLE, False, root.header.version + 1,
            new_root_entries), lease=("release",))
        self.metrics["splits"] += 1

    # -- scan ------------------------------------------------------------------
    def scan_count(self, start_key: bytes, count: int):
        """First ``count`` pairs with key >= start_key (best effort)."""
        start = self.index.pad_key(start_key)
        for attempt in range(self.config.retry.max_retries):
            results: List[Tuple[bytes, bytes]] = []
            try:
                yield from self._scan_node_ptr(None, start, count, results)
            except InjectedFault:
                self.metrics["restarts"] += 1
                yield LocalCompute(self._backoff(attempt))
                continue
            return results[:count]
        raise RetryLimitExceeded(f"bplus scan({start_key!r})",
                                 addr=self.index.root_ptr_addr)

    def _scan_node_ptr(self, addr: Optional[int], start: bytes, count: int,
                       results: List[Tuple[bytes, bytes]]):
        if addr is None:
            addr_, view = yield from self._read_root()
        else:
            view = yield from self._read_node(addr)
        if view.header.is_leaf:
            if view.link_addr and view.link_key and start >= view.link_key:
                yield from self._scan_node_ptr(view.link_addr, start, count,
                                               results)
                return
            pending = [(k, a) for k, a in zip(view.keys, view.addrs)
                       if k >= start]
            if pending:
                blobs = yield Batch([ReadOp(a, 128) for _k, a in pending])
                for (_k, a), blob in zip(pending, blobs):
                    from ..art.layout import decode_leaf
                    leaf = decode_leaf(blob)
                    if leaf.checksum_ok and leaf.status == STATUS_IDLE:
                        results.append((leaf.key, leaf.value))
            return
        start_index = view.find_child_index(start) if view.keys else 0
        for i in range(start_index, len(view.addrs)):
            if len(results) >= count:
                return
            yield from self._scan_node_ptr(view.addrs[i], start, count,
                                           results)


def _leaf_image(key: bytes, value: bytes) -> bytes:
    from ..art.layout import encode_leaf
    return encode_leaf(key, value, units=2)


_RETRY = object()
