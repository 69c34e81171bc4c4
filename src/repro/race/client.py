"""CN-side client of the one-sided extendible hash table.

All methods are op generators (see :mod:`repro.dm.rdma`): they yield RDMA
verbs and can be driven untimed (:class:`DirectExecutor`) or under the
simulation clock (:class:`SimExecutor`).

Concurrency protocol
--------------------

* **Lookup**: one READ of the key's bucket group.  A ``locked`` header
  means a split is migrating this segment - back off and retry.  A header
  ``local_depth`` differing from the cached directory entry means the
  cache is stale - refresh and retry.
* **Insert**: READ the group, pick a free slot, then a doorbell batch of
  [CAS(slot, 0, entry), READ(header)].  The two verbs target the same MN
  and execute in posted order, so the header read observes the post-CAS
  state: if the version moved or the group is locked, a split raced the
  insert and the entry may have landed in a stale segment - the client
  undoes the CAS and retries.
* **Split** (triggered by inserting into a full group): lock every group
  header in the segment with CASes, re-read the segment, write a fresh
  sibling segment containing the entries whose hash bit ``local_depth``
  is set (recoverable from fp2 alone - see :mod:`repro.race.layout`),
  repoint every mirrored directory slot, then clear migrated entries and
  unlock with bumped versions.

The client keeps a **directory cache** (the paper sizes it at 2-5 % of
the filter cache); it indexes the preallocated max-depth directory, so
stale global depth is never an issue - only per-entry staleness, healed
on demand.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..art.layout import HashEntry
from ..dm.cluster import Cluster
from ..dm.rdma import Batch, CasOp, LocalCompute, ReadOp, WriteOp
from ..errors import HashTableError, InjectedFault, RetryLimitExceeded
from ..fault.retry import DEFAULT_RETRY, RetryPolicy
from ..util.bits import u64_from_bytes, u64_to_bytes
from .layout import (
    DIR_ENTRY,
    ENTRY_SIZE,
    GROUP_HEADER,
    HEADER_SIZE,
    TableInfo,
    fp2_of,
    group_index,
    key_hash,
    segment_index,
)
from .table import allocate_segment

@dataclass
class DirCacheEntry:
    seg_addr: int
    local_depth: int


_OCC = 1 << 63


@dataclass
class GroupView:
    """A decoded bucket group (entry words decoded lazily - hot path)."""

    addr: int
    local_depth: int
    locked: bool
    version: int
    words: Tuple[int, ...]            # slots_per_group raw entry words

    @property
    def entries(self) -> List[HashEntry]:
        return [HashEntry.unpack(w) for w in self.words]

    def slot_addr(self, index: int) -> int:
        return self.addr + HEADER_SIZE + index * ENTRY_SIZE

    def matches(self, fp2: int) -> List[Tuple[int, HashEntry]]:
        return [(self.slot_addr(i), HashEntry.unpack(w))
                for i, w in enumerate(self.words)
                if w & _OCC and ((w >> 48) & 0xFFF) == fp2]

    def free_index(self) -> Optional[int]:
        for i, w in enumerate(self.words):
            if not w & _OCC:
                return i
        return None


_GROUP_STRUCTS: Dict[int, struct.Struct] = {}


def _group_struct(slots_per_group: int) -> struct.Struct:
    """Header+slots unpacker, cached at module scope: ``struct.Struct``
    objects cannot be deepcopied, so clients must not hold one."""
    unpacker = _GROUP_STRUCTS.get(slots_per_group)
    if unpacker is None:
        unpacker = _GROUP_STRUCTS[slots_per_group] = struct.Struct(
            f"<{1 + slots_per_group}Q")
    return unpacker


class RaceClient:
    """One client's view of one MN-resident table."""

    def __init__(self, cluster: Cluster, info: TableInfo,
                 retry: RetryPolicy | None = None):
        """``cluster`` provisions split segments on the table's MN
        (control-plane; see DESIGN.md) and is the clock op deadlines
        are read from."""
        self.cluster = cluster
        self.info = info
        self.params = info.params
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.retry.validate()
        self._dir_cache: Dict[int, DirCacheEntry] = {}
        self.splits = 0
        self.stale_refreshes = 0

    def counters(self):
        """Snapshot into the shared :class:`repro.obs.Counters` shape."""
        from ..obs.counters import Counters
        return Counters({"splits": self.splits,
                         "stale_refreshes": self.stale_refreshes,
                         "directory_cache_entries": len(self._dir_cache)})

    # -- directory cache ------------------------------------------------
    def directory_cache_bytes(self) -> int:
        """CN-side memory the directory cache occupies (8 B per entry)."""
        return 8 * len(self._dir_cache)

    def _dir_index(self, h: int) -> int:
        return segment_index(h, self.params.max_depth)

    def _refresh_dir(self, h: int):
        idx = self._dir_index(h)
        word = u64_from_bytes(
            (yield ReadOp(self.info.dir_addr + idx * 8, 8)))
        fields = DIR_ENTRY.unpack(word)
        if not fields["occupied"]:
            # Under fault injection a crashed/blanked MN can wipe the
            # directory; report it as a retryable-path failure rather
            # than a protocol bug so callers contain it uniformly.
            raise RetryLimitExceeded(f"unoccupied directory slot {idx}",
                                     addr=self.info.dir_addr + idx * 8)
        entry = DirCacheEntry(fields["addr"], fields["local_depth"])
        self._dir_cache[idx] = entry
        self.stale_refreshes += 1
        return entry

    def _locate(self, h: int):
        idx = self._dir_index(h)
        entry = self._dir_cache.get(idx)
        if entry is None:
            entry = yield from self._refresh_dir(h)
        return entry

    def _group_addr(self, seg_addr: int, h: int) -> int:
        g = group_index(h, self.params.groups_per_segment)
        return seg_addr + self.params.group_offset(g)

    # -- group IO ------------------------------------------------------
    def _parse_group(self, addr: int, data: bytes) -> GroupView:
        words = _group_struct(self.params.slots_per_group).unpack_from(
            data, 0)
        header = words[0]
        # Hand-decoded GROUP_HEADER: local_depth(8) | locked(1) | version(40).
        return GroupView(addr, header & 0xFF, bool((header >> 8) & 1),
                         (header >> 9) & ((1 << 40) - 1), words[1:])

    def _read_group(self, key: bytes, h: int, deadline: Optional[int]):
        """Read + validate the group for ``h``; retries around splits
        (and, under fault injection, around dropped/NAKed reads) until
        the caller's ``deadline``."""
        attempts = self.retry.attempts(self.cluster, "group read", key,
                                       deadline)
        for _ in attempts:
            try:
                cached = yield from self._locate(h)
                addr = self._group_addr(cached.seg_addr, h)
                group = self._parse_group(
                    addr, (yield ReadOp(addr, self.params.group_size)))
                if group.locked:  # a split is migrating the segment
                    yield attempts.pause(self.retry.flat_delay())
                elif group.local_depth == cached.local_depth:
                    return group
                yield from self._refresh_dir(h)
            except InjectedFault:
                yield attempts.pause(self.retry.flat_delay())

    # -- public operations ---------------------------------------------
    # ``deadline``: the enclosing op's absolute deadline; None makes the
    # call an op of its own (repro.fault.retry.RetryPolicy.attempts).
    def lookup(self, key: bytes, deadline: Optional[int] = None):
        """All entries whose fp2 matches ``key`` -> [(slot_addr, entry)]."""
        h = key_hash(key, self.params.seed)
        group = yield from self._read_group(key, h, deadline)
        return group.matches(fp2_of(h))

    def insert(self, key: bytes, entry: HashEntry,
               deadline: Optional[int] = None):
        """Install ``entry`` for ``key``; returns the slot address."""
        h = key_hash(key, self.params.seed)
        if entry.fp2 != fp2_of(h):
            raise HashTableError("entry fp2 inconsistent with key hash")
        attempts = self.retry.attempts(self.cluster, "insert", key, deadline)
        for _ in attempts:
            try:
                group = yield from self._read_group(key, h, attempts.deadline)
                free = group.free_index()
                if free is None:
                    yield from self._split(h)
                    continue
                slot_addr = group.slot_addr(free)
                cas_result, header_bytes = yield Batch([
                    CasOp(slot_addr, 0, entry.pack()),
                    ReadOp(group.addr, HEADER_SIZE),
                ])
                swapped, _old = cas_result
                if not swapped:
                    continue  # another insert took the slot
                fields = GROUP_HEADER.unpack(u64_from_bytes(header_bytes))
                if fields["locked"] or fields["version"] != group.version:
                    # A split raced us; our entry may now be in the wrong
                    # segment.  Undo and retry through the fresh directory.
                    undone, _ = yield CasOp(slot_addr, entry.pack(), 0)
                    yield from self._refresh_dir(h)
                    if not undone:
                        # The split migrated our entry to the sibling
                        # segment before we could take it back: the insert
                        # is durably installed there.  Retrying would plant
                        # a duplicate, so find the entry's new home instead.
                        group = yield from self._read_group(
                            key, h, attempts.deadline)
                        for new_slot, moved in group.matches(entry.fp2):
                            if moved.pack() == entry.pack():
                                return new_slot
                        # A concurrent delete removed it in the window; the
                        # retry loop reinstalls it.
                    continue
                return slot_addr
            except InjectedFault:
                yield attempts.pause(self.retry.flat_delay())

    def cas_entry(self, slot_addr: int, old: HashEntry, new: HashEntry):
        """Atomically replace an entry in place (node type switches)."""
        swapped, _ = yield CasOp(slot_addr, old.pack(), new.pack())
        return swapped

    def delete(self, key: bytes, node_addr: int):
        """Remove the entry for ``key`` pointing at ``node_addr``."""
        h = key_hash(key, self.params.seed)
        attempts = self.retry.attempts(self.cluster, "delete", key)
        for _ in attempts:
            try:
                group = yield from self._read_group(key, h, attempts.deadline)
                targets = [(sa, e) for sa, e in group.matches(fp2_of(h))
                           if e.addr == node_addr]
                if not targets:
                    return False
                slot_addr, entry = targets[0]
                swapped, _ = yield CasOp(slot_addr, entry.pack(), 0)
                if swapped:
                    return True
            except InjectedFault:
                yield attempts.pause(self.retry.flat_delay())

    # -- piggybacked single-shot insert ------------------------------------
    def cached_group_location(self, key: bytes):
        """(group_addr, h, local_depth) from the directory cache only;
        None when cold.  Lets callers piggyback the group read onto an
        unrelated doorbell batch (no network, no staleness risk beyond
        what probe_parse/insert_into_group re-verify)."""
        h = key_hash(key, self.params.seed)
        cached = self._dir_cache.get(self._dir_index(h))
        if cached is None:
            return None
        return self._group_addr(cached.seg_addr, h), h, cached.local_depth

    def insert_into_group(self, key: bytes, entry: HashEntry,
                          group: GroupView):
        """One CAS attempt into a group read earlier (piggybacked).

        Returns True if the entry was installed; False sends the caller
        to the full :meth:`insert` path.
        """
        free = group.free_index()
        if free is None:
            return False
        slot_addr = group.slot_addr(free)
        cas_result, header_bytes = yield Batch([
            CasOp(slot_addr, 0, entry.pack()),
            ReadOp(group.addr, HEADER_SIZE),
        ])
        swapped, _old = cas_result
        if not swapped:
            return False
        fields = GROUP_HEADER.unpack(u64_from_bytes(header_bytes))
        if fields["locked"] or fields["version"] != group.version:
            undone, _ = yield CasOp(slot_addr, entry.pack(), 0)
            if not undone:
                # The racing split migrated the entry to the sibling
                # segment: it is durably installed, so reporting failure
                # (and sending the caller to the full insert path) would
                # plant a duplicate.
                return True
            return False
        return True

    # -- batched probing ---------------------------------------------------
    def probe_prepare(self, key: bytes):
        """Resolve the bucket-group address for ``key`` (warms the
        directory cache).  Returns (group_addr, h, cached_local_depth);
        callers batch the actual group reads across many keys/tables."""
        h = key_hash(key, self.params.seed)
        cached = yield from self._locate(h)
        return self._group_addr(cached.seg_addr, h), h, cached.local_depth

    def probe_read_op(self, group_addr: int) -> ReadOp:
        return ReadOp(group_addr, self.params.group_size)

    def probe_parse(self, group_addr: int, data: bytes, h: int,
                    cached_local_depth: int):
        """Parse a batched group read.  Returns the fp2 matches, or None
        if the group was locked/stale (caller falls back to lookup())."""
        group = self._parse_group(group_addr, data)
        if group.locked or group.local_depth != cached_local_depth:
            return None
        return group.matches(fp2_of(h))

    # -- split -----------------------------------------------------------
    def _segment_groups(self, seg_addr: int, data: bytes) -> List[GroupView]:
        return [self._parse_group(seg_addr + self.params.group_offset(g),
                                  data[self.params.group_offset(g):
                                       self.params.group_offset(g + 1)])
                for g in range(self.params.groups_per_segment)]

    def _split(self, h: int):
        """Split the segment containing ``h``; returns when done or after
        losing the lock race (caller simply retries its insert)."""
        params = self.params
        cached = yield from self._locate(h)
        seg_addr, local_depth = cached.seg_addr, cached.local_depth
        if local_depth >= params.max_depth:
            raise HashTableError(
                "table reached max depth; increase initial_depth or geometry")
        # Phase 1: lock every group in the segment.
        seg_data = yield ReadOp(seg_addr, params.segment_size)
        groups = self._segment_groups(seg_addr, seg_data)
        if any(g.locked for g in groups) or \
                groups[0].local_depth != local_depth:
            yield LocalCompute(self.retry.flat_delay())
            yield from self._refresh_dir(h)
            return
        lock_results = yield Batch([
            CasOp(g.addr,
                  GROUP_HEADER.pack(local_depth=local_depth, locked=0,
                                    version=g.version),
                  GROUP_HEADER.pack(local_depth=local_depth, locked=1,
                                    version=g.version + 1),
                  lease=("hash", seg_addr, local_depth))
            for g in groups
        ])
        won = [swapped for swapped, _ in lock_results]
        if not all(won):
            # Lost the race: roll back the headers we did lock.
            undo = [CasOp(g.addr,
                          GROUP_HEADER.pack(local_depth=local_depth, locked=1,
                                            version=g.version + 1),
                          GROUP_HEADER.pack(local_depth=local_depth, locked=0,
                                            version=g.version),
                          lease=("release",))
                    for g, w in zip(groups, won) if w]
            if undo:
                yield Batch(undo)
            yield LocalCompute(self.retry.flat_delay())
            return
        # Phase 2: stable re-read under the lock.
        seg_data = yield ReadOp(seg_addr, params.segment_size)
        groups = self._segment_groups(seg_addr, seg_data)
        new_depth = local_depth + 1
        move_bit = 1 << local_depth
        # Phase 3: build and publish the sibling segment.
        new_seg_addr = allocate_segment(self.cluster, self.info.mn_id,
                                        params, new_depth)
        new_seg = bytearray()
        moved_slots: List[int] = []
        for group in groups:
            blob = bytearray(u64_to_bytes(GROUP_HEADER.pack(
                local_depth=new_depth, locked=0, version=0)))
            for i, entry in enumerate(group.entries):
                if entry.occupied and entry.fp2 & move_bit:
                    blob += u64_to_bytes(entry.pack())
                    moved_slots.append(group.slot_addr(i))
                else:
                    blob += bytes(8)
            blob += bytes(params.group_size - len(blob))
            new_seg += blob
        yield WriteOp(new_seg_addr, bytes(new_seg))
        # Phase 4: repoint mirrored directory slots (we hold the lock).
        old_pattern = segment_index(h, local_depth)
        new_pattern = old_pattern | move_bit
        stride = 1 << new_depth
        dir_writes = []
        for idx in range(new_pattern, params.directory_slots, stride):
            word = DIR_ENTRY.pack(addr=new_seg_addr, local_depth=new_depth,
                                  occupied=1)
            dir_writes.append(WriteOp(self.info.dir_addr + idx * 8,
                                      u64_to_bytes(word)))
            self._dir_cache[idx] = DirCacheEntry(new_seg_addr, new_depth)
        for idx in range(old_pattern, params.directory_slots, stride):
            word = DIR_ENTRY.pack(addr=seg_addr, local_depth=new_depth,
                                  occupied=1)
            dir_writes.append(WriteOp(self.info.dir_addr + idx * 8,
                                      u64_to_bytes(word)))
            self._dir_cache[idx] = DirCacheEntry(seg_addr, new_depth)
        yield Batch(dir_writes)
        # Phase 5: clear migrated entries, then unlock with bumped depth.
        finalize = [WriteOp(slot, bytes(8)) for slot in moved_slots]
        finalize += [WriteOp(g.addr, u64_to_bytes(GROUP_HEADER.pack(
            local_depth=new_depth, locked=0, version=g.version + 2)),
            lease=("release",))
            for g in groups]
        yield Batch(finalize)
        self.splits += 1

    # -- crash recovery ----------------------------------------------------
    def recover_segment(self, seg_addr: int, stale_depth: int):
        """Repair a split whose owner crashed mid-protocol.

        Called by :class:`repro.recover.RecoveryManager` for a segment
        with expired ``("hash", seg_addr, depth)`` leases.  The phase the
        dead client reached is recoverable from remote state alone:

        * no group header locked - the split finished (or never locked);
          nothing to do;
        * directory slot ``new_pattern`` already points at a sibling at
          ``new_depth`` - phase 4 started, and because batch members
          apply in posted order the sibling segment (phase 3) is fully
          published: **roll forward** (finish the directory writes, clear
          migrated entries, unlock at ``new_depth``);
        * otherwise no reader can have observed the sibling: **roll
          back** (unlock every locked header at its old depth).

        Ownership is taken with a fencing CAS on the first locked header
        (version bump); losing it means the owner is alive or another
        recoverer won - return ``"raced"`` and let the caller retry.
        Returns one of ``"clean"``, ``"raced"``, ``"rolled_back"``,
        ``"rolled_forward"``.
        """
        params = self.params
        seg_data = yield ReadOp(seg_addr, params.segment_size)
        groups = self._segment_groups(seg_addr, seg_data)
        locked = [g for g in groups if g.locked]
        if not locked:
            return "clean"
        old_depth = locked[0].local_depth
        if old_depth != stale_depth:
            # The crashed split already finished and a *later* generation
            # holds these locks; it is not ours to repair.
            return "raced"
        new_depth = old_depth + 1
        move_bit = 1 << old_depth
        # Fence: bump the first locked header's version under CAS.  This
        # both excludes a still-live owner (its phase-5 unlock CAS-free
        # writes would now collide harmlessly with ours, but its undo
        # CASes would fail) and grants this client DMSan ownership of the
        # hash-table category for the plain repair writes below.
        fence = locked[0]
        fence_word = GROUP_HEADER.pack(local_depth=old_depth, locked=1,
                                       version=fence.version + 1)
        swapped, _ = yield CasOp(
            fence.addr,
            GROUP_HEADER.pack(local_depth=old_depth, locked=1,
                              version=fence.version),
            fence_word)
        if not swapped:
            return "raced"
        fence_version = fence.version + 1
        # Read the whole directory: mirrored slots pointing at seg_addr
        # give old_pattern; slot new_pattern decides forward vs back.
        dir_bytes = yield ReadOp(self.info.dir_addr,
                                 params.directory_slots * 8)
        entries = [DIR_ENTRY.unpack(u64_from_bytes(dir_bytes[i * 8:
                                                             i * 8 + 8]))
                   for i in range(params.directory_slots)]
        seg_idxs = [i for i, e in enumerate(entries)
                    if e["occupied"] and e["addr"] == seg_addr]
        if not seg_idxs:
            raise HashTableError(
                f"segment {seg_addr:#x} unreachable from directory")
        old_pattern = seg_idxs[0] & (move_bit - 1)
        new_pattern = old_pattern | move_bit
        sibling = entries[new_pattern]
        stride = 1 << new_depth
        if sibling["occupied"] and sibling["addr"] != seg_addr \
                and sibling["local_depth"] == new_depth:
            # Roll forward.  Phase 4 writes new-pattern slots first, so a
            # published sibling here implies phase 3 completed; redo the
            # (idempotent) directory writes, clear migrated entries, and
            # unlock everything at new_depth.
            new_seg_addr = sibling["addr"]
            dir_writes = []
            for idx in range(new_pattern, params.directory_slots, stride):
                word = DIR_ENTRY.pack(addr=new_seg_addr,
                                      local_depth=new_depth, occupied=1)
                dir_writes.append(WriteOp(self.info.dir_addr + idx * 8,
                                          u64_to_bytes(word)))
                self._dir_cache[idx] = DirCacheEntry(new_seg_addr, new_depth)
            for idx in range(old_pattern, params.directory_slots, stride):
                word = DIR_ENTRY.pack(addr=seg_addr,
                                      local_depth=new_depth, occupied=1)
                dir_writes.append(WriteOp(self.info.dir_addr + idx * 8,
                                          u64_to_bytes(word)))
                self._dir_cache[idx] = DirCacheEntry(seg_addr, new_depth)
            yield Batch(dir_writes)
            finalize = []
            for group in groups:
                for i, entry in enumerate(group.entries):
                    if entry.occupied and entry.fp2 & move_bit:
                        finalize.append(WriteOp(group.slot_addr(i),
                                                bytes(8)))
            # Headers last, fence last of all: its word is what grants
            # the sanitizer lockset, so release it after every other
            # repair write has landed.
            for group in groups:
                if group.addr == fence.addr:
                    continue
                finalize.append(WriteOp(group.addr, u64_to_bytes(
                    GROUP_HEADER.pack(local_depth=new_depth, locked=0,
                                      version=group.version + 2))))
            finalize.append(WriteOp(fence.addr, u64_to_bytes(
                GROUP_HEADER.pack(local_depth=new_depth, locked=0,
                                  version=fence_version + 2))))
            yield Batch(finalize)
            self.splits += 1
            return "rolled_forward"
        # Roll back: unlock every locked header at its old depth with a
        # bumped version (never restore the pre-lock version - a reader
        # holding the old version must still see "something changed").
        unlock = []
        for group in locked:
            if group.addr == fence.addr:
                continue
            unlock.append(WriteOp(group.addr, u64_to_bytes(
                GROUP_HEADER.pack(local_depth=old_depth, locked=0,
                                  version=group.version + 1))))
        unlock.append(WriteOp(fence.addr, u64_to_bytes(
            GROUP_HEADER.pack(local_depth=old_depth, locked=0,
                              version=fence_version + 1))))
        yield Batch(unlock)
        return "rolled_back"
