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
* **Slot writes** - :meth:`RaceClient.insert`, :meth:`~RaceClient.replace`
  (a node type switch repointing its entry), :meth:`~RaceClient.delete`
  and the piggybacked :meth:`~RaceClient.insert_into_group` - are one
  **step**: READ the group, then a doorbell of [CAS(slot, old, new),
  READ(header)].  The two verbs target the same MN and execute in posted
  order, so the header read observes the post-CAS state.  An op is only
  its *rule*: what already holds (insert: the entry word is present;
  replace: the new word is; delete: no entry with that addr remains) and
  which slot to CAS when it does not.
* **One re-check rule.**  A step whose CAS applied under a raced header
  (locked, or version moved), or whose reply was lost (an
  ``InjectedFault``: the CAS may or may not have applied), is
  *ambiguous*: a split may have copied the slot into the sibling segment,
  stranded it in the old one, or will blind-clear it in phase 5.  The
  step takes back a word it may have planted with the inverse CAS (a
  delete plants none: putting its entry back could strand it), refreshes
  the directory, and the op's next attempt re-reads the group and
  re-checks its rule - so it finishes only if its post-state does not
  already hold.  No entry is planted twice, and none that a repoint or a
  delete replaced survives in a sibling.
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
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..art.layout import (
    HASH_ENTRY_ADDR_MASK,
    HASH_ENTRY_FP2_MASK,
    HASH_ENTRY_FP2_SHIFT,
    HASH_ENTRY_OCCUPIED,
)
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


@dataclass
class GroupView:
    """A decoded bucket group.  Entry words stay raw: readers take their
    fields through the ``HASH_ENTRY_*`` masks (``HashEntry.unpack``
    decodes one for introspection)."""

    addr: int
    local_depth: int
    locked: bool
    version: int
    words: Tuple[int, ...]            # slots_per_group raw entry words

    def slot_addr(self, index: int) -> int:
        return self.addr + HEADER_SIZE + index * ENTRY_SIZE

    def matches(self, fp2: int) -> List[Tuple[int, int]]:
        """``(slot_addr, entry_word)`` of every occupied entry whose
        fingerprint is ``fp2``, in slot order."""
        return [(self.slot_addr(i), w)
                for i, w in enumerate(self.words)
                if w & HASH_ENTRY_OCCUPIED
                and ((w >> HASH_ENTRY_FP2_SHIFT) & HASH_ENTRY_FP2_MASK) == fp2]

    def free_slot(self) -> Optional[int]:
        for i, w in enumerate(self.words):
            if not w & HASH_ENTRY_OCCUPIED:
                return self.slot_addr(i)
        return None

    def slot_of(self, word: int) -> Optional[int]:
        """Address of the slot holding exactly ``word`` (occupied)."""
        if word in self.words:
            return self.slot_addr(self.words.index(word))
        return None


class _Write(NamedTuple):
    """The slot write an op's rule asks for: CAS ``slot_addr`` from
    ``old`` to ``new``, then return ``result``.  ``slot_addr`` None means
    the group has no free slot: split it first."""

    slot_addr: Optional[int]
    old: int
    new: int
    result: object


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
        """All entries whose fp2 matches ``key`` -> [(slot_addr, word)]."""
        h = key_hash(key, self.params.seed)
        group = yield from self._read_group(key, h, deadline)
        return group.matches(fp2_of(h))

    def insert(self, key: bytes, word: int,
               deadline: Optional[int] = None):
        """Install the entry ``word`` for ``key``; returns its slot
        address.  An entry already present is not planted twice."""
        h = key_hash(key, self.params.seed)
        fp2 = (word >> HASH_ENTRY_FP2_SHIFT) & HASH_ENTRY_FP2_MASK
        if fp2 != fp2_of(h):
            raise HashTableError("entry fp2 inconsistent with key hash")

        def rule(group: GroupView, _ambiguous: bool):
            held = group.slot_of(word)
            if held is not None:
                return held
            free = group.free_slot()
            return _Write(free, 0, word, free)

        return (yield from self._write_slot("insert", key, h, rule, deadline))

    def replace(self, key: bytes, old_word: int, new_word: int,
                deadline: Optional[int] = None):
        """Repoint ``key``'s entry from ``old_word`` to ``new_word`` (a
        node type switch).  True once ``new_word`` holds; False if
        ``old_word`` was gone, in which case ``new_word`` is installed
        outright."""
        h = key_hash(key, self.params.seed)

        def rule(group: GroupView, _ambiguous: bool):
            if group.slot_of(new_word) is not None:
                return True
            slot = group.slot_of(old_word)
            if slot is not None:
                return _Write(slot, old_word, new_word, True)
            return _Write(group.free_slot(), 0, new_word, False)

        return (yield from self._write_slot("replace", key, h, rule,
                                            deadline))

    def delete(self, key: bytes, node_addr: int):
        """Remove the entry for ``key`` pointing at ``node_addr``.  False
        if there was none (and no ambiguous step of this call may have
        removed it)."""
        h = key_hash(key, self.params.seed)
        fp2 = fp2_of(h)

        def rule(group: GroupView, ambiguous: bool):
            for slot_addr, word in group.matches(fp2):
                if (word & HASH_ENTRY_ADDR_MASK) == node_addr:
                    return _Write(slot_addr, word, 0, True)
            return ambiguous

        return (yield from self._write_slot("delete", key, h, rule, None))

    # -- the one guarded slot write ----------------------------------------
    def _write_slot(self, op: str, key: bytes, h: int, rule,
                    deadline: Optional[int]):
        """The attempt loop of every slot write.  ``rule(group,
        ambiguous)`` returns the op's result when its post-state already
        holds in ``group``, else the :class:`_Write` that makes it hold;
        after an ambiguous :meth:`_step` the next attempt's fresh read is
        the re-check."""
        attempts = self.retry.attempts(self.cluster, op, key, deadline)
        ambiguous = False
        for _ in attempts:
            try:
                group = yield from self._read_group(key, h, attempts.deadline)
                write = rule(group, ambiguous)
                if write.__class__ is not _Write:
                    return write
                if write.slot_addr is None:
                    yield from self._split(h)
                    continue
                applied = yield from self._step(h, group, write)
                if applied:
                    return write.result
                ambiguous = ambiguous or applied is None
            except InjectedFault:
                yield attempts.pause(self.retry.flat_delay())

    def _step(self, h: int, group: GroupView, write: _Write):
        """One [CAS(slot, old, new), READ(header)] doorbell into ``group``.

        True: applied, no split raced it.  False: the CAS lost (the slot
        holds something else; nothing to undo).  None: ambiguous - the
        CAS applied under a raced header, or the reply was lost.  Then a
        word this step may have planted is taken back with the inverse
        CAS (a split copies what it re-reads, and strands what lands
        after its re-read), and the directory is refreshed so the
        caller's re-check reads the group where the key lives now.
        """
        slot_addr, old, new = write.slot_addr, write.old, write.new
        try:
            (swapped, _), header = yield Batch([
                CasOp(slot_addr, old, new),
                ReadOp(group.addr, HEADER_SIZE),
            ])
        except InjectedFault:
            pass  # the CAS may or may not have applied
        else:
            if not swapped:
                return False
            fields = GROUP_HEADER.unpack(u64_from_bytes(header))
            if not fields["locked"] and fields["version"] == group.version:
                return True
        if new:
            _taken_back, _ = yield CasOp(slot_addr, new, old)
        yield from self._refresh_dir(h)
        return None

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

    def insert_into_group(self, key: bytes, word: int, group: GroupView):
        """One :meth:`_step` of the entry ``word`` into a group read
        earlier (piggybacked).

        True if the entry was installed; False sends the caller to
        :meth:`insert`, whose re-check resolves an ambiguous try.
        """
        free = group.free_slot()
        if free is None:
            return False
        h = key_hash(key, self.params.seed)
        try:
            applied = yield from self._step(
                h, group, _Write(free, 0, word, free))
        except InjectedFault:
            return False
        return bool(applied)

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

    def _repoint_directory(self, old_pattern: int, seg_addr: int,
                           new_seg_addr: int, new_depth: int) -> Batch:
        """Phase 4's doorbell: every mirrored directory slot of the split
        pair at ``new_depth``, the sibling's slots first (recovery reads
        slot ``new_pattern`` to tell whether phase 4 began).  The
        directory cache follows."""
        writes = []
        for pattern, addr in ((old_pattern | 1 << (new_depth - 1),
                               new_seg_addr), (old_pattern, seg_addr)):
            word = u64_to_bytes(DIR_ENTRY.pack(addr=addr, local_depth=new_depth,
                                               occupied=1))
            for idx in range(pattern, self.params.directory_slots,
                             1 << new_depth):
                writes.append(WriteOp(self.info.dir_addr + idx * 8, word))
                self._dir_cache[idx] = DirCacheEntry(addr, new_depth)
        return Batch(writes)

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
            for i, word in enumerate(group.words):
                if word & HASH_ENTRY_OCCUPIED \
                        and (word >> HASH_ENTRY_FP2_SHIFT) & move_bit:
                    blob += u64_to_bytes(word)
                    moved_slots.append(group.slot_addr(i))
                else:
                    blob += bytes(8)
            blob += bytes(params.group_size - len(blob))
            new_seg += blob
        yield WriteOp(new_seg_addr, bytes(new_seg))
        # Phase 4: repoint mirrored directory slots (we hold the lock).
        yield self._repoint_directory(segment_index(h, local_depth),
                                      seg_addr, new_seg_addr, new_depth)
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
        sibling = entries[old_pattern | move_bit]
        if sibling["occupied"] and sibling["addr"] != seg_addr \
                and sibling["local_depth"] == new_depth:
            # Roll forward.  Phase 4 writes new-pattern slots first, so a
            # published sibling here implies phase 3 completed; redo the
            # (idempotent) directory writes, clear migrated entries, and
            # unlock everything at new_depth.
            yield self._repoint_directory(old_pattern, seg_addr,
                                          sibling["addr"], new_depth)
            finalize = []
            for group in groups:
                for i, word in enumerate(group.words):
                    if word & HASH_ENTRY_OCCUPIED \
                            and (word >> HASH_ENTRY_FP2_SHIFT) & move_bit:
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
