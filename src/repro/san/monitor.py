"""The DMSan access monitor: dynamic race/protocol analysis for RDMA verbs.

The monitor is an :class:`repro.dm.rdma.Observer` (see
:meth:`repro.dm.cluster.Cluster.attach`): every verb any client posts
reaches it as one :class:`repro.dm.rdma.VerbRecord`, three times - at
**post** (the client posts the work request), at **apply** (the MN NIC
executes the memory side effect), and at **complete** (the completion
reaches the client).  A verb the MN never saw changed nothing and is
ignored.  Allocator traffic arrives through
``on_alloc``/``on_free``/``on_retire``.  From this event stream the
monitor runs four online analyses:

1. **Lockset / ownership** - a plain ``WriteOp`` to a *published* object
   (one that a second client has observed) must come from a client that
   currently holds a CAS-acquired word inside that object.  The lock
   protocol is *learned*, not declared: a successful CAS grants ownership
   of the word, and a later plain write that stores a different value than
   the CAS installed releases it (the unlock/invalidate pattern).
   Categories in ``EXTERNAL_SYNC_CATEGORIES`` (the RACE
   directory, repointed under the old segment's group locks) only require
   the writer to hold *some* CAS word somewhere.
2. **Torn reads** - a ``ReadOp`` whose service interval overlaps a
   concurrent ``WriteOp`` from another client on overlapping bytes would
   tear on real hardware.  Overlap confined to one aligned 8-byte word is
   benign (NIC atomicity unit); categories in
   ``TEAR_TOLERANT_CATEGORIES`` carry their own tear detector (leaf CRC)
   and are counted, not flagged.
3. **Atomic-word hygiene** - unaligned CAS/FAA, and plain reads/writes
   that *partially* overlap a word some client targets with CAS/FAA
   (full 8-byte coverage is the legitimate unlock pattern).  Per-word
   version counters additionally surface ABA patterns as warnings.
4. **Use-after-free** - verbs landing in freed objects.  Reads of freed
   ``CHECKSUMMED_CATEGORIES`` objects degrade to stale-read warnings
   (the shipped protocols free leaves that stale pointers may still
   reach, and defend with checksum + key validation).

Creator/publication model: the *creator* of an object is the first client
to write or CAS it (never the first reader - a stale read of recycled
memory must not claim ownership).  The object becomes *published* once a
different client touches it.  Unpublished objects are private and writes
to them are never flagged, which is what keeps initialization traffic
(building a node image before linking it in) silent.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dm.memory import format_addr, make_addr
from ..dm.rdma import CasOp, Observer, ReadOp, VerbRecord, WriteOp
from .report import ABA, ATOMIC_MIX, CHECKSUMMED_CATEGORIES, \
    EXTERNAL_SYNC_CATEGORIES, STALE_READ, TEAR_TOLERANT_CATEGORIES, \
    TORN_READ, UNLOCKED_WRITE, USE_AFTER_FREE, WRITE_AFTER_FREE, SanConfig, \
    SanReport, Violation, raise_or_record, warn

_WORD = 8


@dataclass
class _Object:
    """One tracked allocation (addresses are 48-bit global)."""
    addr: int
    size: int
    category: str
    creator: Optional[str] = None
    published: bool = False
    freed: bool = False
    retired: bool = False

    @property
    def end(self) -> int:
        return self.addr + self.size


@dataclass
class _AtomicWord:
    """A word some client has targeted with CAS/FAA."""
    version: int = 0
    # client -> (version at observation, value the client believes is there)
    observations: Dict[str, Tuple[int, int]] = field(default_factory=dict)


class AccessMonitor(Observer):
    """DMSan's event sink and analysis engine.

    Attach via :meth:`repro.dm.cluster.Cluster.attach_sanitizer` *before*
    building an index so every allocation is tracked.  Inspect
    :attr:`report` afterwards, or run with
    ``SanConfig(on_violation="raise")`` to fail fast.
    """

    def __init__(self, config: SanConfig | None = None):
        self.config = config if config is not None else SanConfig()
        self.report = SanReport()
        # Object map, ordered by global address for overlap queries.
        self._obj_addrs: List[int] = []
        self._objects: Dict[int, _Object] = {}
        # Atomic-word registry: global aligned address -> state.
        self._atomic: Dict[int, _AtomicWord] = {}
        # Lockset: client -> {word global addr: value the CAS installed}.
        self._owned: Dict[str, Dict[int, int]] = {}
        # Torn-read tracking.
        self._inflight_reads: List[VerbRecord] = []
        self._inflight_writes: List[VerbRecord] = []
        self._done_writes: List[VerbRecord] = []

    def check_clean(self) -> None:
        """Raise :class:`repro.errors.SanViolation` unless the run is clean."""
        if not self.report.clean:
            from ..errors import SanViolation
            lines = [self.report.summary()] + self.report.render_violations()
            raise SanViolation("\n".join(lines))

    def summary(self) -> str:
        return self.report.summary()

    # -- allocator events -----------------------------------------------
    def on_alloc(self, mn_id: int, offset: int, size: int,
                 category: str) -> None:
        addr = make_addr(mn_id, offset)
        end = addr + size
        self._evict_objects(addr, end)
        # Recycled memory is fresh: forget atomic-word history and revoke
        # any (stale) ownership of words inside the new block.
        first_word = addr - (addr % _WORD)
        for word in range(first_word, end, _WORD):
            if self._atomic.pop(word, None) is not None:
                for owned in self._owned.values():
                    owned.pop(word, None)
        obj = _Object(addr, size, category)
        self._objects[addr] = obj
        bisect.insort(self._obj_addrs, addr)
        self.report.objects_tracked += 1

    def on_free(self, mn_id: int, offset: int, size: int,
                category: str) -> None:
        addr = make_addr(mn_id, offset)
        obj = self._objects.get(addr)
        if obj is None:
            # Freed block allocated before the monitor attached: track it
            # from here on so use-after-free is still caught.
            obj = _Object(addr, size, category, freed=True)
            self._objects[addr] = obj
            bisect.insort(self._obj_addrs, addr)
        obj.freed = True
        self.report.objects_freed += 1

    def on_retire(self, mn_id: int, offset: int, size: int,
                  category: str) -> None:
        addr = make_addr(mn_id, offset)
        obj = self._objects.get(addr)
        if obj is not None:
            obj.retired = True
        self.report.objects_retired += 1

    def _evict_objects(self, addr: int, end: int) -> None:
        for obj in self._find_objects(addr, end - addr):
            del self._obj_addrs[bisect.bisect_left(self._obj_addrs, obj.addr)]
            del self._objects[obj.addr]

    def _find_objects(self, addr: int, size: int = 1) -> List[_Object]:
        """Every tracked object overlapping ``[addr, addr + size)``, in
        address order (tracked objects never overlap each other)."""
        addrs = self._obj_addrs
        idx = bisect.bisect_right(addrs, addr) - 1
        if idx < 0 or self._objects[addrs[idx]].end <= addr:
            idx += 1
        end = addr + size
        found = []
        while idx < len(addrs) and addrs[idx] < end:
            found.append(self._objects[addrs[idx]])
            idx += 1
        return found

    # -- verb events ----------------------------------------------------
    def on_post(self, rec: VerbRecord) -> None:
        if isinstance(rec.op, WriteOp):
            self._inflight_writes.append(rec)
        elif isinstance(rec.op, ReadOp):
            self._inflight_reads.append(rec)

    def on_apply(self, rec: VerbRecord) -> None:
        op = rec.op
        self.report.events += 1
        if isinstance(op, ReadOp):
            self.report.reads += 1
            self._apply_read(rec)
        elif isinstance(op, WriteOp):
            self.report.writes += 1
            self._apply_write(rec)
        else:
            self.report.atomics += 1
            self._apply_atomic(rec)

    def on_complete(self, rec: VerbRecord) -> None:
        if rec.t_applied is None:
            return  # lost before the MN: never posted to us
        op = rec.op
        if isinstance(op, ReadOp):
            self._check_torn(rec)
            self._inflight_reads.remove(rec)
        elif isinstance(op, WriteOp):
            self._inflight_writes.remove(rec)
            self._done_writes.append(rec)
            self._prune_done_writes(rec.t_done)

    # -- analysis: reads ------------------------------------------------
    def _apply_read(self, event: VerbRecord) -> None:
        op = event.op
        objects = self._find_objects(op.addr, op.size)
        if not objects:
            self.report.untracked_accesses += 1
        for obj in objects:
            if obj.creator is not None and event.client != obj.creator:
                obj.published = True
            if obj.freed:
                self._flag_freed_access(event, obj, op.size, is_write=False)
        self._check_partial_words(event, op.addr, op.size)
        # Record what the client now believes registered words hold (feeds
        # the ABA detector).
        data = event.result
        if isinstance(data, (bytes, bytearray)):
            for word, off in self._covered_words(op.addr, op.size):
                state = self._atomic.get(word)
                if state is not None:
                    value = int.from_bytes(data[off:off + _WORD], "little")
                    state.observations[event.client] = (state.version, value)

    def _check_torn(self, read: VerbRecord) -> None:
        op = read.op
        r_end = op.addr + op.size
        for write in self._inflight_writes + self._done_writes:
            if write.client == read.client:
                continue
            # Strict service-interval overlap; an in-flight write will
            # complete no earlier than "now", i.e. after this read.
            if write.t_done is not None and read.t_post >= write.t_done:
                continue
            if write.t_post >= read.t_done:
                continue
            lo = max(op.addr, write.op.addr)
            hi = min(r_end, write.op.addr + len(write.op.data))
            if lo >= hi:
                continue
            if lo // _WORD == (hi - 1) // _WORD:
                continue  # confined to one aligned word: NIC-atomic
            objects = self._find_objects(op.addr, op.size)
            obj = objects[0] if objects else None
            if obj is not None and \
                    obj.category in TEAR_TOLERANT_CATEGORIES:
                self.report.torn_tolerated += 1
                continue
            raise_or_record(self.report, self.config, Violation(
                TORN_READ, read.client, op.addr, op.size, read.t_done,
                f"read [{read.t_post}, {read.t_done}] overlaps write of "
                f"{len(write.op.data)} B at {format_addr(write.op.addr)} "
                f"by {write.client} (overlap {hi - lo} B spans words, "
                f"category={obj.category if obj else '?'})"))
            return  # one violation per read is enough

    def _prune_done_writes(self, now: int) -> None:
        horizon = min((e.t_post for e in self._inflight_reads), default=now)
        horizon = min(horizon, now)
        if len(self._done_writes) > 64:
            self._done_writes = [w for w in self._done_writes
                                 if w.t_done > horizon]

    # -- analysis: writes -----------------------------------------------
    def _apply_write(self, event: VerbRecord) -> None:
        op = event.op
        size = len(op.data)
        objects = self._find_objects(op.addr, size)
        if not objects:
            self.report.untracked_accesses += 1
        for obj in objects:
            if obj.creator is None:
                obj.creator = event.client
            elif event.client != obj.creator:
                obj.published = True
            if obj.freed:
                self._flag_freed_access(event, obj, size, is_write=True)
            elif obj.published and not self._holds_lock(event.client, obj):
                raise_or_record(self.report, self.config, Violation(
                    UNLOCKED_WRITE, event.client, op.addr, size,
                    event.t_applied,
                    f"plain write to published {obj.category!r} object "
                    f"{format_addr(obj.addr)}+{obj.size}B without holding "
                    f"a CAS-acquired word in it"))
        self._check_partial_words(event, op.addr, size)
        # Fully covered registered words: bump version, refresh the
        # writer's observation, and detect the unlock pattern (a write
        # that stores something other than what the writer's CAS
        # installed releases ownership).
        owned = self._owned.get(event.client)
        for word, off in self._covered_words(op.addr, size):
            state = self._atomic.get(word)
            if state is None:
                continue
            value = int.from_bytes(op.data[off:off + _WORD], "little")
            state.version += 1
            state.observations[event.client] = (state.version, value)
            if owned is not None and word in owned and value != owned[word]:
                del owned[word]

    def _holds_lock(self, client: str, obj: _Object) -> bool:
        owned = self._owned.get(client)
        if not owned:
            return False
        if obj.category in EXTERNAL_SYNC_CATEGORIES:
            # Lock lives in a different object (e.g. RACE directory writes
            # guarded by the old segment's group locks).
            return True
        return any(obj.addr <= word < obj.end for word in owned)

    # -- analysis: atomics ----------------------------------------------
    def _apply_atomic(self, event: VerbRecord) -> None:
        op = event.op
        if op.addr % _WORD:
            raise_or_record(self.report, self.config, Violation(
                ATOMIC_MIX, event.client, op.addr, _WORD, event.t_applied,
                f"{type(op).__name__} on unaligned address (atomics act "
                f"on aligned 8-byte words)"))
            return
        state = self._atomic.setdefault(op.addr, _AtomicWord())
        objects = self._find_objects(op.addr, _WORD)
        if not objects:
            self.report.untracked_accesses += 1
        for obj in objects:
            if obj.creator is None:
                obj.creator = event.client
            elif event.client != obj.creator:
                obj.published = True
            if obj.freed:
                self._flag_freed_access(event, obj, _WORD, is_write=True)
        if isinstance(op, CasOp):
            swapped, old = event.result
            if swapped:
                prior = state.observations.get(event.client)
                if prior is not None and prior[1] == op.expected and \
                        state.version - prior[0] >= 2:
                    warn(self.report,
                         f"[{ABA}] t={event.t_applied}ns client="
                         f"{event.client} {format_addr(op.addr)}: CAS "
                         f"succeeded on a value last observed "
                         f"{state.version - prior[0]} mutations ago "
                         f"(value changed and changed back)")
                state.version += 1
                self._owned.setdefault(event.client, {})[op.addr] = \
                    op.desired
                state.observations[event.client] = (state.version,
                                                    op.desired)
            else:
                state.observations[event.client] = (state.version, old)
        else:  # FaaOp - unconditional, grants no ownership
            old = event.result
            state.version += 1
            state.observations[event.client] = \
                (state.version, (old + op.delta) & ((1 << 64) - 1))

    # -- shared helpers --------------------------------------------------
    def _flag_freed_access(self, event: VerbRecord, obj: _Object, size: int,
                           *, is_write: bool) -> None:
        op = event.op
        if obj.category in CHECKSUMMED_CATEGORIES:
            # The shipped protocols free leaves that stale pointers may
            # still reach; readers (and lock CAS) are defended by checksum
            # + key validation, so this is expected traffic, not a bug.
            self.report.stale_reads += 1
            warn(self.report,
                 f"[{STALE_READ}] t={event.t_applied}ns client={event.client} "
                 f"{'write' if is_write else 'read'} of freed "
                 f"{obj.category!r} object {format_addr(obj.addr)}"
                 f"+{obj.size}B")
            return
        kind = WRITE_AFTER_FREE if is_write else USE_AFTER_FREE
        raise_or_record(self.report, self.config, Violation(
            kind, event.client, op.addr, size, event.t_applied,
            f"{type(op).__name__} touches freed {obj.category!r} object "
            f"{format_addr(obj.addr)}+{obj.size}B"))

    def _check_partial_words(self, event: VerbRecord, addr: int,
                             size: int) -> None:
        """Flag plain accesses that partially cover a CAS/FAA word."""
        if size <= 0:
            return
        end = addr + size
        first = addr - (addr % _WORD)
        last = (end - 1) - ((end - 1) % _WORD)
        for word in {first, last}:
            if word not in self._atomic:
                continue
            if word < addr or word + _WORD > end:
                raise_or_record(self.report, self.config, Violation(
                    ATOMIC_MIX, event.client, addr, size, event.t_applied,
                    f"plain {type(event.op).__name__} partially covers "
                    f"atomic word {format_addr(word)} (bytes "
                    f"[{max(addr, word) - word}, "
                    f"{min(end, word + _WORD) - word}) of 8)"))

    @staticmethod
    def _covered_words(addr: int, size: int):
        """(word global addr, byte offset into the access) for every
        aligned 8-byte word fully inside [addr, addr+size)."""
        first = addr if addr % _WORD == 0 else addr + _WORD - (addr % _WORD)
        end = addr + size
        for word in range(first, end - _WORD + 1, _WORD):
            yield word, word - addr
