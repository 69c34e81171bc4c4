"""Simulated memory-node (MN) memory.

Each memory node owns a flat byte-addressable region.  Remote pointers are
the paper's 48-bit addresses: the top 8 bits name the memory node and the
low 40 bits are an offset into its region, so a pointer fits in an 8-byte
slot/hash-entry alongside its metadata (Fig 3).

The allocator is a bump allocator with per-size free lists and
**per-category byte accounting**, which is what makes the space-consumption
experiment (Fig 6) a real measurement rather than an estimate.
"""

from __future__ import annotations

import bisect
import struct
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..errors import BadAddress, DoubleFree, InvalidArgument, OutOfMemory, \
    UseAfterFree

ADDR_BITS = 48
OFFSET_BITS = 40
MN_ID_BITS = ADDR_BITS - OFFSET_BITS
OFFSET_MASK = (1 << OFFSET_BITS) - 1
NULL_ADDR = 0

_U64 = struct.Struct("<Q")


def make_addr(mn_id: int, offset: int) -> int:
    """Pack (memory node, offset) into a 48-bit global address."""
    if not 0 <= mn_id < (1 << MN_ID_BITS):
        raise BadAddress(f"mn_id {mn_id} out of range")
    if not 0 <= offset <= OFFSET_MASK:
        raise BadAddress(f"offset {offset} out of range")
    return (mn_id << OFFSET_BITS) | offset


def addr_mn(addr: int) -> int:
    """The memory node id encoded in a global address."""
    return addr >> OFFSET_BITS


def addr_offset(addr: int) -> int:
    """The within-node offset encoded in a global address."""
    return addr & OFFSET_MASK


def format_addr(addr: int) -> str:
    """Human-readable rendering for logs and error messages."""
    if addr == NULL_ADDR:
        return "NULL"
    return f"mn{addr_mn(addr)}+0x{addr_offset(addr):x}"


class Memory:
    """The DRAM of one memory node.

    Offsets below 64 are reserved so that global address 0 can serve as
    NULL.  ``alloc``/``free`` track net allocated bytes per category
    (``"inner"``, ``"leaf"``, ``"hash_table"`` ...), giving Fig 6 its data.
    """

    def __init__(self, mn_id: int, capacity: int):
        if capacity <= 64:
            raise InvalidArgument(
                "capacity must exceed the 64-byte reserved page")
        self.mn_id = mn_id
        self.capacity = capacity
        # The backing store grows on demand: `capacity` is the logical
        # budget, but committing it eagerly would cost gigabytes of host
        # RAM per simulated MN.
        self._data = bytearray(min(capacity, 1 << 20))
        self._bump = 64  # offset 0..63 reserved: addr 0 == NULL
        self._free_lists: Dict[int, List[int]] = defaultdict(list)
        self.allocated_by_category: Dict[str, int] = defaultdict(int)
        self.alloc_calls = 0
        self.free_calls = 0
        # Freed-region registry: every block currently sitting on a free
        # list, kept sorted by offset for overlap queries.  `free()` of a
        # range overlapping these (or a retired block) is a double free;
        # data-plane verbs landing in these are use-after-free.
        self._freed_offsets: List[int] = []       # sorted
        self._freed_sizes: Dict[int, int] = {}    # offset -> size
        self._retired: Dict[int, int] = {}        # offset -> size
        self.uaf_policy = "flag"                  # "ignore" | "flag" | "raise"
        self.uaf_hits = 0
        self.uaf_samples: List[str] = []
        # The cluster's observers (repro.dm.rdma.Observer), told of
        # every block allocated, freed or retired.
        self.observers: tuple = ()

    # -- freed-region registry -----------------------------------------
    def _freed_overlap(self, offset: int, size: int
                       ) -> Optional[Tuple[int, int]]:
        """The first freed block overlapping [offset, offset+size), if any."""
        if not self._freed_offsets:
            return None
        end = offset + size
        idx = bisect.bisect_right(self._freed_offsets, offset) - 1
        if idx >= 0:
            f_off = self._freed_offsets[idx]
            if f_off + self._freed_sizes[f_off] > offset:
                return f_off, self._freed_sizes[f_off]
        idx += 1
        if idx < len(self._freed_offsets) and self._freed_offsets[idx] < end:
            f_off = self._freed_offsets[idx]
            return f_off, self._freed_sizes[f_off]
        return None

    def _register_freed(self, offset: int, size: int) -> None:
        bisect.insort(self._freed_offsets, offset)
        self._freed_sizes[offset] = size

    def _unregister_freed(self, offset: int) -> None:
        idx = bisect.bisect_left(self._freed_offsets, offset)
        del self._freed_offsets[idx]
        del self._freed_sizes[offset]

    def _check_reclaimable(self, offset: int, size: int, verb: str) -> None:
        hit = self._freed_overlap(offset, size)
        if hit is not None:
            raise DoubleFree(
                f"mn{self.mn_id}: {verb}({offset:#x}, {size}) overlaps "
                f"already-freed block ({hit[0]:#x}, {hit[1]})")
        retired = self._retired.get(offset)
        if retired is not None:
            raise DoubleFree(
                f"mn{self.mn_id}: {verb}({offset:#x}, {size}) targets "
                f"retired block of {retired} B")

    def _flag_uaf(self, offset: int, size: int, kind: str) -> None:
        freed = self._freed_overlap(offset, size)
        if freed is None or self.uaf_policy == "ignore":
            return
        message = (f"mn{self.mn_id}: {kind} of ({offset:#x}, {size}) touches "
                   f"freed block ({freed[0]:#x}, {freed[1]})")
        if self.uaf_policy == "raise":
            raise UseAfterFree(message)
        self.uaf_hits += 1
        if len(self.uaf_samples) < 16:
            self.uaf_samples.append(message)

    # -- allocation ----------------------------------------------------
    def alloc(self, size: int, category: str = "generic") -> int:
        """Allocate ``size`` bytes; returns the within-node offset."""
        if size <= 0:
            raise InvalidArgument("allocation size must be positive")
        self.alloc_calls += 1
        self.allocated_by_category[category] += size
        free_list = self._free_lists.get(size)
        if free_list:
            offset = free_list.pop()
            self._unregister_freed(offset)
            self._data[offset:offset + size] = bytes(size)
        else:
            if self._bump + size > self.capacity:
                raise OutOfMemory(
                    f"mn{self.mn_id}: cannot allocate {size} B "
                    f"({self.capacity - self._bump} B left)"
                )
            offset = self._bump
            self._bump += size
        for obs in self.observers:
            obs.on_alloc(self.mn_id, offset, size, category)
        return offset

    def free(self, offset: int, size: int, category: str = "generic") -> None:
        """Return a block to the per-size free list.

        Freeing a range that overlaps an already freed (or retired) block
        raises :class:`repro.errors.DoubleFree`.
        """
        self._check_range(offset, size)
        self._check_reclaimable(offset, size, "free")
        self.free_calls += 1
        self.allocated_by_category[category] -= size
        self._free_lists[size].append(offset)
        self._register_freed(offset, size)
        for obs in self.observers:
            obs.on_free(self.mn_id, offset, size, category)

    def retire(self, offset: int, size: int, category: str = "generic") -> None:
        """Account a block as freed *without* recycling its memory.

        Stand-in for epoch-based reclamation: a node that was once visible
        to remote readers may still be read through stale pointers, so its
        memory must not be handed to a new allocation until every reader
        has moved past it.  We model the reclamation point as "after the
        run" (the block simply is not reused), which keeps readers safe
        while the per-category accounting still reflects live data.
        """
        self._check_range(offset, size)
        self._check_reclaimable(offset, size, "retire")
        self.free_calls += 1
        self.allocated_by_category[category] -= size
        self._retired[offset] = size
        for obs in self.observers:
            obs.on_retire(self.mn_id, offset, size, category)

    def allocated_bytes(self) -> int:
        """Net live bytes across all categories."""
        return sum(self.allocated_by_category.values())

    def footprint_bytes(self) -> int:
        """High-water mark of the bump allocator (includes freed holes)."""
        return self._bump

    # -- data-plane ops (what RDMA verbs ultimately execute) -----------
    def _check_range(self, offset: int, size: int) -> None:
        if size < 0 or offset < 64 or offset + size > self.capacity:
            raise BadAddress(
                f"mn{self.mn_id}: bad range offset={offset} size={size}"
            )
        end = offset + size
        if end > len(self._data):
            # Commit physical backing in growing steps (power-of-two-ish).
            new_len = max(end, min(self.capacity, 2 * len(self._data)))
            self._data.extend(bytes(new_len - len(self._data)))

    # The data-plane verbs below inline the happy path of _check_range:
    # the backing never outgrows `capacity`, so a well-formed range
    # inside it needs no call; anything else (growth, BadAddress) goes
    # through it.
    def read(self, offset: int, size: int) -> bytes:
        if size < 0 or offset < 64 or offset + size > len(self._data):
            self._check_range(offset, size)
        if self._freed_offsets:
            self._flag_uaf(offset, size, "read")
        # memoryview slice -> one copy; a bytearray slice plus bytes()
        # would copy the payload twice per verb.
        return memoryview(self._data)[offset:offset + size].tobytes()

    def write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 64 or end > len(self._data):
            self._check_range(offset, len(data))
        if self._freed_offsets:
            self._flag_uaf(offset, len(data), "write")
        self._data[offset:end] = data

    def read_u64(self, offset: int) -> int:
        self._check_range(offset, 8)
        if self._freed_offsets:
            self._flag_uaf(offset, 8, "read_u64")
        return _U64.unpack_from(self._data, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self._check_range(offset, 8)
        if self._freed_offsets:
            self._flag_uaf(offset, 8, "write_u64")
        _U64.pack_into(self._data, offset, value)

    def cas_u64(self, offset: int, expected: int, desired: int):
        """Atomic 8-byte compare-and-swap; returns (swapped, old_value)."""
        if offset < 64 or offset + 8 > len(self._data):
            self._check_range(offset, 8)
        if self._freed_offsets:
            self._flag_uaf(offset, 8, "read_u64")
        old = _U64.unpack_from(self._data, offset)[0]
        if old != expected:
            return False, old
        if self._freed_offsets:
            self._flag_uaf(offset, 8, "write_u64")
        _U64.pack_into(self._data, offset, desired)
        return True, old

    def faa_u64(self, offset: int, delta: int) -> int:
        """Atomic 8-byte fetch-and-add; returns the pre-add value."""
        if offset < 64 or offset + 8 > len(self._data):
            self._check_range(offset, 8)
        if self._freed_offsets:
            self._flag_uaf(offset, 8, "read_u64")
            self._flag_uaf(offset, 8, "write_u64")
        old = _U64.unpack_from(self._data, offset)[0]
        _U64.pack_into(self._data, offset, (old + delta) & ((1 << 64) - 1))
        return old
