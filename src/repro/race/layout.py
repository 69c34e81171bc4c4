"""Wire layouts and hashing rules of the one-sided extendible hash table.

The table follows RACE hashing (Zuo et al., ATC'21) in the properties the
paper relies on: a client reads one bucket *group* in a single round trip,
inserts with an 8-byte CAS, and caches the directory locally.  Resizing is
extendible (segment splits + directory doubling).

One deliberate design point makes splits fully one-sided: the 12-bit
fingerprint stored in each entry (``fp2`` in the paper's Fig 3) is defined
as the **low 12 bits of the key hash** - the same bits extendible hashing
uses for segment indexing.  A splitting client can therefore redistribute
entries using only the entries themselves, with no key recovery reads.
This caps the directory depth at 12 (4096 segments per table), far above
what our workloads need.

Layout summary (little-endian 64-bit words):

* meta word: ``global_depth | lock``
* directory entry: ``segment addr (48) | local_depth (8) | occupied``
* group header: ``local_depth (8) | locked (1) | version (40)``
* entry: ``repro.art.layout.HASH_ENTRY`` (addr 48, fp2 12, type 3,
  occupied 1), read through its ``HASH_ENTRY_*`` masks

A segment is ``groups_per_segment`` contiguous groups; a group is one
header word plus ``slots_per_group`` entry words.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidArgument
from ..util.bits import BitStruct
from ..util.hashing import hash64

MAX_DEPTH = 12  # fp2 carries the low 12 hash bits; splits may not exceed this

META = BitStruct("race_meta", [
    ("global_depth", 6),
    ("lock", 1),
])

DIR_ENTRY = BitStruct("race_dir_entry", [
    ("addr", 48),
    ("local_depth", 8),
    ("occupied", 1),
])

GROUP_HEADER = BitStruct("race_group_header", [
    ("local_depth", 8),
    ("locked", 1),
    ("version", 40),
])

HEADER_SIZE = 8
ENTRY_SIZE = 8


def key_hash(key: bytes, seed: int) -> int:
    """The 64-bit hash that drives segment, group and fp2 derivation."""
    return hash64(key, seed)


def fp2_of(h: int) -> int:
    """Entry fingerprint == low 12 bits of the key hash (see module doc)."""
    return h & 0xFFF


def segment_index(h: int, depth: int) -> int:
    """Directory index of ``h`` at (global or local) ``depth``."""
    return h & ((1 << depth) - 1)


def group_index(h: int, groups_per_segment: int) -> int:
    """Group within a segment; uses high hash bits, disjoint from the
    segment-index bits so splits do not reshuffle groups."""
    return (h >> 48) % groups_per_segment


@dataclass(frozen=True)
class TableParams:
    """Static geometry of one table, shared by MN builder and clients."""

    seed: int
    groups_per_segment: int = 64
    slots_per_group: int = 8
    initial_depth: int = 1
    max_depth: int = MAX_DEPTH

    def __post_init__(self):
        if not 0 <= self.initial_depth <= self.max_depth:
            raise InvalidArgument("initial_depth out of range")
        if self.max_depth > MAX_DEPTH:
            raise InvalidArgument(f"max_depth may not exceed {MAX_DEPTH}")
        if self.groups_per_segment < 1 or self.slots_per_group < 1:
            raise InvalidArgument("bad table geometry")

    @property
    def group_size(self) -> int:
        return HEADER_SIZE + self.slots_per_group * ENTRY_SIZE

    @property
    def segment_size(self) -> int:
        return self.groups_per_segment * self.group_size

    @property
    def directory_slots(self) -> int:
        return 1 << self.max_depth

    @property
    def directory_size(self) -> int:
        return self.directory_slots * 8

    def group_offset(self, group: int) -> int:
        return group * self.group_size


@dataclass(frozen=True)
class TableInfo:
    """Everything a client needs to reach one MN's table."""

    mn_id: int
    meta_addr: int
    dir_addr: int
    params: TableParams
