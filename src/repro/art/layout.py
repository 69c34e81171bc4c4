"""Byte-accurate layouts of Sphinx's on-MN structures (the paper's Fig 3).

Everything a client reads or CASes is either a single 64-bit word or a
node-sized blob of such words:

* **Header** (8 B, one per ART node): ``status | type | depth |
  42-bit full-prefix hash | child count``.
* **Slot** (8 B, ``capacity`` per node): ``48-bit address | partial key
  byte | size class | leaf flag | occupied``.  Following SMART, the
  partial key lives *inside* the slot so a child installation is a single
  8-byte CAS.
* **Hash entry** (8 B, one per inner node, in the inner-node hash table):
  ``48-bit address | 12-bit fingerprint fp2 | node type | occupied``.
* **Leaf** (64 B aligned): 16-byte header (status, LeafLen in 64 B units,
  key/value lengths, CRC32 checksum) + key + value + padding.

Node sizes are ``8 + capacity*8``: 40 B (Node4), 136 B (Node16), 392 B
(Node48), 2056 B (Node256) - matching the paper's quoted 40-2056 B range.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from zlib import crc32

from ..errors import ReproError
from ..util.bits import BitStruct, round_up, u64_from_bytes, u64_to_bytes
from ..util.checksum import LEAF_CHECKSUM_SEED, leaf_checksum
from ..util.hashing import cache_put, memo

# -- status values (2 bits) --------------------------------------------------
STATUS_IDLE = 0
STATUS_LOCKED = 1
STATUS_INVALID = 2

# -- node types ---------------------------------------------------------------
NODE4, NODE16, NODE48, NODE256 = 1, 2, 3, 4
NODE_CAPACITY: Dict[int, int] = {NODE4: 4, NODE16: 16, NODE48: 48, NODE256: 256}
NODE_TYPES: Tuple[int, ...] = (NODE4, NODE16, NODE48, NODE256)
HEADER_SIZE = 8
SLOT_SIZE = 8


def node_size(node_type: int) -> int:
    """Total byte size of a node of ``node_type`` (header + slots)."""
    return HEADER_SIZE + NODE_CAPACITY[node_type] * SLOT_SIZE


def next_node_type(node_type: int) -> int:
    """The type a full node grows into on a node type switch."""
    if node_type >= NODE256:
        raise ReproError("Node256 cannot grow")
    return node_type + 1


def smallest_type_for(count: int) -> int:
    """The smallest node type holding ``count`` children."""
    for node_type in NODE_TYPES:
        if count <= NODE_CAPACITY[node_type]:
            return node_type
    raise ReproError(f"no node type holds {count} children")


# -- 64-bit word layouts ------------------------------------------------------
HEADER = BitStruct("header", [
    ("status", 2),
    ("node_type", 3),
    ("depth", 8),
    ("prefix_hash", 42),
    ("count", 9),
])

SLOT = BitStruct("slot", [
    ("addr", 48),
    ("partial", 8),
    ("size_class", 6),   # child node type for inner children; LeafLen for leaves
    ("is_leaf", 1),
    ("occupied", 1),
])

# The same layout as masks and shifts: the data path keeps slot words
# raw (NodeView.child_word, the walks, fsck) and never builds a Slot.
SLOT_ADDR_MASK = SLOT.fields["addr"].mask
SLOT_PARTIAL_SHIFT = SLOT.fields["partial"].shift
SLOT_SIZE_SHIFT = SLOT.fields["size_class"].shift
SLOT_SIZE_MASK = (1 << SLOT.fields["size_class"].width) - 1
SLOT_LEAF = SLOT.fields["is_leaf"].mask
SLOT_OCCUPIED = SLOT.fields["occupied"].mask

HASH_ENTRY = BitStruct("hash_entry", [
    ("addr", 48),
    ("fp2", 12),
    ("node_type", 3),
    ("occupied", 1),
])

# The entry layout as masks and shifts, for RACE lookups and the INHT.
HASH_ENTRY_ADDR_MASK = HASH_ENTRY.fields["addr"].mask
HASH_ENTRY_FP2_SHIFT = HASH_ENTRY.fields["fp2"].shift
HASH_ENTRY_FP2_MASK = (1 << HASH_ENTRY.fields["fp2"].width) - 1
HASH_ENTRY_TYPE_SHIFT = HASH_ENTRY.fields["node_type"].shift
HASH_ENTRY_TYPE_MASK = (1 << HASH_ENTRY.fields["node_type"].width) - 1
HASH_ENTRY_OCCUPIED = HASH_ENTRY.fields["occupied"].mask

FP2_BITS = 12
EMPTY_WORD = 0


def header_word(status: int, node_type: int, depth: int, prefix_hash: int,
                count: int) -> int:
    """One packed header word: the hand-coded (hot path) equivalent of
    ``HEADER.pack(**fields)``, with the same out-of-range rejection.
    ``Header.pack`` and the lock words of ``core/lock.py`` share it."""
    if not (0 <= status < 4 and 0 <= node_type < 8 and
            0 <= depth < 256 and 0 <= prefix_hash < (1 << 42) and
            0 <= count < 512):
        return HEADER.pack(status=status, node_type=node_type,
                           depth=depth, prefix_hash=prefix_hash,
                           count=count)  # raises the precise error
    return (status | (node_type << 2) | (depth << 5)
            | (prefix_hash << 13) | (count << 55))


# The status is a header word's low two bits, so the Locked or Invalid
# word of a node is its Idle word ORed with the status, and an install
# advances the Idle word's count by this unit (core/lock.py).
HEADER_COUNT_ONE = header_word(STATUS_IDLE, 0, 0, 0, 1)


def slot_word(addr: int, partial: int, size_class: int, is_leaf: bool,
              occupied: bool = True) -> int:
    """One packed slot word: the hand-coded (hot path) equivalent of
    ``SLOT.pack(**fields)``; ``Slot.pack`` and the child installs of
    ``core/remote_art.py`` share it."""
    if not (0 <= addr < (1 << 48) and 0 <= partial < 256 and
            0 <= size_class < 64):
        return SLOT.pack(addr=addr, partial=partial, size_class=size_class,
                         is_leaf=int(is_leaf), occupied=int(occupied))
    return (addr | (partial << 48) | (size_class << 56)
            | (bool(is_leaf) << 62) | (bool(occupied) << 63))


def hash_entry_word(addr: int, fp2: int, node_type: int,
                    occupied: bool = True) -> int:
    """One packed hash-table entry word: the hand-coded (hot path)
    equivalent of ``HASH_ENTRY.pack(**fields)``; ``HashEntry.pack`` and
    the INHT share it."""
    if not (0 <= addr < (1 << 48) and 0 <= fp2 < (1 << 12) and
            0 <= node_type < 8):
        return HASH_ENTRY.pack(addr=addr, fp2=fp2, node_type=node_type,
                               occupied=int(occupied))
    return addr | (fp2 << 48) | (node_type << 60) | (bool(occupied) << 63)


# The decoded-header memo.  Header is a frozen dataclass, so one instance
# per distinct word is shared by every decode of the hot nodes' headers.
# A process-wide ``hashing.memo`` table under the one ``cache_put`` bound
# (DESIGN.md 11.9).  Slot and hash-entry words have no memo: the data
# path reads them raw through the masks above (DESIGN.md 11.11).
_HEADER_MEMO = memo("layout.header")


@dataclass(frozen=True, slots=True)
class Header:
    """Decoded ART node header."""

    status: int
    node_type: int
    depth: int
    prefix_hash: int
    count: int

    def pack(self) -> int:
        return header_word(self.status, self.node_type, self.depth,
                           self.prefix_hash, self.count)

    @staticmethod
    def unpack(word: int) -> "Header":
        # Hand-coded (hot path): equivalent to HEADER.unpack().
        header = _HEADER_MEMO.get(word)
        if header is None:
            header = Header(
                word & 0x3, (word >> 2) & 0x7, (word >> 5) & 0xFF,
                (word >> 13) & 0x3FFFFFFFFFF, (word >> 55) & 0x1FF)
            cache_put(_HEADER_MEMO, word, header)
        return header


@dataclass(frozen=True, slots=True)
class Slot:
    """Decoded child slot (tests and introspection; the data path reads
    the raw word)."""

    addr: int
    partial: int
    size_class: int
    is_leaf: bool
    occupied: bool

    def pack(self) -> int:
        return slot_word(self.addr, self.partial, self.size_class,
                         self.is_leaf, self.occupied)

    @staticmethod
    def unpack(word: int) -> "Slot":
        # Equivalent to SLOT.unpack().
        return Slot(word & SLOT_ADDR_MASK, (word >> SLOT_PARTIAL_SHIFT) & 0xFF,
                    (word >> SLOT_SIZE_SHIFT) & SLOT_SIZE_MASK,
                    bool(word & SLOT_LEAF), bool(word & SLOT_OCCUPIED))

    def leaf_size(self) -> int:
        """Byte size of the leaf this slot points at (LeafLen * 64)."""
        if not self.is_leaf:
            raise ReproError("leaf_size on a non-leaf slot")
        return self.size_class * LEAF_ALIGN

    def child_node_size(self) -> int:
        """Byte size of the inner node this slot points at."""
        if self.is_leaf:
            raise ReproError("child_node_size on a leaf slot")
        return node_size(self.size_class)


@dataclass(frozen=True, slots=True)
class HashEntry:
    """Decoded inner-node hash-table entry (tests and introspection; the
    data path reads the raw word)."""

    addr: int
    fp2: int
    node_type: int
    occupied: bool

    def pack(self) -> int:
        return hash_entry_word(self.addr, self.fp2, self.node_type,
                               self.occupied)

    @staticmethod
    def unpack(word: int) -> "HashEntry":
        # Equivalent to HASH_ENTRY.unpack().
        return HashEntry(
            word & HASH_ENTRY_ADDR_MASK,
            (word >> HASH_ENTRY_FP2_SHIFT) & HASH_ENTRY_FP2_MASK,
            (word >> HASH_ENTRY_TYPE_SHIFT) & HASH_ENTRY_TYPE_MASK,
            bool(word & HASH_ENTRY_OCCUPIED))


# -- whole-node encode/decode -------------------------------------------------

def encode_node(header: Header, slots: List[Optional[Slot]]) -> bytes:
    """Serialize a node; ``slots`` must have exactly the type's capacity."""
    return encode_node_words(header, [
        slot.pack() if slot is not None else EMPTY_WORD for slot in slots])


def encode_node_words(header: Header, words: List[int]) -> bytes:
    """Serialize a node from packed slot words (``EMPTY_WORD`` for an
    empty slot); ``words`` must have exactly the type's capacity."""
    capacity = NODE_CAPACITY[header.node_type]
    if len(words) != capacity:
        raise ReproError(
            f"node type {header.node_type} needs {capacity} slots, "
            f"got {len(words)}"
        )
    return _NODE_STRUCTS[header.node_type].pack(header.pack(), *words)


# A word's bits 48-63 masked to "occupied | partial byte": equal to
# ``_OCCUPIED_PARTIAL | partial`` exactly for an occupied slot of that byte.
_OCCUPIED_PARTIAL = SLOT_OCCUPIED >> SLOT_PARTIAL_SHIFT
_PARTIAL_MATCH_MASK = _OCCUPIED_PARTIAL | 0xFF


class NodeView:
    """A decoded node as read from remote memory.

    Slot words stay raw: every consumer on the data path takes the word
    from :meth:`child_word` or :attr:`words` and reads its fields through
    the ``SLOT_*`` masks.  :attr:`slots`, :meth:`occupied_slots` and
    :meth:`find_child` decode :class:`Slot` records for tests and
    introspection only.
    """

    __slots__ = ("header", "words")

    def __init__(self, header: Header, words):
        self.header = header
        self.words = words  # exactly capacity raw 64-bit slot words

    def child_word(self, partial: int) -> int:
        """The occupied slot word for key byte ``partial``, or 0 if the
        node has no such child: the one child lookup.

        Node256 is direct-indexed by the byte; smaller nodes are scanned
        and the first matching index wins.
        """
        if self.header.node_type == NODE256:
            word = self.words[partial]
            return word if word & SLOT_OCCUPIED else 0
        want = _OCCUPIED_PARTIAL | partial
        for word in self.words:
            if ((word >> SLOT_PARTIAL_SHIFT) & _PARTIAL_MATCH_MASK) == want:
                return word
        return 0

    @property
    def slots(self) -> List[Slot]:
        """All slots decoded (introspection)."""
        return [Slot.unpack(w) for w in self.words]

    def occupied_slots(self) -> List[Slot]:
        """The occupied slots decoded, in index order (introspection)."""
        return [Slot.unpack(w) for w in self.words if w & SLOT_OCCUPIED]

    def occupied_count(self) -> int:
        return sum(1 for w in self.words if w & SLOT_OCCUPIED)

    def find_child(self, partial: int) -> Optional[Slot]:
        """:meth:`child_word` decoded, None if absent (introspection)."""
        word = self.child_word(partial)
        return Slot.unpack(word) if word else None

    def first_free_index(self) -> Optional[int]:
        if self.header.node_type == NODE256:
            raise ReproError("Node256 children are direct-indexed")
        for i, word in enumerate(self.words):
            if not word & SLOT_OCCUPIED:
                return i
        return None

    def find_index_by_addr(self, addr: int) -> Optional[int]:
        """Index of the occupied slot pointing at ``addr``, if any."""
        for i, word in enumerate(self.words):
            if word & SLOT_OCCUPIED and (word & SLOT_ADDR_MASK) == addr:
                return i
        return None


_NODE_STRUCTS = {t: struct.Struct(f"<{NODE_CAPACITY[t] + 1}Q")
                 for t in NODE_TYPES}
# Slots only: decode unpacks them at offset 8 straight into NodeView.words
# (header + slots in one tuple would need a copy to drop the header).
_SLOT_STRUCTS = {t: struct.Struct(f"<{NODE_CAPACITY[t]}Q")
                 for t in NODE_TYPES}


def decode_node(data: bytes) -> NodeView:
    """Parse a node blob read from an MN."""
    header = Header.unpack(u64_from_bytes(data, 0))
    unpacker = _SLOT_STRUCTS.get(header.node_type)
    if unpacker is None:
        raise ReproError(f"bad node type {header.node_type} in header")
    size = HEADER_SIZE + unpacker.size
    if len(data) < size:
        raise ReproError(f"short node read: {len(data)} < {size}")
    return NodeView(header, unpacker.unpack_from(data, HEADER_SIZE))


# -- leaves ---------------------------------------------------------------

LEAF_ALIGN = 64
LEAF_HEADER_SIZE = 16
MAX_LEAF_UNITS = (1 << 6) - 1  # LeafLen lives in the slot's 6-bit size class
_LEAF_HEADER = struct.Struct("<BBHHHI I".replace(" ", ""))
# status(B) leaf_len(B) key_len(H) val_len(H) reserved(H) checksum(I) version(I)
#: The status byte's bits in a leaf's lock word (``leaf_status_word``).
LEAF_STATUS_MASK = 0xFF


def leaf_units_for(key_len: int, val_len: int) -> int:
    """Number of 64-byte units a leaf for (key_len, val_len) occupies."""
    size = round_up(LEAF_HEADER_SIZE + key_len + val_len, LEAF_ALIGN)
    units = size // LEAF_ALIGN
    if units > MAX_LEAF_UNITS:
        raise ReproError(f"leaf too large: {size} bytes")
    return units


def leaf_size_for(key_len: int, val_len: int) -> int:
    return leaf_units_for(key_len, val_len) * LEAF_ALIGN


def encode_leaf(key: bytes, value: bytes, status: int = STATUS_IDLE,
                units: Optional[int] = None, version: int = 0) -> bytes:
    """Serialize a leaf; ``units`` may over-provision for in-place growth."""
    needed = leaf_units_for(len(key), len(value))
    if units is None:
        units = needed
    elif units < needed:
        raise ReproError("requested leaf units too small for payload")
    payload = (len(key).to_bytes(2, "little")
               + len(value).to_bytes(2, "little") + key + value)
    checksum = leaf_checksum(payload)
    header = _LEAF_HEADER.pack(status, units, len(key), len(value), 0,
                               checksum, version)
    body = header + key + value
    return body + bytes(units * LEAF_ALIGN - len(body))


def leaf_status_word(status: int, units: int, key_len: int,
                     val_len: int) -> int:
    """The first 8 bytes of a leaf header as a CAS-able integer.

    The paper's leaf locking CASes the word holding the status field; the
    word also covers LeafLen and the lengths, all stable while locked.
    Computed arithmetically (little-endian ``<BBHHH_`` layout) - this
    sits on every leaf lock/unlock CAS.
    """
    return (status & LEAF_STATUS_MASK) | ((units & 0xFF) << 8) | \
        ((key_len & 0xFFFF) << 16) | ((val_len & 0xFFFF) << 32)


@dataclass
class LeafView:
    """A decoded leaf as read from remote memory."""

    status: int
    units: int
    key: bytes
    value: bytes
    checksum_ok: bool
    version: int

    @property
    def size(self) -> int:
        return self.units * LEAF_ALIGN


def leaf_fields(data: bytes) -> Tuple[int, int, bytes, bytes, bool, int]:
    """Parse a leaf blob into ``(status, units, key, value, checksum_ok,
    version)`` - the fields of :class:`LeafView`, without building one.
    Checksum mismatches are reported, not raised, because a failed check
    is a normal concurrency event (torn read); a blob shorter than the
    header raises :class:`ReproError`."""
    if len(data) < LEAF_HEADER_SIZE:
        raise ReproError("short leaf read")
    status, units, key_len, val_len, _res, checksum, version = \
        _LEAF_HEADER.unpack_from(data, 0)
    split = LEAF_HEADER_SIZE + key_len
    end = split + val_len
    if end > len(data):
        return status, units, b"", b"", False, version
    # The checksummed payload "lengths + key + value" sits in the blob as
    # bytes 2..6 and 16..end, and CRC32 chains: crc(a + b, seed) ==
    # crc(b, crc(a, seed)).  So it is checked in place, not re-assembled.
    ok = crc32(data[LEAF_HEADER_SIZE:end],
               crc32(data[2:6], LEAF_CHECKSUM_SEED)) == checksum
    return (status, units, data[LEAF_HEADER_SIZE:split], data[split:end],
            ok, version)


def decode_leaf(data: bytes) -> LeafView:
    """Parse a leaf blob into a :class:`LeafView` (see
    :func:`leaf_fields`)."""
    return LeafView(*leaf_fields(data))
