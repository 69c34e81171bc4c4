"""Unit tests for the Fig-3 byte layouts."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.art import layout
from repro.art.layout import (
    HEADER_SIZE,
    LEAF_HEADER_SIZE,
    NODE4,
    NODE16,
    NODE48,
    NODE256,
    NODE_CAPACITY,
    SLOT,
    STATUS_IDLE,
    STATUS_INVALID,
    STATUS_LOCKED,
    HashEntry,
    Header,
    Slot,
    decode_leaf,
    decode_node,
    encode_leaf,
    encode_node,
    leaf_fields,
    leaf_size_for,
    leaf_status_word,
    leaf_units_for,
    next_node_type,
    node_size,
    smallest_type_for,
)
from repro.errors import ReproError
from repro.util.checksum import leaf_checksum


def test_node_sizes_match_paper_range():
    # The paper quotes ART inner nodes at 40-2056 bytes.
    assert node_size(NODE4) == 40
    assert node_size(NODE16) == 136
    assert node_size(NODE48) == 392
    assert node_size(NODE256) == 2056


def test_next_node_type_chain():
    assert next_node_type(NODE4) == NODE16
    assert next_node_type(NODE48) == NODE256
    with pytest.raises(ReproError):
        next_node_type(NODE256)


def test_smallest_type_for():
    assert smallest_type_for(1) == NODE4
    assert smallest_type_for(4) == NODE4
    assert smallest_type_for(5) == NODE16
    assert smallest_type_for(48) == NODE48
    assert smallest_type_for(49) == NODE256
    assert smallest_type_for(256) == NODE256
    with pytest.raises(ReproError):
        smallest_type_for(257)


@given(st.integers(0, 2), st.sampled_from([NODE4, NODE16, NODE48, NODE256]),
       st.integers(0, 255), st.integers(0, (1 << 42) - 1),
       st.integers(0, 256))
def test_header_roundtrip(status, node_type, depth, phash, count):
    h = Header(status, node_type, depth, phash, count)
    assert Header.unpack(h.pack()) == h


@given(st.integers(0, (1 << 48) - 1), st.integers(0, 255),
       st.integers(0, 63), st.booleans(), st.booleans())
def test_slot_roundtrip(addr, partial, size_class, is_leaf, occupied):
    s = Slot(addr, partial, size_class, is_leaf, occupied)
    assert Slot.unpack(s.pack()) == s


@given(st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 12) - 1),
       st.integers(0, 7), st.booleans())
def test_hash_entry_roundtrip(addr, fp2, node_type, occupied):
    e = HashEntry(addr, fp2, node_type, occupied)
    assert HashEntry.unpack(e.pack()) == e


def test_slot_helpers():
    leaf = Slot(100, 1, 2, True, True)
    assert leaf.leaf_size() == 128
    with pytest.raises(ReproError):
        leaf.child_node_size()
    inner = Slot(100, 1, NODE16, False, True)
    assert inner.child_node_size() == 136
    with pytest.raises(ReproError):
        inner.leaf_size()


@pytest.mark.parametrize("value", [
    Header(STATUS_LOCKED, NODE48, 3, 12345, 7),
    Slot(4096, 0x61, NODE16, False, True),
    HashEntry(8192, 0xABC, NODE256, True),
], ids=["header", "slot", "hash_entry"])
def test_decoded_words_are_slotted_frozen_and_copyable(value):
    """A decoded header is one memoised instance per word, shared by
    every decode, so it must be immutable; slot and hash-entry words have
    no memo (DESIGN.md 11.11) but decode to the same kind of value.
    ``__slots__`` keeps each one small.  Snapshot restore deep-copies
    them; they pickle too."""
    cls, word = type(value), value.pack()
    shared = cls.unpack(word)
    assert shared == value
    assert (shared is cls.unpack(word)) == (cls is Header)
    assert cls.__slots__ and not hasattr(shared, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(shared, dataclasses.fields(cls)[0].name, 0)
    assert {shared: 1}[value] == 1
    for twin in (copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
        assert type(twin) is cls and twin == shared
        assert hash(twin) == hash(shared) and twin.pack() == word


def test_encode_decode_node_roundtrip():
    header = Header(STATUS_IDLE, NODE16, 3, 12345, 2)
    slots = [None] * 16
    slots[0] = Slot(0x1000, ord("a"), 2, True, True)
    slots[5] = Slot(0x2000, ord("b"), NODE4, False, True)
    blob = encode_node(header, slots)
    assert len(blob) == node_size(NODE16)
    view = decode_node(blob)
    assert view.header == header
    assert view.find_child(ord("a")).addr == 0x1000
    assert view.find_child(ord("b")).addr == 0x2000
    assert view.find_child(ord("c")) is None
    assert len(view.occupied_slots()) == 2
    assert view.occupied_count() == 2
    assert view.find_index_by_addr(0x2000) == 5
    assert view.find_index_by_addr(0x9999) is None


def test_node256_direct_indexing():
    header = Header(STATUS_IDLE, NODE256, 1, 7, 1)
    slots = [None] * 256
    slots[200] = Slot(0x3000, 200, 1, True, True)
    view = decode_node(encode_node(header, slots))
    assert view.find_child(200).addr == 0x3000
    assert view.find_child(201) is None
    with pytest.raises(ReproError):
        view.first_free_index()


def test_first_free_index_small_node():
    header = Header(STATUS_IDLE, NODE4, 1, 7, 2)
    slots = [Slot(1, 0, 1, True, True), None,
             Slot(2, 1, 1, True, True), None]
    view = decode_node(encode_node(header, slots))
    assert view.first_free_index() == 1


def test_encode_node_capacity_checked():
    header = Header(STATUS_IDLE, NODE4, 1, 7, 0)
    with pytest.raises(ReproError):
        encode_node(header, [None] * 5)


def test_decode_node_rejects_garbage():
    with pytest.raises(ReproError):
        decode_node(bytes(8))  # node type 0
    header = Header(STATUS_IDLE, NODE16, 0, 0, 0)
    blob = encode_node(header, [None] * 16)
    with pytest.raises(ReproError):
        decode_node(blob[:40])  # short read


@given(st.binary(min_size=1, max_size=60), st.binary(min_size=0, max_size=200))
def test_leaf_roundtrip(key, value):
    blob = encode_leaf(key, value)
    assert len(blob) % 64 == 0
    assert len(blob) == leaf_size_for(len(key), len(value))
    view = decode_leaf(blob)
    assert view.checksum_ok
    assert view.key == key
    assert view.value == value
    assert view.status == STATUS_IDLE


def test_leaf_overprovisioned_units():
    blob = encode_leaf(b"k", b"v", units=4)
    view = decode_leaf(blob)
    assert view.units == 4 and len(blob) == 256
    with pytest.raises(ReproError):
        encode_leaf(b"k", b"v" * 300, units=1)


def test_leaf_torn_read_detected():
    blob = bytearray(encode_leaf(b"key1", b"value1"))
    blob[20] ^= 0xFF  # corrupt a payload byte
    view = decode_leaf(bytes(blob))
    assert not view.checksum_ok


def test_leaf_status_change_detected_by_word():
    idle = leaf_status_word(STATUS_IDLE, 2, 4, 6)
    locked = leaf_status_word(STATUS_LOCKED, 2, 4, 6)
    invalid = leaf_status_word(STATUS_INVALID, 2, 4, 6)
    assert len({idle, locked, invalid}) == 3
    blob = encode_leaf(b"key1", b"value1", units=2)
    assert int.from_bytes(blob[:8], "little") == leaf_status_word(
        STATUS_IDLE, 2, 4, 6)


def test_leaf_units_limits():
    assert leaf_units_for(8, 64) == 2  # 16 + 8 + 64 = 88 -> 128 B
    with pytest.raises(ReproError):
        leaf_units_for(100, 5000)


def test_decode_leaf_short_raises():
    with pytest.raises(ReproError):
        decode_leaf(bytes(4))


def test_decode_leaf_truncated_payload_flagged():
    blob = bytearray(encode_leaf(b"abcd", b"efgh"))
    blob[2:4] = (5000).to_bytes(2, "little")  # absurd key_len
    view = decode_leaf(bytes(blob))
    assert not view.checksum_ok


def test_leaf_fields_and_decode_leaf_agree():
    """The scan checks leaves through ``leaf_fields`` without building a
    ``LeafView``; ``decode_leaf`` wraps the same decoder."""
    clean = encode_leaf(b"key1", b"value1", STATUS_LOCKED, 2, 7)
    torn = bytearray(clean)
    torn[20] ^= 0xFF
    overrun = bytearray(clean)
    overrun[4:6] = (5000).to_bytes(2, "little")  # val_len past the end
    cases = [clean, bytes(torn), bytes(overrun)]
    for blob in cases:
        view = decode_leaf(blob)
        assert leaf_fields(blob) == (view.status, view.units, view.key,
                                     view.value, view.checksum_ok,
                                     view.version)
    assert leaf_fields(clean) == (STATUS_LOCKED, 2, b"key1", b"value1",
                                  True, 7)
    assert [leaf_fields(blob)[4] for blob in cases] == [True, False, False]
    for decoder in (leaf_fields, decode_leaf):
        with pytest.raises(ReproError):
            decoder(clean[:LEAF_HEADER_SIZE - 1])


def test_header_size_is_8_bytes():
    assert HEADER_SIZE == 8
    assert len(encode_node(Header(0, NODE4, 0, 0, 0), [None] * 4)) == 40


# -- raw-word masks and the copy-free / in-place decodes ----------------------

def test_slot_masks_mirror_the_slot_bitstruct():
    fields = SLOT.fields
    assert layout.SLOT_ADDR_MASK == fields["addr"].mask == (1 << 48) - 1
    assert layout.SLOT_PARTIAL_SHIFT == fields["partial"].shift == 48
    assert fields["partial"].width == 8  # the walk masks the byte with 0xFF
    assert layout.SLOT_SIZE_SHIFT == fields["size_class"].shift == 56
    assert layout.SLOT_SIZE_MASK == (1 << fields["size_class"].width) - 1 == 63
    assert layout.SLOT_LEAF == fields["is_leaf"].mask == 1 << 62
    assert layout.SLOT_OCCUPIED == fields["occupied"].mask == 1 << 63
    rng = random.Random(5)
    for _ in range(500):
        slot = Slot(rng.getrandbits(48), rng.getrandbits(8), rng.getrandbits(6),
                    rng.random() < 0.5, rng.random() < 0.5)
        word = slot.pack()
        assert word & layout.SLOT_ADDR_MASK == slot.addr
        assert (word >> layout.SLOT_PARTIAL_SHIFT) & 0xFF == slot.partial
        assert (word >> layout.SLOT_SIZE_SHIFT) & layout.SLOT_SIZE_MASK \
            == slot.size_class
        assert bool(word & layout.SLOT_LEAF) == slot.is_leaf
        assert bool(word & layout.SLOT_OCCUPIED) == slot.occupied


def _reference_leaf_ok(key, value, checksum):
    """The payload re-assembly ``decode_leaf`` used to do."""
    return leaf_checksum(len(key).to_bytes(2, "little")
                         + len(value).to_bytes(2, "little")
                         + key + value) == checksum


def test_decode_leaf_equals_reference_composition():
    rng = random.Random(18)
    for n in range(2000):
        key = rng.randbytes(rng.randint(1, 48))
        value = rng.randbytes(rng.choice((0, 1, 8, 64, rng.randint(0, 700))))
        units = leaf_units_for(len(key), len(value)) + rng.choice((0, 0, 1, 3))
        version = rng.getrandbits(32)
        status = rng.choice((STATUS_IDLE, STATUS_LOCKED, STATUS_INVALID))
        blob = encode_leaf(key, value, status, units, version)
        view = decode_leaf(blob)
        checksum = int.from_bytes(blob[8:12], "little")
        assert (view.status, view.units, view.key, view.value, view.version) \
            == (status, units, key, value, version)
        assert view.checksum_ok and _reference_leaf_ok(key, value, checksum)
        if n % 8 == 0:
            # A torn image: both compositions must agree it is torn.
            torn = bytearray(blob)
            torn[rng.randrange(LEAF_HEADER_SIZE, len(blob))] ^= 1 << n % 8
            view = decode_leaf(bytes(torn))
            assert view.checksum_ok == _reference_leaf_ok(
                view.key, view.value, checksum)


def test_decode_leaf_checksum_covers_lengths_and_payload_only():
    key, value = b"scan-key", b"some value bytes"
    blob = encode_leaf(key, value, units=2)
    end = LEAF_HEADER_SIZE + len(key) + len(value)
    for byte in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[byte] ^= 1 << bit
            ok = decode_leaf(bytes(flipped)).checksum_ok
            if byte < 2 or 6 <= byte < 8 or 12 <= byte < 16 or byte >= end:
                assert ok, (byte, bit)       # status, LeafLen, reserved,
            else:                            # version, padding: not covered
                assert not ok, (byte, bit)   # lengths, CRC, key, value


def test_decode_leaf_edges_unchanged():
    blob = encode_leaf(b"abcd", b"efgh")
    # Lengths pointing past the blob: the empty-key, not-ok view.
    long_value = bytearray(blob)
    long_value[4:6] = (len(blob) - LEAF_HEADER_SIZE - 4 + 1).to_bytes(
        2, "little")
    view = decode_leaf(bytes(long_value))
    assert (view.key, view.value, view.checksum_ok) == (b"", b"", False)
    assert decode_leaf(blob[:LEAF_HEADER_SIZE]).checksum_ok is False
    with pytest.raises(ReproError):
        decode_leaf(blob[:LEAF_HEADER_SIZE - 1])


@pytest.mark.parametrize("node_type", [NODE4, NODE16, NODE48, NODE256])
def test_decode_node_words_are_exactly_the_slots(node_type):
    rng = random.Random(node_type)
    capacity = NODE_CAPACITY[node_type]
    slots = [Slot(rng.getrandbits(48), i if node_type == NODE256
                  else rng.getrandbits(8), rng.getrandbits(6),
                  rng.random() < 0.5, True) if rng.random() < 0.6 else None
             for i in range(capacity)]
    header = Header(STATUS_LOCKED, node_type, 9, 0x2AAAAAAAAAA,
                    sum(s is not None for s in slots))
    blob = encode_node(header, slots)
    view = decode_node(blob)
    assert view.header == header
    assert len(view.words) == capacity
    assert list(view.words) == [s.pack() if s else 0 for s in slots]
    assert view.occupied_slots() == [s for s in slots if s]
    # Trailing bytes (a read longer than the node) are ignored; one byte
    # short is a short read.
    assert list(decode_node(blob + b"\xff" * 8).words) == list(view.words)
    with pytest.raises(ReproError):
        decode_node(blob[:-1])


def test_decode_node_rejects_unknown_types():
    for bad in (0, 5, 6, 7):
        word = Header(STATUS_IDLE, NODE4, 0, 0, 0).pack() & ~(0x7 << 2) \
            | bad << 2
        with pytest.raises(ReproError):
            decode_node(word.to_bytes(8, "little") + bytes(2048))
