"""Unit tests for node-grained header locks."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.art.layout import (
    HEADER,
    HEADER_COUNT_ONE,
    SLOT,
    NODE4,
    STATUS_IDLE,
    STATUS_INVALID,
    STATUS_LOCKED,
    Header,
    Slot,
    slot_word,
)
from repro.core.lock import (
    idle_word,
    invalidate_op,
    try_lock_node,
    unlock_op,
)
from repro.dm.memory import addr_offset
from repro.util.bits import u64_from_bytes


@pytest.fixture
def node(single_mn_cluster):
    cluster = single_mn_cluster
    header = Header(STATUS_IDLE, NODE4, 3, 12345, 2)
    addr = cluster.alloc(0, 40, "inner")
    cluster.memories[0].write_u64(addr_offset(addr), header.pack())
    return cluster, addr, header


_headers = st.builds(Header, st.integers(0, 3), st.integers(0, 7),
                     st.integers(0, 255), st.integers(0, (1 << 42) - 1),
                     st.integers(0, 510))
_slots = st.builds(Slot, st.integers(0, (1 << 48) - 1), st.integers(0, 255),
                   st.integers(0, 63), st.booleans(), st.booleans())


def _repacked(header: Header, status: int, count_delta: int = 0) -> int:
    """The word of ``header`` with ``status`` and its count advanced, as
    the ``Header`` it stands for packs it - checked against the
    ``HEADER`` bit layout itself, which shares no code with the packers."""
    fields = dict(dataclasses.asdict(header), status=status,
                  count=header.count + count_delta)
    word = Header(**fields).pack()
    assert word == HEADER.pack(**fields)
    return word


@given(_headers)
def test_lock_words_are_the_repacked_header(header):
    """The lock, unlock, invalidate and install words edit the packed
    header in place; each must equal the word of the Header it stands
    for, whatever status the header was read with."""
    gen = try_lock_node(64, header)
    cas = next(gen)
    assert (cas.expected, cas.desired) == \
        (_repacked(header, STATUS_IDLE), _repacked(header, STATUS_LOCKED))
    assert cas.lease == ("node",)
    assert u64_from_bytes(unlock_op(64, header).data, 0) == \
        _repacked(header, STATUS_IDLE)
    assert u64_from_bytes(invalidate_op(64, header).data, 0) == \
        _repacked(header, STATUS_INVALID)
    # The small-node install: expect (Idle, k), lock to (Locked, k + 1),
    # release to (Idle, k + 1).
    idle = idle_word(header)
    assert idle + HEADER_COUNT_ONE == _repacked(header, STATUS_IDLE, 1)
    assert (idle + HEADER_COUNT_ONE) | STATUS_LOCKED == \
        _repacked(header, STATUS_LOCKED, 1)


@given(_slots)
def test_slot_words_are_the_packed_slot(slot):
    word = SLOT.pack(addr=slot.addr, partial=slot.partial,
                     size_class=slot.size_class, is_leaf=int(slot.is_leaf),
                     occupied=int(slot.occupied))
    assert slot.pack() == word
    assert slot_word(slot.addr, slot.partial, slot.size_class,
                     slot.is_leaf, slot.occupied) == word
    if slot.occupied:
        assert slot_word(slot.addr, slot.partial, slot.size_class,
                         is_leaf=slot.is_leaf) == word


def test_lock_unlock_cycle(node):
    cluster, addr, header = node
    ex = cluster.direct_executor()
    assert ex.run(try_lock_node(addr, header))
    stored = Header.unpack(cluster.memories[0].read_u64(addr_offset(addr)))
    assert stored.status == STATUS_LOCKED

    def release():
        yield unlock_op(addr, header)
    ex.run(release())
    stored = Header.unpack(cluster.memories[0].read_u64(addr_offset(addr)))
    assert stored.status == STATUS_IDLE


def test_second_lock_fails(node):
    cluster, addr, header = node
    ex = cluster.direct_executor()
    assert ex.run(try_lock_node(addr, header))
    assert not ex.run(try_lock_node(addr, header))


def test_lock_fails_on_invalid_node(node):
    cluster, addr, header = node
    cluster.memories[0].write_u64(
        addr_offset(addr),
        dataclasses.replace(header, status=STATUS_INVALID).pack())
    ex = cluster.direct_executor()
    assert not ex.run(try_lock_node(addr, header))


def test_invalidate_op_writes_invalid(node):
    cluster, addr, header = node
    ex = cluster.direct_executor()

    def retire():
        yield invalidate_op(addr, header)
    ex.run(retire())
    stored = Header.unpack(cluster.memories[0].read_u64(addr_offset(addr)))
    assert stored.status == STATUS_INVALID
    assert stored.depth == header.depth
