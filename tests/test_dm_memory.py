"""Unit tests for MN memory: addressing, allocation, atomic ops."""

import pytest

from repro.dm.memory import (
    NULL_ADDR,
    Memory,
    addr_mn,
    addr_offset,
    format_addr,
    make_addr,
)
from repro.errors import BadAddress, OutOfMemory


def test_addr_pack_roundtrip():
    addr = make_addr(5, 0x12345)
    assert addr_mn(addr) == 5
    assert addr_offset(addr) == 0x12345


def test_addr_null_is_zero():
    assert make_addr(0, 0) == NULL_ADDR


def test_addr_bounds_checked():
    with pytest.raises(BadAddress):
        make_addr(256, 0)
    with pytest.raises(BadAddress):
        make_addr(0, 1 << 40)
    with pytest.raises(BadAddress):
        make_addr(-1, 0)


def test_format_addr():
    assert format_addr(NULL_ADDR) == "NULL"
    assert format_addr(make_addr(2, 0x40)) == "mn2+0x40"


def test_alloc_reserves_null_page():
    mem = Memory(0, 1 << 16)
    assert mem.alloc(8) >= 64


def test_alloc_free_reuses_block():
    mem = Memory(0, 1 << 16)
    a = mem.alloc(128, "x")
    mem.write(a, b"junk" + bytes(124))
    mem.free(a, 128, "x")
    b = mem.alloc(128, "x")
    assert b == a
    assert mem.read(b, 4) == bytes(4)  # zeroed on reuse


def test_alloc_category_accounting():
    mem = Memory(0, 1 << 16)
    mem.alloc(100, "leaf")
    mem.alloc(50, "inner")
    a = mem.alloc(30, "leaf")
    mem.free(a, 30, "leaf")
    assert mem.allocated_by_category["leaf"] == 100
    assert mem.allocated_by_category["inner"] == 50
    assert mem.allocated_bytes() == 150
    assert mem.footprint_bytes() >= 150 + 64


def test_out_of_memory():
    mem = Memory(0, 1 << 10)
    with pytest.raises(OutOfMemory):
        mem.alloc(1 << 11)


def test_alloc_rejects_nonpositive():
    mem = Memory(0, 1 << 10)
    with pytest.raises(ValueError):
        mem.alloc(0)


def test_read_write_roundtrip():
    mem = Memory(0, 1 << 12)
    off = mem.alloc(64)
    mem.write(off, b"hello world")
    assert mem.read(off, 11) == b"hello world"


def test_bounds_checks():
    mem = Memory(0, 1 << 12)
    with pytest.raises(BadAddress):
        mem.read(0, 8)  # reserved NULL page
    with pytest.raises(BadAddress):
        mem.read(1 << 12, 8)
    with pytest.raises(BadAddress):
        mem.write((1 << 12) - 4, b"too long")
    for offset, size in ((128, -1), ((1 << 12) + 64, -8)):
        with pytest.raises(BadAddress):
            mem.read(offset, size)
    assert mem.read(64, 0) == b""


def test_u64_roundtrip():
    mem = Memory(0, 1 << 12)
    off = mem.alloc(8)
    mem.write_u64(off, 0xDEADBEEFCAFEBABE)
    assert mem.read_u64(off) == 0xDEADBEEFCAFEBABE


def test_cas_success_and_failure():
    mem = Memory(0, 1 << 12)
    off = mem.alloc(8)
    mem.write_u64(off, 10)
    ok, old = mem.cas_u64(off, 10, 20)
    assert ok and old == 10
    assert mem.read_u64(off) == 20
    ok, old = mem.cas_u64(off, 10, 30)
    assert not ok and old == 20
    assert mem.read_u64(off) == 20


def test_faa_wraps_and_returns_old():
    mem = Memory(0, 1 << 12)
    off = mem.alloc(8)
    mem.write_u64(off, (1 << 64) - 1)
    old = mem.faa_u64(off, 2)
    assert old == (1 << 64) - 1
    assert mem.read_u64(off) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        Memory(0, 64)


# -- freed-region registry (double free / use-after-free) -----------------

def test_double_free_raises():
    from repro.errors import DoubleFree
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.free(offset, 64)
    with pytest.raises(DoubleFree, match="already-freed"):
        memory.free(offset, 64)


def test_overlapping_free_raises():
    from repro.errors import DoubleFree
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.free(offset, 64)
    with pytest.raises(DoubleFree):
        memory.free(offset + 8, 16)   # inside the freed block


def test_free_after_retire_raises():
    from repro.errors import DoubleFree
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.retire(offset, 64)
    with pytest.raises(DoubleFree, match="retired"):
        memory.free(offset, 64)


def test_uaf_flag_policy_counts_hits():
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.free(offset, 64)
    assert memory.uaf_hits == 0
    memory.read(offset, 8)
    memory.write(offset + 8, b"x" * 8)
    assert memory.uaf_hits == 2
    assert any("freed block" in s for s in memory.uaf_samples)


def test_uaf_raise_policy():
    from repro.errors import UseAfterFree
    memory = Memory(0, 1 << 20)
    memory.uaf_policy = "raise"
    offset = memory.alloc(64)
    memory.free(offset, 64)
    with pytest.raises(UseAfterFree, match="freed block"):
        memory.read_u64(offset)


def test_uaf_cleared_by_realloc():
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.free(offset, 64)
    again = memory.alloc(64)
    assert again == offset            # recycled
    memory.read(again, 64)            # fresh block: no flag
    assert memory.uaf_hits == 0


def test_retired_block_stays_readable():
    # Retire models epoch-based reclamation: stale readers stay safe.
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.write(offset, b"a" * 64)
    memory.retire(offset, 64)
    assert memory.read(offset, 64) == b"a" * 64
    assert memory.uaf_hits == 0


#: Each data-plane verb on one 8-byte word, and the UAF kinds it flags on
#: a freed block (a CAS that swaps and an FAA both read and write it).
_WORD_VERBS = {
    "read": (lambda m, off: m.read(off, 8), ["read"]),
    "write": (lambda m, off: m.write(off, bytes(8)), ["write"]),
    "cas_u64": (lambda m, off: m.cas_u64(off, 0, 0),
                ["read_u64", "write_u64"]),
    "faa_u64": (lambda m, off: m.faa_u64(off, 0), ["read_u64", "write_u64"]),
}


@pytest.mark.parametrize("verb", sorted(_WORD_VERBS))
def test_word_checks_survive_the_inlined_fast_path(verb):
    """Each verb skips ``_check_range`` only for a well-formed range
    inside the committed backing; everything else still goes through
    it, and a freed block is still flagged with the verb's kinds."""
    access, kinds = _WORD_VERBS[verb]
    capacity = 4 << 20
    memory = Memory(0, capacity)
    committed = len(memory._data)
    assert committed < capacity
    # Past the committed backing but inside capacity: grows, reads zeros.
    access(memory, committed + 4096)
    assert len(memory._data) >= committed + 4096 + 8
    assert memory.read(committed + 4096, 8) == bytes(8)
    # Straddling the (new) end of the backing.
    edge = len(memory._data)
    access(memory, edge - 4)
    assert len(memory._data) >= edge + 4
    access(memory, capacity - 8)
    for offset in (capacity - 7, capacity, 63, 0, -8, capacity + 64):
        with pytest.raises(BadAddress):
            access(memory, offset)
    keep, victim = memory.alloc(64), memory.alloc(64)
    memory.free(victim, 64)
    access(memory, keep)
    assert memory.uaf_hits == 0
    access(memory, victim + 56)   # last word of the freed block
    assert memory.uaf_hits == len(kinds)
    assert [sample.split(":")[1].split()[0] for sample in
            memory.uaf_samples] == kinds


def test_read_of_a_freed_block_still_counts_a_uaf():
    memory = Memory(0, 1 << 20)
    keep, victim = memory.alloc(64), memory.alloc(64)
    memory.free(victim, 64)
    memory.read(keep, 64)
    assert memory.uaf_hits == 0
    memory.read(victim + 60, 1)   # last bytes of the freed block
    memory.read(keep, 64 + 1)     # a read running into it
    assert memory.uaf_hits == 2
