"""Unit tests for MN memory: addressing, allocation, atomic ops."""

import pytest

from mutation_matrix import mutate
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import (
    NULL_ADDR,
    Memory,
    addr_mn,
    addr_offset,
    format_addr,
    make_addr,
)
from repro.dm.rdma import ReadOp, WriteOp
from repro.errors import BadAddress, OutOfMemory, SanViolation
from repro.san import USE_AFTER_FREE, WRITE_AFTER_FREE, SanConfig
from repro.san.monitor import AccessMonitor


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
# Memory raises on a double free; a verb landing in a freed block is
# DMSan's to flag.

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


def _freed_pair(san_config=None):
    """A cluster under DMSan with two written 64-byte blocks, the second
    freed: ``(cluster, executor, monitor, keep, victim)``."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=16 << 20))
    monitor = cluster.attach_sanitizer(san_config)
    keep = cluster.alloc(0, 64, "generic")
    victim = cluster.alloc(0, 64, "generic")
    executor = cluster.direct_executor()
    executor.run(_verbs(WriteOp(keep, bytes(64)), WriteOp(victim, bytes(64))))
    cluster.free(victim, 64, "generic")
    return cluster, executor, monitor, keep, victim


def _verbs(*ops):
    def gen():
        for op in ops:
            yield op
    return gen()


def test_uaf_flag_policy_counts_hits():
    _, executor, monitor, _, victim = _freed_pair()
    assert monitor.report.clean
    executor.run(_verbs(ReadOp(victim, 8), WriteOp(victim + 8, b"x" * 8)))
    assert [v.kind for v in monitor.report.violations] == \
        [USE_AFTER_FREE, WRITE_AFTER_FREE]
    assert all("freed" in v.detail for v in monitor.report.violations)


def test_uaf_raise_policy():
    _, executor, _, _, victim = _freed_pair(SanConfig(on_violation="raise"))
    with pytest.raises(SanViolation, match="freed"):
        executor.run(_verbs(ReadOp(victim, 8)))


def test_uaf_cleared_by_realloc():
    cluster, executor, monitor, _, victim = _freed_pair()
    again = cluster.alloc(0, 64, "generic")
    assert again == victim            # recycled
    executor.run(_verbs(ReadOp(again, 64)))   # fresh block: no flag
    assert monitor.report.clean


def test_read_of_a_freed_block_still_counts_a_uaf():
    _, executor, monitor, keep, victim = _freed_pair()
    executor.run(_verbs(ReadOp(keep, 64)))
    assert monitor.report.clean
    executor.run(_verbs(ReadOp(victim + 60, 1)))   # last bytes of the block
    assert [v.kind for v in monitor.report.violations] == [USE_AFTER_FREE]


def test_read_spanning_into_a_freed_block_counts_a_uaf():
    """A read that starts in a live block and runs into the freed one
    right after it touches freed memory too."""
    _, executor, monitor, keep, victim = _freed_pair()
    assert victim == keep + 64                     # adjacent blocks
    executor.run(_verbs(ReadOp(keep, 65)))
    assert [v.kind for v in monitor.report.violations] == [USE_AFTER_FREE]
    assert format_addr(victim) in monitor.report.violations[0].detail


def test_write_spanning_into_a_freed_block_counts_a_waf():
    _, executor, monitor, keep, victim = _freed_pair()
    assert victim == keep + 64
    executor.run(_verbs(WriteOp(keep + 56, bytes(16))))
    assert [v.kind for v in monitor.report.violations] == [WRITE_AFTER_FREE]


def test_mutant_judging_only_the_first_object_is_caught(monkeypatch):
    """``_find_objects`` returning only the block a verb starts in hides
    the freed neighbour.  Killed by the spanning-read test."""
    mutate(monkeypatch, AccessMonitor, AccessMonitor._find_objects,
           "return found", "return found[:1]")
    with pytest.raises(AssertionError):
        test_read_spanning_into_a_freed_block_counts_a_uaf()


def test_retired_block_stays_readable():
    # Retire models epoch-based reclamation: stale readers stay safe.
    memory = Memory(0, 1 << 20)
    offset = memory.alloc(64)
    memory.write(offset, b"a" * 64)
    memory.retire(offset, 64)
    assert memory.read(offset, 64) == b"a" * 64


#: Each data-plane verb on one 8-byte word.
_WORD_VERBS = {
    "read": lambda m, off: m.read(off, 8),
    "write": lambda m, off: m.write(off, bytes(8)),
    "cas_u64": lambda m, off: m.cas_u64(off, 0, 0),
    "faa_u64": lambda m, off: m.faa_u64(off, 0),
}


@pytest.mark.parametrize("verb", sorted(_WORD_VERBS))
def test_word_checks_survive_the_inlined_fast_path(verb):
    """Each verb skips ``_check_range`` only for a well-formed range
    inside the committed backing; everything else still goes through
    it."""
    access = _WORD_VERBS[verb]
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
