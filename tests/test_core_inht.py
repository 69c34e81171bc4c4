"""Unit tests for the Inner Node Hash Table wrapper."""

import pytest

from repro.art.layout import NODE4, NODE16, HashEntry
from repro.core.inht import InhtClient, InnerNodeHashTable
from repro.race.layout import TableParams


def _entries(matches):
    """Decode ``lookup``'s ``(slot_addr, entry_word)`` pairs."""
    return [HashEntry.unpack(word) for _slot, word in matches]


@pytest.fixture
def inht(cluster):
    table = InnerNodeHashTable.create(
        cluster, TableParams(seed=5, groups_per_segment=8,
                             slots_per_group=4, initial_depth=1))
    return cluster, table, InhtClient(cluster, table)


def test_one_table_per_mn(inht):
    cluster, table, client = inht
    assert set(table.tables) == set(cluster.memories)
    # Per-MN seeds differ so bucket patterns are independent.
    seeds = {info.params.seed for info in table.tables.values()}
    assert len(seeds) == len(table.tables)


def test_entry_routed_to_placement_mn(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    prefix = b"LYR"
    ex.run(client.insert(prefix, 0x40, NODE4))
    owner = cluster.placement.mn_for_prefix(prefix)
    # The entry must be findable and it must live in the owner's table.
    matches = ex.run(client.lookup(prefix))
    assert any(e.addr == 0x40 for e in _entries(matches))
    assert client._client_for(prefix) is client._clients[owner]


def test_lookup_empty(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    assert ex.run(client.lookup(b"missing")) == []


def test_update_for_type_switch(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    prefix = b"AB"
    ex.run(client.insert(prefix, 0x100, NODE4))
    assert ex.run(client.update_for_type_switch(prefix, 0x100, NODE4,
                                                0x200, NODE16))
    matches = ex.run(client.lookup(prefix))
    entries = _entries(matches)
    assert any(e.addr == 0x200 and e.node_type == NODE16 for e in entries)
    assert not any(e.addr == 0x100 for e in entries)


def test_update_for_type_switch_missing_entry_reinstalls(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    # No prior entry: the update falls back to a fresh insert.
    ok = ex.run(client.update_for_type_switch(b"XY", 0x300, NODE4,
                                              0x400, NODE16))
    assert not ok  # reports the CAS didn't happen...
    matches = ex.run(client.lookup(b"XY"))
    assert any(e.addr == 0x400 for e in _entries(matches))  # ...but heals


def test_delete(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    ex.run(client.insert(b"DEL", 0x500, NODE4))
    assert ex.run(client.delete(b"DEL", 0x500))
    assert ex.run(client.lookup(b"DEL")) == []


def test_probe_all_matches_individual_lookups(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    prefixes = [f"p{i}".encode() for i in range(20)]
    for i, p in enumerate(prefixes):
        ex.run(client.insert(p, 0x40 + i * 8, NODE4))
    out = ex.run(client.probe_all(prefixes + [b"absent"]))
    for i, p in enumerate(prefixes):
        assert out[p] is not None
        assert any(e.addr == 0x40 + i * 8 for e in _entries(out[p]))
    assert out[b"absent"] == []


def test_probe_all_single_round_trip_when_warm(inht):
    cluster, table, client = inht
    prefixes = [f"w{i}".encode() for i in range(8)]
    ex = cluster.direct_executor()
    for i, p in enumerate(prefixes):
        ex.run(client.insert(p, 0x40 + i * 8, NODE4))
    # Warm run already cached directories; a fresh probe is 1 batch.
    from repro.dm.rdma import OpStats
    stats = OpStats()
    ex2 = cluster.direct_executor(stats)
    ex2.run(client.probe_all(prefixes))
    assert stats.round_trips == 1
    assert stats.messages == len(prefixes)


def test_directory_cache_and_bytes(inht):
    cluster, table, client = inht
    ex = cluster.direct_executor()
    assert client.directory_cache_bytes() == 0
    ex.run(client.insert(b"abc", 0x40, NODE4))
    assert client.directory_cache_bytes() > 0
    assert client.splits() == 0


def test_total_bytes(inht):
    cluster, table, client = inht
    assert table.total_bytes(cluster) > 0
