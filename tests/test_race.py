"""Unit + model-based tests for the one-sided extendible hash table."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.layout import HashEntry, hash_entry_word
from repro.dm import Cluster, ClusterConfig
from repro.errors import HashTableError
from repro.race import (
    RaceClient,
    TableParams,
    create_table,
    fp2_of,
    group_index,
    key_hash,
    segment_index,
    table_bytes,
)


def make_table(cluster, mn=0, **kwargs):
    params = TableParams(seed=77, **kwargs)
    info = create_table(cluster, mn, params)
    client = RaceClient(cluster, info)
    return info, client


def entry_for(client, key, addr, node_type=1):
    h = key_hash(key, client.params.seed)
    return hash_entry_word(addr, fp2_of(h), node_type)


def addrs(matches):
    """The node addresses of ``lookup``'s ``(slot_addr, word)`` pairs."""
    return [HashEntry.unpack(word).addr for _slot, word in matches]


@pytest.fixture
def table(single_mn_cluster):
    info, client = make_table(single_mn_cluster, groups_per_segment=8,
                              slots_per_group=4, initial_depth=1)
    return single_mn_cluster, info, client


def test_layout_params():
    p = TableParams(seed=1, groups_per_segment=8, slots_per_group=4)
    assert p.group_size == 8 + 4 * 8
    assert p.segment_size == 8 * p.group_size
    assert p.directory_slots == 1 << p.max_depth
    with pytest.raises(ValueError):
        TableParams(seed=1, max_depth=13)
    with pytest.raises(ValueError):
        TableParams(seed=1, initial_depth=13)


def test_fp2_carries_low_hash_bits():
    h = key_hash(b"prefix", 7)
    assert fp2_of(h) == h & 0xFFF
    # segment index bits are a subset of fp2 bits: splits need no keys.
    for depth in range(1, 13):
        assert segment_index(h, depth) == fp2_of(h) & ((1 << depth) - 1)


def test_group_index_disjoint_from_segment_bits():
    h = key_hash(b"x", 3)
    assert group_index(h, 64) == (h >> 48) % 64


def test_insert_lookup_roundtrip(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    e = entry_for(client, b"k1", 0x40)
    ex.run(client.insert(b"k1", e))
    matches = ex.run(client.lookup(b"k1"))
    assert 0x40 in addrs(matches)


def test_lookup_missing_returns_empty(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    assert ex.run(client.lookup(b"missing")) == []


def test_insert_rejects_inconsistent_fp2(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    bad = hash_entry_word(0x40, 0x123, 1)
    h = key_hash(b"k1", client.params.seed)
    if fp2_of(h) == 0x123:  # pragma: no cover - astronomically unlikely
        bad = hash_entry_word(0x40, 0x124, 1)
    with pytest.raises(HashTableError):
        ex.run(client.insert(b"k1", bad))


def test_delete_removes_only_matching_addr(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    ex.run(client.insert(b"k1", entry_for(client, b"k1", 0x40)))
    assert not ex.run(client.delete(b"k1", 0x9999))
    assert ex.run(client.delete(b"k1", 0x40))
    assert ex.run(client.lookup(b"k1")) == []


def test_replace_type_switch(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    old = entry_for(client, b"k1", 0x40, node_type=1)
    slot = ex.run(client.insert(b"k1", old))
    new = entry_for(client, b"k1", 0x80, node_type=2)
    assert ex.run(client.replace(b"k1", old, new))
    assert ex.run(client.lookup(b"k1")) == [(slot, new)]
    # A repeat finds the new word in place and writes nothing.
    assert ex.run(client.replace(b"k1", old, new))
    assert ex.run(client.lookup(b"k1")) == [(slot, new)]


def test_insert_is_idempotent(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    entry = entry_for(client, b"k1", 0x40)
    slot = ex.run(client.insert(b"k1", entry))
    assert ex.run(client.insert(b"k1", entry)) == slot
    assert ex.run(client.lookup(b"k1")) == [(slot, entry)]


def test_splits_preserve_all_entries(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    keys = [f"key-{i}".encode() for i in range(800)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, entry_for(client, key, 0x40 + i * 8)))
    assert client.splits > 0
    for i, key in enumerate(keys):
        matches = ex.run(client.lookup(key))
        assert 0x40 + i * 8 in addrs(matches), key


def test_split_updates_depths(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    for i in range(800):
        key = f"d-{i}".encode()
        ex.run(client.insert(key, entry_for(client, key, 0x40 + i * 8)))
    depths = {e.local_depth for e in client._dir_cache.values()}
    assert max(depths) > client.params.initial_depth


def test_stale_directory_cache_heals(table):
    """A second client with a stale cache still finds migrated entries."""
    cluster, info, client = table
    other = RaceClient(cluster, info)
    ex = cluster.direct_executor()
    # Warm other's cache before any splits.
    probe = b"warm"
    ex.run(other.insert(probe, entry_for(other, probe, 0x48)))
    # Drive splits through the first client.
    keys = [f"s-{i}".encode() for i in range(800)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, entry_for(client, key, 0x1000 + i * 8)))
    assert client.splits > 0
    # The stale client must heal and find everything.
    for i, key in enumerate(keys):
        matches = ex.run(other.lookup(key))
        assert 0x1000 + i * 8 in addrs(matches)
    assert other.stale_refreshes > 0


def test_table_bytes_accounted(single_mn_cluster):
    info, client = make_table(single_mn_cluster)
    assert table_bytes(single_mn_cluster, 0) > 0


def test_max_depth_overflow_raises(single_mn_cluster):
    params = TableParams(seed=3, groups_per_segment=1, slots_per_group=1,
                         initial_depth=0, max_depth=2)
    info = create_table(single_mn_cluster, 0, params)
    client = RaceClient(single_mn_cluster, info)
    ex = single_mn_cluster.direct_executor()
    with pytest.raises(HashTableError):
        for i in range(64):
            key = f"of-{i}".encode()
            ex.run(client.insert(key, entry_for(client, key, 0x40 + 8 * i)))


@given(st.sets(st.binary(min_size=1, max_size=12), min_size=1, max_size=250))
@settings(max_examples=20, deadline=None)
def test_model_based_insert_lookup_delete(keys):
    cluster = Cluster(ClusterConfig(num_mns=1, num_cns=1,
                                    mn_capacity_bytes=32 << 20))
    info, client = make_table(cluster, groups_per_segment=4,
                              slots_per_group=4, initial_depth=1)
    ex = cluster.direct_executor()
    model = {}
    for i, key in enumerate(sorted(keys)):
        addr = 0x40 + i * 8
        ex.run(client.insert(key, entry_for(client, key, addr)))
        model[key] = addr
    for key, addr in model.items():
        matches = ex.run(client.lookup(key))
        assert addr in addrs(matches)
    # Delete half, verify the rest intact.
    doomed = sorted(model)[::2]
    for key in doomed:
        assert ex.run(client.delete(key, model.pop(key)))
    for key, addr in model.items():
        matches = ex.run(client.lookup(key))
        assert addr in addrs(matches)


def test_probe_prepare_parse_matches_lookup(table):
    cluster, info, client = table
    ex = cluster.direct_executor()
    key = b"probe-me"
    ex.run(client.insert(key, entry_for(client, key, 0x40)))
    group_addr, h, depth = ex.run(client.probe_prepare(key))
    data = ex.run(one_read(client, group_addr))
    matches = client.probe_parse(group_addr, data, h, depth)
    assert matches is not None
    direct = ex.run(client.lookup(key))
    assert [(s, e) for s, e in matches] == direct


def one_read(client, addr):
    data = yield client.probe_read_op(addr)
    return data
