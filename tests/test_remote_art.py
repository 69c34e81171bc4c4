"""Targeted tests of the remote-ART engine's structural operations."""

import random

import pytest

from repro.art import encode_str, encode_u64
from repro.art.layout import (
    NODE4,
    NODE16,
    NODE48,
    NODE256,
    NODE_CAPACITY,
    STATUS_INVALID,
    decode_node,
    node_size,
)
from repro.baselines import ArtDmIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.core.remote_art import EMPTY_SUBTREE, RETRY
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn, addr_offset


def fresh_art():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = ArtDmIndex(cluster)
    return cluster, index, index.client(0), cluster.direct_executor()


def read_raw_node(cluster, addr, node_type):
    memory = cluster.memories[addr_mn(addr)]
    return decode_node(memory.read(addr_offset(addr), node_size(node_type)))


def test_type_switch_progression_4_16_48_256():
    cluster, index, client, ex = fresh_art()
    # 60 distinct bytes under one 3-byte prefix: N4 -> N16 -> N48 -> N256.
    keys = [encode_str("ab/" + chr(33 + i)) for i in range(60)]
    for key in keys:
        ex.run(client.insert(key, b"v"))
    assert client.metrics.type_switches >= 3
    for key in keys:
        assert ex.run(client.search(key)) == b"v"
    # The prefix node is now a Node-48 or bigger.
    root = read_raw_node(cluster, index.root_addr, NODE256)
    slot = root.find_child(ord("a"))
    assert not slot.is_leaf and slot.size_class >= NODE48


def test_count_is_append_cursor():
    cluster, index, client, ex = fresh_art()
    keys = [encode_str(f"zz/{c}") for c in "abc"]
    for key in keys:
        ex.run(client.insert(key, b"v"))
    root = read_raw_node(cluster, index.root_addr, NODE256)
    slot = root.find_child(ord("z"))
    node = read_raw_node(cluster, slot.addr, slot.size_class)
    # Created by a split with 2 children, one appended: cursor == 3.
    assert node.header.count == 3
    assert node.occupied_count() == 3
    # Deletes clear slots but never rewind the cursor.
    ex.run(client.delete(keys[0]))
    node = read_raw_node(cluster, slot.addr, slot.size_class)
    assert node.header.count == 3
    assert node.occupied_count() == 2


def test_hole_reuse_when_cursor_full():
    cluster, index, client, ex = fresh_art()
    keys = [encode_str(f"q/{c}") for c in "abcd"]
    for key in keys:
        ex.run(client.insert(key, b"v"))
    root = read_raw_node(cluster, index.root_addr, NODE256)
    slot = root.find_child(ord("q"))
    assert slot.size_class == NODE4
    node = read_raw_node(cluster, slot.addr, NODE4)
    assert node.header.count == NODE_CAPACITY[NODE4]
    # Delete one, insert another: the cursor is full, so the engine must
    # reuse the hole (no type switch).
    switches_before = client.metrics.type_switches
    ex.run(client.delete(keys[1]))
    ex.run(client.insert(encode_str("q/e"), b"v"))
    assert client.metrics.type_switches == switches_before
    node = read_raw_node(cluster, slot.addr, NODE4)
    assert node.occupied_count() == 4
    assert ex.run(client.search(encode_str("q/e"))) == b"v"
    # One more forces the switch.
    ex.run(client.insert(encode_str("q/f"), b"v"))
    assert client.metrics.type_switches == switches_before + 1
    for suffix in "acdef":
        assert ex.run(client.search(encode_str(f"q/{suffix}"))) == b"v"


def test_old_node_invalid_after_switch():
    cluster, index, client, ex = fresh_art()
    keys = [encode_str(f"w/{c}") for c in "abcd"]
    for key in keys:
        ex.run(client.insert(key, b"v"))
    root = read_raw_node(cluster, index.root_addr, NODE256)
    old_addr = root.find_child(ord("w")).addr
    ex.run(client.insert(encode_str("w/e"), b"v"))  # N4 -> N16
    old = read_raw_node(cluster, old_addr, NODE4)
    assert old.header.status == STATUS_INVALID


def test_empty_node_replaced_by_insert():
    cluster, index, client, ex = fresh_art()
    # Build an inner node then empty it with deletes.
    ex.run(client.insert(encode_str("m/aa"), b"1"))
    ex.run(client.insert(encode_str("m/ab"), b"2"))
    ex.run(client.delete(encode_str("m/aa")))
    ex.run(client.delete(encode_str("m/ab")))
    # An insert diverging inside the (now empty) node's compressed path
    # must replace it rather than livelock.
    assert ex.run(client.insert(encode_str("m/x"), b"3"))
    assert client.metrics.empty_replacements == 1
    assert ex.run(client.search(encode_str("m/x"))) == b"3"
    assert ex.run(client.search(encode_str("m/aa"))) is None


def test_recover_leaf_key_sentinels():
    cluster, index, client, ex = fresh_art()
    ex.run(client.insert(encode_str("r/aa"), b"1"))
    ex.run(client.insert(encode_str("r/ab"), b"2"))
    root = read_raw_node(cluster, index.root_addr, NODE256)
    slot = root.find_child(ord("r"))
    node = read_raw_node(cluster, slot.addr, slot.size_class)
    witness = ex.run(client._recover_leaf_key(node))
    assert witness in (encode_str("r/aa"), encode_str("r/ab"))
    ex.run(client.delete(encode_str("r/aa")))
    ex.run(client.delete(encode_str("r/ab")))
    node = read_raw_node(cluster, slot.addr, slot.size_class)
    assert ex.run(client._recover_leaf_key(node)) is EMPTY_SUBTREE


def test_chase_leaf_slot():
    cluster, index, client, ex = fresh_art()
    key = encode_str("c/hase")
    ex.run(client.insert(key, b"v"))
    root = read_raw_node(cluster, index.root_addr, NODE256)
    leaf_addr = root.find_child(ord("c")).addr
    found = ex.run(client._chase_leaf_slot(key, leaf_addr))
    assert found is not None and found is not RETRY
    _addr, _view, word = found
    assert word == root.child_word(ord("c"))
    # A different target address on the same path: definitively unlinked.
    assert ex.run(client._chase_leaf_slot(key, 0xDEAD00)) is None
    # A key whose path ends before reaching any leaf.
    assert ex.run(client._chase_leaf_slot(encode_str("x/nope"),
                                          leaf_addr)) is None


def test_scan_unbatched_equals_batched():
    cluster, index, client, ex = fresh_art()
    rng = random.Random(4)
    keys = sorted({encode_u64(rng.getrandbits(40)) for _ in range(800)})
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    client.scan_batched = True
    batched = ex.run(client.scan_count(keys[10], 60))
    client.scan_batched = False
    sequential = ex.run(client.scan_count(keys[10], 60))
    assert batched == sequential
    assert len(batched) == 60


def test_update_shrink_and_grow_cycles():
    cluster, index, client, ex = fresh_art()
    key = encode_u64(123456)
    ex.run(client.insert(key, b"a" * 8))
    sizes = [8, 500, 16, 900, 1, 64]
    for n in sizes:
        assert ex.run(client.update(key, bytes([n % 251]) * n))
        assert ex.run(client.search(key)) == bytes([n % 251]) * n
    # Exactly one live leaf remains; its size is the high-water mark of
    # the in-place/out-of-place cycle (leaves never shrink in place:
    # the 900-byte value forced a 15-unit leaf that later values reuse).
    leaf_bytes = cluster.mn_bytes_by_category()["leaf"]
    assert leaf_bytes == 960


def test_metrics_as_dict_complete():
    cluster, index, client, ex = fresh_art()
    ex.run(client.insert(encode_u64(1), b"v"))
    d = client.metrics.as_dict()
    assert d["inserts"] == 1
    assert set(d) >= {"searches", "inserts", "updates", "deletes", "scans",
                      "op_restarts", "fp_restarts", "lock_failures",
                      "leaf_splits", "edge_splits", "type_switches",
                      "empty_replacements", "stale_filter_fills"}


def test_sphinx_inht_consistency_after_switches():
    """After type switches, the INHT points at the live node for every
    inner prefix (checked via a fresh client with a cold filter)."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    writer = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"inht/{i:03d}") for i in range(120)]
    for key in keys:
        ex.run(writer.insert(key, b"v"))
    assert writer.metrics.type_switches > 0
    reader = index.client(2)
    for key in keys:
        assert ex.run(reader.search(key)) == b"v"
