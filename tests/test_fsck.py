"""Tests for the offline consistency checker."""

import random

import pytest

from repro.art import encode_str, encode_u64
from repro.art.layout import NODE256, STATUS_INVALID, decode_node, node_size
from repro.baselines import ArtDmIndex, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn, addr_offset
from repro.tools import check_index, check_sphinx, check_tree


def build_sphinx(n=800, seed=0):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    rng = random.Random(seed)
    keys = [encode_u64(rng.getrandbits(64)) for _ in range(n)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    return cluster, index, client, ex, keys


def test_clean_after_load():
    cluster, index, client, ex, keys = build_sphinx()
    report = check_sphinx(cluster, index)
    assert report.clean, report.errors[:5]
    assert report.leaves == len(keys)
    assert report.inner_nodes >= 1
    assert report.inht_checked == report.inner_nodes - 1  # root excluded
    assert report.inht_missing == 0
    assert "CLEAN" in report.summary()


def test_clean_after_churn():
    cluster, index, client, ex, keys = build_sphinx()
    rng = random.Random(1)
    for _ in range(1_500):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.4:
            ex.run(client.insert(key, b"x"))
        elif roll < 0.7:
            ex.run(client.delete(key))
        else:
            ex.run(client.update(key, b"y" * rng.randrange(1, 200)))
    report = check_sphinx(cluster, index)
    assert report.clean, report.errors[:5]


@pytest.mark.parametrize("make", [
    lambda c: ArtDmIndex(c),
    lambda c: SmartIndex(c),
])
def test_check_index_dispatch_baselines(make):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = make(cluster)
    client = index.client(0)
    ex = cluster.direct_executor()
    for i in range(300):
        ex.run(client.insert(encode_str(f"k/{i:04d}"), b"v"))
    report = check_index(cluster, index)
    assert report.clean, report.errors[:5]
    assert report.leaves == 300
    assert report.inht_checked == 0  # baselines have no hash table


def test_detects_corrupted_leaf():
    cluster, index, client, ex, keys = build_sphinx(n=100)
    # Corrupt one leaf payload byte directly.
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    slot = next(s for s in root.occupied_slots() if s.is_leaf)
    memory = cluster.memories[addr_mn(slot.addr)]
    offset = addr_offset(slot.addr) + 18
    memory.write(offset, bytes([memory.read(offset, 1)[0] ^ 0xFF]))
    report = check_index(cluster, index)
    assert not report.clean
    assert any("checksum" in e for e in report.errors)


def test_detects_bad_prefix_hash():
    cluster, index, client, ex, keys = build_sphinx(n=400)
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    slot = next(s for s in root.occupied_slots() if not s.is_leaf)
    memory = cluster.memories[addr_mn(slot.addr)]
    header_word = memory.read_u64(addr_offset(slot.addr))
    memory.write_u64(addr_offset(slot.addr), header_word ^ (1 << 20))
    report = check_index(cluster, index)
    assert not report.clean
    assert any("prefix hash" in e for e in report.errors)


def test_detects_duplicate_partial():
    cluster, index, client, ex, keys = build_sphinx(n=400)
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    inner = next(s for s in root.occupied_slots() if not s.is_leaf)
    memory = cluster.memories[addr_mn(inner.addr)]
    node = decode_node(memory.read(addr_offset(inner.addr),
                                   node_size(inner.size_class)))
    occupied_indexes = [i for i, w in enumerate(node.words) if w >> 63]
    if len(occupied_indexes) < 2:
        pytest.skip("need a node with two children")
    a, b = occupied_indexes[:2]
    word_a = memory.read_u64(addr_offset(inner.addr) + 8 + a * 8)
    memory.write_u64(addr_offset(inner.addr) + 8 + b * 8, word_a)
    report = check_index(cluster, index)
    assert not report.clean


def test_detects_missing_inht_entry():
    cluster, index, client, ex, keys = build_sphinx(n=400)
    # Nuke one table's segments by zeroing a bucket group that holds a
    # live entry: find a prefix via the checker's own map.
    from repro.tools.fsck import check_tree as ct
    _report, prefixes = ct(cluster, index.root_addr)
    prefix = next(p for p in prefixes if p != b"")
    inht = index.client(0).inht
    race = inht._client_for(prefix)
    matches = ex.run(race.lookup(prefix))
    assert matches
    slot_addr, _entry = matches[0]
    cluster.memories[addr_mn(slot_addr)].write_u64(addr_offset(slot_addr), 0)
    report = check_sphinx(cluster, index)
    assert report.inht_missing >= 1
    assert not report.clean


def test_detects_reachable_invalid_node():
    cluster, index, client, ex, keys = build_sphinx(n=400)
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    inner = next(s for s in root.occupied_slots() if not s.is_leaf)
    memory = cluster.memories[addr_mn(inner.addr)]
    # Flip the node's status bits to Invalid while it is still linked:
    # type switches must unlink before invalidating, so fsck flags it.
    header_word = memory.read_u64(addr_offset(inner.addr))
    memory.write_u64(addr_offset(inner.addr), (header_word & ~0x3) | 0x2)
    report = check_index(cluster, index)
    assert not report.clean
    assert any("reachable but Invalid" in e for e in report.errors)


def test_duplicate_partial_error_string():
    cluster, index, client, ex, keys = build_sphinx(n=400)
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    inner = next(s for s in root.occupied_slots() if not s.is_leaf)
    memory = cluster.memories[addr_mn(inner.addr)]
    node = decode_node(memory.read(addr_offset(inner.addr),
                                   node_size(inner.size_class)))
    occupied_indexes = [i for i, w in enumerate(node.words) if w >> 63]
    if len(occupied_indexes) < 2:
        pytest.skip("need a node with two children")
    a, b = occupied_indexes[:2]
    word_a = memory.read_u64(addr_offset(inner.addr) + 8 + a * 8)
    memory.write_u64(addr_offset(inner.addr) + 8 + b * 8, word_a)
    report = check_index(cluster, index)
    assert not report.clean
    assert any("duplicate partial bytes" in e for e in report.errors)


def test_corrupted_leaf_error_names_address():
    cluster, index, client, ex, keys = build_sphinx(n=100)
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    slot = next(s for s in root.occupied_slots() if s.is_leaf)
    memory = cluster.memories[addr_mn(slot.addr)]
    offset = addr_offset(slot.addr) + 18
    memory.write(offset, bytes([memory.read(offset, 1)[0] ^ 0xFF]))
    report = check_index(cluster, index)
    assert not report.clean
    assert any("checksum" in e and f"{slot.addr:#x}" in e
               for e in report.errors)


def test_repair_clears_the_slot_of_a_reachable_invalid_leaf():
    """A delete that crashed between invalidating its leaf and clearing
    the slot: fsck reports ``invalid_leaf`` and its repair CASes the
    slot from the word it read to empty."""
    cluster, index, client, ex, keys = build_sphinx(n=100)
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    slot = next(s for s in root.occupied_slots() if s.is_leaf)
    memory = cluster.memories[addr_mn(slot.addr)]
    memory.write(addr_offset(slot.addr), bytes([STATUS_INVALID]))
    report = check_index(cluster, index)
    assert [f.kind for f in report.findings] == ["invalid_leaf"]
    report = check_index(cluster, index, repair=True)
    assert report.repaired == 1 and report.clean, report.errors
    root = decode_node(cluster.memories[addr_mn(index.root_addr)].read(
        addr_offset(index.root_addr), node_size(NODE256)))
    assert root.child_word(slot.partial) == 0
    assert report.leaves == len(keys) - 1


# ---------------------------------------------------------------------------
# JSON output mirrors the exit-code contract
# ---------------------------------------------------------------------------

def test_json_report_mirrors_exit_code():
    import json

    from repro.tools.fsck import EXIT_CLEAN, exit_code, report_json

    cluster, index, client, ex, keys = build_sphinx(n=60)
    report = check_index(cluster, index)
    code = exit_code(report, dry_run=False, recovered=False)
    payload = report_json(report, code)
    assert code == EXIT_CLEAN
    assert payload["exit_code"] == EXIT_CLEAN
    assert payload["clean"] is True
    assert payload["findings"] == []
    assert payload["leaves"] == report.leaves
    json.dumps(payload)  # serializable


def test_json_report_on_unrepairable_defect():
    import json

    from repro.tools.fsck import (EXIT_REPAIRED, EXIT_UNREPAIRABLE,
                                  exit_code, report_json)

    cluster, index, client, ex, keys = build_sphinx(n=60)
    report = check_index(cluster, index)
    report.error("synthetic: torn leaf at rest")
    report.find("orphan_lock", 0x1000, "node locked at rest",
                repairable=False)
    code = exit_code(report, dry_run=False, recovered=False)
    payload = report_json(report, code)
    assert code == EXIT_UNREPAIRABLE
    assert payload["exit_code"] == EXIT_UNREPAIRABLE
    assert payload["clean"] is False
    assert payload["findings"][0]["repairable"] is False
    json.dumps(payload)
    # dry-run with only repairable findings maps to EXIT_REPAIRED
    fresh = check_index(cluster, index)
    fresh.find("invalid_leaf", 0x2000, "synthetic", repairable=True)
    assert exit_code(fresh, dry_run=True, recovered=False) == EXIT_REPAIRED
