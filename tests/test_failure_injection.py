"""Failure injection: abandoned locks, corrupted memory, stuck buckets.

The properties asserted here are *containment*: failures surface as
bounded retries or degraded paths, never as wrong answers or unbounded
hangs, and lock-free readers keep working through abandoned writer
locks.  Containment is the floor recovery builds on - actual crash
*recovery* (lease-based lock reclamation, ``crash_cn``/``crash_mn``
tolerance, fsck-driven repair) lives in ``repro.recover`` and is
exercised by ``test_recovery.py`` / ``test_recovery_properties.py``.

Faults are expressed as :class:`repro.fault.FaultPlan` rules (scheduled
``poke``/``flip`` environment corruption) rather than hand-poking memory
bytes, so the same machinery the chaos suite uses is exercised here.
"""

import pytest

from repro.art import encode_str
from repro.art.layout import (
    NODE256,
    STATUS_LOCKED,
    decode_leaf,
    decode_node,
    leaf_status_word,
    node_size,
)
from repro.core import SphinxConfig, SphinxIndex
from repro.core.lock import idle_word
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn, addr_offset
from repro.errors import RetryLimitExceeded
from repro.fault import FaultPlan, RetryPolicy, flip, poke
from repro.race.layout import GROUP_HEADER
from repro.util.bits import u64_to_bytes


def read_node(cluster, addr, node_type):
    memory = cluster.memories[addr_mn(addr)]
    return decode_node(memory.read(addr_offset(addr), node_size(node_type)))


def walk_to_leaf(cluster, index, key):
    """(path of (addr, view), leaf_slot) for ``key`` via raw reads."""
    addr, view = index.root_addr, read_node(cluster, index.root_addr,
                                            NODE256)
    path = [(addr, view)]
    while True:
        slot = view.find_child(key[view.header.depth])
        assert slot is not None, "key must exist"
        if slot.is_leaf:
            return path, slot
        addr, view = slot.addr, read_node(cluster, slot.addr,
                                          slot.size_class)
        path.append((addr, view))


def inject(cluster, *rules):
    """Attach a plan of scheduled rules and hand back a fresh executor
    (executors built before ``attach_faults`` bypass the injector)."""
    cluster.attach_faults(FaultPlan(seed=7, rules=tuple(rules)))
    return cluster.direct_executor()


@pytest.fixture
def loaded():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(
        filter_budget_bytes=1 << 14,
        retry=RetryPolicy(max_retries=12, backoff_ns=500)))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"node/{i:03d}") for i in range(40)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    return cluster, index, client, ex, keys


def _abandon_lock_on_leaf_parent(cluster, index, key):
    """Simulate a crashed writer: leave the leaf's parent Locked forever
    (a scheduled ``poke`` rule, fired before the next verb)."""
    path, _leaf_slot = walk_to_leaf(cluster, index, key)
    node_addr, view = path[-1]
    ex = inject(cluster, poke(
        node_addr, u64_to_bytes(idle_word(view.header) | STATUS_LOCKED)))
    return node_addr, view, ex


def test_readers_pass_through_abandoned_node_lock(loaded):
    cluster, index, client, _ex, keys = loaded
    _addr, _view, ex = _abandon_lock_on_leaf_parent(cluster, index, keys[0])
    # Reads are lock-free (paper Sec. III-C): they still succeed.
    for i, key in enumerate(keys[:10]):
        assert ex.run(client.search(key)) == f"v{i}".encode()
    assert cluster.injector.counters.get("poke") == 1


def test_writers_bounded_by_retry_budget_on_abandoned_lock(loaded):
    cluster, index, client, _ex, keys = loaded
    _addr, view, ex = _abandon_lock_on_leaf_parent(cluster, index, keys[0])
    # A key that must be installed *inside* the dead-locked node: same
    # prefix as keys[0] up to the node's depth, fresh next byte.
    depth = view.header.depth
    sibling = keys[0][:depth] + b"Z" + b"x\x00"
    with pytest.raises(RetryLimitExceeded):
        ex.run(client.insert(sibling, b"new"))
    # Unrelated writes elsewhere still work.
    assert ex.run(client.insert(encode_str("other/abc"), b"x"))


def test_update_bounded_on_abandoned_leaf_lock(loaded):
    cluster, index, client, ex, keys = loaded
    _path, leaf_slot = walk_to_leaf(cluster, index, keys[0])
    leaf_mem = cluster.memories[addr_mn(leaf_slot.addr)]
    leaf = decode_leaf(leaf_mem.read(addr_offset(leaf_slot.addr),
                                     leaf_slot.size_class * 64))
    assert leaf.key == keys[0]
    ex = inject(cluster, poke(
        leaf_slot.addr,
        u64_to_bytes(leaf_status_word(STATUS_LOCKED, leaf.units,
                                      len(leaf.key), len(leaf.value)))))
    with pytest.raises(RetryLimitExceeded):
        ex.run(client.update(keys[0], b"nope"))
    # Other keys are unaffected.
    assert ex.run(client.update(keys[1], b"fine"))
    assert ex.run(client.search(keys[1])) == b"fine"


def test_search_degrades_when_inht_bucket_stuck(loaded):
    cluster, index, client, _ex, keys = loaded
    # Jam the hash-table bucket of the *deepest* inner prefix on the
    # key's path behind a fake (abandoned) segment-split lock.
    path, _leaf_slot = walk_to_leaf(cluster, index, keys[0])
    _deepest_addr, deepest_view = path[-1]
    prefix = keys[0][:deepest_view.header.depth]
    race = client.inht._client_for(prefix)
    location = race.cached_group_location(prefix)
    assert location is not None  # warmed during the load
    group_addr, _h, local_depth = location
    ex = inject(cluster, poke(
        group_addr,
        u64_to_bytes(GROUP_HEADER.pack(local_depth=local_depth, locked=1,
                                       version=999))))
    # Searches fall back to root traversal and still answer correctly.
    before = client.inht_fallbacks
    assert ex.run(client.search(keys[0])) == b"v0"
    assert client.inht_fallbacks > before


def test_corrupted_leaf_is_detected_not_returned(loaded):
    cluster, index, client, _ex, keys = loaded
    _path, leaf_slot = walk_to_leaf(cluster, index, keys[0])
    # Flip every bit of one key/payload byte (xor 0xFF at offset +17).
    ex = inject(cluster, flip(addr=leaf_slot.addr + 17, xor=0xFF,
                              at_verb=0))
    # The checksum turns silent corruption into a bounded, loud failure.
    with pytest.raises(RetryLimitExceeded):
        ex.run(client.search(keys[0]))
    # Other keys unaffected.
    assert ex.run(client.search(keys[1])) == b"v1"
