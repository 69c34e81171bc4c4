"""Tests for the B+ tree extension baseline (B-link, lock coupling)."""

import random

import pytest

from repro.art import encode_str, encode_u64
from repro.baselines import BplusConfig, BplusIndex
from repro.dm import Cluster, ClusterConfig
from repro.errors import ConfigError, KeyCodecError


def fresh(key_width=8, order=16):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = BplusIndex(cluster, BplusConfig(key_width=key_width,
                                            order=order))
    return cluster, index, index.client(0), cluster.direct_executor()


def test_insert_search_model_u64():
    cluster, index, client, ex = fresh()
    rng = random.Random(2)
    model = {}
    for step in range(4_000):
        key = encode_u64(rng.getrandbits(48))
        value = f"v{step}".encode()
        assert ex.run(client.insert(key, value)) == (key not in model)
        model[key] = value
    for key, value in model.items():
        assert ex.run(client.search(key)) == value
    for _ in range(300):
        probe = encode_u64(rng.getrandbits(48))
        if probe not in model:
            assert ex.run(client.search(probe)) is None


def test_variable_length_keys_padded():
    cluster, index, client, ex = fresh(key_width=32)
    emails = [encode_str(f"user{i}@example.com") for i in range(500)]
    for i, key in enumerate(emails):
        ex.run(client.insert(key, f"v{i}".encode()))
    for i, key in enumerate(emails):
        assert ex.run(client.search(key)) == f"v{i}".encode()


def test_key_too_wide_rejected():
    cluster, index, client, ex = fresh(key_width=8)
    with pytest.raises(KeyCodecError):
        ex.run(client.insert(b"way-too-long-key", b"v"))


def test_value_too_large_rejected():
    cluster, index, client, ex = fresh()
    with pytest.raises(ConfigError):
        ex.run(client.insert(encode_u64(1), b"v" * 200))


def test_update_semantics():
    cluster, index, client, ex = fresh()
    key = encode_u64(42)
    assert not ex.run(client.update(key, b"nope"))
    ex.run(client.insert(key, b"a"))
    assert ex.run(client.update(key, b"b"))
    assert ex.run(client.search(key)) == b"b"


def test_scan_matches_sorted_model():
    cluster, index, client, ex = fresh()
    rng = random.Random(3)
    model = {}
    for i in range(2_500):
        key = encode_u64(rng.getrandbits(40))
        model[key] = f"v{i}".encode()
        ex.run(client.insert(key, model[key]))
    ordered = sorted(model)
    for start_i in (0, 100, 1_000, 2_400):
        start = ordered[start_i]
        got = ex.run(client.scan_count(start, 30))
        expected = [(k, model[k]) for k in ordered[start_i:start_i + 30]]
        assert got == expected


def test_memory_padding_tax_vs_sphinx():
    """The motivating contrast: fixed-width padding inflates the B+
    tree's node bytes for short variable-length keys."""
    emails = [encode_str(f"u{i}@d{i % 7}.com") for i in range(2_000)]
    cluster, index, client, ex = fresh(key_width=32, order=32)
    for key in emails:
        ex.run(client.insert(key, b"v" * 16))
    bplus_bytes = cluster.mn_bytes_by_category()["bplus_node"]
    from repro.core import SphinxConfig, SphinxIndex
    cluster2 = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    sphinx = SphinxIndex(cluster2, SphinxConfig(
        filter_budget_bytes=1 << 14))
    sclient = sphinx.client(0)
    ex2 = cluster2.direct_executor()
    for key in emails:
        ex2.run(sclient.insert(key, b"v" * 16))
    art_inner = cluster2.mn_bytes_by_category()["inner"]
    # Index-structure bytes (excluding the shared value blobs): the
    # padded B+ tree costs a multiple of the ART inner nodes.
    assert bplus_bytes > 2 * art_inner


def test_concurrent_inserts_with_blink_recovery():
    cluster, index, client, ex = fresh(order=8)  # small order: many splits
    rng = random.Random(4)
    keys = [encode_u64(rng.getrandbits(48)) for _ in range(600)]
    clients = [index.client(cn) for cn in range(3)]

    def worker(wid):
        executor = cluster.sim_executor(wid % 3)
        for key in keys[wid::6]:
            yield from executor.run(clients[wid % 3].insert(key, b"w"))

    procs = [cluster.engine.process(worker(w)) for w in range(6)]
    for p in procs:
        cluster.engine.run_until_complete(
            p, limit=cluster.engine.now + 120_000_000_000)
    missing = [k for k in keys if ex.run(client.search(k)) != b"w"]
    assert missing == [], f"{len(missing)} lost"


def test_concurrent_readers_during_splits():
    cluster, index, client, ex = fresh(order=8)
    stable = [encode_u64(i * 1_000_003) for i in range(200)]
    for key in stable:
        ex.run(client.insert(key, b"s"))
    observed = []

    def reader():
        executor = cluster.sim_executor(1)
        rng = random.Random(9)
        for _ in range(250):
            key = rng.choice(stable)
            value = yield from executor.run(index.client(1).search(key))
            observed.append(value)

    def writer():
        executor = cluster.sim_executor(0)
        rng = random.Random(10)
        for _ in range(400):
            yield from executor.run(client.insert(
                encode_u64(rng.getrandbits(48)), b"n"))

    p1 = cluster.engine.process(reader())
    p2 = cluster.engine.process(writer())
    for p in (p1, p2):
        cluster.engine.run_until_complete(
            p, limit=cluster.engine.now + 120_000_000_000)
    assert all(v == b"s" for v in observed), observed.count(None)


def test_search_round_trips_scale_with_depth():
    from repro.dm.rdma import OpStats
    cluster, index, client, ex = fresh(order=8)
    rng = random.Random(5)
    keys = [encode_u64(rng.getrandbits(48)) for _ in range(3_000)]
    for key in keys:
        ex.run(client.insert(key, b"v"))
    stats = OpStats()
    counted = cluster.direct_executor(stats)
    for key in keys[:300]:
        counted.run(client.search(key))
    per_op = stats.round_trips / 300
    # root ptr + ~4 levels + value blob.
    assert 4 <= per_op <= 9, per_op


def test_torn_leaf_read_budget_follows_the_tree_policy():
    """Both value-blob reads (search, insert-over-existing) are bound by
    the tree's own RetryPolicy, not by DEFAULT_RETRY's 16 attempts."""
    from repro.dm.memory import addr_mn, addr_offset
    from repro.dm.rdma import ReadOp
    from repro.errors import RetryLimitExceeded
    from repro.fault.retry import RetryPolicy
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = BplusIndex(cluster, BplusConfig(
        key_width=8, order=16, retry=RetryPolicy(torn_read_retries=2)))
    client, ex = index.client(0), cluster.direct_executor()
    keys = [encode_u64(i * 7919) for i in range(200)]
    for key in keys:
        ex.run(client.insert(key, b"v"))
    reads = []
    execute = ex.execute

    def recording(op):
        if op.__class__ is ReadOp:
            reads.append(op.addr)
        return execute(op)

    ex.execute = recording
    key = keys[77]
    assert ex.run(client.search(key)) == b"v"
    victim = reads[-1]  # a search ends on the key's value blob
    memory = cluster.memories[addr_mn(victim)]
    offset = addr_offset(victim) + 8  # the CRC32 field of the leaf header
    memory.write(offset, bytes([memory.read(offset, 1)[0] ^ 0xFF]))
    for op in (client.search(key), client.insert(key, b"w")):
        del reads[:]
        with pytest.raises(RetryLimitExceeded) as caught:
            ex.run(op)
        assert caught.value.addr == victim
        assert reads.count(victim) == 2
