"""Tests for the SMART and ART-on-DM baselines, including cross-system
equivalence: all three indexes must compute identical results."""

import random

import pytest

from repro.art import LocalART, encode_str, encode_u64
from repro.art.layout import NODE256, node_size
from repro.baselines import (
    ArtDmIndex,
    NodeCache,
    SmartConfig,
    SmartIndex,
)
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig, OpStats


def fresh_cluster():
    return Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))


def keyset(n, seed=0):
    rng = random.Random(seed)
    keys = set()
    while len(keys) < n:
        if rng.random() < 0.5:
            keys.add(encode_u64(rng.getrandbits(64)))
        else:
            keys.add(encode_str(f"user{rng.randrange(10**6)}@ex{rng.randrange(7)}.com"))
    return sorted(keys)


SYSTEMS = {
    "art": lambda c: ArtDmIndex(c),
    "smart": lambda c: SmartIndex(c, SmartConfig(cache_budget_bytes=1 << 17)),
    "smart_nocache": lambda c: SmartIndex(c, SmartConfig(cache_budget_bytes=0)),
    "sphinx": lambda c: SphinxIndex(c, SphinxConfig(
        filter_budget_bytes=1 << 15)),
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_system_matches_local_oracle(system):
    cluster = fresh_cluster()
    index = SYSTEMS[system](cluster)
    client = index.client(0)
    ex = cluster.direct_executor()
    oracle = LocalART()
    rng = random.Random(3)
    pool = keyset(300, seed=1)
    for step in range(2_000):
        key = rng.choice(pool)
        roll = rng.random()
        if roll < 0.45:
            value = f"v{step}".encode()
            assert ex.run(client.insert(key, value)) == \
                oracle.insert(key, value)
        elif roll < 0.6:
            assert ex.run(client.delete(key)) == oracle.delete(key)
        elif roll < 0.8:
            assert ex.run(client.search(key)) == oracle.search(key)
        else:
            value = f"u{step}".encode()
            found = oracle.search(key) is not None
            assert ex.run(client.update(key, value)) == found
            if found:
                oracle.insert(key, value)
    for key in pool:
        assert ex.run(client.search(key)) == oracle.search(key)
    start = pool[10]
    assert ex.run(client.scan_count(start, 50)) == \
        oracle.scan_count(start, 50)


def test_smart_preallocates_node256():
    cluster = fresh_cluster()
    index = SmartIndex(cluster)
    client = index.client(0)
    ex = cluster.direct_executor()
    for key in keyset(500, seed=2):
        ex.run(client.insert(key, b"v"))
    inner = cluster.mn_bytes_by_category()["inner"]
    # Every inner node costs node_size(NODE256); never any smaller type.
    assert inner % node_size(NODE256) == 0
    assert client.metrics.type_switches == 0


def test_smart_memory_overhead_vs_art():
    keys = keyset(2_000, seed=4)

    def load(make):
        cluster = fresh_cluster()
        index = make(cluster)
        client = index.client(0)
        ex = cluster.direct_executor()
        for key in keys:
            ex.run(client.insert(key, b"v" * 64))
        cats = cluster.mn_bytes_by_category()
        return cats["inner"] + cats["leaf"]

    art_bytes = load(lambda c: ArtDmIndex(c))
    smart_bytes = load(lambda c: SmartIndex(c))
    assert smart_bytes > 1.5 * art_bytes  # paper: 2.1-3.0x


def test_smart_cache_reduces_round_trips():
    cluster = fresh_cluster()
    index = SmartIndex(cluster, SmartConfig(cache_budget_bytes=4 << 20))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = keyset(2_000, seed=5)
    for key in keys:
        ex.run(client.insert(key, b"v"))
    # Warm pass.
    for key in keys[:400]:
        ex.run(client.search(key))
    warm = OpStats()
    exw = cluster.direct_executor(warm)
    for key in keys[:400]:
        exw.run(client.search(key))
    # Cold client on another CN for comparison.
    cold_client = index.client(1)
    cold = OpStats()
    exc = cluster.direct_executor(cold)
    for key in keys[:400]:
        exc.run(cold_client.search(key))
    assert warm.round_trips < cold.round_trips


def test_smart_zero_cache_still_correct():
    cluster = fresh_cluster()
    index = SmartIndex(cluster, SmartConfig(cache_budget_bytes=0))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = keyset(300, seed=6)
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    for i, key in enumerate(keys):
        assert ex.run(client.search(key)) == f"v{i}".encode()
    assert client.cn_cache_bytes() == 0


def test_art_dm_sequential_scan_costs_more_round_trips():
    keys = keyset(1_000, seed=7)

    def scan_rtts(make):
        cluster = fresh_cluster()
        index = make(cluster)
        client = index.client(0)
        ex = cluster.direct_executor()
        for key in keys:
            ex.run(client.insert(key, b"v"))
        stats = OpStats()
        ex2 = cluster.direct_executor(stats)
        out = ex2.run(client.scan_count(keys[5], 80))
        return stats.round_trips, out

    art_rtts, art_out = scan_rtts(lambda c: ArtDmIndex(c))
    sphinx_rtts, sphinx_out = scan_rtts(
        lambda c: SphinxIndex(c, SphinxConfig(filter_budget_bytes=1 << 15)))
    assert art_out == sphinx_out
    assert art_rtts > 1.5 * sphinx_rtts  # doorbell batching wins


def test_node_cache_lru_budget():
    from repro.art.layout import Header, NodeView, NODE4
    cache = NodeCache(3 * node_size(NODE4))
    views = {}
    for i in range(5):
        view = NodeView(Header(0, NODE4, 1, i, 0), (0, 0, 0, 0))
        views[i] = view
        cache.put(i, view)
    assert cache.bytes <= cache.budget_bytes
    assert len(cache) == 3
    assert cache.get(0) is None  # evicted (LRU)
    assert cache.get(4) is views[4]
    cache.drop(4)
    assert cache.get(4) is None
    assert cache.evictions == 2
    assert len(cache) == 2


def test_node_cache_oversized_item_skipped():
    from repro.art.layout import Header, NodeView, NODE256
    cache = NodeCache(100)
    view = NodeView(Header(0, NODE256, 1, 0, 0), tuple([0] * 256))
    cache.put(1, view)
    assert len(cache) == 0


def test_art_dm_no_cn_cache():
    cluster = fresh_cluster()
    index = ArtDmIndex(cluster)
    assert index.client(0).cn_cache_bytes() == 0
