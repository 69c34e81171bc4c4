"""Cross-cutting integration tests."""

import random

import pytest

from repro.art import LocalART, encode_str, encode_u64
from repro.art.layout import hash_entry_word
from repro.baselines import ArtDmIndex, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.race import RaceClient, TableParams, create_table
from repro.race.layout import fp2_of, key_hash


def fresh():
    return Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))


def test_filter_and_nofilter_modes_agree():
    """The succinct filter cache is a performance layer: with and without
    it, Sphinx must compute identical results for identical op streams."""
    rng = random.Random(1)
    stream = []
    pool = [encode_u64(rng.getrandbits(64)) for _ in range(250)]
    for step in range(1_500):
        stream.append((rng.choice(["i", "s", "d", "u"]),
                       rng.choice(pool), f"v{step}".encode()))

    def run(use_filter):
        cluster = fresh()
        index = SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=1 << 14, use_filter=use_filter))
        client = index.client(0)
        ex = cluster.direct_executor()
        out = []
        for op, key, value in stream:
            if op == "i":
                out.append(ex.run(client.insert(key, value)))
            elif op == "s":
                out.append(ex.run(client.search(key)))
            elif op == "u":
                out.append(ex.run(client.update(key, value)))
            else:
                out.append(ex.run(client.delete(key)))
        return out

    assert run(True) == run(False)


def test_nofilter_mode_reads_theta_l_entries():
    """Sec. III-A: without the filter, locating costs Theta(L) messages."""
    from repro.dm.rdma import OpStats
    keys = [encode_str(f"some/long/path/{i:05d}") for i in range(2_000)]

    def messages(use_filter):
        cluster = fresh()
        index = SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=1 << 15, use_filter=use_filter))
        client = index.client(0)
        ex = cluster.direct_executor()
        for i, key in enumerate(keys):
            ex.run(client.insert(key, b"v"))
        for key in keys[:200]:
            ex.run(client.search(key))  # warm
        stats = OpStats()
        counted = cluster.direct_executor(stats)
        for key in keys[:200]:
            counted.run(client.search(key))
        return stats.messages / 200

    with_filter = messages(True)
    without = messages(False)
    assert without > 2.0 * with_filter


def test_concurrent_race_table_clients():
    """Two clients hammer one hash table (forcing segment splits) under
    the simulated clock; no entry may be lost."""
    cluster = Cluster(ClusterConfig(num_mns=1, num_cns=2,
                                    mn_capacity_bytes=32 << 20))
    params = TableParams(seed=9, groups_per_segment=4, slots_per_group=4,
                         initial_depth=1)
    info = create_table(cluster, 0, params)
    clients = [RaceClient(cluster, info) for _ in range(2)]
    keys = [f"entry-{i}".encode() for i in range(600)]

    def worker(wid):
        executor = cluster.sim_executor(wid)
        client = clients[wid]
        for i, key in enumerate(keys[wid::2]):
            h = key_hash(key, params.seed)
            entry = hash_entry_word(0x40 + (wid * 1000 + i) * 8,
                                    fp2_of(h), 1)
            yield from executor.run(client.insert(key, entry))

    procs = [cluster.engine.process(worker(w)) for w in range(2)]
    for p in procs:
        cluster.engine.run_until_complete(p,
                                          limit=cluster.engine.now + 10**11)
    assert clients[0].splits + clients[1].splits > 0
    ex = cluster.direct_executor()
    for key in keys:
        matches = ex.run(clients[0].lookup(key))
        assert matches, key


@pytest.mark.parametrize("make", [
    lambda c: SphinxIndex(c, SphinxConfig(filter_budget_bytes=1 << 14)),
    lambda c: SmartIndex(c),
    lambda c: ArtDmIndex(c),
])
def test_memory_accounting_balances(make):
    """Every allocation is matched by accounting; inserting then deleting
    everything leaves only structural residue (inner nodes + retired
    blocks are kept, leaves are reclaimed)."""
    cluster = fresh()
    index = make(cluster)
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_u64(i * 977) for i in range(2_000)]
    for key in keys:
        ex.run(client.insert(key, b"x" * 64))
    loaded = cluster.mn_bytes_by_category()
    assert loaded["leaf"] == sum(
        128 for _ in keys)  # 16 B header + 8 B key + 64 B value -> 2 units
    for key in keys:
        assert ex.run(client.delete(key))
    after = cluster.mn_bytes_by_category()
    assert after["leaf"] == 0
    assert after["inner"] <= loaded["inner"]


def test_scan_range_equivalence_across_systems():
    rng = random.Random(3)
    keys = sorted({encode_u64(rng.getrandbits(48)) for _ in range(1_500)})
    oracle = LocalART()
    outputs = []
    for make in (lambda c: SphinxIndex(c, SphinxConfig(
            filter_budget_bytes=1 << 14)),
            lambda c: SmartIndex(c), lambda c: ArtDmIndex(c)):
        cluster = fresh()
        index = make(cluster)
        client = index.client(0)
        ex = cluster.direct_executor()
        for i, key in enumerate(keys):
            ex.run(client.insert(key, f"v{i}".encode()))
        lo, hi = keys[100], keys[700]
        outputs.append(ex.run(client.scan_range(lo, hi)))
    for i, key in enumerate(keys):
        oracle.insert(key, f"v{i}".encode())
    expected = oracle.scan(keys[100], keys[700])
    for out in outputs:
        assert out == expected


def test_retired_nodes_not_recycled():
    """Type-switch victims must never be handed back to the allocator
    (epoch-reclamation stand-in): their memory stays Invalid."""
    cluster = fresh()
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    # 40 keys under one prefix: forces N4 -> N16 -> N48 switches.
    for i in range(40):
        ex.run(client.insert(encode_str(f"prefix/{i:02d}"), b"v"))
    assert client.metrics.type_switches >= 2
    # Retired bytes are subtracted from the accounting (Fig 6 counts live
    # data) but the blocks are never recycled: a fresh allocation of the
    # same size must come from new space, not a retired node's address.
    memory = cluster.memories[0]
    off2 = memory.alloc(64, "probe")
    memory.retire(off2, 64, "probe")
    off3 = memory.alloc(64, "probe")
    assert off3 != off2  # retired block not reused
    memory.free(off3, 64, "probe")
    off4 = memory.alloc(64, "probe")
    assert off4 == off3  # freed block IS reused
