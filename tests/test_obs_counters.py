"""Tests for the shared per-index counter facade (repro.obs.counters).

The facade is the one shape every index client's counters funnel into;
these tests pin its mapping semantics (default-zero reads, merge
aggregation), the ``client_counters`` alias, and the ``counters()``
snapshots of every real client.
"""

from repro.art import encode_str, encode_u64
from repro.baselines import ArtDmIndex, BplusIndex, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats
from repro.obs import Counters, client_counters


# ---------------------------------------------------------------------------
# Facade semantics
# ---------------------------------------------------------------------------

def test_missing_counter_reads_zero():
    c = Counters()
    assert c["never_bumped"] == 0
    assert c.get("never_bumped") == 0
    assert c.get("never_bumped", 7) == 7
    assert "never_bumped" not in c
    assert len(c) == 0


def test_inc_setitem_and_contains():
    c = Counters()
    c.inc("hits")
    c.inc("hits", 4)
    c["misses"] = 2
    assert c["hits"] == 5 and c["misses"] == 2
    assert "hits" in c and set(c) == {"hits", "misses"}


def test_merge_adds_and_returns_self():
    a = Counters({"x": 1, "y": 2})
    b = Counters({"y": 3, "z": 4})
    assert a.merge(b) is a
    assert a == {"x": 1, "y": 5, "z": 4}
    # merge also accepts a plain mapping
    a.merge({"x": 10})
    assert a["x"] == 11
    # and the source is untouched
    assert b == {"y": 3, "z": 4}


def test_aggregate_over_mixed_sources():
    total = Counters.aggregate([
        Counters({"a": 1}), {"a": 2, "b": 5}, Counters(), {"b": 1},
    ])
    assert total == {"a": 3, "b": 6}


def test_eq_against_counters_and_mapping():
    c = Counters({"a": 1})
    assert c == Counters({"a": 1})
    assert c == {"a": 1}
    assert c != {"a": 2}
    assert (c == 42) is False


def test_as_dict_is_a_copy():
    c = Counters({"a": 1})
    d = c.as_dict()
    d["a"] = 99
    assert c["a"] == 1


def test_per_op_division_and_zero_ops():
    c = Counters({"round_trips": 30, "bytes_read": 600})
    assert c.per_op(10) == {"round_trips": 3.0, "bytes_read": 60.0}
    assert c.per_op(0) == {"round_trips": 0.0, "bytes_read": 0.0}


def test_from_opstats_snapshots_every_field():
    stats = OpStats(reads=3, writes=1, round_trips=4, messages=5,
                    bytes_read=96, bytes_written=16)
    c = Counters.from_opstats(stats)
    assert c["reads"] == 3
    assert c["round_trips"] == 4
    assert c["bytes_read"] == 96
    assert c["faults_injected"] == 0  # default fields present too
    assert set(c) == set(OpStats.__dataclass_fields__)


# ---------------------------------------------------------------------------
# client_counters adapter
# ---------------------------------------------------------------------------

class _HasCounters:
    def counters(self):
        return Counters({"native": 1})


def test_adapter_prefers_native_counters():
    assert client_counters(_HasCounters()) == {"native": 1}


# ---------------------------------------------------------------------------
# Real index clients expose the facade
# ---------------------------------------------------------------------------

def _cluster():
    return Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))


def test_art_client_counters_track_ops():
    cluster = _cluster()
    client = ArtDmIndex(cluster).client(0)
    ex = cluster.direct_executor()
    for i in range(8):
        ex.run(client.insert(encode_u64(i), b"v"))
    ex.run(client.search(encode_u64(3)))
    c = client.counters()
    assert isinstance(c, Counters)
    assert c["inserts"] == 8 and c["searches"] == 1
    assert client_counters(client) == c


def test_sphinx_client_counters_include_filter_and_inht():
    cluster = _cluster()
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    for i in range(16):
        ex.run(client.insert(encode_str(f"k/{i:02d}"), b"v"))
    for i in range(16):
        ex.run(client.search(encode_str(f"k/{i:02d}")))
    c = client.counters()
    # base tree counters and the Sphinx-specific ones share one facade
    assert c["inserts"] == 16 and c["searches"] == 16
    assert "filter_hits" in c and "filter_misses" in c
    assert "inht_splits" in c
    assert c["filter_hits"] + c["filter_misses"] > 0


def test_smart_client_counters_include_cache():
    cluster = _cluster()
    index = SmartIndex(cluster)
    client = index.client(0)
    ex = cluster.direct_executor()
    for i in range(8):
        ex.run(client.insert(encode_u64(i), b"v"))
    ex.run(client.search(encode_u64(2)))
    c = client.counters()
    assert c["inserts"] == 8
    assert "cache_hits" in c and "cache_misses" in c


def test_bplus_client_counters_from_plain_metrics():
    cluster = _cluster()
    index = BplusIndex(cluster)
    client = index.client(0)
    ex = cluster.direct_executor()
    for i in range(8):
        ex.run(client.insert(encode_u64(i), b"v"))
    ex.run(client.search(encode_u64(5)))
    c = client.counters()
    assert isinstance(c, Counters)
    assert c["inserts"] == 8 and c["searches"] == 1


def test_counters_survive_merge_across_clients():
    cluster = _cluster()
    index = BplusIndex(cluster)
    ex = cluster.direct_executor()
    for cn in range(2):
        client = index.client(cn)
        for i in range(4):
            ex.run(client.insert(encode_u64(cn * 100 + i), b"v"))
    total = Counters.aggregate(
        client_counters(index.client(cn)) for cn in range(2))
    assert total["inserts"] == 8
