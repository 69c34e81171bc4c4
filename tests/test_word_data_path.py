"""The data path reads child pointers as raw words, never as records.

Slot words go from ``NodeView.child_word`` / ``NodeView.words`` to every
consumer (descent, insert / update / delete / split helpers, prefix
recovery, SMART's cached walk, fsck), and hash-entry words go through
RACE lookups and the INHT, with fields read through the ``SLOT_*`` /
``HASH_ENTRY_*`` masks of ``art/layout.py``.  ``Slot`` and ``HashEntry``
are decoders for tests and introspection only, so neither has a memo.

The census tests wrap both constructors with counters and run a Sphinx
script that exercises every structural path - bulk load, leaf split,
edge split, the 4 -> 16 -> 48 -> 256 type switches, hole reuse in a
full node, an empty-node replacement, in-place and out-of-place
updates, deletes, a scan and fsck - on the direct executor and on the
simulated one, plus a small K=1 rack call: zero constructions.  The
differential tests pin ``child_word`` to the ``find_child`` decode it
replaced on the data path.
"""

import random
from collections import Counter

import pytest

from repro.art import encode_str
from repro.art.layout import (
    NODE4,
    NODE256,
    NODE_CAPACITY,
    NODE_TYPES,
    STATUS_IDLE,
    HashEntry,
    Header,
    Slot,
    decode_node,
    encode_node_words,
    slot_word,
)
from repro.baselines.smart import SmartConfig, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rack import ClusterSpec
from repro.tenancy.runner import run_rack
from repro.tools import check_index
from repro.util import hashing
from repro.ycsb.datasets import make_dataset
from repro.ycsb.runner import bulk_load

DELETED_MEMOS = {"layout.slot", "layout.hash_entry"}


@pytest.fixture
def constructions(monkeypatch):
    """``Counter`` of ``Slot`` / ``HashEntry`` instances built while the
    test runs."""
    counts = Counter()
    for cls in (Slot, HashEntry):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _direct_runner(cluster):
    return cluster.direct_executor().run


def _sim_runner(cluster):
    """Run one op generator to completion on a ``SimExecutor``."""
    executor = cluster.sim_executor(0)
    engine = cluster.engine

    def run(op):
        process = engine.process(executor.run(op))
        return engine.run_until_complete(process,
                                         limit=engine.now + 10 ** 12)
    return run


def _sphinx_script(make_runner):
    """Every structural path of the Sphinx client, then a scan and fsck.
    Returns the client and the fsck report."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    bulk_load(cluster, index, make_dataset("u64", 300, seed=1))
    client = index.client(0)
    run = make_runner(cluster)

    def key(text):
        return encode_str(text)

    # Leaf split: "t/a" sits in the root's slot until "t/b" arrives.
    assert run(client.insert(key("t/a"), b"1"))
    assert run(client.insert(key("t/b"), b"2"))
    # Edge split: "e/xyz" is one compressed node until "e/q" diverges.
    assert run(client.insert(key("e/xyz1"), b"3"))
    assert run(client.insert(key("e/xyz2"), b"4"))
    assert run(client.insert(key("e/q"), b"5"))
    # Hole reuse: the Node-4's append cursor is full, a delete left a hole.
    holes = [key(f"h/{c}") for c in "abcd"]
    for k in holes:
        assert run(client.insert(k, b"h"))
    assert run(client.delete(holes[1]))
    assert run(client.insert(key("h/e"), b"h"))
    # Type switches 4 -> 16 -> 48 -> 256 (the start node comes from the
    # filter, so the switch finds its parent with a descent of its own).
    grown = [key("s/" + chr(0x30 + i)) for i in range(60)]
    for k in grown:
        assert run(client.insert(k, b"s"))
    # An emptied inner node replaced by a leaf.
    assert run(client.insert(key("m/aa"), b"6"))
    assert run(client.insert(key("m/ab"), b"7"))
    assert run(client.delete(key("m/aa")))
    assert run(client.delete(key("m/ab")))
    assert run(client.insert(key("m/x"), b"8"))
    # Updates: in place (same size), out of place (more leaf units),
    # and an upsert of an existing key.
    assert run(client.update(key("t/a"), b"9"))
    assert run(client.update(key("t/b"), b"x" * 300))
    assert run(client.insert(key("e/q"), b"y")) is False
    assert run(client.update(key("absent"), b"z")) is False
    # Searches: hits, a miss, a deleted key.
    assert run(client.search(key("t/a"))) == b"9"
    assert run(client.search(key("t/b"))) == b"x" * 300
    assert run(client.search(key("s/0"))) == b"s"
    assert run(client.search(key("nope"))) is None
    assert run(client.search(key("m/aa"))) is None
    # Deletes of a type-switched child and of an absent key.
    assert run(client.delete(grown[7]))
    assert run(client.delete(key("absent"))) is False
    scanned = run(client.scan_count(key("s/"), 10))
    assert [k for k, _v in scanned] == grown[:7] + grown[8:11]
    metrics = client.metrics
    assert metrics.leaf_splits and metrics.edge_splits
    assert metrics.type_switches >= 3 and metrics.empty_replacements == 1
    return client, check_index(cluster, index)


@pytest.mark.parametrize("make_runner", [_direct_runner, _sim_runner],
                         ids=["direct", "sim"])
def test_sphinx_data_path_builds_no_slot_or_hash_entry(constructions,
                                                       make_runner):
    _client, report = _sphinx_script(make_runner)
    assert report.clean, report.errors
    # The emptied node's hash entry is the one tolerated leftover
    # (``_replace_empty_child``): a warning, never an error.
    assert report.inht_checked > 0
    assert [f.kind for f in report.findings] == ["inht_orphan"]
    assert constructions == Counter()


def test_smart_cached_walk_builds_no_slot(constructions):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SmartIndex(cluster, SmartConfig(cache_budget_bytes=1 << 20))
    client = index.client(0)
    run = cluster.direct_executor().run
    keys = [encode_str(f"w/{i}/{c}") for i in range(8) for c in "abc"]
    for k in keys:
        assert run(client.insert(k, b"v"))
    for k in keys:  # second visits walk the CN node cache
        assert run(client.search(k)) == b"v"
        assert run(client.update(k, b"u"))
    assert run(client.delete(keys[0]))
    assert check_index(cluster, index).clean
    assert constructions == Counter()


def test_rack_call_builds_no_slot_or_hash_entry(constructions):
    """A fault-free K=1 ``run_rack`` call: bulk load, traffic, replica
    settle and the per-group fsck all stay on words."""
    result = run_rack(ClusterSpec(num_cns=2, num_mns=4, group_size=2,
                                  num_shards=8, clients=8, replicas=1),
                      tenants=2, num_keys=300, insert_pool=60, ops=300,
                      seed=5)
    assert result.fsck_exit == 0 and not result.result.failed_ops
    assert constructions == Counter()


def test_census_names_neither_deleted_memo():
    _sphinx_script(_direct_runner)
    census = hashing.memo_census()
    assert "layout.header" in census
    assert not DELETED_MEMOS & set(census), census


# -- child_word: the one lookup ---------------------------------------------

def _first_occupied_match(view, partial):
    """The pre-word lookup, spelled over decoded slots: Node-256 is
    direct-indexed, smaller nodes take the first occupied slot whose
    partial byte matches."""
    if view.header.node_type == NODE256:
        slot = view.slots[partial]
        return slot if slot.occupied else None
    return next((slot for slot in view.slots
                 if slot.occupied and slot.partial == partial), None)


def _view(node_type, words):
    header = Header(STATUS_IDLE, node_type, 3, 0x1234,
                    0 if node_type == NODE256 else len(words))
    return decode_node(encode_node_words(header, words))


@pytest.mark.parametrize("node_type", NODE_TYPES)
def test_child_word_decodes_to_find_child_for_every_byte(node_type):
    rng = random.Random(node_type)
    capacity = NODE_CAPACITY[node_type]
    children = rng.sample(range(256), min(capacity - 2, 100))
    absent = [b for b in range(256) if b not in children]
    words = [slot_word(rng.getrandbits(48), b, rng.randrange(64),
                       is_leaf=rng.random() < 0.5) for b in children]
    # An unoccupied word that still carries bits of an absent byte must
    # not match it.
    ghost = slot_word(rng.getrandbits(48), absent[0], 5, is_leaf=True,
                      occupied=False)
    if node_type == NODE256:
        image = [0] * 256
        for word, b in zip(words, children):
            image[b] = word
        image[absent[0]] = ghost
    else:
        image = words + [ghost, 0]
        rng.shuffle(image)
    view = _view(node_type, image)
    for b in range(256):
        word = view.child_word(b)
        expected = _first_occupied_match(view, b)
        assert view.find_child(b) == expected
        assert (Slot.unpack(word) if word else None) == expected
        assert (word != 0) == (b in children)
    assert view.child_word(absent[0]) == 0


def test_child_word_takes_the_first_index_of_a_duplicated_byte():
    first = slot_word(0x1000, 0x61, 2, is_leaf=True)
    second = slot_word(0x2000, 0x61, NODE4, is_leaf=False)
    view = _view(NODE4, [0, first, second, 0])
    assert view.child_word(0x61) == first
    assert view.find_child(0x61) == Slot.unpack(first)
    assert view.child_word(0x62) == 0 and view.find_child(0x62) is None
