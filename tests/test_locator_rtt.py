"""RTT accounting for the locator fast path and the Outback directory
(ISSUE 8 acceptance).

The whole point of the locator tier is the round-trip count, so these
tests pin it down instead of trusting throughput numbers:

* a locator hit answers a point read in exactly ONE round trip (one
  READ verb, visible both in :class:`OpStats` and in the attached
  tracer's per-op spans/VerbEvents);
* an Outback directory hit is likewise exactly one READ; a directory
  miss is zero round trips (the CN-resident directory is authoritative
  for absence);
* an Outback update false-routed by a fingerprint collision costs one
  READ and creates nothing;
* a stale locator entry costs extra round trips but still returns the
  correct value (the fallback ladder: fence-check fail -> drop ->
  INHT path);
* attaching a tracer to a locator-enabled run changes nothing simulated
  (bit-identical results, op stats, and final clock).
"""

import random

from repro.art import encode_str
from repro.baselines import OutbackConfig, OutbackIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats

N_KEYS = 64


def _load_sphinx_loc():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(
        filter_budget_bytes=1 << 14, use_locator=True,
        locator_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"k/{i:03d}") for i in range(N_KEYS)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    return cluster, index, client, keys


def _load_outback(config=None):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = OutbackIndex(cluster, config)
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"k/{i:03d}") for i in range(N_KEYS)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    return cluster, index, client, keys


# ---------------------------------------------------------------------------
# Exactly one round trip on a hit
# ---------------------------------------------------------------------------

def test_locator_hit_is_exactly_one_round_trip():
    """Inserts note the leaf, so every loaded key is already a locator
    hit: each search must cost exactly one round trip."""
    cluster, _index, client, keys = _load_sphinx_loc()
    stats = OpStats()
    ex = cluster.direct_executor(stats)
    hits_before = client.locator.stats()["locator_hits"]
    for i, key in enumerate(keys):
        before = stats.round_trips
        assert ex.run(client.search(key)) == f"v{i}".encode()
        assert stats.round_trips - before == 1, (
            f"locator hit on {key!r} took "
            f"{stats.round_trips - before} RTTs")
    assert client.locator.stats()["locator_hits"] - hits_before == N_KEYS
    assert client.locator_fallbacks == 0


def test_outback_hit_is_one_rtt_and_miss_is_zero():
    cluster, _index, client, keys = _load_outback()
    stats = OpStats()
    ex = cluster.direct_executor(stats)
    for i, key in enumerate(keys):
        before = stats.round_trips
        assert ex.run(client.search(key)) == f"v{i}".encode()
        assert stats.round_trips - before == 1
    # Directory miss: the CN-resident directory answers absence locally.
    before = stats.round_trips
    assert ex.run(client.search(b"zz/absent")) is None
    assert stats.round_trips == before


def test_locator_spans_show_single_read_verb():
    """The attached tracer sees the same thing OpStats counts: one span
    per search, one READ VerbEvent inside it."""
    cluster, _index, client, keys = _load_sphinx_loc()
    tracer = cluster.attach_tracer()
    executor = cluster.sim_executor(0)
    engine = cluster.engine

    def driver():
        for i, key in enumerate(keys[:16]):
            got = yield from executor.run(client.search(key))
            assert got == f"v{i}".encode()

    engine.run_until_complete(engine.process(driver(), name="drv"))
    spans = [s for s in tracer.spans if s.name == "search"]
    assert len(spans) == 16
    for span in spans:
        assert span.round_trips == 1, span
        assert [v.kind for v in span.verbs] == ["read"], span.verbs
        assert span.status == "ok"


def test_outback_spans_show_single_read_verb():
    cluster, _index, client, keys = _load_outback()
    tracer = cluster.attach_tracer()
    executor = cluster.sim_executor(0)
    engine = cluster.engine

    def driver():
        for i, key in enumerate(keys[:16]):
            got = yield from executor.run(client.search(key))
            assert got == f"v{i}".encode()

    engine.run_until_complete(engine.process(driver(), name="drv"))
    spans = [s for s in tracer.spans if s.name == "search"]
    assert len(spans) == 16
    for span in spans:
        assert span.round_trips == 1, span
        assert [v.kind for v in span.verbs] == ["read"], span.verbs


def test_false_routed_outback_update_creates_nothing():
    """An absent key whose MPH fingerprint collides with a member's slot
    is routed to that member's leaf.  ``update`` pays the one wasted
    READ, counts a false route and returns False: no alloc, no write, no
    publish.  (The nightly ``u64-zipfian-15`` seed hit this with a 16-bit
    fingerprint and the update created the key; 8 bits finds a collision
    in a few hundred candidates.)  ``insert`` of the same key still
    creates it."""
    cluster, index, client, keys = _load_outback(OutbackConfig(dir_fp_bits=8))
    index.rebuild()  # fold the delta: every lookup now routes by MPH slot
    absent = next(c for c in (b"zz/%d" % i for i in range(1 << 16))
                  if index.dir_lookup(c) is not None)
    assert absent not in keys
    stats = OpStats()
    ex = cluster.direct_executor(stats)
    leaf_bytes = cluster.mn_bytes_by_category()["leaf"]
    false_routes = client.metrics["false_routes"]
    assert ex.run(client.update(absent, b"never")) is False
    assert client.metrics["false_routes"] == false_routes + 1
    assert (stats.round_trips, stats.reads, stats.writes, stats.cas) == \
        (1, 1, 0, 0)
    assert cluster.mn_bytes_by_category()["leaf"] == leaf_bytes
    assert index.delta == {}
    assert ex.run(client.search(absent)) is None
    assert ex.run(client.insert(absent, b"now")) is True
    assert ex.run(client.search(absent)) == b"now"


# ---------------------------------------------------------------------------
# Fallback ladder: stale entries cost extra RTTs, never wrong answers
# ---------------------------------------------------------------------------

def test_stale_locator_entry_falls_back_with_extra_rtts():
    """Poison key 0's locator entry with key 1's leaf ref: the fence
    check (key mismatch on a checksum-clean leaf) must drop the entry
    and fall back to the INHT - correct answer, more round trips."""
    cluster, _index, client, keys = _load_sphinx_loc()
    wrong = client.locator.get(keys[1])
    assert wrong is not None
    client.locator.put(keys[0], *wrong)
    stats = OpStats()
    ex = cluster.direct_executor(stats)
    before = stats.round_trips
    assert ex.run(client.search(keys[0])) == b"v0"
    extra = stats.round_trips - before
    assert extra > 1, f"fallback path recorded only {extra} RTTs"
    assert client.locator_fallbacks == 1
    # The provably-stale ref was dropped and re-noted by the fallback
    # search's INHT hit, so the next search is a 1-RTT hit again.
    fixed = client.locator.get(keys[0])
    assert fixed is not None and fixed != wrong
    before = stats.round_trips
    assert ex.run(client.search(keys[0])) == b"v0"
    assert stats.round_trips - before == 1


def test_deleted_key_does_not_linger_in_locator():
    cluster, _index, client, keys = _load_sphinx_loc()
    ex = cluster.direct_executor()
    assert ex.run(client.delete(keys[3]))
    assert client.locator.get(keys[3]) is None
    assert ex.run(client.search(keys[3])) is None


# ---------------------------------------------------------------------------
# Attached tracer stays schedule-invariant with the locator on
# ---------------------------------------------------------------------------

def _sim_run(attach_tracer):
    cluster, _index, client, keys = _load_sphinx_loc()
    if attach_tracer:
        cluster.attach_tracer()
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    engine = cluster.engine
    rng = random.Random(90210)
    results = []

    def mix():
        for step in range(120):
            key = keys[rng.randrange(len(keys))]
            dice = rng.random()
            if dice < 0.55:
                got = yield from executor.run(client.search(key))
            elif dice < 0.80:
                got = yield from executor.run(
                    client.update(key, f"w{step}".encode()))
            else:
                got = yield from executor.run(client.delete(key))
            results.append(got)

    engine.run_until_complete(engine.process(mix(), name="drv"))
    return results, stats, engine.now


def test_tracer_attach_is_schedule_invariant_with_locator():
    """DESIGN.md §8's contract extended to the locator fast path: the
    tracer observes, never participates - results, op stats, and the
    simulated clock are bit-identical with and without it."""
    detached = _sim_run(attach_tracer=False)
    attached = _sim_run(attach_tracer=True)
    assert attached[0] == detached[0], "results diverged under tracing"
    assert attached[1] == detached[1], "op stats diverged under tracing"
    assert attached[2] == detached[2], "clocks diverged under tracing"
