"""Recovery oracle: crash + recover never loses, duplicates, or
resurrects a key (ISSUE 5 acceptance).

Each seeded run kills a client generator mid-operation (``crash_cn``
with a mid-publish window) or an entire memory node (``crash_mn``),
then drives :class:`repro.recover.RecoveryManager` and re-reads the
world through a fresh survivor:

* every committed key survives crash + recovery with a value some
  permitted execution left behind;
* the dying operation may or may not have applied - both outcomes are
  legal, nothing else is;
* deleted keys stay deleted (no resurrection), scans return each key at
  most once (no duplicates);
* after ``crash_cn`` recovery, fsck comes back clean (orphan locks
  reclaimed, half-writes repaired);
* attaching a recovery manager to a crash-free run changes *nothing*:
  the fault schedule and op stats stay bit-identical.
"""

import os
import random

import pytest

from repro.art import encode_str
from repro.art.layout import HashEntry, hash_entry_word
from repro.baselines import SmartConfig, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats
from repro.errors import ClientCrash, MNUnavailable, RetryLimitExceeded
from repro.fault import FaultPlan, crash_cn, crash_mn
from repro.race import (
    RaceClient,
    TableParams,
    create_table,
    fp2_of,
    key_hash,
)

# Seeded sweeps: tier-1 can deselect with -m "not property"; the nightly
# workflow widens every family proportionally via REPRO_PROPERTY_SEEDS.
pytestmark = pytest.mark.property

N_SEEDS = int(os.environ.get("REPRO_PROPERTY_SEEDS", "50"))
RACE_SEEDS = max(1, round(20 * N_SEEDS / 50))
MN_SEEDS = max(1, round(15 * N_SEEDS / 50))
NUM_KEYS = 40
OPS = 4000   # generous cap: churn stops at the scheduled crash long before
TIME_LIMIT_NS = 60_000_000_000

# "Sphinx+Loc" runs the leaf-locator tier through the same oracle: a
# directory entry left stale by the crash (leaf moved mid-op) must fall
# back to the INHT, so post-recovery answers stay inside the oracle.
TREE_SEEDS = [("Sphinx", s) for s in range(N_SEEDS)] + \
             [("Sphinx+Loc", s) for s in range(N_SEEDS)] + \
             [("SMART", s) for s in range(N_SEEDS)]


def _keys():
    return [encode_str(f"k/{i:03d}") for i in range(NUM_KEYS)]


def _build_tree(system):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    if system in ("Sphinx", "Sphinx+Loc"):
        index = SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=1 << 14,
            use_locator=(system == "Sphinx+Loc"),
            locator_budget_bytes=1 << 12))
    else:
        index = SmartIndex(cluster, SmartConfig(cache_budget_bytes=1 << 16))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = _keys()
    possible = {}
    for i, key in enumerate(keys):
        if i % 2 == 0:
            ex.run(client.insert(key, f"v{i}".encode()))
            possible[key] = {f"v{i}".encode()}
        else:
            possible[key] = {None}
    return cluster, index, client, keys, possible


def _churn_until_crash(cluster, client, executor, keys, possible, rng):
    """Deterministic single-client op mix (no fabric noise, so every
    answer is exact) until the scheduled ``crash_cn`` kills the client.
    The dying op widens the oracle both ways - it may or may not have
    applied.  Returns True once the crash fired."""
    for step in range(OPS):
        key = keys[rng.randrange(len(keys))]
        vals = possible[key]
        dice = rng.random()
        if dice < 0.35:
            try:
                got = executor.run(client.search(key))
            except ClientCrash:
                return True  # reads mutate nothing: oracle unchanged
            assert got in vals, (
                f"step={step}: search({key!r}) -> {got!r}, "
                f"oracle allows {vals!r}")
            possible[key] = {got}
        elif dice < 0.65:
            val = f"i{step}".encode()
            try:
                executor.run(client.insert(key, val))
            except ClientCrash:
                possible[key] = set(vals) | {val}
                return True
            possible[key] = {val}
        elif dice < 0.85:
            val = f"u{step}".encode()
            try:
                found = executor.run(client.update(key, val))
            except ClientCrash:
                possible[key] = set(vals) | {val}
                return True
            assert found == (vals != {None}), (
                f"step={step}: update({key!r}) found={found}, "
                f"oracle says {vals!r}")
            possible[key] = {val} if found else {None}
        else:
            try:
                executor.run(client.delete(key))
            except ClientCrash:
                possible[key] = set(vals) | {None}
                return True
            possible[key] = {None}
    return False


def _verify_against_oracle(cluster, client, keys, possible, tag):
    """Re-read the whole keyspace through a fresh survivor executor:
    values within the oracle, deleted keys still gone, scans
    duplicate-free and covering every definitely-present key."""
    survivor = cluster.direct_executor()
    for key in keys:
        got = survivor.run(client.search(key))
        assert got in possible[key], (
            f"{tag}: post-recovery search({key!r}) -> {got!r}, "
            f"oracle allows {possible[key]!r}")
        if possible[key] == {None}:
            assert got is None, f"{tag}: resurrected deleted key {key!r}"
    pairs = survivor.run(client.scan_count(keys[0], NUM_KEYS))
    seen = [k for k, _v in pairs]
    assert len(seen) == len(set(seen)), f"{tag}: scan returned duplicates"
    for k, v in pairs:
        assert v in possible.get(k, set()), (
            f"{tag}: scan returned ({k!r}, {v!r}) outside the oracle")
    must_appear = {k for k, vs in possible.items() if None not in vs}
    missing = must_appear - set(seen)
    assert not missing, f"{tag}: committed keys lost from scan: {missing!r}"


@pytest.mark.parametrize("system,seed", TREE_SEEDS,
                         ids=[f"{s}-{n}" for s, n in TREE_SEEDS])
def test_crash_cn_recovery_oracle(system, seed):
    cluster, index, client, keys, possible = _build_tree(system)
    manager = cluster.attach_recovery()
    rng = random.Random(seed * 6151 + 5)
    cluster.attach_faults(FaultPlan(
        seed=seed, rules=(crash_cn(rng.randrange(20, 800),
                                   applied_prob=0.5),)))
    victim = cluster.direct_executor()  # after attach: leases tracked
    crashed = _churn_until_crash(cluster, client, victim, keys, possible,
                                 rng)
    tag = f"{system} seed={seed}"
    assert crashed, f"{tag}: crash never fired - widen the verb window"
    assert victim.client_id in cluster.injector.crashed_clients
    report = manager.recover(index=index)
    assert report.fsck is not None, f"{tag}: recover skipped the fsck pass"
    assert report.fsck.clean, (
        f"{tag}: fsck not clean after recovery: {report.fsck.findings!r}")
    assert len(manager.lease_table) == 0, (
        f"{tag}: live leases survived recovery: "
        f"{manager.lease_table.records()!r}")
    _verify_against_oracle(cluster, client, keys, possible, tag)


# ---------------------------------------------------------------------------
# crash_mn: graceful degradation, never wrong answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(MN_SEEDS))
def test_crash_mn_degrades_without_wrong_answers(seed):
    cluster, index, client, keys, possible = _build_tree("Sphinx")
    manager = cluster.attach_recovery()
    rng = random.Random(seed * 9311 + 7)
    dead_mn = rng.randrange(cluster.config.num_mns)
    cluster.attach_faults(FaultPlan(
        seed=seed, rules=(crash_mn(dead_mn,
                                   at_verb=rng.randrange(10, 400)),)))
    executor = cluster.direct_executor()
    unavailable = 0
    for step in range(OPS):
        key = keys[rng.randrange(len(keys))]
        vals = possible[key]
        dice = rng.random()
        if dice < 0.5:
            try:
                got = executor.run(client.search(key))
            except MNUnavailable:
                unavailable += 1
                continue  # fail-fast: the read mutated nothing
            except RetryLimitExceeded:
                continue
            assert got in vals, (
                f"seed={seed} step={step}: search({key!r}) -> {got!r} "
                f"with MN {dead_mn} dead, oracle allows {vals!r}")
            possible[key] = {got}
        else:
            val = f"m{step}".encode()
            try:
                executor.run(client.insert(key, val))
            except (MNUnavailable, RetryLimitExceeded):
                unavailable += 1
                # Fail-fast mid-insert: it may have partially landed.
                possible[key] = set(vals) | {val}
                continue
            possible[key] = {val}
    assert unavailable > 0, (
        f"seed={seed}: MN {dead_mn} died at a scheduled verb but no op "
        f"ever failed fast")
    assert cluster.injector.counters.get("mn_unavailable", 0) > 0
    # Recovery without the fsck walk (the tree spans the dead MN): the
    # sweep completes without raising, and any lease stranded on the
    # dead MN is reported unreachable rather than silently dropped.
    report = manager.recover()
    assert len(manager.lease_table) == report.unreachable + report.skipped
    # Surviving MNs still answer truthfully after the sweep.
    for key in keys[:10]:
        try:
            got = executor.run(client.search(key))
        except (MNUnavailable, RetryLimitExceeded):
            continue
        assert got in possible[key]


# ---------------------------------------------------------------------------
# RACE hash table: segment-lock reclamation keeps buckets writable
# ---------------------------------------------------------------------------

def _entry(client, key, addr):
    h = key_hash(key, client.params.seed)
    return hash_entry_word(addr, fp2_of(h), 1)


def _addrs(matches):
    """The node addresses of ``lookup``'s ``(slot_addr, word)`` pairs."""
    return [HashEntry.unpack(word).addr for _slot, word in matches]


@pytest.mark.parametrize("seed", range(RACE_SEEDS))
def test_race_crash_recovery_oracle(seed):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=16 << 20))
    params = TableParams(seed=77, groups_per_segment=8, slots_per_group=4,
                         initial_depth=1)
    info = create_table(cluster, 0, params)
    client = RaceClient(cluster, info)
    keys = [f"p/{i:02d}".encode() for i in range(32)]
    addr_of = {key: 0x4000 + i * 64 for i, key in enumerate(keys)}
    loader = cluster.direct_executor()
    present = {}
    for i, key in enumerate(keys):
        if i % 2 == 0:
            loader.run(client.insert(key, _entry(client, key,
                                                 addr_of[key])))
        present[key] = (i % 2 == 0)  # True/False/None = in/out/ambiguous
    manager = cluster.attach_recovery()
    rng = random.Random(seed * 7907 + 11)
    cluster.attach_faults(FaultPlan(
        seed=seed, rules=(crash_cn(rng.randrange(10, 500),
                                   applied_prob=0.5),)))
    victim = cluster.direct_executor()
    crashed = False
    for step in range(OPS):
        key = keys[rng.randrange(len(keys))]
        state = present[key]
        dice = rng.random()
        try:
            if dice < 0.4:
                matches = victim.run(client.lookup(key))
                hit = addr_of[key] in _addrs(matches)
                if state is True:
                    assert hit, f"seed={seed} step={step}: lost {key!r}"
                elif state is False:
                    assert not hit, (
                        f"seed={seed} step={step}: resurrected {key!r}")
                present[key] = hit
            elif dice < 0.75:
                if state is not False:
                    continue  # RACE permits duplicates; oracle does not
                victim.run(client.insert(key, _entry(client, key,
                                                     addr_of[key])))
                present[key] = True
            else:
                if state is False:
                    continue
                removed = victim.run(client.delete(key, addr_of[key]))
                if state is True:
                    assert removed, (
                        f"seed={seed} step={step}: delete missed {key!r}")
                present[key] = False
        except ClientCrash:
            present[key] = None  # the dying op may have gone either way
            crashed = True
            break
    assert crashed, f"seed={seed}: crash never fired"
    manager.recover(race_clients=[client])
    assert len(manager.lease_table) == 0
    survivor = cluster.direct_executor()
    for key in keys:
        matches = survivor.run(client.lookup(key))
        hit = addr_of[key] in _addrs(matches)
        if present[key] is True:
            assert hit, f"seed={seed}: post-recovery lost {key!r}"
        elif present[key] is False:
            assert not hit, f"seed={seed}: post-recovery resurrected {key!r}"
    # No wedged bucket: a brand-new insert still lands and reads back.
    fresh = b"q/99"
    survivor.run(client.insert(fresh, _entry(client, fresh, 0x9000)))
    matches = survivor.run(client.lookup(fresh))
    assert 0x9000 in _addrs(matches), (
        f"seed={seed}: bucket wedged after recovery")


# ---------------------------------------------------------------------------
# Attaching recovery to a crash-free run is bit-invisible
# ---------------------------------------------------------------------------

def _chaos_run(with_recovery):
    cluster, _index, client, keys, _possible = _build_tree("Sphinx")
    if with_recovery:
        cluster.attach_recovery()
    cluster.attach_faults(FaultPlan.chaos(11, intensity=3.0))
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    engine = cluster.engine
    rng = random.Random(424243)

    def mix():
        for step in range(60):
            key = keys[rng.randrange(len(keys))]
            try:
                if rng.random() < 0.5:
                    yield from executor.run(client.search(key))
                else:
                    yield from executor.run(
                        client.insert(key, f"x{step}".encode()))
            except RetryLimitExceeded:
                continue

    engine.run_until_complete(engine.process(mix(), name="bit"),
                              limit=engine.now + TIME_LIMIT_NS)
    return cluster.injector.schedule(), stats, engine.now


def test_attach_recovery_is_bit_invisible_without_crashes():
    """The lease hook is pure bookkeeping: same chaos seed, same ops,
    same fault schedule, same stats, same clock - with or without a
    RecoveryManager attached."""
    baseline = _chaos_run(with_recovery=False)
    with_mgr = _chaos_run(with_recovery=True)
    assert with_mgr[0] == baseline[0], "fault schedules diverged"
    assert with_mgr[1] == baseline[1], "op stats diverged"
    assert with_mgr[2] == baseline[2], "simulated clocks diverged"
