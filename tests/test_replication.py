"""Shard replication, failover, and anti-entropy suites (ISSUE 10).

Seven families:

* **placement units**: the successor-chain replica placement is
  deterministic, disjoint from the primary, and keeps its invariants
  across ring joins/leaves;
* **replicated-write protocol**: on a K=1 rack every committed write is
  applied to the primary *and* its replica cell, deletes reach both,
  and the per-shard epoch fence rejects stale writers; two racing
  updates whose fan-outs reorder are a strict xfail until replica
  applies follow primary order;
* **zero-forfeit sweep**: a >=25-seed sweep (scaled by
  ``REPRO_PROPERTY_SEEDS``) of ``crash_mn`` + ``mn_leave`` under live
  multi-tenant traffic - including seeds whose crash lands mid-
  migration - must forfeit **zero** committed keys, keep every
  registered key readable through the router, and end replica-aware
  fsck-clean; each sweep run must also reproduce its entry in
  ``tests/fixtures/rack_control_golden.json`` (``tests/rack_golden.py``);
* **repair by exception**: a write racing a re-replication copy leaves
  the gaining group a recorded debt, settle repairs it, and each
  divergent key is repaired and counted once;
* **coordinator crashes**: a drain survives its own coordinator CN
  crashing on a lattice of verbs, mid-recovery reads included;
* **copy outcomes**: one hand-driven run per ``Rebalancer.copy_key``
  outcome and caller that no sweep reaches (a re-replication from a
  dead primary, an abort's restore and forfeit, a key deleted
  mid-sweep, a K=0 destination death), each pinned in the golden
  fixture beside the lattice;
* **K=0 detachment**: an unreplicated rack run carries no replication
  state at all - the new machinery is invisible until K > 0.
"""

import json
import os
from collections import Counter

import pytest

from mutation_matrix import mutate
from rack_golden import check_control_golden, control_fingerprint, \
    fingerprint
from repro.art.layout import LEAF_HEADER_SIZE, NODE256, decode_leaf, \
    decode_node, node_size
from repro.dm import ClusterSpec, TopologyEvent
from repro.dm.memory import Memory, addr_mn, addr_offset
from repro.dm.placement import ShardMap
from repro.dm.rack import Rack
from repro.errors import StaleEpoch
from repro.fault import FaultPlan, FaultRule, crash_cn, crash_mn
from repro.recover import FailoverManager, Rebalancer
from repro.tenancy import run_rack
from repro.tools import fsck
from repro.util.hashing import ConsistentHashRing
from repro.ycsb import make_dataset
from repro.ycsb.runner import bulk_load

pytestmark = pytest.mark.property

N_SEEDS = int(os.environ.get("REPRO_PROPERTY_SEEDS", "50"))
#: The zero-forfeit sweep width: 25 seeds at the stock setting.
SWEEP_SEEDS = range(max(1, round(25 * N_SEEDS / 50)))

RSPEC = ClusterSpec(num_cns=3, num_mns=6, group_size=2, num_shards=24,
                    clients=12, replicas=1, mn_capacity_bytes=16 << 20)
NUM_KEYS = 400
OPS = 800


# ---------------------------------------------------------------------------
# Placement units
# ---------------------------------------------------------------------------

def test_lookup_chain_extends_lookup():
    ring = ConsistentHashRing([3, 7, 11, 19], vnodes=16, seed=5)
    for token in (b"a", b"shard:9", b"zz"):
        chain = ring.lookup_chain(token, 4)
        assert chain[0] == ring.lookup(token)
        assert sorted(chain) == [3, 7, 11, 19]      # all members, distinct
        assert ring.lookup_chain(token, 2) == chain[:2]


def test_replica_placement_invariants():
    for k in (0, 1, 2):
        smap = ShardMap(num_shards=32, groups=[0, 1, 2, 3], replicas=k)
        for shard in range(32):
            reps = smap.replica_assignment[shard]
            assert len(reps) == k
            assert smap.assignment[shard] not in reps
            assert len(set(reps)) == len(reps)


def test_replica_placement_survives_membership_changes():
    smap = ShardMap(num_shards=32, groups=[0, 1, 2], replicas=1)
    before = list(smap.replica_assignment)
    smap.commit_join(3)
    # desired_replicas follows the new ring; the materialized sets only
    # move when the rebalancer syncs them.
    assert smap.replica_assignment == before
    for shard in range(32):
        want = smap.desired_replicas(shard)
        assert len(want) == 1 and want[0] != smap.assignment[shard]
    smap.commit_leave(0)
    for shard in range(32):
        want = smap.desired_replicas(shard)
        assert 0 not in want


# ---------------------------------------------------------------------------
# Replicated-write protocol
# ---------------------------------------------------------------------------

def _loaded_rack(replicas=1, num_keys=120):
    spec = ClusterSpec(num_cns=2, num_mns=6, group_size=2, num_shards=12,
                       clients=4, replicas=replicas,
                       mn_capacity_bytes=16 << 20)
    rack = Rack(spec)
    dataset = make_dataset("u64", num_keys, seed=1, insert_pool=32)
    bulk_load(rack.cluster, rack, dataset)
    return rack, dataset


def test_replicated_writes_reach_primary_and_replica():
    rack, dataset = _loaded_rack()
    ex = rack.cluster.direct_executor()
    for key in dataset.keys:
        shard = rack.shards.shard_for_key(key)
        primary = rack.shards.assignment[shard]
        replicas = rack.shards.replica_assignment[shard]
        assert len(replicas) == 1
        want = ex.run(rack.group_index(primary).client(0).search(key))
        assert want is not None
        for gid in replicas:
            got = ex.run(rack.group_index(gid).client(0).search(key))
            assert got == want, f"replica {gid} diverges for {key!r}"
    assert rack.repl["replica_writes"] >= len(dataset.keys)


def test_replicated_delete_reaches_replicas():
    rack, dataset = _loaded_rack()
    ex = rack.cluster.direct_executor()
    client = rack.client(0)
    victim = dataset.keys[7]
    shard = rack.shards.shard_for_key(victim)
    assert ex.run(client.delete(victim)) is True
    assert victim not in rack.registry[shard]
    for gid in rack.live_groups():
        assert ex.run(rack.group_index(gid).client(0).search(victim)) \
            is None, f"delete missed group {gid}"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_racing_updates_reach_the_replica_in_primary_order():
    """Two updates to one K=1 key: the primary's leaf lock orders their
    applies, then each fans out on its own.  One delay on the first
    writer's first verb to the replica lets the second fan-out overtake
    it, so the replica keeps the older value and the acked newer write
    would be lost after a failover."""
    spec = ClusterSpec(num_cns=2, num_mns=2, group_size=1, num_shards=2,
                       clients=2, replicas=1, mn_capacity_bytes=16 << 20)
    rack = Rack(spec)
    dataset = make_dataset("u64", 8, seed=1, insert_pool=2)
    bulk_load(rack.cluster, rack, dataset)
    key = dataset.keys[0]
    shard = rack.shard_of(key)
    primary = rack.shards.assignment[shard]
    (replica,) = rack.shards.replica_assignment[shard]
    (replica_mn,) = rack.group_view(replica).mn_ids
    injector = rack.cluster.attach_faults(FaultPlan(seed=0, rules=(
        FaultRule(kind="delay", at_verb=0, client="cn0", mn=replica_mn,
                  delay_ns=50_000),)))
    engine = rack.cluster.engine
    writers = [engine.process(rack.cluster.sim_executor(cn).run(
        rack.client(cn).update(key, value)))
        for cn, value in ((0, b"A" * 8), (1, b"B" * 8))]
    engine.run()
    assert [w.value for w in writers] == [True, True]
    assert [event.kind for event in injector.schedule()] == ["delay"]
    ex = rack.cluster.direct_executor()
    at_primary = ex.run(rack.group_index(primary).client(0).search(key))
    at_replica = ex.run(rack.group_index(replica).client(0).search(key))
    assert at_replica == at_primary
    assert rack.check_replica_agreement().clean


def test_epoch_fence_rejects_stale_writers():
    rack, _ = _loaded_rack()
    shard = 3
    captured = rack.epochs[shard]
    rack.epochs[shard] += 1          # a failover promotion happened
    with pytest.raises(StaleEpoch) as exc:
        rack.check_epoch(shard, captured)
    assert exc.value.shard == shard
    assert exc.value.expected == captured
    assert exc.value.current == captured + 1
    assert rack.repl["fenced_writes"] == 1
    # The current epoch still passes.
    rack.check_epoch(shard, rack.epochs[shard])


def test_replica_fallback_read_survives_dead_primary():
    rack, dataset = _loaded_rack()
    rack.cluster.attach_faults(FaultPlan(seed=0, rules=(
        crash_mn(0, at_verb=1),)))
    engine = rack.cluster.engine
    client = rack.client(0)
    executor = rack.cluster.sim_executor(0)

    def drive():
        hits = 0
        for key in dataset.keys:
            value = yield from executor.run(client.search(key))
            if value is not None:
                hits += 1
        return hits

    proc = engine.process(drive(), name="reader")
    engine.run_until_complete(proc)
    assert proc.value == len(dataset.keys), "reads lost to a dead primary"
    assert rack.repl["replica_fallback_reads"] > 0


# ---------------------------------------------------------------------------
# Failover end to end (no runner)
# ---------------------------------------------------------------------------

def test_failover_promotes_and_rereplicates():
    rack, dataset = _loaded_rack()
    rack.cluster.attach_faults(FaultPlan(seed=0, rules=(
        crash_mn(2, at_verb=1),)))
    engine = rack.cluster.engine
    executor = rack.cluster.sim_executor(0)
    client = rack.client(0)

    def poke():  # trip the injector so MN 2 actually dies
        for key in dataset.keys[:10]:
            yield from executor.run(client.search(key))

    engine.run_until_complete(engine.process(poke(), name="poke"))
    assert rack.cluster.injector.dead_mns == {2}
    manager = FailoverManager(rack)
    engine.run_until_complete(
        engine.process(manager.settle(), name="settle"))
    assert 1 in rack.failed_groups            # MN 2 lives in group 1
    assert rack.repl["promotions"], "no shard was promoted"
    assert not rack.repl.get("failover_forfeited_keys")
    for shard in range(rack.spec.num_shards):
        assert rack.shards.assignment[shard] != 1
        assert 1 not in rack.shards.replica_assignment[shard]
    # Promoted shards carry a bumped, fencing epoch.
    assert max(rack.epochs) == 1
    ex = rack.cluster.direct_executor()
    for key in dataset.keys:
        assert ex.run(client.search(key)) is not None
    for gid, report in rack.fsck_all():
        assert report.clean and not report.findings, (gid, report.findings)


def test_rereplication_race_leaves_a_debt_that_settle_repairs():
    """An update that commits on the primary while ``sync_replicas``
    copies the shard to a gaining replica group fans out to the old
    replica set only; the copier already read the old value, so the
    gaining group ends the copy stale.  The copy must leave a recorded
    debt, and settle - which compares only shards with a debt - must
    leave the replica-agreement fsck clean."""
    rack, _ = _loaded_rack()
    engine = rack.cluster.engine
    gid = rack.add_group()
    rack.shards.commit_join(gid)
    shard = next(s for s in range(rack.spec.num_shards)
                 if gid in rack.shards.desired_replicas(s))
    first = min(rack.registry[shard])       # the copier's first key
    fresh = b"u" * 64
    rebalancer = Rebalancer(rack)
    sync = engine.process(rebalancer.sync_replicas(shard), name="sync")
    writer_ex = rack.cluster.sim_executor(1)

    def writer():
        # The copier searches, then inserts, key by key: its first
        # non-read verb means it has read ``first`` already.
        stats = rebalancer.op_stats
        while stats.writes + stats.cas == 0:
            yield engine.timeout(100)
        yield from writer_ex.run(rack.client(1).update(first, fresh))
        assert gid not in rack.shards.replica_assignment[shard], (
            "the update fanned out after the copy ended; no race")

    engine.run_until_complete(engine.process(writer(), name="writer"))
    engine.run_until_complete(sync)
    ex = rack.cluster.direct_executor()
    assert ex.run(rack.group_index(gid).client(0).search(first)) != fresh
    assert rack.replica_lag[shard].get(gid), (
        "re-replication left the gaining group stale with no debt")
    engine.run_until_complete(engine.process(
        FailoverManager(rack, rebalancer).settle(), name="settle"))
    assert rack.repl["anti_entropy_repaired_keys"] == 1
    assert not rack.replica_lag[shard]
    agreement = dict(rack.fsck_all())[-1]
    assert agreement.clean and not agreement.findings, agreement.findings


# ---------------------------------------------------------------------------
# The replica-agreement stage
# ---------------------------------------------------------------------------

def _leaf_addr(cluster, root_addr, key):
    """Address of ``key``'s leaf, found by an offline walk from the root."""
    stack = [(root_addr, NODE256)]
    while stack:
        addr, node_type = stack.pop()
        memory = cluster.memories[addr_mn(addr)]
        view = decode_node(memory.read(addr_offset(addr),
                                       node_size(node_type)))
        for slot in view.occupied_slots():
            if not slot.is_leaf:
                stack.append((slot.addr, slot.size_class))
            elif decode_leaf(cluster.memories[addr_mn(slot.addr)].read(
                    addr_offset(slot.addr), slot.leaf_size())).key == key:
                return slot.addr
    raise AssertionError(f"no leaf for {key!r}")


def _seed_agreement_defects(rack, dataset):
    """One defect of each kind on a loaded three-group K=1 rack:

    * ``replica_divergence``: a replica's value rewritten in place;
    * ``replica_missing``: a replica leaf with one value byte flipped
      (its checksum fails, so the walk must not accept it - an accepted
      torn leaf would read as a divergence instead);
    * ``replica_leak``: a key written into the one group that neither
      owns nor replicates its shard.
    """
    ex = rack.cluster.direct_executor()
    diverged, torn, leaked = dataset.keys[:3]
    for key, flip in ((diverged, False), (torn, True)):
        (gid,) = rack.shards.replica_assignment[rack.shard_of(key)]
        client = rack.group_index(gid).client(0)
        value = ex.run(client.search(key))
        if not flip:
            ex.run(client.update(key, bytes(b ^ 0xFF for b in value)))
            continue
        addr = _leaf_addr(rack.group_view(gid),
                          rack.group_index(gid).root_addr, key)
        memory = rack.cluster.memories[addr_mn(addr)]
        offset = addr_offset(addr) + LEAF_HEADER_SIZE + len(key)
        memory.write(offset, bytes([memory.read(offset, 1)[0] ^ 0xFF]))
    shard = rack.shard_of(leaked)
    (outsider,) = set(rack.live_groups()) - {
        rack.shards.assignment[shard], *rack.shards.replica_assignment[shard]}
    ex.run(rack.group_index(outsider).client(0).insert(leaked, b"L" * 8))
    return diverged, torn, leaked


def test_agreement_reports_exactly_the_seeded_defects():
    rack, dataset = _loaded_rack()
    assert not rack.check_replica_agreement().findings
    diverged, torn, leaked = _seed_agreement_defects(rack, dataset)
    want = sorted([("replica_divergence", diverged),
                   ("replica_missing", torn), ("replica_leak", leaked)])
    for agreement in (dict(rack.fsck_all())[-1],
                      rack.check_replica_agreement()):
        got = sorted((f.kind, key) for f in agreement.findings
                     for key in (diverged, torn, leaked)
                     if repr(key) in f.detail)
        assert got == want, agreement.findings
        assert len(agreement.findings) == 3, agreement.findings


def test_fsck_all_reads_each_live_cell_tree_once(monkeypatch):
    rack, _ = _loaded_rack()
    reads = Counter()
    plain_read = Memory.read

    def counting_read(memory, offset, size):
        reads[(memory.mn_id, offset)] += 1
        return plain_read(memory, offset, size)

    monkeypatch.setattr(Memory, "read", counting_read)
    reports = dict(rack.fsck_all())
    assert set(reports) == {*rack.live_groups(), -1}
    for gid in rack.live_groups():
        nodes = reports[gid].reachable_nodes
        assert rack.group_index(gid).root_addr in nodes
        assert {addr: reads[(addr_mn(addr), addr_offset(addr))]
                for addr in nodes} == dict.fromkeys(nodes, 1), gid


def test_mutant_skipping_the_replica_compare_is_caught(monkeypatch):
    """The agreement stage judges the primary and the leaks but never
    looks at a replica.  Killed by the seeded-defects test."""
    mutate(monkeypatch, Rack, Rack._agreement,
           "for gid in replicas:", "for gid in ():")
    with pytest.raises(AssertionError):
        test_agreement_reports_exactly_the_seeded_defects()


def test_mutant_accepting_checksum_bad_values_is_caught(monkeypatch):
    """``check_tree`` still reports a torn leaf but records its value,
    so the agreement stage reads a divergence where the replica has
    lost the key.  Killed by the seeded-defects test."""
    mutate(monkeypatch, fsck, fsck.check_tree, '"mismatch at rest")',
           '"mismatch at rest"); values[leaf.key] = leaf.value')
    with pytest.raises(AssertionError):
        test_agreement_reports_exactly_the_seeded_defects()


# ---------------------------------------------------------------------------
# The zero-forfeit sweep
# ---------------------------------------------------------------------------

def _sweep_kwargs(seed):
    """One sweep cell: an online drain plus a seed-varied MN crash.

    Even seeds kill an MN of the *draining* group (so its migrations
    lose their source mid-copy and must recover from replicas); odd
    seeds kill group 1 - an ordinary primary/replica owner and a
    potential migration destination.  The crash verb walks a lattice so
    the sweep hits before-, mid-, and after-migration timings.
    """
    mn = 0 if seed % 2 == 0 else 2
    at_verb = 300 + 650 * (seed % 9)
    return dict(
        tenants=4, workload_name="A", num_keys=NUM_KEYS, insert_pool=150,
        ops=OPS, seed=seed,
        events=(TopologyEvent(at_ns=60_000, kind="mn_leave", group=0),),
        fault_plan=FaultPlan(seed=seed, rules=(
            crash_mn(mn, at_verb=at_verb),)))


def _assert_zero_forfeit(out, tag):
    rows = out.rows()
    repl = rows["replication"]
    assert repl["failover_forfeited_keys"] == 0, f"{tag}: {repl}"
    assert rows["rebalance"]["forfeited_dead"] == 0, (
        f"{tag}: {rows['rebalance']}")
    assert rows["rebalance"]["forfeited_chaos"] == 0, (
        f"{tag}: {rows['rebalance']}")
    assert out.fsck_exit == 0, f"{tag}: fsck exit {out.fsck_exit}"
    assert not out.rack.migrations, f"{tag}: migration left in flight"
    rack = out.rack
    ex, client = rack.cluster.direct_executor(), rack.client(0)
    checked = 0
    for shard, keys in enumerate(rack.registry):
        primary = rack.shards.assignment[shard]
        assert primary not in rack.failed_groups, (
            f"{tag}: shard {shard} routed to a dead group")
        reps = rack.shards.replica_assignment[shard]
        assert primary not in reps
        assert not set(reps) & rack.failed_groups, (
            f"{tag}: shard {shard} replicates onto a dead group")
        for key in sorted(keys)[:6]:   # bounded per-shard spot check
            assert ex.run(client.search(key)) is not None, (
                f"{tag}: committed key {key!r} unreadable")
            checked += 1
    assert checked > 0


def test_crash_sweep_forfeits_no_committed_key():
    mid_migration = 0
    failovers = 0
    for seed in SWEEP_SEEDS:
        out = run_rack(RSPEC, **_sweep_kwargs(seed))
        check_control_golden(f"sweep/seed={seed}", fingerprint(out))
        tag = f"seed={seed}"
        assert out.rack.cluster.injector.dead_mns, (
            f"{tag}: the crash never fired")
        assert out.rack.failed_groups, f"{tag}: failover never ran"
        _assert_zero_forfeit(out, tag)
        repl = out.rows()["replication"]
        failovers += repl["counters"].get("failovers", 0)
        mid_migration += repl["mid_migration_failovers"]
        mid_migration += out.rebalance["aborted_migrations"]
        mid_migration += repl["counters"].get("replica_recovered_reads", 0)
    assert failovers >= len(list(SWEEP_SEEDS))
    # The lattice of crash verbs must actually hit migrations in flight
    # somewhere in the sweep, or the mid-migration machinery is untested.
    assert mid_migration > 0, (
        "no sweep seed crashed mid-migration; widen the at_verb lattice")


def test_one_repairer_counts_each_divergent_key_once():
    """Seed 18: topologyd's re-replication of shard 0 to group 1 misses
    exactly one key.  replicationd makes settle its last tick, so the
    key is compared and repaired once; a daemon tick racing settle over
    the same shard used to count it twice."""
    out = run_rack(RSPEC, **_sweep_kwargs(18))
    counters = out.rows()["replication"]["counters"]
    assert counters["anti_entropy_checksum_mismatches"] == 1, counters
    assert counters["anti_entropy_repaired_keys"] == 1, counters
    _assert_zero_forfeit(out, "seed=18")


#: (crash_mn verb, crash_cn verb) pairs: 93 at the stock seed count, a
#: finer stride as ``REPRO_PROPERTY_SEEDS`` widens the sweep.
CRASH_LATTICE = [(a, b) for a in (0, 50, 200)
                 for b in range(a + 5, a + 400,
                                max(1, round(13 * 50 / N_SEEDS)))]


def crash_during_drain(a, b):
    """One lattice point: a K=1 drain of group 0 whose source MN dies at
    verb ``a`` and whose coordinator CN crashes at verb ``b``; returns
    ``(rack, rebalancer, dataset)`` once ``leave`` returns."""
    dataset = make_dataset("u64", NUM_KEYS, seed=1, insert_pool=0)
    rack = Rack(RSPEC)
    bulk_load(rack.cluster, rack, dataset)
    rack.cluster.attach_faults(FaultPlan(seed=0, rules=(
        crash_mn(0, at_verb=a), crash_cn(b))))
    rebalancer = Rebalancer(rack)
    engine = rack.cluster.engine
    engine.run_until_complete(
        engine.process(rebalancer.leave(0), name="leave"))
    return rack, rebalancer, dataset


def test_coordinator_crash_during_drain_is_survived():
    """A K=1 drain whose source MN dies and whose coordinator CN crashes
    on a lattice of verb pairs: the crash may land inside the recovery
    read from a replica, and ``leave`` must still return with nothing in
    flight and every key readable or accounted as forfeit.  The lattice
    is the only place a migration's source read fails transiently or
    finds no replica, so each point also reproduces its entry in
    ``tests/fixtures/rack_control_golden.json``."""
    for a, b in CRASH_LATTICE:
        tag = f"crash_mn at {a}, crash_cn at {b}"
        rack, rebalancer, dataset = crash_during_drain(a, b)
        check_control_golden(f"lattice/a={a},b={b}",
                             control_fingerprint(rack, rebalancer))
        assert not rack.migrations, f"{tag}: migration left in flight"
        assert rack.cluster.injector.crashed_clients, (
            f"{tag}: the coordinator crash never fired")
        forfeited = set(rebalancer.forfeited_chaos
                        + rebalancer.forfeited_dead)
        ex, client = rack.cluster.direct_executor(), rack.client(0)
        for key in dataset.keys:
            assert (rack.shard_of(key), key) in forfeited \
                or ex.run(client.search(key)) is not None, (
                    f"{tag}: {key!r} neither readable nor forfeited")


@pytest.mark.parametrize("seed", [1, 6])
def test_crash_sweep_is_deterministic(seed):
    a = run_rack(RSPEC, **_sweep_kwargs(seed))
    b = run_rack(RSPEC, **_sweep_kwargs(seed))
    assert json.dumps(a.rows(), sort_keys=True) \
        == json.dumps(b.rows(), sort_keys=True), (
        f"seed={seed}: replicated crash run not bit-identical")


# ---------------------------------------------------------------------------
# Copy outcomes no sweep reaches
# ---------------------------------------------------------------------------

def _kill_group(rack, gid):
    """Every MN of group ``gid`` is dead from now on."""
    rack.cluster.injector.dead_mns.update(rack.group_view(gid).mn_ids)


def _run(rack, gen):
    engine = rack.cluster.engine
    return engine.run_until_complete(engine.process(gen))


def _fullest_shard(rack):
    return max(range(rack.spec.num_shards),
               key=lambda s: (len(rack.registry[s]), -s))


def _move_plan(rack):
    """``(shard, src, replica, dst)``: the fullest shard of a three-group
    K=1 rack, moving to the one group that neither owns nor replicates
    it."""
    shard = _fullest_shard(rack)
    src = rack.shards.assignment[shard]
    (replica,) = rack.shards.replica_assignment[shard]
    (dst,) = set(rack.live_groups()) - {src, replica}
    return shard, src, replica, dst


def sync_from_a_dead_primary():
    """``sync_replicas`` onto a joined group while the shard's primary is
    dead; the old replica has lost the shard's first key."""
    rack, _ = _loaded_rack()
    rack.cluster.attach_faults(FaultPlan(seed=0))
    gid = rack.add_group()
    rack.shards.commit_join(gid)
    shard = next(s for s in range(rack.spec.num_shards)
                 if gid in rack.shards.desired_replicas(s)
                 and len(rack.registry[s]) > 1)
    (old,) = rack.shards.replica_assignment[shard]
    keys = sorted(rack.registry[shard])
    rack.cluster.direct_executor().run(
        rack.group_index(old).client(0).delete(keys[0]))
    _kill_group(rack, rack.shards.assignment[shard])
    rebalancer = Rebalancer(rack)
    copied = _run(rack, rebalancer.sync_replicas(shard))
    return rack, rebalancer, dict(shard=shard, gid=gid, keys=keys,
                                  copied=copied)


def abort_after_the_source_lost_a_copied_key(replica_keeps):
    """A K=1 migration whose source loses the first copied key (and, if
    ``replica_keeps`` is False, so does the replica) just before the
    destination dies."""
    rack, _ = _loaded_rack()
    rack.cluster.attach_faults(FaultPlan(seed=0))
    shard, src, replica, dst = _move_plan(rack)
    first = min(rack.registry[shard])
    rebalancer = Rebalancer(rack)
    engine = rack.cluster.engine
    move = engine.process(rebalancer.migrate_shard(shard, src, dst))

    def saboteur():
        # The sweep copies in sorted order: ``first`` goes first, and a
        # replicated move defers its source delete.
        while first not in rack.migrations[shard].copied:
            yield engine.timeout(100)
        ex = rack.cluster.direct_executor()
        for gid in (src,) if replica_keeps else (src, replica):
            ex.run(rack.group_index(gid).client(0).delete(first))
        _kill_group(rack, dst)

    engine.run_until_complete(engine.process(saboteur()))
    engine.run_until_complete(move)
    return rack, rebalancer, dict(shard=shard, src=src, replica=replica,
                                  key=first)


def key_deleted_mid_sweep():
    """A tenant deletes the last key of a migrating shard before the
    sweep reaches it."""
    rack, _ = _loaded_rack()
    shard, src, _replica, dst = _move_plan(rack)
    keys = sorted(rack.registry[shard])
    rebalancer = Rebalancer(rack)
    engine = rack.cluster.engine
    move = engine.process(rebalancer.migrate_shard(shard, src, dst))
    migrations = []

    def tenant():
        migrations.append(rack.migrations[shard])
        yield from rack.cluster.sim_executor(1).run(
            rack.client(1).delete(keys[-1]))

    engine.run_until_complete(engine.process(tenant()))
    engine.run_until_complete(move)
    return rack, rebalancer, dict(shard=shard, src=src, dst=dst, keys=keys,
                                  migration=migrations[0])


def unreplicated_destination_death():
    """A K=0 migration onto a group that is already dead."""
    rack, _ = _loaded_rack(replicas=0)
    rack.cluster.attach_faults(FaultPlan(seed=0))
    shard = _fullest_shard(rack)
    src = rack.shards.assignment[shard]
    dst = min(set(rack.live_groups()) - {src})
    keys = sorted(rack.registry[shard])
    _kill_group(rack, dst)
    rebalancer = Rebalancer(rack)
    _run(rack, rebalancer.migrate_shard(shard, src, dst))
    return rack, rebalancer, dict(shard=shard, src=src, dst=dst, keys=keys)


#: ``tests/rack_golden.py`` replays each as ``outcome/<name>``.
OUTCOME_CASES = {
    "sync-dead-primary": sync_from_a_dead_primary,
    "abort-restores": lambda: abort_after_the_source_lost_a_copied_key(True),
    "abort-forfeits": lambda: abort_after_the_source_lost_a_copied_key(
        False),
    "absent": key_deleted_mid_sweep,
    "k0-dst-dead": unreplicated_destination_death,
}


def _outcome(name):
    rack, rebalancer, case = OUTCOME_CASES[name]()
    check_control_golden(f"outcome/{name}",
                         control_fingerprint(rack, rebalancer))
    return rack, rebalancer, case


def test_sync_with_a_dead_primary_copies_from_the_replica():
    rack, _, case = _outcome("sync-dead-primary")
    shard, gid, keys = case["shard"], case["gid"], case["keys"]
    # Every key the old replica still held is recovered from it; the one
    # it lost is a debt, beside the one every gaining group starts with.
    assert case["copied"] == len(keys) - 1
    assert rack.repl["replica_recovered_reads"] == len(keys) - 1
    assert rack.repl["rereplicated_keys"] == len(keys) - 1
    assert rack.replica_lag[shard] == {gid: 2}
    assert rack.shards.replica_assignment[shard] == [gid]
    ex, client = rack.cluster.direct_executor(), \
        rack.group_index(gid).client(0)
    assert [ex.run(client.search(key)) is not None for key in keys] \
        == [False] + [True] * (len(keys) - 1)


@pytest.mark.parametrize("replica_keeps", [True, False],
                         ids=["restores", "forfeits"])
def test_abort_restores_a_lost_key_from_a_replica_or_forfeits_it(
        replica_keeps):
    name = "abort-restores" if replica_keeps else "abort-forfeits"
    rack, rebalancer, case = _outcome(name)
    shard, src, key = case["shard"], case["src"], case["key"]
    assert rack.repl["migrations_aborted"] == 1
    assert not rack.migrations and rack.shards.assignment[shard] == src
    assert not rebalancer.completed
    at_src = rack.cluster.direct_executor().run(
        rack.group_index(src).client(0).search(key))
    if replica_keeps:
        assert rack.repl["replica_recovered_reads"] == 1
        assert at_src is not None and key in rack.registry[shard]
        assert not rebalancer.forfeited_dead
    else:
        assert "replica_recovered_reads" not in rack.repl
        assert at_src is None and key not in rack.registry[shard]
        assert rebalancer.forfeited_dead == [(shard, key)]


def test_key_deleted_mid_sweep_is_marked_copied_but_not_moved():
    rack, rebalancer, case = _outcome("absent")
    shard, keys = case["shard"], case["keys"]
    assert keys[-1] in case["migration"].copied
    assert keys[-1] not in rack.registry[shard]
    assert rebalancer.completed == [
        (shard, case["src"], case["dst"], len(keys) - 1)]
    assert not rebalancer.forfeited_dead and not rebalancer.forfeited_chaos


def test_unreplicated_destination_death_forfeits_instead_of_aborting():
    rack, rebalancer, case = _outcome("k0-dst-dead")
    shard, keys = case["shard"], case["keys"]
    assert rebalancer.forfeited_dead == [(shard, key) for key in keys]
    assert not rack.registry[shard]
    assert "migrations_aborted" not in rack.repl
    assert rebalancer.completed == [(shard, case["src"], case["dst"], 0)]


def test_mutant_counting_a_failed_copy_is_caught(monkeypatch):
    """``sync_replicas`` counts every copy as done, so a key no live
    cell could supply leaves no debt.  Killed by the dead-primary sync
    test."""
    mutate(monkeypatch, Rebalancer, Rebalancer.sync_replicas,
           'if outcome in ("copied", "recovered"):', "if True:")
    with pytest.raises(AssertionError):
        test_sync_with_a_dead_primary_copies_from_the_replica()


def test_mutant_falling_back_on_a_transient_read_is_caught(monkeypatch):
    """``copy_key`` reads the replicas after a *transient* source read
    too, so a drain copies a key its live source still holds from a
    replica and never retires the source copy.  Killed by the crash
    lattice's golden entries."""
    mutate(monkeypatch, Rebalancer, Rebalancer.copy_key,
           'if failure == "dead":', "if failure:")
    with pytest.raises(AssertionError):
        test_coordinator_crash_during_drain_is_survived()


def test_mutant_retiring_a_recovered_source_copy_is_caught(monkeypatch):
    """``migrate_shard`` queues a source delete for a key it recovered
    from a replica, whose source cell is dead.  Killed by the
    zero-forfeit sweep's golden entries."""
    mutate(monkeypatch, Rebalancer, Rebalancer.migrate_shard,
           'if outcome == "recovered":', "if False:")
    with pytest.raises(AssertionError):
        test_crash_sweep_forfeits_no_committed_key()


# ---------------------------------------------------------------------------
# K=0 detachment
# ---------------------------------------------------------------------------

def test_unreplicated_run_carries_no_replication_state():
    spec = ClusterSpec(num_cns=2, num_mns=4, group_size=2, num_shards=8,
                       clients=4, mn_capacity_bytes=16 << 20)
    out = run_rack(spec, tenants=2, num_keys=200, insert_pool=50, ops=300,
                   seed=0)
    assert out.replication is None
    assert out.failover is None
    assert "replication" not in out.rows()
    assert not out.rack.repl.as_dict()
    assert all(not reps for reps in out.rack.shards.replica_assignment)
    assert all(epoch == 0 for epoch in out.rack.epochs)
