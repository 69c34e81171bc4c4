"""Unit tests for crash recovery (ISSUE 5).

Covers the lease protocol's edges (expiry exactly at the deadline,
reclaim racing the owner's own late unlock, a crash that orphans no
locks), the ``crash_cn``/``crash_mn`` executor semantics, the
RetryPolicy op-deadline clamp, the fsck CLI exit codes, and the YCSB
runner's crash accounting.  The end-to-end recovery oracle lives in
``test_recovery_properties.py``.
"""

import io
import contextlib

import pytest

from repro.art import encode_str
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import make_addr
from repro.dm.rdma import Batch, CasOp, Observer, OpStats, ReadOp, \
    VerbRecord, WriteOp
from repro.errors import ClientCrash, InjectedFault, MNUnavailable, \
    RetryLimitExceeded
from repro.fault import FaultPlan, RetryPolicy, crash_cn, crash_mn, drop
from repro.recover import LEASE_NS
from repro.tools import fsck
from repro.util.bits import u64_from_bytes, u64_to_bytes
from repro.ycsb import WorkloadSpec, bulk_load, make_dataset, run_workload

# An arbitrary-but-valid node lock word pair: status bits 0-1 go
# Idle(0) -> Locked(1); everything above survives the transition.
_IDLE_WORD = 0xABCD_EF12_3456_7800
_LOCKED_WORD = _IDLE_WORD | 0x1


def _applied(client, verb, result, now):
    """The record an executor hands its observers once ``verb`` applied."""
    return VerbRecord(client, verb, now, t_applied=now, result=result)


def _small_sphinx(num_keys=24):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"r/{i:03d}") for i in range(num_keys)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    return cluster, index, client, keys


def _acquire(executor, addr):
    """Install the idle word, then take the lock via a lease-tagged CAS
    (the same shape ``try_lock_node`` issues)."""
    def ops():
        yield WriteOp(addr, u64_to_bytes(_IDLE_WORD))
        swapped, _old = yield CasOp(addr, _IDLE_WORD, _LOCKED_WORD,
                                    lease=("node",))
        assert swapped
    executor.run(ops())


def _word(executor, addr):
    def ops():
        data = yield ReadOp(addr, 8)
        return u64_from_bytes(data)
    return executor.run(ops())


# ---------------------------------------------------------------------------
# Lease table and expiry edges
# ---------------------------------------------------------------------------

def test_lock_verbs_feed_the_lease_table_and_drain_it():
    cluster, _index, client, _keys = _small_sphinx(8)
    manager = cluster.attach_recovery()
    ex = cluster.direct_executor()  # built after attach: carries the hook
    for i in range(16):
        ex.run(client.insert(encode_str(f"fresh/{i:03d}"), f"w{i}".encode()))
    assert manager.lease_table.acquired > 0, "no lock CAS was lease-tagged"
    assert len(manager.lease_table) == 0, \
        "a healthy run must release every lease it acquires"


def test_lease_expires_exactly_at_deadline_not_one_tick_before():
    cluster = Cluster(ClusterConfig())
    manager = cluster.attach_recovery()
    verb = CasOp(0x1234, _IDLE_WORD, _LOCKED_WORD, lease=("node",))
    manager.lease_table.on_apply(_applied("cn0", verb, (True, _IDLE_WORD),
                                          now=1_000))
    assert manager.expired_leases(now=1_000 + LEASE_NS - 1) == []
    expired = manager.expired_leases(now=1_000 + LEASE_NS)
    assert [lease.addr for lease in expired] == [0x1234]


def test_losing_acquire_cas_records_no_lease():
    cluster = Cluster(ClusterConfig())
    manager = cluster.attach_recovery()
    verb = CasOp(0x1234, _IDLE_WORD, _LOCKED_WORD, lease=("node",))
    manager.lease_table.on_apply(_applied("cn0", verb, (False, _LOCKED_WORD),
                                          now=5))
    assert len(manager.lease_table) == 0


def test_reclaim_wins_race_then_owner_late_unlock_cas_loses():
    """Recovery reclaims first; the owner's own (late) unlock CAS must
    then fail - the CAS-expected discipline lets exactly one win."""
    cluster = Cluster(ClusterConfig())
    manager = cluster.attach_recovery()
    ex = cluster.direct_executor()
    addr = cluster.alloc(0, 64)
    _acquire(ex, addr)
    (lease,) = manager.lease_table.records()
    manager.declare_dead(lease.owner)
    report = manager.recover()
    assert report.reclaimed == 1
    assert _word(ex, addr) == _IDLE_WORD
    assert len(manager.lease_table) == 0

    def late_unlock():
        swapped, old = yield CasOp(addr, _LOCKED_WORD, _IDLE_WORD,
                                   lease=("release",))
        return swapped, old
    swapped, old = ex.run(late_unlock())
    assert not swapped and old == _IDLE_WORD


def test_owner_unlock_wins_race_then_reclaim_stands_down():
    """The owner's unlock lands first (but its lease notification was
    lost with the crash): recovery re-reads, sees the word moved, and
    drops the lease without writing anything."""
    cluster = Cluster(ClusterConfig())
    manager = cluster.attach_recovery()
    ex = cluster.direct_executor()
    addr = cluster.alloc(0, 64)
    _acquire(ex, addr)
    (lease,) = manager.lease_table.records()

    def untracked_unlock():  # no lease tag: the release the table missed
        swapped, _old = yield CasOp(addr, _LOCKED_WORD, _IDLE_WORD)
        assert swapped
    ex.run(untracked_unlock())
    manager.declare_dead(lease.owner)
    report = manager.recover()
    assert report.reclaimed == 0 and report.released == 1
    assert _word(ex, addr) == _IDLE_WORD
    assert len(manager.lease_table) == 0


def test_crash_cn_holding_zero_locks_needs_no_reclamation():
    cluster, index, client, keys = _small_sphinx()
    manager = cluster.attach_recovery()
    # Searches take no locks; the victim dies holding nothing.
    cluster.attach_faults(FaultPlan(rules=(crash_cn(5),), seed=1))
    victim = cluster.direct_executor()
    with pytest.raises(ClientCrash):
        for key in keys:
            victim.run(client.search(key))
    assert len(manager.lease_table) == 0
    report = manager.recover(index=index)
    assert report.reclaimed == 0 and report.raced == 0
    assert report.fsck is not None and report.fsck.clean
    survivor = cluster.direct_executor()
    for i, key in enumerate(keys):
        assert survivor.run(client.search(key)) == f"v{i}".encode()


# ---------------------------------------------------------------------------
# crash_cn / crash_mn executor semantics
# ---------------------------------------------------------------------------

def test_crash_cn_latches_the_executor():
    cluster, _index, client, keys = _small_sphinx(4)
    cluster.attach_faults(FaultPlan(rules=(crash_cn(0),), seed=2))
    ex = cluster.direct_executor()
    with pytest.raises(ClientCrash):
        ex.run(client.search(keys[0]))
    seq_after = cluster.injector.verb_seq
    with pytest.raises(ClientCrash):
        ex.run(client.search(keys[1]))
    assert cluster.injector.verb_seq == seq_after, \
        "a crashed executor must issue no further verbs"
    assert ex.client_id in cluster.injector.crashed_clients


def test_crash_mn_fails_fast_with_typed_error():
    cluster = Cluster(ClusterConfig())
    cluster.attach_faults(FaultPlan(rules=(crash_mn(1, at_verb=0),), seed=3))
    ex = cluster.direct_executor()

    def read(addr):
        yield ReadOp(addr, 8)
    # The verb that trips the scheduled rule still completes (the crash
    # lands between verbs); every later verb to MN 1 fails fast.
    ex.run(read(make_addr(0, 128)))
    with pytest.raises(MNUnavailable) as exc_info:
        ex.run(read(make_addr(1, 128)))
    assert exc_info.value.mn == 1
    assert not isinstance(exc_info.value, InjectedFault), \
        "MNUnavailable must not look retryable"
    assert cluster.injector.counters.get("mn_unavailable") == 1


class _Completions(Observer):
    """``(verb class, fault)`` of every verb an executor reports done
    (the timed executor completes a doorbell's members out of order)."""

    def __init__(self):
        self.seen = []

    def on_complete(self, rec):
        self.seen.append((rec.op.__class__.__name__, rec.fault))


@pytest.mark.parametrize("rule, posted, counts", [
    (None, lambda live, dead: ReadOp(dead, 8), (1, 0, 0, 1)),
    (None, lambda live, dead: Batch([WriteOp(live, b"x" * 8),
                                     CasOp(dead, 0, 1), ReadOp(live, 8)]),
     (1, 1, 1, 3)),
    (crash_cn(0), lambda live, dead: ReadOp(live, 8), (0, 0, 0, 0)),
    (crash_cn(1), lambda live, dead: Batch([WriteOp(live, b"x" * 8),
                                            CasOp(live, 0, 1),
                                            ReadOp(live, 8)]),
     (0, 1, 0, 1)),
], ids=["scalar", "batch-member", "crash-cn-scalar", "crash-cn-batch-member"])
def test_dead_mn_verb_counts_match_direct_and_sim(rule, posted, counts):
    """A verb posted to a crashed MN is still a message: the timed
    executor once dropped it from OpStats, so a client spinning on a
    dead MN never advanced the count ``arm_verb_budget`` bounds.  A verb
    whose client dies as it posts it (``crash_cn``, not applied) is the
    opposite: nothing is sent, so neither executor counts it or reports
    it to an observer (the untimed one once did both)."""
    error = MNUnavailable if rule is None else ClientCrash

    def run_on(sim):
        cluster = Cluster(ClusterConfig())
        cluster.attach_faults(FaultPlan(seed=1, rules=(rule,) if rule
                                        else ()))
        cluster.injector.dead_mns.add(1)
        observer = _Completions()
        cluster.attach(observer)

        def client():
            yield posted(make_addr(0, 128), make_addr(1, 128))

        if sim:
            ex = cluster.sim_executor(0)

            def drive():
                with pytest.raises(error):
                    yield from ex.run(client())
            cluster.engine.run_until_complete(cluster.engine.process(drive()))
        else:
            ex = cluster.direct_executor()
            with pytest.raises(error):
                ex.run(client())
        return ex.stats, sorted(observer.seen)

    direct, direct_seen = run_on(sim=False)
    assert direct.faults_injected == 1
    # A doorbell posts every member up to a crash_cn: the WRITE before
    # the dead member and the live READ after it are both on the wire,
    # on both executors; after a crash_cn member nothing is.
    assert (direct.reads, direct.writes, direct.cas, direct.messages) \
        == counts
    assert len(direct_seen) == counts[-1]
    assert run_on(sim=True) == (direct, direct_seen)


def test_ycsb_crash_accounting():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    dataset = make_dataset("u64", 400, seed=1, insert_pool=40)
    bulk_load(cluster, index, dataset)
    cluster.attach_recovery()
    cluster.attach_faults(FaultPlan(rules=(crash_cn(40),), seed=4))
    spec = WorkloadSpec("mix", read=0.5, update=0.5)
    result = run_workload(cluster, index, spec, dataset, system="Sphinx",
                          workers=6, ops=300, seed=0)
    assert result.crashed_workers == 1
    # The victim's unfinished ops are charged against goodput.
    assert result.failed_ops > 0
    assert result.goodput_mops < result.throughput_mops
    assert "crashed_workers" not in result.row(), \
        "row() must stay byte-compatible with pre-recovery baselines"


def test_recoveryd_ends_with_its_run():
    """Two back-to-back runs on one recovery-attached cluster: the first
    run's sweeper is stopped when its traffic ends, so every sweep
    during the second run is the second run's own daemon's - one per
    lease period, counted from the run's start."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    dataset = make_dataset("u64", 400, seed=1, insert_pool=40)
    bulk_load(cluster, index, dataset)
    manager = cluster.attach_recovery()
    engine = cluster.engine
    sweeps = []
    expired_leases = manager.expired_leases

    def spy(now=None):
        sweeps.append(engine.now)
        return expired_leases(now)

    manager.expired_leases = spy
    spec = WorkloadSpec("reads", read=1.0)
    run_workload(cluster, index, spec, dataset, workers=2, ops=1_200)
    assert sweeps, "the first run must span a lease period"
    start = engine.now
    del sweeps[:]
    run_workload(cluster, index, spec, dataset, workers=2, ops=3_000, seed=1)
    periods = (engine.now - start) // LEASE_NS
    assert periods >= 2, "the second run must span several lease periods"
    assert sweeps == [start + k * LEASE_NS for k in range(1, periods + 1)]


# ---------------------------------------------------------------------------
# RetryPolicy deadline clamp (satellite 1)
# ---------------------------------------------------------------------------

def test_op_timeout_deadline_clamps_final_backoff():
    """With a backoff far larger than the op deadline, a timing-out op
    must fail *at* the deadline - not one full (unclamped) backoff past
    it."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    retry = RetryPolicy(max_retries=64, backoff_ns=1_000_000,
                        op_timeout_ns=50_000)
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14,
                                              retry=retry))
    client = index.client(0)
    loader = cluster.direct_executor()
    key = encode_str("clamp/key")
    loader.run(client.insert(key, b"val"))
    cluster.attach_faults(FaultPlan(rules=(drop(1.0, ("read",)),), seed=5))
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine
    start = engine.now

    def op():
        try:
            yield from executor.run(client.search(key))
        except RetryLimitExceeded:
            return engine.now
        raise AssertionError("search under total read loss must time out")

    finished = engine.run_until_complete(
        engine.process(op(), name="clamp"), limit=start + 60_000_000_000)
    elapsed = finished - start
    assert elapsed >= retry.op_timeout_ns
    # An unclamped jittered backoff would sleep >= backoff_ns/2 = 500 us
    # past the deadline; the clamp keeps the overshoot to at most one
    # in-flight attempt (~tens of us).
    assert elapsed <= retry.op_timeout_ns + 100_000, \
        f"timed out {elapsed - retry.op_timeout_ns} ns past the deadline"


# ---------------------------------------------------------------------------
# fsck CLI exit codes (satellite 2)
# ---------------------------------------------------------------------------

def _fsck_main(args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fsck.main(args)


def test_fsck_cli_exit_clean():
    assert _fsck_main(["--keys", "200"]) == fsck.EXIT_CLEAN


def test_fsck_cli_exit_unrepairable_without_recovery():
    # seed 7 / verb 350: the victim dies holding a node lock.  Without
    # --recover the orphan lock is beyond fsck's power: exit 2.
    args = ["--keys", "300", "--seed", "7", "--crash-verb", "350"]
    assert _fsck_main(args) == fsck.EXIT_UNREPAIRABLE
    assert _fsck_main(args + ["--dry-run"]) == fsck.EXIT_UNREPAIRABLE


def test_fsck_cli_exit_repaired_with_recovery():
    args = ["--keys", "300", "--seed", "7", "--crash-verb", "350",
            "--recover", "--repair"]
    assert _fsck_main(args) == fsck.EXIT_REPAIRED


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_recovery_counters_shape():
    cluster = Cluster(ClusterConfig())
    manager = cluster.attach_recovery()
    verb = CasOp(0x88, _IDLE_WORD, _LOCKED_WORD, lease=("node",))
    manager.lease_table.on_apply(_applied("cn0", verb, (True, _IDLE_WORD),
                                          now=0))
    counters = manager.counters()
    assert counters["leases_live"] == 1
    assert counters["leases_acquired"] == 1
    assert counters["recoveries"] == 0
