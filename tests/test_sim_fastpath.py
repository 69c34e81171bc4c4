"""Fast-path equivalence suite (ISSUE 7, narrowed by ISSUE 13).

The batched dispatch loop and the clean-verb trips are *performance*
features: the ``REPRO_SIM_SLOW=1`` heap-only engine remains the
bit-identical reference oracle.  These tests diff complete observable
digests - benchmark rows, raw latency samples, the final clock, NIC
station counters - across the two modes, over clean, chaos,
crash-recovery, and tracer-attached runs.  ``events_processed`` is not
an observable of the simulated system but the dispatch count of the
engine that ran; both engines dispatch the same verb trips (a doorbell
of N verbs is 4N+3 dispatches on either), so the count is equal across
modes too.
"""

import functools
import gc
import os
import random
import subprocess
import sys
from unittest import mock

import pytest

import repro

from repro.bench import CellSpec, clear_setup_caches, run_cell
from repro.dm.cluster import Cluster, ClusterConfig
from repro.dm.network import NetworkConfig, Nic
from repro.dm.rdma import Batch, CasOp, FaaOp, LocalCompute, ReadOp, \
    WriteOp, _BatchTrip, _VerbTrip
from repro.errors import InjectedFault, SimulationError
from repro.fault import FaultPlan
from repro.sim.engine import Engine

TINY = dict(num_keys=900, ops=140, workers=6, warmup_ops_per_cn=60)

CLEAN = CellSpec(system="Sphinx", dataset="u64", workload="A", **TINY)
CHAOS = CellSpec(system="Sphinx", dataset="u64", workload="A",
                 chaos_seed=5, **TINY)
CRASH = CellSpec(system="Sphinx", dataset="u64", workload="A",
                 chaos_seed=9, chaos_crashes=True, **TINY)
TRACED = CellSpec(system="Sphinx", dataset="u64", workload="A",
                  profile=True, **TINY)
# Locator-family cells (ISSUE 8): the leaf-locator fast path and the
# Outback MPH baseline issue their own verb shapes (single raw leaf
# READ), so they get their own fast/slow identity coverage.
LOC_CLEAN = CellSpec(system="Sphinx+Loc", dataset="u64", workload="A",
                     **TINY)
OUTBACK_CLEAN = CellSpec(system="Outback", dataset="u64", workload="A",
                         **TINY)


@pytest.fixture(autouse=True)
def _fresh_snapshots():
    # Snapshot caches hold clusters whose Engine pinned its dispatch path
    # at construction; every mode switch needs a cold start.
    clear_setup_caches()
    yield
    clear_setup_caches()


def _cell_digest(cell):
    r = run_cell(cell)
    return (r.row(), tuple(r.latency.samples), r.sim_ns,
            r.op_stats.round_trips, r.op_stats.messages,
            r.op_stats.batches, r.failed_ops, dict(r.faults))


def _slow_digest(cell, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    clear_setup_caches()
    try:
        return _cell_digest(cell)
    finally:
        monkeypatch.delenv("REPRO_SIM_SLOW")
        clear_setup_caches()


# -- cell-level fast/slow identity ----------------------------------------

def test_clean_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(CLEAN) == _slow_digest(CLEAN, monkeypatch)


def test_chaos_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(CHAOS) == _slow_digest(CHAOS, monkeypatch)


def test_crash_recovery_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(CRASH) == _slow_digest(CRASH, monkeypatch)


def test_traced_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(TRACED) == _slow_digest(TRACED, monkeypatch)


def test_locator_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(LOC_CLEAN) == _slow_digest(LOC_CLEAN, monkeypatch)


def test_outback_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(OUTBACK_CLEAN) == _slow_digest(OUTBACK_CLEAN,
                                                       monkeypatch)


def test_numpy_never_imported():
    """The simulator is pure Python: importing the package and the bench
    harness and running a cell must not pull numpy in."""
    code = (
        "import sys, repro, repro.bench\n"
        "from repro.bench import CellSpec, run_cell\n"
        f"run_cell(CellSpec(system='Sphinx', dataset='u64', workload='A',"
        f" **{TINY!r}))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# -- engine-level digest; events_processed per mode -----------------------

def _drive(engine, procs, slice_ns):
    """``run_until_complete`` each process, or ``run(until=...)`` steps
    of ``slice_ns`` (shorter than one round trip: cuts verbs and
    doorbells mid-flight)."""
    if slice_ns is None:
        for p in procs:
            engine.run_until_complete(p)
        return
    while not all(p.triggered for p in procs):
        assert engine._peek_time() is not None, "deadlock"
        engine.run(until=engine.now + slice_ns)


def _nic_digest(cluster):
    return [(nic.name, nic.messages, nic.payload_bytes,
             nic.server.busy_time, nic.server.jobs, nic.server._free1)
            for nic in (*cluster.cn_nics.values(),
                        *cluster.mn_nics.values())]


def _racy_cluster(config: ClusterConfig) -> Cluster:
    """A cluster for hand-written clients that race plain WRITEs on
    shared words on purpose: there is no lock protocol for DMSan to
    judge, so a monitor ``REPRO_SAN=1`` attached is detached again."""
    cluster = Cluster(config)
    for observer in cluster.observers:
        cluster.detach(observer)
    return cluster


def _mixed_digest(slice_ns=None, prepare=None):
    """Mixed scalar/batch/local workload: a contended phase (several
    clients) then a solo phase (one client on an otherwise idle engine,
    still event-per-stage trips: 4 events per verb, 4N+3 per doorbell).
    Returns ``(observables, events)``: everything the equivalence
    contract covers across modes, and the dispatch count of the engine
    that ran.  ``prepare(cluster)``, when given, runs before anything is
    allocated or posted."""
    cluster = _racy_cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    if prepare is not None:
        prepare(cluster)
    addrs = [cluster.alloc(i % 3, 8) for i in range(24)]
    engine = cluster.engine

    def client(sx, seed):
        rng = random.Random(seed)

        def op():
            results = []
            for _ in range(60):
                k = rng.random()
                a = rng.choice(addrs)
                if k < 0.35:
                    results.append(bytes((yield ReadOp(a, 8))))
                elif k < 0.6:
                    yield WriteOp(a, rng.getrandbits(64).to_bytes(8, "little"))
                elif k < 0.7:
                    results.append((yield CasOp(a, 0, rng.getrandbits(16)))[0])
                elif k < 0.78:
                    results.append((yield FaaOp(a, 3)))
                elif k < 0.9:
                    members = [ReadOp(rng.choice(addrs), 8)
                               for _ in range(rng.randint(2, 12))]
                    results.append([bytes(x) for x in (yield Batch(members))])
                else:
                    yield LocalCompute(rng.randint(10, 500))
            return results

        return engine.process(sx.run(op()), name=f"c{seed}")

    procs = [client(cluster.sim_executor(i % 3), 1000 + i) for i in range(3)]
    _drive(engine, procs, slice_ns)
    solo_proc = client(cluster.sim_executor(0), 7)
    _drive(engine, [solo_proc], slice_ns)
    observables = (engine.now,
                   repr([p.value for p in procs]) + repr(solo_proc.value),
                   _nic_digest(cluster))
    return observables, engine.events_processed


def _check_all_modes(monkeypatch, digest):
    """Run ``digest()`` and ``digest(slice_ns=700)`` on the fast engine,
    then both again under ``REPRO_SIM_SLOW=1``, and assert the
    equivalence contract over the four ``(observables, events, ...)``
    results: observables equal everywhere, and so is the dispatch
    count - the two engines dispatch the same trips.  Returns the fast
    result.  The helper owns the mode on both sides, so the suite also
    passes when the gate exports ``REPRO_SIM_SLOW=1`` around it."""
    monkeypatch.delenv("REPRO_SIM_SLOW", raising=False)
    fast, sliced = digest(), digest(slice_ns=700)
    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    slow, slow_sliced = digest(), digest(slice_ns=700)
    monkeypatch.delenv("REPRO_SIM_SLOW")
    assert fast[0] == slow[0] == sliced[0] == slow_sliced[0]
    assert fast[1] == sliced[1] == slow[1] == slow_sliced[1]
    return fast


def test_mixed_workload_identical_across_all_modes(monkeypatch):
    _check_all_modes(monkeypatch, _mixed_digest)


# -- ties and zero delays ---------------------------------------------------

def _settle(op):
    """Post ``op``; a fault injected into it comes back as its kind."""
    try:
        return (yield op)
    except InjectedFault as exc:
        return exc.kind


def _lockstep_digest(slice_ns=None, empty_plan=False, prepare=None):
    """Twelve identical clients, six on each of two CNs, running
    the same doorbell / CAS / WRITE / zero-length-compute sequence
    against the same addresses and re-aligned on the clock before every
    step: clients tie at their CN NIC, the two CNs' requests tie at the
    MN NICs, and CAS winners are picked by the ``(time, seq)``
    tie-break alone.  Every ``Nic.charge`` call is logged in call order
    (one per stage dispatch), so the digest pins the global dispatch
    order, not just its outcome.  Returns ``(observables, events,
    ties)``; ``ties`` counts stage dispatches at the same
    instant as the charge before them.  ``empty_plan`` attaches a
    ``FaultPlan`` with no rules first: every verb then passes the fault
    gate, and must come out exactly where it went in.  ``prepare`` as
    in :func:`_mixed_digest`; a fault a plan it attaches injects into a
    verb is that verb's result."""
    cluster = _racy_cluster(ClusterConfig(num_cns=2,
                                          mn_capacity_bytes=1 << 20))
    if prepare is not None:
        prepare(cluster)
    addrs = [cluster.alloc(i % 3, 8) for i in range(18)]
    if empty_plan:
        cluster.attach_faults(FaultPlan(seed=0, rules=()))
    engine = cluster.engine
    log = []
    charges = []
    real_charge = Nic.charge

    def charge(nic, payload_bytes, extra_ns=0, arrive_delay=0):
        charges.append((nic.name, engine.now, payload_bytes, arrive_delay))
        return real_charge(nic, payload_bytes, extra_ns, arrive_delay)

    def client(cid, sx):
        def op():
            results = []
            for step in range(10):
                yield LocalCompute(-engine.now % 20_000)
                width = 2 + step % 7
                got = yield from _settle(Batch(
                    [ReadOp(addrs[(step + j) % 8], 8) for j in range(width)]))
                results.append(got if isinstance(got, str)
                               else [bytes(x) for x in got])
                log.append((cid, step, "batch", engine.now))
                results.append((yield from _settle(
                    CasOp(addrs[8 + step], 0, cid + 1))))
                log.append((cid, step, "cas", engine.now))
                yield from _settle(
                    WriteOp(addrs[(step + 3) % 8], bytes([step] * 8)))
                yield LocalCompute(0)
                log.append((cid, step, "local", engine.now))
            return results

        return engine.process(sx.run(op()), name=f"c{cid}")

    procs = [client(cid, cluster.sim_executor(cid % 2))
             for cid in range(12)]
    with mock.patch.object(Nic, "charge", charge):
        _drive(engine, procs, slice_ns)
    ties = sum(1 for prev, cur in zip(charges, charges[1:])
               if cur[3] and prev[1] == cur[1])
    observables = (engine.now, log, [p.value for p in procs], charges,
                   _nic_digest(cluster))
    return observables, engine.events_processed, ties


def test_lockstep_clients_tie_break_identically(monkeypatch):
    clean = _check_all_modes(monkeypatch, _lockstep_digest)
    (_now, _log, results, charges, _nics), _events, ties = clean
    # The run really was decided by tie-breaks: same-instant dispatches,
    # and one CAS winner per step among twelve simultaneous attempts.
    assert ties >= sum(1 for c in charges if c[3]) // 4
    winners = [r for client in results for r in client[1::2] if r[0]]
    assert len(winners) == 10
    # An attached empty plan rides the same trips: the same contract
    # holds under a plan, and the gate costs not one dispatch on either
    # engine.
    assert clean == _check_all_modes(
        monkeypatch, functools.partial(_lockstep_digest, empty_plan=True))


ZERO_COST = NetworkConfig(prop_ns=0, cn_msg_ns=0, mn_msg_ns=0,
                          mem_access_ns=0, atomic_extra_ns=0,
                          header_bytes=0)


def _zero_cost_digest(slice_ns=None, prepare=None):
    """Zero-payload READs on a fabric where every service time is 0:
    each stage completes at the instant it starts.  Odd clients
    interleave runs of zero-length computes, whose FIFO events carry
    seqs between the verb stages': a trip re-armed through the heap at
    its own timestamp would be dispatched out of seq order against
    them, so the trip's re-arm must send it to the FIFO exactly as
    ``Engine._schedule`` does for ``timeout(0)``.  The log is the
    global resume order.  ``prepare`` as in :func:`_mixed_digest`."""
    cluster = Cluster(ClusterConfig(num_cns=2, mn_capacity_bytes=1 << 20,
                                    network=ZERO_COST))
    if prepare is not None:
        prepare(cluster)
    addrs = [cluster.alloc(i % 3, 8) for i in range(6)]
    engine = cluster.engine
    log = []

    def client(cid, sx):
        def op():
            for step in range(6):
                if cid % 2:
                    for _ in range(3):
                        yield LocalCompute(0)
                        log.append((cid, step, "local", engine.now))
                yield ReadOp(addrs[(cid + step) % 6], 0)
                log.append((cid, step, "read", engine.now))
                width = 1 + (cid + step) % 4
                yield Batch([ReadOp(addrs[(step + j) % 6], 0)
                             for j in range(width)])
                log.append((cid, step, "batch", engine.now))
                if cid == 3:
                    yield LocalCompute(5)

        return engine.process(sx.run(op()), name=f"c{cid}")

    procs = [client(cid, cluster.sim_executor(cid % 2)) for cid in range(4)]
    _drive(engine, procs, slice_ns)
    observables = (engine.now, log, _nic_digest(cluster))
    return observables, engine.events_processed


def test_zero_cost_fabric_rearms_through_the_fifo(monkeypatch):
    (now, _log, nics), _events = \
        _check_all_modes(monkeypatch, _zero_cost_digest)
    # Only client 3's LocalCompute(5) ever moves the clock.
    assert now == 30 and all(nic[3] == 0 for nic in nics)


def test_finished_trips_hold_no_self_reference():
    """A trip is its own callback while in flight; once finished it must
    not be (the e2e timed region runs with ``gc.disable()``, so a
    surviving ``_cb1 = self`` cycle would be a leak)."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    addrs = [cluster.alloc(i % 3, 8) for i in range(4)]
    engine = cluster.engine
    sx = cluster.sim_executor(0)

    def op():
        yield ReadOp(addrs[0], 8)
        yield Batch([ReadOp(a, 8) for a in addrs])
        yield CasOp(addrs[1], 0, 1)

    gc.collect()
    gc.disable()
    try:
        engine.run_until_complete(engine.process(sx.run(op())))
        trips = [o for o in gc.get_objects()
                 if isinstance(o, (_VerbTrip, _BatchTrip))]
    finally:
        gc.enable()
    # With the collector off, the trips still alive are exactly the ones
    # something references - a self-referencing one would be among them.
    assert all(t._cb1 is not t for t in trips)
    assert not trips, "finished trips are still referenced"


# -- misbehaving generators ------------------------------------------------

@pytest.mark.parametrize("slow", [False, True])
def test_non_event_yield_raises_and_closes_generator(slow):
    engine = Engine(slow=slow)
    closed = []

    def bad():
        try:
            yield engine.timeout(1)
            yield 42
        finally:
            closed.append(True)

    proc = engine.process(bad(), name="bad")
    with pytest.raises(SimulationError, match="yielded int"):
        engine.run_until_complete(proc)
    assert closed == [True]
