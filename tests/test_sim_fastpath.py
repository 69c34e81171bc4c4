"""Fast-path equivalence suite (ISSUE 7, narrowed by ISSUE 13).

The batched dispatch loop and the clean-verb trips are *performance*
features: the ``REPRO_SIM_SLOW=1`` heap-only engine remains the
bit-identical reference oracle.  These tests diff complete observable
digests - benchmark rows, raw latency samples, the final clock, NIC
station counters, and the engine's logical ``events_processed`` -
across the two modes, over clean, chaos, crash-recovery, and
tracer-attached runs.
"""

import os
import random
import subprocess
import sys

import pytest

import repro

from repro.bench import CellSpec, clear_setup_caches, run_cell
from repro.dm.cluster import Cluster, ClusterConfig
from repro.dm.rdma import Batch, CasOp, FaaOp, LocalCompute, ReadOp, WriteOp
from repro.errors import SimulationError
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


# -- engine-level digest including events_processed -----------------------

def _mixed_digest(slice_ns=None):
    """Mixed scalar/batch/local workload: a contended phase (several
    clients) then a solo phase (one client on an otherwise idle engine,
    still event-per-stage trips: 4 events per verb, 6N+1 per doorbell).
    ``slice_ns`` drives the engine in ``run(until=...)`` steps of that
    length instead of ``run_until_complete``.  Returns every observable
    the equivalence contract covers, including the logical event count."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
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

    def drive(procs):
        if slice_ns is None:
            for p in procs:
                engine.run_until_complete(p)
            return
        while not all(p.triggered for p in procs):
            assert engine._peek_time() is not None, "deadlock"
            engine.run(until=engine.now + slice_ns)

    procs = [client(cluster.sim_executor(i % 3), 1000 + i) for i in range(3)]
    drive(procs)
    solo_proc = client(cluster.sim_executor(0), 7)
    drive([solo_proc])
    solo = solo_proc.value
    cn = cluster.cn_nics[0]
    mn = cluster.mn_nics[0]
    return (engine.now, engine.events_processed,
            repr([p.value for p in procs]) + repr(solo),
            (cn.messages, cn.payload_bytes, cn.server.busy_time,
             cn.server.jobs),
            (mn.messages, mn.payload_bytes, mn.server.busy_time,
             mn.server.jobs))


def test_mixed_workload_identical_across_all_modes(monkeypatch):
    fast = _mixed_digest()
    # Slices shorter than one round trip cut verbs and doorbells
    # mid-flight.
    sliced = _mixed_digest(slice_ns=700)

    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    slow = _mixed_digest()
    slow_sliced = _mixed_digest(slice_ns=700)
    monkeypatch.delenv("REPRO_SIM_SLOW")

    assert fast == slow  # includes logical events_processed equality
    assert fast == sliced
    assert fast == slow_sliced


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
