"""Determinism of the chaos substrate (ISSUE 3 satellite).

The fault injector is part of the simulation, so it obeys the same
contract as the engine: one seed, one history.  These tests pin down

* bit-identical fault schedules, OpStats, and simulated clocks across
  two runs of the same seeded plan;
* bit-identical chaos benchmark cells across repeats;
* the zero-overhead guarantee: an attached-but-empty plan, an attached
  DMSan monitor, and a grid with ``chaos_seed=None``, are byte-identical
  to runs with no fault machinery at all (including the ``row()``
  schema);
* a doorbell with a faulted member is still one doorbell: every member
  posted, one round trip (+ the completion timeout), per-member
  outcomes identical fast vs ``REPRO_SIM_SLOW=1`` and vs the untimed
  executor; a ``crash_cn`` mid-doorbell stops the posting;
* (env-gated) the fault-free smoke grid still reproduces the committed
  BENCH_2 baseline digits exactly.
"""

import dataclasses
import json
import os

import pytest

from repro.art import encode_str
from repro.bench import CellSpec, clear_setup_caches, run_cell
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import Batch, CasOp, Observer, OpStats, ReadOp, \
    WriteOp, apply_verb
from repro.errors import ClientCrash, InjectedFault, RetryLimitExceeded
from repro.fault import FaultPlan, crash_cn, drop

TINY = dict(num_keys=900, ops=120, workers=6, warmup_ops_per_cn=60)

CHAOS_CELL = CellSpec(system="Sphinx", dataset="u64", workload="A",
                      chaos_seed=5, **TINY)


@pytest.fixture(autouse=True)
def _fresh_snapshots():
    clear_setup_caches()
    yield
    clear_setup_caches()


def _stats_tuple(stats: OpStats):
    return tuple(getattr(stats, f.name)
                 for f in dataclasses.fields(OpStats))


def _chaos_run(seed: int):
    """One fixed op sequence under FaultPlan.chaos(seed); returns every
    observable the determinism contract covers."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"d/{i:03d}") for i in range(24)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    cluster.attach_faults(FaultPlan.chaos(seed, intensity=4.0))
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    engine = cluster.engine
    outcomes = []

    def mix():
        for step in range(60):
            key = keys[step % len(keys)]
            try:
                if step % 3 == 0:
                    got = yield from executor.run(client.search(key))
                    outcomes.append(("s", got))
                elif step % 3 == 1:
                    yield from executor.run(
                        client.update(key, f"u{step}".encode()))
                    outcomes.append(("u", True))
                else:
                    pairs = yield from executor.run(client.scan_count(key, 4))
                    outcomes.append(("c", len(pairs)))
            except RetryLimitExceeded:
                outcomes.append(("fail", step))

    engine.run_until_complete(engine.process(mix(), name="det"))
    return (cluster.injector.schedule(), dict(cluster.injector.counters),
            _stats_tuple(stats), engine.now, tuple(outcomes))


def test_same_seed_same_schedule_stats_and_clock():
    first = _chaos_run(11)
    second = _chaos_run(11)
    assert first[0] == second[0], "fault schedules diverged"
    assert first[1] == second[1], "fault counters diverged"
    assert first[2] == second[2], "OpStats diverged"
    assert first[3] == second[3], "simulated clocks diverged"
    assert first[4] == second[4], "op outcomes diverged"
    # And the schedule is non-trivial: the plan actually fired.
    assert len(first[0]) > 0


def test_different_seed_different_schedule():
    assert _chaos_run(11)[0] != _chaos_run(12)[0]


# -- chaos benchmark cells -------------------------------------------------

def test_chaos_cell_bit_identical_across_repeats():
    first = run_cell(CHAOS_CELL)
    second = run_cell(CHAOS_CELL)
    assert first.row() == second.row()
    assert first.sim_ns == second.sim_ns
    assert first.failed_ops == second.failed_ops
    assert first.faults == second.faults
    assert first.latency.samples == second.latency.samples
    # The plan really perturbed the run.
    assert sum(first.faults.values()) > 0


def test_chaos_does_not_pollute_fault_free_cells():
    """chaos_seed is excluded from the snapshot keys: a fault-free cell
    run after a chaos cell must match one run in a fresh process."""
    clean_cell = CellSpec(system="Sphinx", dataset="u64", workload="A",
                          **TINY)
    alone = run_cell(clean_cell)
    clear_setup_caches()
    run_cell(CHAOS_CELL)
    after_chaos = run_cell(clean_cell)
    assert alone.row() == after_chaos.row()
    assert alone.latency.samples == after_chaos.latency.samples
    assert after_chaos.failed_ops == 0 and after_chaos.faults == {}


# -- zero overhead ---------------------------------------------------------

def test_empty_plan_is_zero_overhead(monkeypatch):
    """Attaching a plan with no rules, or a DMSan monitor, must not move
    a single simulated digit.  The empty plan costs no engine dispatch
    either: the empty ruleset draws no RNG, injects nothing, and every
    verb leaves the fault gate on the path it would have taken with no
    plan.  The monitor costs exactly the dispatches of any observer -
    those of a no-op :class:`Observer` - because an observed doorbell
    member keeps its own completion event (an unobserved one that is not
    the last to reach its reply charge joins there).  The mix posts
    multi-member doorbells (50-key scans; with ``use_filter=False``
    every search is the Theta(L) INHT probe): an attached plan once ran
    their members one after another, 4.4x the simulated time of this
    very mix.  DMSan's verdict on the mix is the same on both dispatch
    loops."""

    def run(attach, use_filter):
        cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
        monitor = cluster.attach_sanitizer() if attach == "san" else None
        if attach == "observer":
            cluster.attach(Observer())
        index = SphinxIndex(cluster,
                            SphinxConfig(filter_budget_bytes=1 << 14,
                                         use_filter=use_filter))
        client = index.client(0)
        ex = cluster.direct_executor()
        keys = [encode_str(f"z/{i:04d}") for i in range(400)]
        for i, key in enumerate(keys):
            ex.run(client.insert(key, f"v{i}".encode()))
        if attach == "plan":
            cluster.attach_faults(FaultPlan(seed=0, rules=()))
        stats = OpStats()
        executor = cluster.sim_executor(0, stats)
        engine = cluster.engine
        latencies = []

        def mix():
            for step, key in enumerate(keys[::7]):
                t0 = engine.now
                if step % 3 == 0:
                    yield from executor.run(client.scan_count(key, 50))
                elif step % 3 == 1:
                    yield from executor.run(client.search(key))
                else:
                    yield from executor.run(
                        client.update(key, f"u{step}".encode()))
                latencies.append(engine.now - t0)

        engine.run_until_complete(engine.process(mix(), name="zo"))
        assert stats.batches >= len(latencies) // 3
        return (_stats_tuple(stats), engine.now, engine.events_processed,
                latencies), monitor

    verdicts = {}
    for slow in ("0", "1"):
        monkeypatch.setenv("REPRO_SIM_SLOW", slow)
        for use_filter in (True, False):
            bare = run(None, use_filter)[0]
            assert run("plan", use_filter)[0] == bare
            observed = run("observer", use_filter)[0]
            sanitized, monitor = run("san", use_filter)
            # (stats, now, events_processed, latencies)
            assert sanitized[:2] + sanitized[3:] == bare[:2] + bare[3:]
            assert sanitized == observed
            monitor.check_clean()
            verdicts[slow, use_filter] = monitor.report.summary()
    for use_filter in (True, False):
        assert verdicts["0", use_filter] == verdicts["1", use_filter]


# -- a doorbell under faults is still one doorbell ----------------------------

def _doorbell_run(rule, monkeypatch, slow, sim=True):
    """Post WRITE(MN 0) | CAS(MN 1) | WRITE(MN 2) as one doorbell under
    a plan holding just ``rule`` (``None``: no plan at all)."""
    monkeypatch.setenv("REPRO_SIM_SLOW", slow)
    cluster = Cluster(ClusterConfig())
    addrs = [cluster.alloc(mn, 8) for mn in range(3)]
    if rule is not None:
        cluster.attach_faults(FaultPlan(seed=3, rules=(rule,)))
    ex = cluster.sim_executor(0) if sim else cluster.direct_executor()
    seen = []

    def client():
        try:
            yield Batch([WriteOp(addrs[0], b"a" * 8), CasOp(addrs[1], 0, 7),
                         WriteOp(addrs[2], b"c" * 8)])
        except InjectedFault as exc:
            seen.append((exc.kind, exc.addr, exc.applied))

    crashed = False
    try:
        if sim:
            cluster.engine.run_until_complete(
                cluster.engine.process(ex.run(client())))
        else:
            ex.run(client())
    except ClientCrash:
        crashed = True
    words = [bytes(apply_verb(cluster.memories, ReadOp(a, 8)))
             for a in addrs]
    injector = cluster.injector
    return dict(seen=seen, crashed=crashed, words=words,
                stats=_stats_tuple(ex.stats), now=cluster.engine.now,
                schedule=injector.schedule() if injector else (),
                verb_seq=injector.verb_seq if injector else 0,
                ex=ex, addrs=addrs)


def _observables(run):
    return {k: v for k, v in run.items() if k not in ("ex", "addrs")}


@pytest.mark.parametrize("rule", [drop(1.0, verbs=("cas",)),
                                  drop(1.0, mn=1, applied_prob=1.0)],
                         ids=["verbs=cas", "mn=1-applied"])
def test_dropped_member_costs_one_round_trip_plus_timeout(rule, monkeypatch):
    clean = _doorbell_run(None, monkeypatch, "0")
    fast = _doorbell_run(rule, monkeypatch, "0")
    slow = _doorbell_run(rule, monkeypatch, "1")
    assert _observables(fast) == _observables(slow)
    # The client sees the one fault, on the member the rule matched ...
    applied = rule.applied_prob >= 1.0
    assert fast["seen"] == [("drop", fast["addrs"][1], applied)]
    assert len(fast["schedule"]) == 1
    # ... every member was posted, and the surviving members landed.
    stats = OpStats(*fast["stats"])
    assert (stats.writes, stats.cas, stats.messages) == (2, 1, 3)
    assert (stats.round_trips, stats.batches, stats.faults_injected) \
        == (1, 1, 1)
    assert fast["words"] == [b"a" * 8,
                             (7 if applied else 0).to_bytes(8, "little"),
                             b"c" * 8]
    # Still one round trip: the members travelled together, so the
    # doorbell costs the completion timeout on top of at most one clean
    # doorbell - not the sum of its members.
    timeout_ns = FaultPlan(seed=3).timeout_ns
    assert timeout_ns < fast["now"] <= clean["now"] + timeout_ns
    # The untimed executor posts, counts and reports the same.
    direct = _doorbell_run(rule, monkeypatch, "0", sim=False)
    for key in ("seen", "words", "stats", "verb_seq"):
        assert direct[key] == fast[key], key


@pytest.mark.parametrize("applied", [False, True])
@pytest.mark.parametrize("sim", [True, False], ids=["sim", "direct"])
def test_crash_cn_mid_doorbell_stops_the_posting(sim, applied, monkeypatch):
    rule = crash_cn(1, applied_prob=1.0 if applied else 0.0)
    runs = [_doorbell_run(rule, monkeypatch, slow, sim=sim)
            for slow in ("0", "1")]
    assert _observables(runs[0]) == _observables(runs[1])
    run = runs[0]
    assert run["crashed"] and run["seen"] == []
    # Member 0 was in flight and lands; member 1 is the dying verb;
    # member 2 is neither gated (no sequence number drawn) nor posted.
    assert run["verb_seq"] == 2
    assert run["words"] == [b"a" * 8,
                            (7 if applied else 0).to_bytes(8, "little"),
                            bytes(8)]
    ex = run["ex"]

    def again():
        yield ReadOp(run["addrs"][0], 8)
    with pytest.raises(ClientCrash):
        if sim:
            for _ in ex.run(again()):
                pass
        else:
            ex.run(again())
    assert ex._injector.verb_seq == 2, "the latch must not consume a verb"


def test_fault_free_row_schema_unchanged():
    """Fault-free RunResult.row() must not grow chaos columns - the
    committed figure tables and baseline comparisons parse it."""
    result = run_cell(CellSpec(system="Sphinx", dataset="u64",
                               workload="A", **TINY))
    assert set(result.row()) == {
        "system", "workload", "dataset", "workers", "ops",
        "throughput_mops", "avg_latency_us", "p99_latency_us",
        "round_trips_per_op", "messages_per_op"}
    assert result.failed_ops == 0 and result.faults == {}


BASELINE = os.path.join(os.path.dirname(__file__), "..",
                        "benchmarks", "results", "BENCH_2.baseline.json")


@pytest.mark.skipif(not os.environ.get("REPRO_BASELINE_CHECK"),
                    reason="full-scale baseline identity check is slow; "
                           "set REPRO_BASELINE_CHECK=1 (CI chaos job)")
def test_fault_free_smoke_cell_matches_bench2_baseline():
    """The committed BENCH_2 smoke baseline was produced before the fault
    substrate existed: with no plan attached, the same cell must still
    land on the identical simulated digits (true zero overhead)."""
    with open(BASELINE) as fh:
        cells = json.load(fh)["cells"]
    want = next(c for c in cells if (c["system"], c["dataset"],
                                     c["workload"]) == ("ART", "u64", "A"))
    got = run_cell(CellSpec(system="ART", dataset="u64", workload="A",
                            num_keys=15_000, ops=want["ops"],
                            workers=want["workers"]))
    assert got.sim_ns == want["sim_ns"]
    assert got.ops == want["ops"]
