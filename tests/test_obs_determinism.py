"""Determinism and zero-overhead guarantees of the observability layer.

The tracer is a passive observer of the simulation, never a participant:
it creates no engine events, draws no RNG, and touches no protocol
state.  These tests pin the resulting contract down:

* an *attached* tracer leaves OpStats, the simulated clock, op outcomes,
  fault schedules, and DMSan findings bit-identical to an untraced run
  (and an attach/detach cycle is indistinguishable from never attaching);
* one seed, one trace: the JSONL and Chrome exports are byte-identical
  across repeats of the same seeded run;
* a ``--profile`` benchmark cell reports the same simulated digits as a
  plain cell;
* (env-gated) the profiled smoke cell still reproduces the committed
  BENCH_2 baseline digits exactly - tracing never buys different
  results, attached or not.
"""

import dataclasses
import json
import os

import pytest

from repro.art import encode_str
from repro.bench import CellSpec, clear_setup_caches, run_cell
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats
from repro.errors import RetryLimitExceeded
from repro.fault import FaultPlan
from repro.obs import chrome_trace, to_jsonl

TINY = dict(num_keys=900, ops=120, workers=6, warmup_ops_per_cn=60)


@pytest.fixture(autouse=True)
def _fresh_snapshots():
    clear_setup_caches()
    yield
    clear_setup_caches()


def _stats_tuple(stats: OpStats):
    return tuple(getattr(stats, f.name)
                 for f in dataclasses.fields(OpStats))


def _sim_mix(trace=False, detach=False, chaos_seed=None, sanitize=False):
    """One fixed op mix; returns every observable the zero-overhead
    contract covers, plus the tracer (when one was attached)."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    monitor = cluster.attach_sanitizer() if sanitize else None
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"o/{i:03d}") for i in range(24)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    if chaos_seed is not None:
        cluster.attach_faults(FaultPlan.chaos(chaos_seed, intensity=4.0))
    tracer = None
    if trace:
        tracer = cluster.attach_tracer()
    if detach:
        cluster.detach_tracer()
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

    engine.run_until_complete(engine.process(mix(), name="obs"))
    if tracer is not None:
        tracer.finish()
    schedule = (cluster.injector.schedule()
                if cluster.injector is not None else ())
    san = ([v.kind for v in monitor.report.violations]
           if monitor is not None else None)
    return dict(stats=_stats_tuple(stats), now=engine.now,
                outcomes=tuple(outcomes), schedule=schedule,
                san=san, tracer=tracer)


def _observables(run):
    return {k: run[k] for k in ("stats", "now", "outcomes", "schedule")}


# ---------------------------------------------------------------------------
# Attached != different: the schedule-invariance half of zero overhead
# ---------------------------------------------------------------------------

def test_attached_tracer_leaves_simulation_unchanged():
    plain = _sim_mix(trace=False)
    traced = _sim_mix(trace=True)
    assert _observables(plain) == _observables(traced)
    # and the trace is non-trivial - it watched a real run
    assert traced["tracer"].spans and traced["tracer"].samples


def test_attach_detach_cycle_is_indistinguishable():
    plain = _sim_mix(trace=False)
    cycled = _sim_mix(trace=True, detach=True)
    assert _observables(plain) == _observables(cycled)
    assert cycled["tracer"].spans == []


def test_attached_tracer_invariant_under_chaos():
    plain = _sim_mix(trace=False, chaos_seed=7)
    traced = _sim_mix(trace=True, chaos_seed=7)
    assert _observables(plain) == _observables(traced)
    assert len(plain["schedule"]) > 0, "the plan must actually fire"
    assert any(s.faults for s in traced["tracer"].spans)


def test_dmsan_findings_unchanged_by_tracer():
    plain = _sim_mix(trace=False, sanitize=True)
    traced = _sim_mix(trace=True, sanitize=True)
    assert plain["san"] == traced["san"]
    assert _observables(plain) == _observables(traced)


# ---------------------------------------------------------------------------
# One seed, one trace: byte-identical exports
# ---------------------------------------------------------------------------

def test_same_seed_byte_identical_jsonl_and_chrome():
    first = _sim_mix(trace=True, chaos_seed=5)["tracer"]
    second = _sim_mix(trace=True, chaos_seed=5)["tracer"]
    assert to_jsonl(first, cell="x") == to_jsonl(second, cell="x")
    assert json.dumps(chrome_trace([first]), sort_keys=True) \
        == json.dumps(chrome_trace([second]), sort_keys=True)


def test_different_seed_different_trace():
    first = _sim_mix(trace=True, chaos_seed=5)["tracer"]
    second = _sim_mix(trace=True, chaos_seed=6)["tracer"]
    assert to_jsonl(first) != to_jsonl(second)


# ---------------------------------------------------------------------------
# Benchmark cells: --profile reports the same simulated digits
# ---------------------------------------------------------------------------

PLAIN_CELL = CellSpec(system="Sphinx", dataset="u64", workload="A", **TINY)
PROFILED_CELL = CellSpec(system="Sphinx", dataset="u64", workload="A",
                         profile=True, **TINY)


def test_profiled_cell_matches_plain_cell():
    plain = run_cell(PLAIN_CELL)
    profiled = run_cell(PROFILED_CELL)
    assert plain.row() == profiled.row()
    assert plain.sim_ns == profiled.sim_ns
    assert plain.latency.samples == profiled.latency.samples
    # the plain cell carries no observability payload at all
    assert plain.profile is None and plain.trace is None
    # the profiled cell does, and it describes real work
    assert profiled.profile and profiled.trace.spans
    assert sum(row["count"] for row in profiled.profile.values()) > 0


def test_profiled_chaos_cell_matches_plain_chaos_cell():
    plain = run_cell(CellSpec(system="Sphinx", dataset="u64", workload="A",
                              chaos_seed=5, **TINY))
    profiled = run_cell(CellSpec(system="Sphinx", dataset="u64",
                                 workload="A", chaos_seed=5, profile=True,
                                 **TINY))
    assert plain.row() == profiled.row()
    assert plain.faults == profiled.faults
    assert plain.failed_ops == profiled.failed_ops
    assert sum(plain.faults.values()) > 0


def test_profiled_cell_reuses_plain_snapshots():
    """profile is excluded from the snapshot keys (like chaos_seed): a
    profiled run after a plain run must not rebuild or repollute."""
    plain = run_cell(PLAIN_CELL)
    profiled = run_cell(PROFILED_CELL)
    again = run_cell(PLAIN_CELL)
    assert plain.row() == again.row() == profiled.row()


# ---------------------------------------------------------------------------
# (env-gated) profiled smoke cell vs the committed BENCH_2 baseline
# ---------------------------------------------------------------------------

BASELINE = os.path.join(os.path.dirname(__file__), "..",
                        "benchmarks", "results", "BENCH_2.baseline.json")


@pytest.mark.skipif(not os.environ.get("REPRO_BASELINE_CHECK"),
                    reason="full-scale baseline identity check is slow; "
                           "set REPRO_BASELINE_CHECK=1 (CI chaos job)")
def test_profiled_smoke_cell_matches_bench2_baseline():
    """The committed BENCH_2 baseline predates the observability layer;
    the same cell must land on identical simulated digits with a tracer
    attached (which subsumes the tracer-detached guarantee - detached
    executors run the exact pre-obs code path)."""
    with open(BASELINE) as fh:
        cells = json.load(fh)["cells"]
    want = next(c for c in cells if (c["system"], c["dataset"],
                                     c["workload"]) == ("ART", "u64", "A"))
    got = run_cell(CellSpec(system="ART", dataset="u64", workload="A",
                            num_keys=15_000, ops=want["ops"],
                            workers=want["workers"], profile=True))
    assert got.sim_ns == want["sim_ns"]
    assert got.ops == want["ops"]
    assert got.profile, "the tracer watched the whole cell"
