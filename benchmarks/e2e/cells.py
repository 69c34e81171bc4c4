"""The four workloads: what is built, what is timed, what is verified.

Everything here drives the system through its package-level public API
only (see README.md, "Pinned API surface") and measures it from outside:
no file under ``src/`` knows this benchmark exists.

Load model: closed loop.  ``workers`` simulated client coroutines each
issue their next op when the previous one returns; one host process, one
thread generates all of them.  The timed region is a sequence of equal
**rounds** against one loaded system (rack: one fresh ``run_rack`` call
per round).  The first ``Cell.rounds`` rounds are the *fixed window*:
simulated metrics, layer counts and ``sim_digest`` are computed over
exactly those, so they are a pure function of ``--seed``.  Rounds keep
going after the fixed window until ``--seconds`` of wall time have been
measured (or ``max_rounds``); the extra rounds only add samples to the
host-rate median.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bench import build_setup, load_dataset
from repro.dm import ClusterSpec
from repro.obs import Counters, client_counters
from repro.tenancy import run_rack
from repro.tools import check_index
from repro.ycsb import Dataset, run_workload, warm_clients, workload

from hostclock import Calibrated

SYSTEM = "Sphinx"
DATASET = "email"
VALUE_SIZE = 64
WARM_SEED = 0          # --seed feeds the op streams only
READBACK_SAMPLE = 1_000

RACK_SPEC = dict(num_cns=8, num_mns=8, group_size=2, num_shards=64,
                 replicas=1, mn_capacity_bytes=256 << 20)
RACK_TENANTS = 16
RACK_SETUP_OPS = 64    # the "nothing but set-up" call: one op per client


@dataclass(frozen=True)
class Cell:
    """One workload at one scale."""

    name: str
    ycsb: str
    keys: int
    ops: int                 # per round
    workers: int
    rounds: int              # the fixed window
    max_rounds: int
    traced_rounds: int
    insert_fraction: float = 0.3
    pool_per_round: int = 0  # disjoint insert-pool slice handed to a round
    warm: int = 2_000
    rack: bool = False


def _cells(*cells: Cell) -> Dict[str, Cell]:
    return {cell.name: cell for cell in cells}


# Sizes fit the builder contract's budget (92 runs in 3420 s => ~25 s per
# run with three set-ups each) on a 2-core box.  ISSUE 11's starting
# points were cut rounds first (never below 9; rack never below 3), then
# keys; no workload was dropped.  sphinx-c is exactly the BENCH_2 smoke
# cell, so round 0 at seed 0 must reproduce its sim_ns (ANCHOR_SIM_NS).
SCALES: Dict[str, Dict[str, Cell]] = {
    "full": _cells(
        Cell("sphinx-c", "C", keys=15_000, ops=4_800, workers=192,
             rounds=9, max_rounds=36, traced_rounds=4),
        Cell("sphinx-load", "LOAD", keys=15_000, ops=1_920, workers=192,
             rounds=12, max_rounds=15, traced_rounds=4,
             insert_fraction=2.0, pool_per_round=1_920),
        Cell("sphinx-e", "E", keys=15_000, ops=840, workers=24,
             rounds=12, max_rounds=36, traced_rounds=4, pool_per_round=96),
        Cell("rack-rep1-a", "A", keys=2_000, ops=4_800, workers=64,
             rounds=3, max_rounds=12, traced_rounds=1, rack=True),
    ),
    "smoke": _cells(
        Cell("sphinx-c", "C", keys=1_500, ops=960, workers=192,
             rounds=2, max_rounds=2, traced_rounds=1, warm=200),
        Cell("sphinx-load", "LOAD", keys=1_500, ops=384, workers=192,
             rounds=2, max_rounds=2, traced_rounds=1,
             insert_fraction=2.0, pool_per_round=384, warm=200),
        Cell("sphinx-e", "E", keys=1_500, ops=120, workers=24,
             rounds=2, max_rounds=2, traced_rounds=1, pool_per_round=32,
             warm=200),
        Cell("rack-rep1-a", "A", keys=500, ops=640, workers=64,
             rounds=1, max_rounds=1, traced_rounds=1, rack=True),
    ),
}

#: ``Sphinx / email / 15 000 keys / C / 4 800 ops / 192 workers / warm
#: 2 000 / seed 0`` in benchmarks/results/BENCH_2.baseline.json.
ANCHOR_SIM_NS = 451_361


@dataclass
class Round:
    """One timed round (rack: one whole ``run_rack`` call)."""

    wall_s: float                       # calibrated (see hostclock.py)
    raw_wall_s: float
    kernel_s: float                     # mean calibration-kernel time
    ops: int
    sim_ns: int
    events: int
    failed_ops: int
    row: dict
    latency: object                     # array('q') of per-op sim ns
    verbs: Dict[str, int]               # this round's OpStats
    counters: Dict[str, int]            # client counters, cumulative
    nic: Dict[str, float]
    # Rack only: every call builds and tears down its own system.
    tenants: List[dict] = field(default_factory=list)
    replication: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, float] = field(default_factory=dict)
    state: Dict = field(default_factory=dict)
    counters_base: Dict[str, int] = field(default_factory=dict)


@dataclass
class Run:
    """Everything one pass over a workload measured."""

    cell: Cell
    seed: int
    fixed: int                          # rounds in the fixed window
    setup_s: List[float] = field(default_factory=list)
    phases: Dict[str, float] = field(default_factory=dict)
    rounds: List[Round] = field(default_factory=list)
    state: Dict = field(default_factory=dict)
    findings: int = 0                   # integrity_findings
    fatal: List[str] = field(default_factory=list)
    obs: Dict[str, float] = field(default_factory=dict)

    @property
    def window(self) -> List[Round]:
        return self.rounds[:self.fixed]

    @property
    def attempted(self) -> int:
        return sum(r.ops for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed_ops for r in self.rounds)

    def sim_digest(self, rounds: Optional[int] = None) -> str:
        """sha256 over each fixed round's simulated outputs.  Any change
        to it, better or worse, means simulated behaviour moved."""
        digest = hashlib.sha256()
        for rnd in self.rounds[:rounds if rounds else self.fixed]:
            digest.update(json.dumps(
                [rnd.row, rnd.sim_ns, rnd.verbs, rnd.counters,
                 rnd.replication], sort_keys=True).encode())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# The timed region
# ---------------------------------------------------------------------------

def _measure(run: Run, seconds: float, one_round: Callable[[int], Round],
             window_done: Callable[[], None]) -> None:
    cell = run.cell
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        start = time.perf_counter()
        while len(run.rounds) < run.fixed or (
                len(run.rounds) < cell.max_rounds
                and time.perf_counter() - start < seconds):
            run.rounds.append(one_round(len(run.rounds)))
            if len(run.rounds) == run.fixed:
                window_done()
            gc.collect()
    finally:
        gc.enable()
        gc.unfreeze()


def _timed(profile, call):
    """``call()`` under the calibrated clock - or, in the traced pass,
    under the profiler and the plain clock (the sampler's interrupts
    would show up in the profile)."""
    clock = Calibrated(sample=profile is None)
    if profile is not None:
        profile.enable()
    try:
        with clock:
            result = call()
    finally:
        if profile is not None:
            profile.disable()
    return result, clock


def _peak_rss_kb() -> int:
    # Read when the fixed window closes: how many extra rounds fit into
    # --seconds depends on the box's speed, and so would the peak.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _all_client_counters(cluster, index) -> Dict[str, int]:
    return Counters.aggregate(
        client_counters(index.client(cn))
        for cn in range(cluster.config.num_cns)).as_dict()


def _round(clock: Calibrated, result, row: dict, events: int,
           **rack_fields) -> Round:
    return Round(
        wall_s=clock.seconds, raw_wall_s=clock.raw_s,
        kernel_s=clock.kernel_s, ops=result.ops, sim_ns=result.sim_ns,
        events=events, failed_ops=result.failed_ops, row=row,
        latency=result.latency.samples,
        verbs=Counters.from_opstats(result.op_stats).as_dict(),
        counters=result.client_metrics.as_dict(),
        nic=dict(result.nic_utilization), **rack_fields)


# ---------------------------------------------------------------------------
# Single-cluster workloads
# ---------------------------------------------------------------------------

def setup_single(cell: Cell):
    """dataset -> cluster + index + bulk load -> cache warm-up, exactly
    the harness's own sequence; returns the loaded system and how long
    each phase took."""
    with Calibrated() as t_dataset:
        dataset = load_dataset(DATASET, cell.keys,
                               insert_fraction=cell.insert_fraction)
    with Calibrated() as t_load:
        setup = build_setup(SYSTEM, dataset)
    with Calibrated() as t_warm:
        warm_clients(setup.cluster, setup.index, workload(cell.ycsb),
                     dataset, cell.warm, WARM_SEED)
    phases = {"dataset_s": t_dataset.seconds, "bulk_load_s": t_load.seconds,
              "warm_s": t_warm.seconds}
    phases["total_s"] = sum(phases.values())
    return setup, phases


def run_single(cell: Cell, seed: int, seconds: float, *, setups: int = 1,
               profile=None, extras: bool = False) -> Run:
    run = Run(cell, seed, cell.traced_rounds if profile else cell.rounds)
    setup = None
    for _ in range(setups):
        del setup
        gc.collect()
        setup, run.phases = setup_single(cell)
        run.setup_s.append(run.phases["total_s"])
    cluster, index, dataset = setup.cluster, setup.index, setup.dataset
    spec = workload(cell.ycsb)
    # Which unseen keys a round inserts is part of the seeded input.
    pool = list(dataset.insert_pool)
    random.Random(seed).shuffle(pool)
    base = _all_client_counters(cluster, index)

    def round_dataset(r: int) -> Dataset:
        # run_workload re-copies dataset.insert_pool on every call, so
        # reusing one Dataset would turn rounds >= 1 into upserts.
        if not cell.pool_per_round:
            return dataset
        n = cell.pool_per_round
        return Dataset(dataset.name, dataset.keys, pool[r * n:(r + 1) * n])

    def play(r: int):
        return run_workload(cluster, index, spec, round_dataset(r),
                            system=SYSTEM, workers=cell.workers,
                            ops=cell.ops, warmup_ops_per_cn=0, seed=seed + r)

    def one_round(r: int) -> Round:
        events = cluster.engine.events_processed
        result, clock = _timed(profile, lambda: play(r))
        return _round(clock, result, result.row(),
                      cluster.engine.events_processed - events)

    def window_done() -> None:
        end = run.rounds[-1].counters
        run.state = {
            "peak_rss_kb": _peak_rss_kb(),
            "mn_bytes": cluster.total_mn_bytes(),
            "mn_categories": cluster.mn_bytes_by_category(),
            "live_keys": cell.keys + end.get("inserts", 0)
            - base.get("inserts", 0),
            "cn_cache_bytes": setup.cn_cache_bytes(),
            "counters": {k: v - base.get(k, 0) for k, v in end.items()},
        }

    _measure(run, seconds, one_round, window_done)
    if profile is None:  # the traced pass only has to repeat the digest
        _verify_single(run, setup, base, pool)
    if extras:  # after the verify: its inserts are not part of the run
        run.obs = _obs_round(cluster, lambda: play(len(run.rounds)))
    return run


def _verify_single(run: Run, setup, base: Dict[str, int],
                   pool: List[bytes]) -> None:
    """fsck, then read back a sample of the loaded keys and every key
    the run inserted, through a direct (untimed) executor."""
    cell = run.cell
    cluster, index, dataset = setup.cluster, setup.index, setup.dataset
    end = run.rounds[-1].counters
    if end.get("updates", 0) != base.get("updates", 0):
        # None of C / LOAD / E updates; the runner only does when a
        # round's insert-pool slice ran dry.
        run.fatal.append("insert pool slice exhausted: inserts became "
                         "updates")
    inserted: List[bytes] = []
    before = base.get("inserts", 0)
    for r, rnd in enumerate(run.rounds):
        n = rnd.counters.get("inserts", 0) - before
        before = rnd.counters.get("inserts", 0)
        if n:  # the runner pops a round's slice from its end
            lo = (r + 1) * cell.pool_per_round - n
            inserted.extend(pool[lo:lo + n])
    report = check_index(cluster, index)
    run.findings += _count_findings(report, run.fatal, "fsck")
    expected_leaves = cell.keys + len(inserted)
    if report.leaves != expected_leaves:
        run.fatal.append(f"lost keys: fsck reaches {report.leaves} leaves, "
                         f"expected {expected_leaves}")
    executor = cluster.direct_executor()
    client = index.client(0)
    rng = random.Random(run.seed)
    sample = rng.sample(range(cell.keys), min(READBACK_SAMPLE, cell.keys))
    mismatches = 0
    for i in sample:  # never updated: still the loader's payload
        value = executor.run(client.search(dataset.keys[i]))
        stamp = i.to_bytes(8, "little")
        mismatches += value != (stamp * (VALUE_SIZE // 8))
    for key in inserted:
        value = executor.run(client.search(key))
        mismatches += value is None or len(value) != VALUE_SIZE
    if mismatches:
        run.findings += mismatches
        run.fatal.append(f"{mismatches} read-back mismatches")


def _count_findings(report, fatal: List[str], label: str) -> int:
    """Findings in one FsckReport; unrepairable ones are fatal."""
    if report.unrepairable or (report.errors and not report.findings):
        fatal.append(f"{label}: unrepairable - "
                     + "; ".join(report.errors[:3]
                                 or [f.detail for f in report.unrepairable[:3]]))
    return len(report.findings) or len(report.errors)


def _obs_round(cluster, play: Callable) -> Dict:
    """One extra round with the repo's own tracer attached: its host
    cost, and a first simulated-time waterfall."""
    tracer = cluster.attach_tracer()
    try:
        with Calibrated() as clock:
            result = play()
    finally:
        cluster.detach_tracer()
    tracer.finish()
    covered = total = 0
    for span in tracer.spans:
        total += span.duration_ns
        edge = span.t_start
        for verb in sorted(span.verbs, key=lambda v: v.t_start):
            if verb.t_end > edge:
                covered += verb.t_end - max(verb.t_start, edge)
                edge = verb.t_end
    queues: Dict[str, List[float]] = {"mn": [], "cn": []}
    for sample in tracer.samples:
        for gauge, value in sample.gauges.items():
            if gauge.endswith(".queue_ns"):
                queues[gauge[:2]].append(value)
    return {
        "ops_per_s": result.ops / clock.seconds,
        "verb_wait_share": covered / total if total else 0.0,
        "mn_queue_ns_mean": _mean(queues["mn"]),
        "cn_queue_ns_mean": _mean(queues["cn"]),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# The rack workload
# ---------------------------------------------------------------------------

def _rack_call(cell: Cell, seed: int, ops: int):
    return run_rack(ClusterSpec(**RACK_SPEC, clients=cell.workers),
                    tenants=RACK_TENANTS,
                    workload_name=cell.ycsb, num_keys=cell.keys,
                    insert_pool=cell.keys // 10, ops=ops, seed=seed)


@contextmanager
def rack_spans(out: Dict):
    """Time the ``bulk_load`` / ``run_workload`` / ``fsck_all`` calls
    ``run_rack`` makes, from outside, by wrapping the names it looks
    them up under.  ``out[name] = (start, end)`` per call; a target a
    refactor removed is simply absent from ``out``.  The traffic span
    also snapshots the client counters at its start, so layer counts
    exclude the bulk load."""
    from repro.dm import Rack
    runner = sys.modules[run_rack.__module__]
    saved = []
    for owner, name in ((runner, "bulk_load"), (runner, "run_workload"),
                        (Rack, "fsck_all")):
        inner = getattr(owner, name, None)
        if inner is None:
            continue

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            if _name == "run_workload":
                out["counters_base"] = _all_client_counters(*args[:2])
            start = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                out[_name] = (start, time.perf_counter())

        setattr(owner, name, wrapper)
        saved.append((owner, name, inner))
    try:
        yield
    finally:
        for owner, name, inner in saved:
            setattr(owner, name, inner)


def _span_seconds(spans: Dict, end: float) -> Dict[str, float]:
    """``rack.*_s`` phases; -1 marks a wrap target that no longer exists."""
    def length(name):
        return spans[name][1] - spans[name][0] if name in spans else -1.0
    settle = -1.0
    if "run_workload" in spans:
        settle = spans.get("fsck_all", (0, end))[1] - spans["run_workload"][1]
    return {"bulk_load_s": length("bulk_load"),
            "traffic_s": length("run_workload"),
            "settle_fsck_s": settle}


def run_rack_cell(cell: Cell, seed: int, seconds: float, *, setups: int = 1,
                  profile=None, extras: bool = False) -> Run:
    run = Run(cell, seed, cell.traced_rounds if profile else cell.rounds)
    for _ in range(setups):
        gc.collect()
        with Calibrated() as clock:
            _rack_call(cell, 0, RACK_SETUP_OPS)
        run.setup_s.append(clock.seconds)

    def one_round(r: int) -> Round:
        marks: Dict = {}
        with rack_spans(marks) if extras else nullcontext():
            rr, clock = _timed(profile, lambda: _rack_call(
                cell, seed + r, cell.ops))
            end = time.perf_counter()
        result, rack = rr.result, rr.rack
        rnd = _round(clock, result, rr.rows(),
                     rack.cluster.engine.events_processed,
                     tenants=rr.tenants,
                     counters_base=marks.pop("counters_base", {}))
        if extras:
            rnd.spans = _span_seconds(marks, end)
        replication = rr.replication or {}
        rnd.replication = dict(replication.get("counters", {}),
                               promotions=replication.get("promotions", 0))
        forfeited = (replication.get("failover_forfeited_keys", 0)
                     + rr.rebalance.get("forfeited_chaos", 0)
                     + rr.rebalance.get("forfeited_dead", 0))
        rnd.replication["forfeited_keys"] = forfeited
        rnd.state = {
            "mn_bytes": rack.cluster.total_mn_bytes(),
            "mn_categories": rack.cluster.mn_bytes_by_category(),
            "live_keys": rack.total_keys(),
            "cn_cache_bytes": sum(rack.client(cn).cn_cache_bytes()
                                  for cn in range(RACK_SPEC["num_cns"])),
        }
        _verify_rack(run, rr, forfeited, r)
        return rnd

    def window_done() -> None:
        # Every call ends with its own system: report the mean call.
        window = run.window
        run.state = {
            key: _mean([r.state[key] for r in window])
            for key in ("mn_bytes", "live_keys", "cn_cache_bytes")}
        categories: Dict[str, float] = {}
        counters: Dict[str, int] = {}
        for rnd in window:
            for name, size in rnd.state["mn_categories"].items():
                categories[name] = categories.get(name, 0) \
                    + size / len(window)
            for name, value in rnd.counters.items():
                counters[name] = counters.get(name, 0) + value \
                    - rnd.counters_base.get(name, 0)
        run.state["peak_rss_kb"] = _peak_rss_kb()
        run.state["mn_categories"] = categories
        run.state["counters"] = counters
        run.phases = {name: _mean([r.spans[name] for r in window])
                      for name in window[0].spans}

    _measure(run, seconds, one_round, window_done)
    return run


def _verify_rack(run: Run, rr, forfeited: int, r: int) -> None:
    label = f"call {r}"
    for gid, report in rr.fsck_reports:
        run.findings += _count_findings(report, run.fatal,
                                        f"{label} group {gid}")
    run.findings += forfeited
    if forfeited:
        run.fatal.append(f"{label}: {forfeited} forfeited keys")
    if rr.rack.total_keys() < run.cell.keys:
        run.fatal.append(f"{label}: lost keys - registry holds "
                         f"{rr.rack.total_keys()} < {run.cell.keys} loaded")


def run_cell(cell: Cell, seed: int, seconds: float, **kwargs) -> Run:
    """One pass over ``cell``.  ``setups`` repeats the set-up (the median
    is ``setup_s``), ``profile`` is a ``cProfile.Profile`` enabled around
    the timed calls only, ``extras`` adds what only the traced report
    needs (single cluster: the tracer round; rack: phase spans)."""
    runner = run_rack_cell if cell.rack else run_single
    return runner(cell, seed, seconds, **kwargs)
