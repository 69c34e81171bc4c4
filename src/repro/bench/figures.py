"""Regeneration of every figure in the paper's evaluation (Sec. V).

Each ``fig*`` function executes the corresponding experiment on the
simulated cluster and returns structured rows; ``render_*`` turns them
into the text tables the benchmark suite prints.  Absolute Mops/s differ
from the paper's hardware, the *shapes* (system ordering, relative
factors, saturation behaviour) are the reproduction target - see
EXPERIMENTS.md for the side-by-side record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dm import Cluster, ClusterConfig
from ..dm.rdma import OpStats
from ..errors import DataMissing
from ..obs import Counters
from ..ycsb import bulk_load
from .harness import (
    DEFAULT_KEYS,
    DEFAULT_OPS,
    DEFAULT_WORKERS,
    EXTRA_SYSTEMS,
    SYSTEMS,
    CellSpec,
    SystemSetup,
    build_setup,
    load_dataset,
    run_grid,
    scaled_cache_bytes,
    timed_run,
)
from .reporting import banner, format_table, mops, ratio_summary

FIG4_WORKLOADS = ("LOAD", "A", "B", "C", "D", "E")
FIG5_WORKERS = (6, 12, 24, 48, 96, 192)


def _result_row(run, chaos_seed: Optional[int]) -> dict:
    """One grid result as a table row, with the chaos columns appended
    when fault injection was on (shared by every figure grid)."""
    row = run.row()
    if chaos_seed is not None:
        row["goodput_mops"] = round(run.goodput_mops, 4)
        row["failed_ops"] = run.failed_ops
        row["faults_injected"] = sum(run.faults.values())
        row["crashed_workers"] = run.crashed_workers
    return row


# ---------------------------------------------------------------------------
# Fig 4: YCSB throughput
# ---------------------------------------------------------------------------

@dataclass
class Fig4Result:
    dataset: str
    rows: List[dict] = field(default_factory=list)
    # --profile mode: per-cell op breakdowns and the finished tracers
    # (both empty unless the grid ran with profile=True).
    profiles: Dict[str, dict] = field(default_factory=dict)
    traces: Dict[str, object] = field(default_factory=dict)

    def throughput(self, system: str, workload: str) -> float:
        for row in self.rows:
            if row["system"] == system and row["workload"] == workload:
                return row["throughput_mops"]
        raise DataMissing((system, workload))

    def speedups(self, workload: str) -> Dict[str, float]:
        return ratio_summary({
            row["system"]: row["throughput_mops"]
            for row in self.rows if row["workload"] == workload})


def fig4_ycsb(dataset_name: str, num_keys: int = DEFAULT_KEYS,
              ops: int = DEFAULT_OPS, workers: int = DEFAULT_WORKERS,
              systems=SYSTEMS, scan_ops: Optional[int] = None,
              workloads=FIG4_WORKLOADS,
              chaos_seed: Optional[int] = None,
              chaos_crashes: bool = False,
              profile: bool = False) -> Fig4Result:
    """The YCSB throughput grid (paper Fig 4, one dataset).

    Per system: the dataset is bulk-loaded untimed once; every workload
    (LOAD with fresh keys from the insert pool, then A-E) runs against a
    pristine copy of that loaded, cache-warmed state, so each cell is an
    independent measurement and the grid can run in any order without
    changing a digit.

    ``chaos_seed`` attaches a :func:`repro.fault.FaultPlan.chaos` plan to
    every cell's private cluster copy; the rows then also carry goodput
    and fault counters (``--chaos`` mode).  ``chaos_crashes`` extends the
    mix with ``crash_cn``/``crash_mn`` scenarios and attaches a
    :class:`repro.recover.RecoveryManager` (``--chaos-crashes`` mode);
    the rows then also report ``crashed_workers``.

    ``profile`` attaches a :class:`repro.obs.Tracer` to every cell;
    ``result.profiles``/``result.traces`` come back keyed by
    ``"system/workload"`` (``--profile`` mode).
    """
    result = Fig4Result(dataset_name)
    if scan_ops is None:
        # A YCSB-E operation is a ~25-50-key scan: one quarter of the
        # point-op count gives a stable estimate at a sane wall time.
        scan_ops = max(workers, ops // 4)
    # One scan is 30-60x the NIC load of a point operation, so a handful
    # of closed-loop scan workers already saturates the fabric for every
    # system and erases the batching contrast the paper measures; run E
    # at a proportionally lower worker count (the pre-saturation regime).
    scan_workers = max(12, workers // 8)
    cells = [
        CellSpec(system=system, dataset=dataset_name,
                 workload=workload_name, num_keys=num_keys,
                 ops=scan_ops if workload_name == "E" else ops,
                 workers=scan_workers if workload_name == "E" else workers,
                 seed=0, chaos_seed=chaos_seed,
                 chaos_crashes=chaos_crashes, profile=profile)
        for system in systems for workload_name in workloads
    ]
    for run in run_grid(cells):
        result.rows.append(_result_row(run, chaos_seed))
        if run.profile is not None:
            label = f"{run.system}/{run.workload}"
            result.profiles[label] = run.profile
            result.traces[label] = run.trace
    return result


def render_fig4(result: Fig4Result) -> str:
    known = SYSTEMS + EXTRA_SYSTEMS
    systems = [s for s in known
               if any(r["system"] == s for r in result.rows)]
    headers = ["workload"] + [f"{s} (Mops)" for s in systems]
    workloads = [w for w in FIG4_WORKLOADS
                 if any(r["workload"] == w for r in result.rows)]
    rows = []
    for workload_name in workloads:
        row = [workload_name]
        for system in systems:
            row.append(mops(result.throughput(system, workload_name)))
        rows.append(row)
    out = [banner(f"Fig 4 - YCSB throughput, {result.dataset} dataset"),
           format_table(headers, rows)]
    if "Sphinx" in systems:
        for workload_name in workloads:
            out.append(f"Sphinx speedup on {workload_name}: "
                       f"{result.speedups(workload_name)}")
    return "\n".join(out)


def render_chaos(result: Fig4Result, chaos_seed: int) -> str:
    """Goodput-under-faults table for a chaos-mode fig4 grid."""
    headers = ["system", "workload", "Mops", "goodput Mops", "failed",
               "faults", "crashed"]
    rows = [[r["system"], r["workload"], mops(r["throughput_mops"]),
             mops(r["goodput_mops"]), r["failed_ops"], r["faults_injected"],
             r.get("crashed_workers", 0)]
            for r in result.rows]
    out = [banner(f"Chaos - YCSB goodput under FaultPlan.chaos"
                  f"(seed={chaos_seed}), {result.dataset} dataset"),
           format_table(headers, rows)]
    total_ops = sum(r["ops"] for r in result.rows)
    total_failed = sum(r["failed_ops"] for r in result.rows)
    out.append(f"clean-failure rate: {total_failed}/{total_ops} ops "
               f"({100 * total_failed / max(total_ops, 1):.2f}%)")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Fig 5: scalability (throughput-latency under worker sweep)
# ---------------------------------------------------------------------------

@dataclass
class Fig5Result:
    dataset: str
    rows: List[dict] = field(default_factory=list)
    profiles: Dict[str, dict] = field(default_factory=dict)
    traces: Dict[str, object] = field(default_factory=dict)

    def series(self, system: str) -> List[dict]:
        return [r for r in self.rows if r["system"] == system]

    def peak_throughput(self, system: str) -> float:
        return max(r["throughput_mops"] for r in self.series(system))

    def latency_at_peak(self, system: str) -> float:
        series = self.series(system)
        best = max(series, key=lambda r: r["throughput_mops"])
        return best["avg_latency_us"]


def fig5_scalability(dataset_name: str, num_keys: int = DEFAULT_KEYS,
                     ops: int = DEFAULT_OPS, systems=SYSTEMS,
                     worker_counts=FIG5_WORKERS,
                     chaos_seed: Optional[int] = None,
                     chaos_crashes: bool = False,
                     profile: bool = False) -> Fig5Result:
    """Throughput-latency curves for YCSB-A (paper Fig 5, one dataset)."""
    result = Fig5Result(dataset_name)
    cells = [
        CellSpec(system=system, dataset=dataset_name, workload="A",
                 num_keys=num_keys, ops=ops, workers=workers, seed=workers,
                 chaos_seed=chaos_seed, chaos_crashes=chaos_crashes,
                 profile=profile)
        for system in systems for workers in worker_counts
    ]
    for run in run_grid(cells):
        result.rows.append(_result_row(run, chaos_seed))
        if run.profile is not None:
            label = f"{run.system}/{run.workload}x{run.workers}"
            result.profiles[label] = run.profile
            result.traces[label] = run.trace
    return result


def render_fig5(result: Fig5Result) -> str:
    headers = ["system", "workers", "Mops", "avg us", "p99 us", "msgs/op"]
    rows = [[r["system"], r["workers"], mops(r["throughput_mops"]),
             f"{r['avg_latency_us']:.2f}", f"{r['p99_latency_us']:.2f}",
             f"{r['messages_per_op']:.2f}"] for r in result.rows]
    out = [banner(f"Fig 5 - YCSB-A scalability, {result.dataset} dataset"),
           format_table(headers, rows)]
    systems = sorted({r["system"] for r in result.rows})
    peaks = {s: result.peak_throughput(s) for s in systems}
    out.append(f"peak throughput: { {k: round(v, 3) for k, v in peaks.items()} }")
    if "Sphinx" in peaks:
        out.append(f"Sphinx peak speedup: {ratio_summary(peaks)}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Fig 6: MN-side space consumption
# ---------------------------------------------------------------------------

@dataclass
class Fig6Result:
    rows: List[dict] = field(default_factory=list)

    def total(self, system: str, dataset: str) -> int:
        for row in self.rows:
            if row["system"] == system and row["dataset"] == dataset:
                return row["total"]
        raise DataMissing((system, dataset))


def fig6_memory(num_keys: int = DEFAULT_KEYS,
                datasets=("u64", "email")) -> Fig6Result:
    """MN memory after bulk insert (paper Fig 6).

    Reports per-category bytes.  The paper's claims: the inner node hash
    table adds only 3.3% (u64) / 4.9% (email) over plain ART, while SMART
    consumes 2.1-3.0x ART's memory.
    """
    result = Fig6Result()
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, num_keys, insert_fraction=0.0)
        for system in ("ART", "SMART", "Sphinx"):
            setup = build_setup(system, dataset)
            cats = setup.cluster.mn_bytes_by_category()
            inner = cats.get("inner", 0)
            leaf = cats.get("leaf", 0)
            table = cats.get("hash_table", 0)
            result.rows.append({
                "system": system,
                "dataset": dataset_name,
                "inner": inner,
                "leaf": leaf,
                "hash_table": table,
                "total": inner + leaf + table,
            })
    return result


def render_fig6(result: Fig6Result) -> str:
    headers = ["dataset", "system", "inner MB", "leaf MB", "INHT MB",
               "total MB", "vs ART"]
    rows = []
    datasets = sorted({r["dataset"] for r in result.rows})
    for dataset_name in datasets:
        art_total = result.total("ART", dataset_name)
        for row in result.rows:
            if row["dataset"] != dataset_name:
                continue
            rows.append([
                dataset_name, row["system"],
                f"{row['inner'] / 1e6:.2f}", f"{row['leaf'] / 1e6:.2f}",
                f"{row['hash_table'] / 1e6:.3f}",
                f"{row['total'] / 1e6:.2f}",
                f"{row['total'] / art_total:.3f}x",
            ])
    out = [banner("Fig 6 - MN-side memory usage"),
           format_table(headers, rows)]
    for dataset_name in datasets:
        art = result.total("ART", dataset_name)
        sphinx = result.total("Sphinx", dataset_name)
        smart = result.total("SMART", dataset_name)
        out.append(
            f"{dataset_name}: INHT overhead {100 * (sphinx - art) / art:.1f}%"
            f" (paper: 3.3-4.9%), SMART {smart / art:.2f}x ART"
            f" (paper: 2.1-3.0x)")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Ablations (design choices called out in Sec. III)
# ---------------------------------------------------------------------------

def _loaded(label: str, dataset_name: str, num_keys: int,
            make_index) -> SystemSetup:
    """A fresh default cluster with ``make_index(cluster)`` bulk-loaded
    over the dataset."""
    dataset = load_dataset(dataset_name, num_keys)
    cluster = Cluster(ClusterConfig())
    index = make_index(cluster)
    bulk_load(cluster, index, dataset)
    return SystemSetup(label, cluster, index, dataset)


def _search_probe(setup: SystemSetup, probe_ops: int, seed: int) -> Counters:
    """Per-search verb counts of one warmed client: up to 4 000 random
    reads warm its caches, then ``probe_ops`` more are counted on a
    direct executor."""
    rng = random.Random(seed)
    keys = setup.dataset.keys
    client = setup.index.client(0)
    executor = setup.cluster.direct_executor()
    for _ in range(min(4_000, len(keys))):
        executor.run(client.search(keys[rng.randrange(len(keys))]))
    stats = OpStats()
    counted = setup.cluster.direct_executor(stats)
    for _ in range(probe_ops):
        counted.run(client.search(keys[rng.randrange(len(keys))]))
    return Counters.from_opstats(stats).per_op(probe_ops)


def ablation_filter_cache(dataset_name: str = "email",
                          num_keys: int = DEFAULT_KEYS,
                          ops: int = DEFAULT_OPS,
                          workers: int = DEFAULT_WORKERS) -> List[dict]:
    """Sphinx with vs without the succinct filter cache (Sec. III-B).

    Without the filter the client reads Theta(L) hash entries per
    operation in one doorbell batch: same round trips, far more messages,
    earlier NIC saturation.
    """
    rows = []
    for system in ("Sphinx", "Sphinx-NoFilter"):
        dataset = load_dataset(dataset_name, num_keys)
        setup = build_setup(system, dataset)
        run = timed_run(setup, "C", workers=workers, ops=ops)
        rows.append(run.row())
    return rows


def ablation_scan_batching(dataset_name: str = "u64",
                           num_keys: int = DEFAULT_KEYS,
                           ops: int = 1_000,
                           workers: int = 24) -> List[dict]:
    """Doorbell batching in scans on vs off (Sec. V-B, range query)."""
    rows = []
    for batched in (True, False):
        dataset = load_dataset(dataset_name, num_keys)
        setup = build_setup("Sphinx", dataset)
        for cn in range(setup.cluster.config.num_cns):
            setup.index.client(cn).scan_batched = batched
        run = timed_run(setup, "E", workers=workers, ops=ops)
        row = run.row()
        row["system"] = f"Sphinx(batch={'on' if batched else 'off'})"
        rows.append(row)
    return rows


def ablation_hotness(num_keys: int = DEFAULT_KEYS) -> List[dict]:
    """Second-chance (hotness bit) vs plain random eviction under a filter
    too small for the prefix set (Sec. III-B's hot-prefix mechanism)."""
    import random

    from ..filters.hotness import SuccinctFilterCache

    rows = []
    rng = random.Random(0)
    hot = [f"hot{i}".encode() for i in range(256)]
    cold = [f"cold{i}".encode() for i in range(20_000)]
    for second_chance in (True, False):
        cache = SuccinctFilterCache(2_048, second_chance=second_chance)
        for h in hot:
            cache.insert(h)
        hits = 0
        probes = 0
        for round_no in range(10):
            for h in hot:
                hits += cache.contains(h)
                probes += 1
            for c in rng.sample(cold, 500):
                cache.insert(c)
        rows.append({
            "policy": "second-chance" if second_chance else "random",
            "hot_hit_rate": round(hits / probes, 4),
            "evictions": cache.evictions,
        })
    return rows


def ablation_cache_budget(dataset_name: str = "email",
                          num_keys: int = DEFAULT_KEYS,
                          ops: int = DEFAULT_OPS,
                          workers: int = DEFAULT_WORKERS) -> List[dict]:
    """CN cache-budget sensitivity (the paper's SMART vs SMART+C axis).

    Sphinx's filter is succinct (~1.6 B per inner prefix), so a tenth of
    the paper-scaled budget already tracks nearly every prefix; SMART's
    node cache needs orders of magnitude more bytes for the same effect
    (Sec. V-B: Sphinx beats SMART+C with 10% of its cache).
    """
    from ..baselines import SmartConfig, SmartIndex
    from ..core import SphinxConfig, SphinxIndex

    base = scaled_cache_bytes(num_keys)
    rows = []
    for system, factor in (("Sphinx", 0.1), ("Sphinx", 1), ("Sphinx", 10),
                           ("SMART", 1), ("SMART", 10)):
        budget = max(256, int(base * factor))
        if system == "Sphinx":
            index_cls, config = SphinxIndex, SphinxConfig(
                filter_budget_bytes=budget)
        else:
            index_cls, config = SmartIndex, SmartConfig(
                cache_budget_bytes=budget)
        setup = _loaded(f"{system} x{factor}", dataset_name, num_keys,
                        lambda cluster: index_cls(cluster, config))
        run = timed_run(setup, "C", workers=workers, ops=ops)
        row = run.row()
        row["cache_budget_bytes"] = budget
        rows.append(row)
    return rows


def ablation_distribution_skew(dataset_name: str = "email",
                               num_keys: int = DEFAULT_KEYS,
                               ops: int = DEFAULT_OPS,
                               workers: int = DEFAULT_WORKERS) -> List[dict]:
    """Zipfian vs uniform requests.

    SMART's node cache thrives on skew (hot paths stay resident); the
    succinct filter cache tracks *every* prefix regardless of popularity,
    so Sphinx's advantage widens when the workload flattens.
    """
    from ..ycsb import WorkloadSpec, run_workload

    rows = []
    for system in ("SMART", "Sphinx"):
        dataset = load_dataset(dataset_name, num_keys)
        setup = build_setup(system, dataset)
        for distribution in ("zipfian", "uniform"):
            spec = WorkloadSpec(f"C-{distribution}", read=1.0,
                                distribution=distribution)
            run = run_workload(setup.cluster, setup.index, spec, dataset,
                               system=system, workers=workers, ops=ops,
                               warmup_ops_per_cn=2_000)
            rows.append(run.row())
    return rows


def ablation_depth_scaling(dataset_name: str = "u64",
                           sizes=(15_000, 30_000, 60_000, 120_000),
                           probe_ops: int = 400) -> List[dict]:
    """Round trips per search vs dataset size (tree depth).

    The paper runs at 60 M keys where the ART is 4+ levels deep; our
    simulated datasets are necessarily smaller and shallower, which
    *underestimates* traversal-based systems' costs.  This ablation
    measures the trend: Sphinx stays at ~3 round trips regardless of
    size while ART/SMART grow with depth - the extrapolation that links
    our small-scale numbers to the paper's.
    """
    rows = []
    for size in sizes:
        dataset = load_dataset(dataset_name, size, insert_fraction=0.0)
        for system in ("ART", "SMART", "Sphinx"):
            per_op = _search_probe(build_setup(system, dataset), probe_ops,
                                   seed=5)
            rows.append({
                "dataset": dataset_name,
                "keys": size,
                "system": system,
                "rts_per_search": round(per_op["round_trips"], 3),
                "bytes_per_search": round(per_op["bytes_read"], 1),
            })
    return rows


def ablation_locator_budget(dataset_name: str = "u64",
                            num_keys: int = DEFAULT_KEYS,
                            ops: int = DEFAULT_OPS,
                            workers: int = DEFAULT_WORKERS,
                            factors=(0.1, 0.5, 1, 4),
                            probe_ops: int = 400) -> List[dict]:
    """Leaf-locator vs filter-cache budget crossover (DESIGN.md §12).

    Sphinx's filter cache spends its CN bytes on *inner prefixes* (about
    1.6 B each) and always pays the INHT probe plus the leaf read; the
    locator tier spends 16 B per *key* but answers a hit in one READ.
    This family sweeps the same scaled CN budget across both designs:
    small budgets favour the succinct filter (coverage per byte), large
    ones the locator (round trips per hit) - the crossover is the
    quantity the table renders.  An Outback row anchors the far end: its
    MPH directory covers every key at ~12 B/key and is always 1 RTT.

    Each row carries the timed YCSB-C throughput plus a warmed-client
    round-trips-per-search probe (same technique as
    :func:`ablation_depth_scaling`), so the crossover is visible in both
    throughput and RTTs even when the simulated fabric is not the
    bottleneck.
    """
    from ..baselines import OutbackIndex
    from ..core import SphinxConfig, SphinxIndex

    base = scaled_cache_bytes(num_keys)
    rows = []

    def _measure(label: str, make_index, budget: Optional[int]) -> None:
        setup = _loaded(label, dataset_name, num_keys, make_index)
        run = timed_run(setup, "C", workers=workers, ops=ops)
        per_op = _search_probe(setup, probe_ops, seed=11)
        row = run.row()
        row["system"] = label
        if budget is None:
            # Outback: CN spend is the (shared) MPH directory itself.
            budget = setup.index.dir_bytes()
        row["cn_budget_bytes"] = budget
        row["rts_per_search"] = round(per_op["round_trips"], 3)
        rows.append(row)

    for factor in factors:
        budget = max(256, int(base * factor))
        _measure(f"Sphinx x{factor}", lambda cluster: SphinxIndex(
            cluster, SphinxConfig(filter_budget_bytes=budget)), budget)
        _measure(f"Sphinx+Loc x{factor}", lambda cluster: SphinxIndex(
            cluster, SphinxConfig(filter_budget_bytes=budget,
                                  use_locator=True,
                                  locator_budget_bytes=budget)), budget)
    _measure("Outback", OutbackIndex, None)
    return rows


# ---------------------------------------------------------------------------
# RTT histograms (per-op round-trip distribution from profiled cells)
# ---------------------------------------------------------------------------

def rtt_histograms(traces: Dict[str, object]) -> Dict[str, Dict[str, Dict[int, int]]]:
    """Round-trip histograms per op name, from profiled cells' tracers.

    ``traces`` maps cell labels to finished :class:`repro.obs.Tracer`
    objects (``Fig4Result.traces`` / ``Fig5Result.traces``).  Returns
    ``{cell: {op: {round_trips: span_count}}}`` - the distribution the
    locator work is judged by: a locator/directory hit is the spans in
    the ``1`` bucket, fallbacks are the tail.
    """
    out: Dict[str, Dict[str, Dict[int, int]]] = {}
    for label, tracer in traces.items():
        per_op: Dict[str, Dict[int, int]] = {}
        for span in getattr(tracer, "spans", ()):
            if span.t_end < 0:
                continue
            hist = per_op.setdefault(span.name, {})
            hist[span.round_trips] = hist.get(span.round_trips, 0) + 1
        out[label] = per_op
    return out


def render_rtt_histograms(histograms: Dict[str, Dict[str, Dict[int, int]]],
                          max_bucket: int = 8) -> str:
    """Text table of the per-op RTT distribution for every profiled cell.

    Buckets past ``max_bucket`` fold into a ``>N`` column so deep-retry
    tails stay visible without unbounded width.
    """
    headers = ["cell", "op", "spans"] + \
        [str(i) for i in range(max_bucket + 1)] + [f">{max_bucket}"]
    rows = []
    for label in sorted(histograms):
        for op_name in sorted(histograms[label]):
            hist = histograms[label][op_name]
            total = sum(hist.values())
            buckets = [0] * (max_bucket + 2)
            for rtts, count in hist.items():
                buckets[min(rtts, max_bucket + 1)] += count
            rows.append([label, op_name, total] + buckets)
    out = [banner("RTT histogram - round trips per op (profiled cells)"),
           format_table(headers, rows)]
    return "\n".join(out)


def ablation_fingerprint_bits() -> List[dict]:
    """False-positive rate vs fingerprint width (paper: >=10 bits -> <1%).

    Each width gets a filter cache of 8 192 four-slot buckets (the
    budget buys ``fp_bits`` + 1 hotness bit per slot), 18 000 members
    and 50 000 non-member probes.  ``bound`` is the cuckoo-filter
    estimate ``2 * slots / 2^fp_bits``.
    """
    from ..filters.hotness import BUCKET_SLOTS, SuccinctFilterCache

    rows = []
    for bits in (4, 6, 8, 10, 12, 16):
        filt = SuccinctFilterCache(8192 * BUCKET_SLOTS * (bits + 1) // 8,
                                   fp_bits=bits)
        for i in range(18_000):
            filt.insert(f"m{i}".encode())
        false_positives = sum(filt.contains(f"x{i}".encode())
                              for i in range(50_000))
        rows.append({
            "fp_bits": bits,
            "fp_rate": round(false_positives / 50_000, 5),
            "bound": round(min(1.0, 2 * BUCKET_SLOTS / (1 << bits)), 5),
            "bytes_per_item": round(filt.size_bytes() / filt.count, 3),
        })
    return rows
