"""The metric registry, and how each metric is computed from a Run.

Names are normative: later PRs state their claims against them.  Two
clocks are kept apart everywhere - *host* metrics are what the simulator
costs to run and carry the sandbox's noise; *simulated* metrics are what
the modelled hardware would do and repeat bit for bit at a fixed seed
(``sim_digest`` flags any change to them, better or worse).

The repo holds no per-cell reference measurements from real hardware, so
no simulated number comes with an error figure: the model is unvalidated
(see EXPERIMENTS.md).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim import LatencyRecorder

from cells import RACK_SPEC, Run
from hostclock import KERNEL_REF_S
from layers import LAYERS

HIGHER, LOWER = "higher", "lower"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    bound: Optional[float] = None             # end-to-end only
    moves: Optional[Tuple[str, str]] = None   # per-layer: (e2e, workload)
    exact: bool = False     # repeats bit for bit at a fixed seed (--aa)


# Bounds: the share of the parent's median by which a metric may worsen.
# Each is at least three times the widest ten-seed spread (IQR / median)
# measured for it on any workload (results/BASELINE.json, "spreads").
# Host metrics carry what is left of this box's noise after calibration.
# Simulated metrics are exact at a fixed seed, but the driver compares
# medians over *different* seeds, so their bounds cover the seed-to-seed
# spread; the exact same-seed comparison is sim_digest's job (--aa).
END_TO_END: Tuple[Metric, ...] = (
    Metric("host_ops_per_s", "ops/s", HIGHER,
           "median over rounds of YCSB ops completed / calibrated host "
           "seconds of the round (rack: of the whole run_rack call)", 0.20),
    Metric("setup_s", "s", LOWER,
           "median of three set-ups, in calibrated seconds: dataset "
           "generation + cluster build + bulk load + warm-up (rack: a "
           "run_rack call with ops=64)", 0.25),
    Metric("peak_rss_mb", "MiB", LOWER,
           "ru_maxrss when the fixed window closes (three set-ups and the "
           "fixed rounds; not the extra rounds or the verify)", 0.10),
    Metric("sim_mops", "Mops/s", HIGHER,
           "simulated throughput: sum of ops / sum of sim_ns", 0.10, exact=True),
    Metric("sim_p50_us", "us", LOWER,
           "median per-op simulated latency", 0.10, exact=True),
    Metric("sim_p99_us", "us", LOWER,
           "99th percentile per-op simulated latency", 0.20, exact=True),
    Metric("sim_p999_us", "us", LOWER,
           "99.9th percentile per-op simulated latency (>= 10 samples "
           "beyond it on every workload)", 0.25, exact=True),
    Metric("rtt_per_op", "rtt/op", LOWER,
           "OpStats.round_trips / ops - the paper's currency", 0.05, exact=True),
    Metric("wire_bytes_per_op", "B/op", LOWER,
           "(bytes_read + bytes_written) / ops", 0.10, exact=True),
    Metric("mn_bytes_per_key", "B/key", LOWER,
           "total_mn_bytes() / live keys at the end of the fixed window "
           "(Fig 6)", 0.05, exact=True),
)

HOST, C, LOAD, E, RACK = ("host_ops_per_s", "sphinx-c", "sphinx-load",
                          "sphinx-e", "rack-rep1-a")

# Which end-to-end cell each layer's host time should move first (the
# interaction table, written before measuring; README.md has the rest).
_LAYER_MOVES: Dict[str, str] = {
    "sim.engine": E, "sim.resources": E, "dm.rdma": RACK, "dm.network": E,
    "dm.memory": LOAD, "dm.rack": RACK, "art": LOAD, "filters": C,
    "race": C, "core": LOAD, "util.hashing": C, "util.zipf": C, "ycsb": C,
    "tenancy": RACK, "recover": RACK, "hooks": RACK, "stdlib": C,
}

def _layer_metrics() -> Tuple[Metric, ...]:
    out: List[Metric] = []
    for layer in LAYERS:
        moves = (HOST, _LAYER_MOVES[layer])
        out.append(Metric(f"{layer}.self_s", "s", LOWER,
                          "host self time in the traced rounds, builtins "
                          "charged to the calling layer", moves=moves))
        out.append(Metric(f"{layer}.calls_per_op", "calls/op", LOWER,
                          "profiled calls per op (repeats exactly)",
                          moves=moves, exact=True))

    def add(name, unit, better, what, metric, workload):
        out.append(Metric(name, unit, better, what,
                          moves=(metric, workload)))

    # Counts at layer boundaries (fixed window of the untraced pass).
    add("sim.engine.events_per_op", "events/op", LOWER,
        "engine events processed / ops", HOST, E)
    add("sim.engine.events_per_host_s", "events/s", HIGHER,
        "engine events processed / host wall", HOST, E)
    add("dm.rdma.msgs_per_op", "msgs/op", LOWER,
        "OpStats.messages / ops", "wire_bytes_per_op", RACK)
    add("dm.rdma.batches_per_op", "1/op", LOWER,
        "doorbell batches / ops", HOST, E)
    add("dm.rdma.cas_per_op", "1/op", LOWER, "CAS verbs / ops",
        "sim_p999_us", LOAD)
    add("dm.rdma.writes_per_op", "1/op", LOWER, "WRITE verbs / ops",
        "wire_bytes_per_op", LOAD)
    add("dm.network.cn_nic_busy_max", "ratio", LOWER,
        "busiest CN NIC's busy share of simulated time", "sim_p99_us", C)
    add("dm.network.mn_nic_busy_max", "ratio", LOWER,
        "busiest MN NIC's busy share (-> 1.0 is the Fig 5 knee)",
        "sim_p99_us", C)
    add("dm.network.mn_nic_busy_spread", "ratio", LOWER,
        "busiest minus idlest MN NIC", "sim_mops", RACK)
    for category in ("inner", "leaf", "hash_table"):
        add(f"dm.memory.{category}_bytes", "B", LOWER,
            f"MN bytes allocated in category {category!r}",
            "mn_bytes_per_key", LOAD)
    add("filters.hit_ratio", "ratio", HIGHER,
        "filter hits / (hits + misses)", "rtt_per_op", C)
    add("filters.evictions_per_kop", "1/kop", LOWER,
        "filter evictions per 1000 ops", "rtt_per_op", LOAD)
    add("filters.fp_restarts_per_kop", "1/kop", LOWER,
        "op restarts caused by filter false positives", "rtt_per_op", C)
    add("filters.stale_fills_per_kop", "1/kop", LOWER,
        "filter fills that raced a concurrent change", "rtt_per_op", LOAD)
    add("filters.cn_cache_bytes", "B", LOWER,
        "CN-side cache bytes (filter + INHT directory), all CNs",
        "peak_rss_mb", C)
    add("core.op_restarts_per_kop", "1/kop", LOWER, "op restarts",
        "sim_p999_us", LOAD)
    add("core.lock_failures_per_kop", "1/kop", LOWER, "lock CAS failures",
        "sim_p999_us", LOAD)
    add("core.leaf_splits_per_kop", "1/kop", LOWER, "leaf splits",
        "sim_mops", LOAD)
    add("core.type_switches_per_kop", "1/kop", LOWER, "node type switches",
        "sim_mops", LOAD)
    add("core.inht_splits", "count", LOWER, "INHT (RACE) segment splits",
        "sim_p999_us", LOAD)
    add("core.inht_fallbacks", "count", LOWER,
        "lookups that fell back from the INHT to a tree walk",
        "rtt_per_op", C)
    add("core.multi_candidate_per_kop", "1/kop", LOWER,
        "INHT lookups with more than one candidate", "rtt_per_op", C)
    add("tenancy.goodput_share_err_max", "ratio", LOWER,
        "worst unthrottled tenant's |ops share - weight share| / weight "
        "share", "sim_p99_us", RACK)
    add("tenancy.tenant_p99_us_max", "us", LOWER,
        "worst tenant's p99 simulated latency", "sim_p999_us", RACK)
    add("tenancy.budget_deferrals", "count", LOWER,
        "admissions deferred by a spent retry budget", "sim_mops", RACK)
    add("dm.rack.replica_writes_per_op", "1/op", LOWER,
        "replica fan-out writes / ops", "wire_bytes_per_op", RACK)
    add("recover.anti_entropy_compares", "count", LOWER,
        "anti-entropy shard comparisons", HOST, RACK)
    add("recover.anti_entropy_repaired_keys", "count", LOWER,
        "keys anti-entropy had to repair", "sim_mops", RACK)
    add("recover.promotions", "count", LOWER, "failover promotions",
        "sim_p999_us", RACK)
    add("recover.forfeited_keys", "count", LOWER,
        "keys given up by failover or rebalance", "sim_mops", RACK)
    # Phases timed around public calls.
    add("setup.dataset_s", "s", LOWER, "dataset generation", "setup_s", C)
    add("setup.bulk_load_s", "s", LOWER,
        "cluster build + bulk load (rack: the bulk_load span)",
        "setup_s", C)
    add("setup.warm_s", "s", LOWER, "cache warm-up", "setup_s", C)
    add("setup.bulk_load_keys_per_s", "keys/s", HIGHER,
        "keys loaded / setup.bulk_load_s", "setup_s", LOAD)
    add("rack.bulk_load_s", "s", LOWER,
        "span around run_rack's bulk_load call (-1: target absent)",
        HOST, RACK)
    add("rack.traffic_s", "s", LOWER,
        "span around run_rack's run_workload call", HOST, RACK)
    add("rack.settle_fsck_s", "s", LOWER,
        "end of traffic to end of fsck_all", HOST, RACK)
    # Tracing cost, and a first simulated-time waterfall.
    add("trace.overhead_ratio", "ratio", LOWER,
        "untraced host rate / cProfile-traced host rate", HOST, C)
    add("trace.py_calls_per_op", "calls/op", LOWER,
        "all profiled calls / ops", HOST, C)
    add("obs.tracer_overhead_ratio", "ratio", LOWER,
        "untraced host rate / rate with Cluster.attach_tracer()", HOST, C)
    add("obs.verb_wait_share", "ratio", LOWER,
        "share of op sim-time covered by the union of its VerbEvents; "
        "the rest is backoff + local compute", "sim_p50_us", C)
    add("dm.network.mn_queue_ns_mean", "ns", LOWER,
        "mean sampled MN NIC backlog", "sim_p99_us", C)
    add("dm.network.cn_queue_ns_mean", "ns", LOWER,
        "mean sampled CN NIC backlog", "sim_p99_us", C)
    # The host clock's correction, so the plain numbers stay visible.
    add("host.speed_factor", "ratio", LOWER,
        "mean calibration-kernel time during the rounds / KERNEL_REF_S "
        "(> 1: the box ran slower than the reference)", HOST, C)
    add("host.raw_ops_per_s", "ops/s", HIGHER,
        "host_ops_per_s on the plain wall clock, uncorrected", HOST, C)
    # Zero on every fault-free run, so the contract keeps them out of
    # end_to_end ("never 0"); any non-zero value also fails the run.
    add("failed_op_share", "ratio", LOWER,
        "failed_ops / ops attempted (degraded ops and ops lost to crashed "
        "workers are inside failed_ops)", "sim_mops", RACK)
    add("integrity_findings", "count", LOWER,
        "fsck findings + forfeited keys + read-back mismatches",
        "sim_mops", RACK)
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _layer_metrics()


# ---------------------------------------------------------------------------
# Computation
# ---------------------------------------------------------------------------

def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def round_rates(run: Run, rounds: Optional[int] = None,
                raw: bool = False) -> List[float]:
    """Per-round host rates, in calibrated seconds unless ``raw``."""
    return [r.ops / (r.raw_wall_s if raw else r.wall_s)
            for r in run.rounds[:rounds]]


def merged_latency(run: Run) -> LatencyRecorder:
    merged = LatencyRecorder()
    for rnd in run.window:
        merged.samples.extend(rnd.latency)
    return merged


def _verb_total(run: Run, *names: str) -> int:
    return sum(r.verbs.get(name, 0) for r in run.window for name in names)


def end_to_end(run: Run) -> Dict[str, float]:
    window = run.window
    ops = sum(r.ops for r in window)
    latency = merged_latency(run)
    return {
        "host_ops_per_s": statistics.median(round_rates(run)),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.state["peak_rss_kb"] / 1024,
        "sim_mops": ops * 1e3 / sum(r.sim_ns for r in window),
        "sim_p50_us": latency.percentile(50) / 1e3,
        "sim_p99_us": latency.percentile(99) / 1e3,
        "sim_p999_us": latency.percentile(99.9) / 1e3,
        "rtt_per_op": _verb_total(run, "round_trips") / ops,
        "wire_bytes_per_op": _verb_total(run, "bytes_read",
                                         "bytes_written") / ops,
        "mn_bytes_per_key": run.state["mn_bytes"] / run.state["live_keys"],
    }


def _nic_busy(run: Run, kind: str) -> List[float]:
    """Each ``kind`` NIC's busy share over the window's simulated time."""
    sim_ns = sum(r.sim_ns for r in run.window)
    busy: Dict[str, float] = {}
    for rnd in run.window:
        for nic, share in rnd.nic.items():
            if nic.startswith(kind):
                busy[nic] = busy.get(nic, 0.0) + share * rnd.sim_ns
    return [value / sim_ns for value in busy.values()] or [0.0]


def _tenancy(run: Run) -> Dict[str, float]:
    err = p99 = 0.0
    deferrals = 0
    for rnd in run.window:
        fair = [t for t in rnd.tenants if t["rate_ops_per_s"] is None]
        ops = sum(t["ops"] for t in fair)
        weight = sum(t["weight"] for t in fair)
        for tenant in fair:
            want = tenant["weight"] / weight
            err = max(err, abs(tenant["ops"] / ops - want) / want)
        for tenant in rnd.tenants:
            p99 = max(p99, tenant["p99_latency_us"])
            deferrals += tenant["budget_deferrals"]
    return {"goodput_share_err_max": err, "tenant_p99_us_max": p99,
            "budget_deferrals": deferrals}


def per_layer(run: Run, traced: Run, attribution: Dict) -> Dict[str, float]:
    """Every PER_LAYER metric: counts from ``run`` (the untraced pass),
    host self time from ``traced`` and its profile ``attribution``."""
    cell = run.cell
    window = run.window
    ops = sum(r.ops for r in window)
    kops = ops / 1e3
    traced_ops = sum(r.ops for r in traced.rounds)
    out: Dict[str, float] = {}
    for layer, totals in attribution["layers"].items():
        out[f"{layer}.self_s"] = totals["self_s"]
        out[f"{layer}.calls_per_op"] = totals["calls"] / traced_ops

    events = sum(r.events for r in window)
    out["sim.engine.events_per_op"] = events / ops
    out["sim.engine.events_per_host_s"] = \
        events / sum(r.wall_s for r in window)
    out["dm.rdma.msgs_per_op"] = _verb_total(run, "messages") / ops
    out["dm.rdma.batches_per_op"] = _verb_total(run, "batches") / ops
    out["dm.rdma.cas_per_op"] = _verb_total(run, "cas") / ops
    out["dm.rdma.writes_per_op"] = _verb_total(run, "writes") / ops
    mn_busy, cn_busy = _nic_busy(run, "mn"), _nic_busy(run, "cn")
    out["dm.network.cn_nic_busy_max"] = max(cn_busy)
    out["dm.network.mn_nic_busy_max"] = max(mn_busy)
    out["dm.network.mn_nic_busy_spread"] = max(mn_busy) - min(mn_busy)
    for category in ("inner", "leaf", "hash_table"):
        out[f"dm.memory.{category}_bytes"] = \
            run.state["mn_categories"].get(category, 0)

    counters = run.state["counters"]

    def per_kop(name: str) -> float:
        return counters.get(name, 0) / kops

    probes = counters.get("filter_hits", 0) + counters.get("filter_misses", 0)
    out["filters.hit_ratio"] = \
        counters.get("filter_hits", 0) / probes if probes else 0.0
    out["filters.evictions_per_kop"] = per_kop("filter_evictions")
    out["filters.fp_restarts_per_kop"] = per_kop("fp_restarts")
    out["filters.stale_fills_per_kop"] = per_kop("stale_filter_fills")
    out["filters.cn_cache_bytes"] = run.state["cn_cache_bytes"]
    out["core.op_restarts_per_kop"] = per_kop("op_restarts")
    out["core.lock_failures_per_kop"] = per_kop("lock_failures")
    out["core.leaf_splits_per_kop"] = per_kop("leaf_splits")
    out["core.type_switches_per_kop"] = per_kop("type_switches")
    out["core.inht_splits"] = counters.get("inht_splits", 0)
    out["core.inht_fallbacks"] = counters.get("inht_fallbacks", 0)
    out["core.multi_candidate_per_kop"] = per_kop("multi_candidate_lookups")

    for name, value in _tenancy(run).items():
        out[f"tenancy.{name}"] = value
    replication: Dict[str, int] = {}
    for rnd in window:
        for name, value in rnd.replication.items():
            replication[name] = replication.get(name, 0) + value
    out["dm.rack.replica_writes_per_op"] = \
        replication.get("replica_writes", 0) / ops
    for name in ("anti_entropy_compares", "anti_entropy_repaired_keys",
                 "promotions", "forfeited_keys"):
        out[f"recover.{name}"] = replication.get(name, 0)

    phases = run.phases
    loaded = cell.keys * (1 + RACK_SPEC["replicas"]) if cell.rack \
        else cell.keys
    bulk = phases.get("bulk_load_s", -1.0)
    out["setup.dataset_s"] = phases.get("dataset_s", 0.0)
    out["setup.bulk_load_s"] = bulk
    out["setup.warm_s"] = phases.get("warm_s", 0.0)
    out["setup.bulk_load_keys_per_s"] = loaded / bulk if bulk > 0 else -1.0
    for name in ("bulk_load_s", "traffic_s", "settle_fsck_s"):
        out[f"rack.{name}"] = phases.get(name, -1.0) if cell.rack else 0.0

    # The traced pass runs on the plain clock, so compare plain rates.
    out["trace.overhead_ratio"] = \
        statistics.median(round_rates(run, traced.fixed, raw=True)) \
        / statistics.median(round_rates(traced, raw=True))
    out["trace.py_calls_per_op"] = attribution["total_calls"] / traced_ops
    obs = run.obs
    out["obs.tracer_overhead_ratio"] = \
        statistics.median(round_rates(run)) / obs["ops_per_s"] \
        if obs else 0.0
    out["obs.verb_wait_share"] = obs.get("verb_wait_share", 0.0)
    out["dm.network.mn_queue_ns_mean"] = obs.get("mn_queue_ns_mean", 0.0)
    out["dm.network.cn_queue_ns_mean"] = obs.get("cn_queue_ns_mean", 0.0)

    out["host.speed_factor"] = statistics.fmean(
        r.kernel_s for r in run.rounds) / KERNEL_REF_S
    out["host.raw_ops_per_s"] = statistics.median(round_rates(run, raw=True))
    out["failed_op_share"] = run.failed / run.attempted
    out["integrity_findings"] = run.findings
    return out
