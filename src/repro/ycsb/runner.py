"""Drive YCSB workloads against an index on the simulated cluster.

The runner reproduces the paper's methodology (Sec. V-A/V-C):

* the dataset is bulk-loaded untimed;
* per-CN caches are warmed (the paper's clients run long enough for
  caches to reach steady state; we warm explicitly so short simulated
  runs measure steady-state behaviour);
* ``workers`` closed-loop clients - the paper's coroutines - are spread
  evenly over the CNs and executed as simulation processes;
* throughput is completed operations over simulated time, latency is
  per-operation simulated time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate as _accumulate
from typing import Dict, List, Optional

from ..dm.cluster import Cluster
from ..dm.rdma import OpStats
from ..errors import (
    ClientCrash,
    ConfigError,
    InjectedFault,
    MNUnavailable,
    RetryLimitExceeded,
    StaleEpoch,
)
from ..obs.counters import Counters
from ..sim.resources import LatencyRecorder
from ..util.zipf import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)
from .datasets import Dataset
from .workloads import ZIPFIAN_THETA, WorkloadSpec

#: Simulated-time bound of a run's traffic (a guard against deadlock and
#: livelock bugs, far beyond any real run); the rack runner gives
#: draining topology work and settling failover multiples of it.
TIME_LIMIT_NS = 10_000_000_000_000


@dataclass
class RunResult:
    """Outcome of one timed workload run."""

    system: str
    workload: str
    dataset: str
    workers: int
    ops: int
    sim_ns: int
    latency: LatencyRecorder
    op_stats: OpStats
    nic_utilization: Dict[str, float] = field(default_factory=dict)
    client_metrics: Counters = field(default_factory=Counters)
    latency_by_op: Dict[str, LatencyRecorder] = field(default_factory=dict)
    # Chaos accounting: ops that surfaced a clean failure under fault
    # injection, and the injector's fired-fault counters.  Both stay at
    # their defaults when no FaultPlan is attached, keeping row() (and
    # with it every baseline comparison) byte-identical to fault-free
    # runs.
    failed_ops: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    # Workers killed mid-run by ``crash_cn`` (their unfinished ops count
    # into failed_ops, so goodput reflects the lost capacity).
    crashed_workers: int = 0
    # The subset of failed_ops that died in degraded mode - on a dead
    # MN group (MNUnavailable) or a failover fence (StaleEpoch) - as
    # opposed to transient chaos retries.  Zero on fault-free runs.
    degraded_ops: int = 0
    # Observability (--profile): the per-op breakdown and the finished
    # repro.obs.Tracer that produced it.  Both stay None when no tracer
    # is attached; neither is part of row().
    profile: Optional[dict] = None
    trace: Optional[object] = None
    # Multi-tenancy: per-tenant goodput/latency rows (see
    # repro.tenancy.TenancyController.tenant_rows).  None when the run
    # had no tenancy attached; not part of row(), so single-tenant
    # results stay byte-identical to the pre-tenancy runner.
    tenants: Optional[List[dict]] = None

    @property
    def throughput_mops(self) -> float:
        """Throughput in million operations per (simulated) second."""
        if self.sim_ns == 0:
            return 0.0
        return self.ops / (self.sim_ns / 1e9) / 1e6

    @property
    def goodput_mops(self) -> float:
        """Successfully completed operations per simulated second - what
        ``--chaos`` reports alongside raw throughput."""
        if self.sim_ns == 0:
            return 0.0
        return (self.ops - self.failed_ops) / (self.sim_ns / 1e9) / 1e6

    @property
    def avg_latency_us(self) -> float:
        return self.latency.mean() / 1e3

    @property
    def p99_latency_us(self) -> float:
        return self.latency.percentile(99) / 1e3

    def verb_counters(self) -> Counters:
        """The executor-level verb totals in the shared facade shape."""
        return Counters.from_opstats(self.op_stats)

    @property
    def round_trips_per_op(self) -> float:
        return self.verb_counters()["round_trips"] / self.ops \
            if self.ops else 0.0

    @property
    def messages_per_op(self) -> float:
        return self.verb_counters()["messages"] / self.ops \
            if self.ops else 0.0

    def row(self) -> dict:
        return {
            "system": self.system,
            "workload": self.workload,
            "dataset": self.dataset,
            "workers": self.workers,
            "ops": self.ops,
            "throughput_mops": round(self.throughput_mops, 4),
            "avg_latency_us": round(self.avg_latency_us, 3),
            "p99_latency_us": round(self.p99_latency_us, 3),
            "round_trips_per_op": round(self.round_trips_per_op, 3),
            "messages_per_op": round(self.messages_per_op, 3),
        }


def _value(seq: int, size: int) -> bytes:
    """A distinguishable fixed-size value payload."""
    stamp = seq.to_bytes(8, "little")
    return (stamp * (size // 8 + 1))[:size]


def bulk_load(cluster: Cluster, index, dataset: Dataset,
              value_size: int = 64) -> None:
    """Insert the dataset untimed through one client per CN round-robin,
    so every CN's local caches see a share of the tree."""
    num_cns = cluster.config.num_cns
    executors = [cluster.direct_executor() for _ in range(num_cns)]
    clients = [index.client(cn) for cn in range(num_cns)]
    for i, key in enumerate(dataset.keys):
        cn = i % num_cns
        executors[cn].run(clients[cn].insert(key, _value(i, value_size)))


def warm_clients(cluster: Cluster, index, spec: WorkloadSpec,
                 dataset: Dataset, warmup_ops_per_cn: int,
                 seed: int = 99) -> None:
    """Run untimed searches on every CN to bring caches to steady state."""
    if warmup_ops_per_cn <= 0:
        return
    for cn in range(cluster.config.num_cns):
        rng = random.Random(seed + cn)
        chooser = _make_chooser(spec, dataset, rng)
        client = index.client(cn)
        executor = cluster.direct_executor()
        for _ in range(warmup_ops_per_cn):
            key = dataset.keys[chooser.next() % len(dataset.keys)]
            executor.run(client.search(key))


def _make_chooser(spec: WorkloadSpec, dataset, rng: random.Random):
    """The key-index generator of ``spec``'s distribution, sized off
    ``dataset.keys`` (a Dataset, or a run's live :class:`_SharedRunState`)."""
    n = len(dataset.keys)
    if spec.distribution == "zipfian":
        return ScrambledZipfianGenerator(n, ZIPFIAN_THETA, rng)
    if spec.distribution == "uniform":
        return UniformGenerator(n, rng)
    if spec.distribution == "latest":
        return LatestGenerator(n, ZIPFIAN_THETA, rng)
    raise ConfigError(f"bad distribution {spec.distribution!r}")


class _SharedRunState:
    """State shared by all workers of one run (keys seen, insert pool)."""

    def __init__(self, dataset: Dataset, spec: WorkloadSpec, seed: int):
        self.keys: List[bytes] = list(dataset.keys)
        self.pool: List[bytes] = list(dataset.insert_pool)
        self.spec = spec
        self.seed = seed
        self.insert_seq = len(self.keys)

    def next_insert_key(self) -> Optional[bytes]:
        if not self.pool:
            return None
        key = self.pool.pop()
        self.keys.append(key)
        self.insert_seq += 1
        return key


class _Lane:
    """One op stream of one client: rng, key chooser, executor, op mix.

    A plain run has one lane per worker; a tenant run has one per
    (worker, tenant), each drawing from its own seeded rng so a tenant's
    op stream is a deterministic function of (seed, wid, tenant) alone -
    reordering tenants inside a worker, or adding a tenant, never
    perturbs another tenant's stream.
    """

    __slots__ = ("spec", "rng", "chooser", "executor", "ops_names",
                 "cum_weights", "served")

    def __init__(self, cluster: Cluster, state: _SharedRunState, cn: int,
                 spec: WorkloadSpec, rng_seed: int, stats: OpStats):
        self.spec = spec
        self.rng = random.Random(rng_seed)
        self.chooser = _make_chooser(spec, state, self.rng)
        self.executor = cluster.sim_executor(cn, stats)
        mix = spec.mix()
        self.ops_names = [k for k, v in mix.items() if v > 0]
        # Pre-accumulated weights: random.choices() otherwise rebuilds the
        # cumulative list on every op.  Same bisect, same rng.random()
        # draw, so the op sequence is unchanged.
        self.cum_weights = list(_accumulate(mix[k] for k in self.ops_names))
        self.served = 0


def _client(cluster: Cluster, index, state: _SharedRunState, wid: int,
            cn: int, ops: int, controller, latency: LatencyRecorder,
            stats: OpStats, latency_by_op: Dict[str, LatencyRecorder],
            failed: Optional[Dict[str, int]] = None):
    """One closed-loop client coroutine (a simulation process).

    With no ``controller`` the client runs the run's one workload on a
    single lane charged to the run-level ``stats``.  With a
    :class:`repro.tenancy.TenancyController` it multiplexes the roster:
    the controller decides *which* tenant's op runs next (weighted-fair
    over every tenant whose token bucket has a token) and *when*
    (sleeping until the earliest refill when all buckets are empty), the
    tenant's lane is made at its first op, and verbs, latency and
    failures are charged to the tenant's own stores as well as the
    run-level ones.
    """
    engine = cluster.engine
    client = index.client(cn)
    lanes: Dict[int, _Lane] = {}
    tenant = 0
    if controller is None:
        lane = _Lane(cluster, state, cn, state.spec,
                     state.seed * 7919 + wid, stats)
    completed = 0
    while completed < ops:
        if controller is not None:
            tenant, wait_ns = controller.acquire(engine.now)
            if tenant < 0:
                yield engine.timeout(wait_ns)
                continue
            lane = lanes.get(tenant)
            if lane is None:
                lane = lanes[tenant] = _Lane(
                    cluster, state, cn, controller.workload_specs[tenant],
                    state.seed * 7919 + wid * 104729 + tenant,
                    controller.op_stats[tenant])
            controller.ops_done[tenant] += 1
        spec = lane.spec
        rng = lane.rng
        chooser = lane.chooser
        executor = lane.executor
        op_name = rng.choices(lane.ops_names,
                              cum_weights=lane.cum_weights, k=1)[0]
        i = lane.served
        lane.served += 1
        start = engine.now
        try:
            if op_name == "read":
                key = state.keys[chooser.next() % len(state.keys)]
                yield from executor.run(client.search(key))
            elif op_name == "update":
                key = state.keys[chooser.next() % len(state.keys)]
                yield from executor.run(
                    client.update(key, _value(wid * ops + i,
                                              spec.value_size)))
            elif op_name == "insert":
                key = state.next_insert_key()
                if key is None:  # pool exhausted: degrade to an update
                    key = state.keys[chooser.next() % len(state.keys)]
                    yield from executor.run(
                        client.update(key, _value(i, spec.value_size)))
                else:
                    yield from executor.run(
                        client.insert(key, _value(state.insert_seq,
                                                  spec.value_size)))
                    if isinstance(chooser, LatestGenerator):
                        chooser.advance()
            elif op_name == "scan":
                key = state.keys[chooser.next() % len(state.keys)]
                length = rng.randint(1, spec.scan_max_len)
                yield from executor.run(client.scan_count(key, length))
            elif op_name == "rmw":
                key = state.keys[chooser.next() % len(state.keys)]
                value = yield from executor.run(client.search(key))
                new = _value(i, spec.value_size) if value is None else \
                    bytes(reversed(value))
                yield from executor.run(client.update(key, new))
        except (MNUnavailable, StaleEpoch):
            # Degraded-mode failure: the op routed to a dead MN group
            # (and every replica, if any, was also down) or raced a
            # failover fence.  Fail-fast by design - one typed error
            # per op, no retry storm - and counted apart from chaos
            # retries so rack tables can show outage cost distinctly;
            # the issuing tenant pays in its failure count, degraded
            # count and retry budget alike.
            if failed is None:
                raise
            failed["ops"] += 1
            failed["degraded"] += 1
            if controller is not None:
                controller.failed_ops[tenant] += 1
                controller.degraded_ops[tenant] += 1
                controller.charge_retry(tenant)
        except (RetryLimitExceeded, InjectedFault):
            # Clean per-op failure under fault injection: count it
            # against goodput and keep the closed loop running.  With no
            # plan attached these exceptions stay fatal.
            if failed is None:
                raise
            failed["ops"] += 1
            if controller is not None:
                controller.failed_ops[tenant] += 1
                controller.charge_retry(tenant)
        except ClientCrash:
            # crash_cn killed this client: a dead client issues no more
            # verbs, so the closed loop ends here.  The dying op is
            # charged to the tenant that issued it; it and the capacity
            # this client would still have contributed count against the
            # run's goodput, not against any one tenant.
            if failed is None:
                raise
            failed["ops"] += ops - completed
            failed["crashed"] += 1
            latency.record(engine.now - start)
            if controller is not None:
                controller.failed_ops[tenant] += 1
                controller.latency[tenant].record(engine.now - start)
            return
        elapsed = engine.now - start
        latency.record(elapsed)
        if controller is not None:
            controller.latency[tenant].record(elapsed)
        recorder = latency_by_op.get(op_name)
        if recorder is None:
            recorder = latency_by_op[op_name] = LatencyRecorder()
        recorder.record(elapsed)
        completed += 1


def run_workload(cluster: Cluster, index, spec: WorkloadSpec,
                 dataset: Dataset, *, system: str = "index",
                 workers: int = 12, ops: int = 6_000,
                 warmup_ops_per_cn: int = 0, seed: int = 0,
                 tenancy=None) -> RunResult:
    """Execute one timed run and collect throughput/latency/verb stats.

    ``tenancy`` (a :class:`repro.tenancy.TenancyController`) makes the
    clients multiplex its roster: the controller's weighted-fair
    scheduler and token buckets decide which tenant each op belongs to,
    verbs and latency are charged per tenant, and the result carries
    ``tenants`` rows.  Both modes run the same :func:`_client` loop;
    with ``tenancy=None`` each client is one lane with no controller,
    ``result.tenants`` is None, and the results stay byte-identical to
    the golden fixture in tests/test_tenancy.py.

    With a :class:`repro.recover.RecoveryManager` attached, its
    :meth:`~repro.recover.RecoveryManager.daemon` (recoveryd) sweeps
    expired leases while the traffic runs and is stopped when it ends.
    """
    if workers < 1:
        raise ConfigError("need at least one worker")
    warm_clients(cluster, index, spec, dataset, warmup_ops_per_cn, seed)
    num_cns = cluster.config.num_cns
    state = _SharedRunState(dataset, spec, seed)
    latency = LatencyRecorder()
    latency_by_op: Dict[str, LatencyRecorder] = {}
    stats = OpStats()
    cluster.reset_nic_stats()
    engine = cluster.engine
    start_ns = engine.now
    per_worker = ops // workers
    actual_ops = per_worker * workers
    failed = {"ops": 0, "crashed": 0, "degraded": 0} \
        if cluster.injector is not None else None
    recovery = cluster.recovery
    if recovery is not None:
        engine.process(recovery.daemon(index), name="recoveryd")
    processes = []
    for wid in range(workers):
        gen = _client(cluster, index, state, wid, wid % num_cns, per_worker,
                      tenancy, latency, stats, latency_by_op, failed)
        processes.append(engine.process(gen, name=f"worker{wid}"))
    try:
        for process in processes:
            engine.run_until_complete(process,
                                      limit=start_ns + TIME_LIMIT_NS)
    finally:
        if recovery is not None:
            recovery.stop()
    sim_ns = engine.now - start_ns
    nic_util = {}
    for mn, nic in cluster.mn_nics.items():
        nic_util[f"mn{mn}"] = round(nic.utilization(), 4)
    for cn, nic in cluster.cn_nics.items():
        nic_util[f"cn{cn}"] = round(nic.utilization(), 4)
    metrics = Counters.aggregate(
        index.client(cn).counters() for cn in range(num_cns))
    if tenancy is not None:
        # Tenant lanes charged their verbs to per-tenant OpStats; fold
        # them into the run-level totals the row() metrics read.
        for tenant_stats in tenancy.op_stats:
            stats.merge(tenant_stats)
    return RunResult(system=system, workload=spec.name,
                     dataset=dataset.name, workers=workers, ops=actual_ops,
                     sim_ns=sim_ns, latency=latency, op_stats=stats,
                     nic_utilization=nic_util, client_metrics=metrics,
                     latency_by_op=latency_by_op,
                     failed_ops=failed["ops"] if failed else 0,
                     crashed_workers=failed["crashed"] if failed else 0,
                     degraded_ops=failed["degraded"] if failed else 0,
                     faults=dict(cluster.injector.counters)
                     if cluster.injector is not None else {},
                     tenants=tenancy.tenant_rows(sim_ns)
                     if tenancy is not None else None)
