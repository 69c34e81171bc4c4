"""The rack-scale run orchestrator: tenants + topology + verification.

:func:`run_rack` is the one entry point behind the ``rack`` figure
family, the `rack-smoke` CI cell, and the tenancy test suites.  It

1. builds a :class:`repro.dm.Rack` from a :class:`~repro.dm.ClusterSpec`
   and bulk-loads the u64 dataset across its shards;
2. optionally attaches a fault plan: an explicit one, or the chaos plan
   widened to the rack's MN count;
3. spawns a **topology daemon** - a simulation process that sleeps until
   each scheduled :class:`~repro.dm.TopologyEvent` and executes it
   through the :class:`repro.recover.Rebalancer`, so MN joins/leaves and
   their shard migrations interleave with tenant traffic on the same
   clock;
4. runs the tenant-multiplexed YCSB workload through the standard
   runner (``tenancy=`` a shared controller);
5. drives any still-migrating topology work to completion, then fscks
   every group cell and reports the worst exit code.

Everything consumes the one simulated clock and seeded RNG streams, so
a rack run - tenants, migrations, chaos and all - is bit-identical
across same-seed repeats; ``rows()`` is the canonical flattening the CI
determinism gate diffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..dm.rack import ClusterSpec, Rack, TopologyEvent
from ..recover.failover import FailoverManager
from ..recover.rebalance import Rebalancer
from ..tools.fsck import exit_code
from ..ycsb.datasets import make_dataset
from ..ycsb.runner import TIME_LIMIT_NS, RunResult, bulk_load, run_workload
from ..ycsb.workloads import workload
from .sched import TenancyController
from .spec import TenancyConfig, default_tenants


@dataclass
class RackRunResult:
    """Everything one rack run produced, flattened for gates and tables."""

    result: RunResult
    rack: Rack
    tenants: List[Dict]
    topology: List[Dict]
    fsck_exit: int
    fsck_reports: list = field(repr=False, default_factory=list)
    #: Rebalancer accounting: shards/keys moved plus the forfeit split
    #: (chaos-damaged vs source-died) and aborted migrations (the
    #: ``migrations_aborted`` counter of ``rack.repl``).
    rebalance: Dict = field(default_factory=dict)
    #: Replication digest (counters, promotions, forfeits, epochs);
    #: ``None`` on an unreplicated (K=0) run.
    replication: Optional[Dict] = None
    #: The run's FailoverManager; ``None`` when K=0.
    failover: Optional[FailoverManager] = field(repr=False, default=None)
    #: The run's Rebalancer: migration logs and the control plane's
    #: verb totals (``op_stats``).
    rebalancer: Optional[Rebalancer] = field(repr=False, default=None)

    def rows(self) -> Dict:
        """A JSON-serializable digest: the aggregate row, per-tenant
        rows, the topology log, rebalance/replication accounting, and
        the fsck verdict.  Two same-seed runs must produce byte-identical
        ``rows()`` - the CI determinism cell diffs exactly this."""
        row = self.result.row()
        row["sim_ns"] = self.result.sim_ns
        row["failed_ops"] = self.result.failed_ops
        row["crashed_workers"] = self.result.crashed_workers
        row["degraded_ops"] = self.result.degraded_ops
        out = {
            "aggregate": row,
            "tenants": self.tenants,
            "topology": self.topology,
            "rebalance": self.rebalance,
            "fsck_exit": self.fsck_exit,
        }
        if self.replication is not None:
            out["replication"] = self.replication
        return out


def _topology_daemon(rack: Rack, rebalancer: Rebalancer,
                     events: Sequence[TopologyEvent], start_ns: int,
                     log: List[Dict]):
    """Execute the topology schedule on the simulated clock (a process)."""
    engine = rack.cluster.engine
    for event in sorted(events, key=lambda e: (e.at_ns, e.kind)):
        delay = start_ns + event.at_ns - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        before = len(rebalancer.completed)
        if event.kind == "mn_join":
            gid = yield from rebalancer.join(event.group)
        else:
            gid = yield from rebalancer.leave(event.group)
        moves = rebalancer.completed[before:]
        log.append({
            "kind": event.kind,
            "group": gid,
            "at_ns": event.at_ns,
            "done_ns": engine.now - start_ns,
            "shards_moved": len(moves),
            "keys_moved": sum(m[3] for m in moves),
        })


def run_rack(spec: Optional[ClusterSpec] = None, *,
             tenants: Union[TenancyConfig, int, None] = 16,
             workload_name: str = "A",
             num_keys: int = 20_000, insert_pool: int = 2_000,
             ops: int = 20_000, seed: int = 0,
             events: Sequence[TopologyEvent] = (),
             chaos_seed: Optional[int] = None,
             fault_plan=None) -> RackRunResult:
    """One rack-scale serving run; see the module docstring for phases.

    ``tenants`` is a roster (:class:`TenancyConfig`), a count (the
    deterministic :func:`default_tenants` roster of that size), or
    ``None`` for a single-tenant run on the plain runner path.  The
    rack's ``spec.clients`` client generators are the run's workers.

    ``fault_plan`` attaches an explicit :class:`repro.fault.FaultPlan`
    (e.g. a scheduled ``crash_mn``) instead of the ``chaos_seed``
    generated one; with ``spec.replicas > 0`` a ``replicationd`` daemon
    runs next to the traffic - failing over dead groups online and
    repairing the replicas that carry a recorded debt - and the run
    settles all failover work before the final fsck.
    """
    spec = spec if spec is not None else ClusterSpec()
    for event in events:
        event.validate()
    rack = Rack(spec)
    dataset = make_dataset("u64", num_keys, seed=1, insert_pool=insert_pool)
    bulk_load(rack.cluster, rack, dataset)
    if fault_plan is not None:
        rack.cluster.attach_faults(fault_plan)
    elif chaos_seed is not None:
        from ..fault import FaultPlan  # local: fault is optional here
        rack.cluster.attach_faults(FaultPlan.chaos(
            chaos_seed, num_mns=spec.num_mns))
    controller = None
    if tenants is not None:
        config = tenants if isinstance(tenants, TenancyConfig) \
            else default_tenants(tenants)
        controller = TenancyController(config)
    engine = rack.cluster.engine
    start_ns = engine.now
    topology_log: List[Dict] = []
    topo_proc = None
    rebalancer = Rebalancer(rack)
    failover = replicationd = None
    if spec.replicas > 0:
        failover = FailoverManager(rack, rebalancer)
        replicationd = engine.process(failover.daemon(), name="replicationd")
    if events:
        topo_proc = engine.process(
            _topology_daemon(rack, rebalancer, events, start_ns,
                             topology_log),
            name="topologyd")
    result = run_workload(
        rack.cluster, rack, workload(workload_name), dataset,
        system="Rack", workers=spec.clients, ops=ops, seed=seed,
        tenancy=controller)
    if topo_proc is not None and not topo_proc.triggered:
        # Traffic finished first: drive the remaining migrations (and
        # any not-yet-due events) to completion on the same clock.
        engine.run_until_complete(topo_proc,
                                  limit=start_ns + 2 * TIME_LIMIT_NS)
    if failover is not None:
        # Settle as replicationd's last tick: fail over any still-
        # unhandled dead group, reconcile every replica set, and repair
        # every recorded debt, so the fsck below sees replicas at rest,
        # not mid-repair.
        failover.stop()
        engine.run_until_complete(replicationd,
                                  limit=start_ns + 4 * TIME_LIMIT_NS)
    fsck_reports = rack.fsck_all()
    fsck_exit = max((exit_code(report, dry_run=True, recovered=False)
                     for _gid, report in fsck_reports), default=0)
    repl = rack.repl
    rebalance_row = {
        "shards_moved": len(rebalancer.completed),
        "keys_moved": sum(m[3] for m in rebalancer.completed),
        "forfeited_chaos": len(rebalancer.forfeited_chaos),
        "forfeited_dead": len(rebalancer.forfeited_dead),
        "aborted_migrations": repl.get("migrations_aborted"),
    }
    replication_row = None
    if failover is not None:
        replication_row = {
            "counters": dict(sorted(repl.as_dict().items())),
            "promotions": repl.get("promotions"),
            "failover_forfeited_keys": repl.get("failover_forfeited_keys"),
            "mid_migration_failovers": repl.get("mid_migration_failovers"),
            "max_epoch": max(rack.epochs),
        }
    return RackRunResult(result=result, rack=rack,
                         tenants=result.tenants or [],
                         topology=topology_log,
                         fsck_exit=fsck_exit, fsck_reports=fsck_reports,
                         rebalance=rebalance_row,
                         replication=replication_row,
                         failover=failover, rebalancer=rebalancer)
