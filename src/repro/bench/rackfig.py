"""The ``rack`` figure family: multi-tenant serving-grid cells.

Beyond the paper's figures (one index, one workload, 3+3 nodes), this
family reports what a rack-scale deployment cares about - per-tenant
goodput and tail latency under weighted sharing and admission control,
and whether the grid survives elastic membership changes:

* ``steady``  - the sharded grid serving the full tenant roster;
* ``rebalance`` - the same grid with one online MN-group join *and* one
  group drain/leave mid-run; the cell must end fsck-clean.
* ``replicated`` (``--replicas K > 0``) - the steady grid with K shard
  replicas per primary; ``--crash-mn-verb N`` additionally kills one MN
  mid-run so the cell exercises online failover and re-replication.
  The K=0 cells are untouched by the new axis, so their schedules (and
  the bit-identity gate over them) are exactly the pre-replication ones.

Each cell contributes a BENCH_RACK perf record (same BENCH_2 schema, its
own baseline file) through the shared :data:`repro.bench.perftrack.
TRACKER`, so the rack-smoke CI job runs the same simulated-result
identity gate as the other benchmark suites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dm.rack import ClusterSpec, TopologyEvent
from ..tenancy import RackRunResult, default_tenants, run_rack
from .harness import DEFAULT_KEYS, DEFAULT_OPS
from .perftrack import TRACKER, perf_record
from .reporting import banner, format_table

#: Simulated times of the rebalance cell's membership events: the join
#: lands early so migrations overlap plenty of traffic, the drain starts
#: once the joined group is (typically) settled.
REBALANCE_JOIN_NS = 100_000
REBALANCE_LEAVE_NS = 400_000


@dataclass
class RackFigure:
    """All cells of one rack-family invocation."""

    rows: List[dict] = field(default_factory=list)
    tenant_rows: Dict[str, List[dict]] = field(default_factory=dict)
    topology: Dict[str, List[dict]] = field(default_factory=dict)
    fsck_exits: Dict[str, int] = field(default_factory=dict)
    results: Dict[str, RackRunResult] = field(default_factory=dict)
    #: Per-cell replication digests (only cells run with K > 0).
    replication: Dict[str, dict] = field(default_factory=dict)

    @property
    def fsck_clean(self) -> bool:
        return all(code == 0 for code in self.fsck_exits.values())

    def digest(self) -> dict:
        """JSON-serializable flattening (the CI determinism cell diffs
        two same-seed digests byte-for-byte)."""
        return {
            "rows": self.rows,
            "tenants": self.tenant_rows,
            "topology": self.topology,
            "fsck_exits": self.fsck_exits,
            "replication": self.replication,
        }


def _run_cell(label: str, system: str, spec: ClusterSpec, figure: RackFigure,
              *, tenants, num_keys: int, ops: int, seed: int,
              events=(), chaos_seed: Optional[int] = None,
              fault_plan=None) -> None:
    wall_start = time.perf_counter()
    rr = run_rack(spec, tenants=tenants, num_keys=num_keys,
                  insert_pool=max(64, num_keys // 10), ops=ops, seed=seed,
                  events=events, chaos_seed=chaos_seed,
                  fault_plan=fault_plan)
    wall_s = time.perf_counter() - wall_start
    engine = rr.rack.cluster.engine
    result = rr.result
    result.system = system
    # run_rack builds its own cluster, so the whole call is the run.
    result.perf = perf_record(result, engine, wall_s, wall_s,
                              engine.events_processed)
    TRACKER.add(result)
    row = result.row()
    row["cell"] = label
    row["tenants"] = len(rr.tenants)
    row["groups"] = len(rr.rack.live_groups())
    row["fsck_exit"] = rr.fsck_exit
    figure.rows.append(row)
    figure.tenant_rows[label] = rr.tenants
    figure.topology[label] = rr.topology
    figure.fsck_exits[label] = rr.fsck_exit
    figure.results[label] = rr
    if rr.replication is not None:
        figure.replication[label] = rr.replication


def rack_family(*, num_cns: int = 8, num_mns: int = 8, group_size: int = 2,
                num_shards: int = 64, clients: int = 64, tenants: int = 16,
                num_keys: int = DEFAULT_KEYS, ops: int = DEFAULT_OPS,
                seed: int = 0, rebalance: bool = True,
                chaos_seed: Optional[int] = None,
                replicas: int = 0,
                crash_mn_verb: Optional[int] = None,
                mn_capacity_bytes: int = 256 << 20) -> RackFigure:
    """Run the rack cell family and return every cell's outputs.

    ``tenants`` picks the deterministic :func:`repro.tenancy.
    default_tenants` roster of that size; ``rebalance=False`` drops the
    membership-change cell (the steady cell always runs).  ``replicas``
    adds the ``replicated`` cell - the steady grid with K shard
    replicas - without perturbing the K=0 cells; ``crash_mn_verb``
    schedules a ``crash_mn`` against the first MN of group 1 at that
    injector verb count inside the replicated cell, so the cell must
    serve through a failover to end fsck-clean.
    """
    spec = ClusterSpec(num_cns=num_cns, num_mns=num_mns,
                       group_size=group_size, num_shards=num_shards,
                       clients=clients, mn_capacity_bytes=mn_capacity_bytes)
    roster = default_tenants(tenants)
    figure = RackFigure()
    _run_cell("steady", "Rack", spec, figure, tenants=roster,
              num_keys=num_keys, ops=ops, seed=seed, chaos_seed=chaos_seed)
    if rebalance:
        events = (TopologyEvent(at_ns=REBALANCE_JOIN_NS, kind="mn_join"),
                  TopologyEvent(at_ns=REBALANCE_LEAVE_NS, kind="mn_leave",
                                group=0))
        _run_cell("rebalance", "Rack+Rebal", spec, figure, tenants=roster,
                  num_keys=num_keys, ops=ops, seed=seed, events=events,
                  chaos_seed=chaos_seed)
    if replicas > 0:
        rspec = ClusterSpec(num_cns=num_cns, num_mns=num_mns,
                            group_size=group_size, num_shards=num_shards,
                            clients=clients, replicas=replicas,
                            mn_capacity_bytes=mn_capacity_bytes)
        fault_plan = None
        if crash_mn_verb is not None:
            from ..fault import FaultPlan, crash_mn  # local: optional dep
            fault_plan = FaultPlan(seed=seed, rules=(
                crash_mn(group_size, at_verb=crash_mn_verb),))
        _run_cell("replicated", f"Rack+Rep{replicas}", rspec, figure,
                  tenants=roster, num_keys=num_keys, ops=ops, seed=seed,
                  fault_plan=fault_plan)
    return figure


def render_rack(figure: RackFigure) -> str:
    """The rack family's tables: aggregate cells, then per-tenant rows."""
    out = [banner("Rack - multi-tenant serving grid")]
    headers = ["cell", "workers", "tenants", "groups", "ops",
               "throughput_mops", "p99_latency_us", "fsck_exit"]
    out.append(format_table(
        headers, [[row[h] for h in headers] for row in figure.rows]))
    for label, rows in figure.tenant_rows.items():
        if not rows:
            continue
        out.append(banner(f"Rack cell '{label}' - per-tenant goodput/p99"))
        headers = list(rows[0].keys())
        out.append(format_table(
            headers, [[row[h] for h in headers] for row in rows]))
    for label, events in figure.topology.items():
        if not events:
            continue
        out.append(banner(f"Rack cell '{label}' - topology events"))
        headers = list(events[0].keys())
        out.append(format_table(
            headers, [[event[h] for h in headers] for event in events]))
    for label, repl in figure.replication.items():
        out.append(banner(f"Rack cell '{label}' - replication/failover"))
        rows = [[k, v] for k, v in sorted(repl.get("counters", {}).items())]
        rows += [[k, repl[k]] for k in ("failover_forfeited_keys",
                                        "mid_migration_failovers",
                                        "max_epoch")]
        out.append(format_table(["counter", "value"], rows))
    return "\n".join(out)
