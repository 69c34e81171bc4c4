"""Weighted-fair scheduling and the per-run tenancy controller.

:class:`WeightedFairScheduler` is start-time-fair queueing in integer
virtual time: picking tenant ``t`` advances its virtual finish time by
``VT_UNIT // weight[t]``, so over any saturated interval tenants complete
ops proportionally to their weights.  The idle catch-up (``max(vtime,
vnow)``) keeps a tenant that was throttled by admission from hoarding an
unbounded virtual-time credit and starving everyone once its bucket
refills.

:class:`TenancyController` is the object the YCSB runner's clients
share on a tenant run: it owns each tenant's token bucket, virtual time,
and metric stores (OpStats / latency / failure counts), and hands out
admission decisions.  It is pure state plus integer arithmetic driven by the
simulated clock - no randomness, no wall time - so the per-tenant
schedule is a deterministic function of (roster, seed, topology).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dm.rdma import OpStats
from ..obs.counters import Counters
from ..sim.resources import LatencyRecorder
from .admission import TokenBucket
from .spec import TenancyConfig

#: Virtual-time cost of one op at weight 1.  Large enough that integer
#: division by any sane weight keeps plenty of resolution.
VT_UNIT = 1 << 20


class WeightedFairScheduler:
    """Start-time-fair queueing over a fixed tenant set, integer-only."""

    __slots__ = ("_weights", "_vtime", "_vnow")

    def __init__(self, weights: Sequence[int]):
        self._weights = list(weights)
        self._vtime = [0] * len(self._weights)
        self._vnow = 0

    def pick(self, candidates: Sequence[int]) -> int:
        """Pick the candidate with the least virtual time (index breaks
        ties, so the choice is total and deterministic)."""
        best = min(candidates, key=lambda t: (self._vtime[t], t))
        start = max(self._vtime[best], self._vnow)
        self._vnow = start
        self._vtime[best] = start + VT_UNIT // self._weights[best]
        return best


class TenancyController:
    """Shared multiplexing state for one tenant-aware run.

    Workers call :meth:`acquire` before every op; the controller either
    admits a tenant now (WFQ over every tenant whose bucket has a token)
    or, with every bucket empty, returns how long to sleep until the
    earliest refill.  Both paths are functions of the simulated clock
    only.
    """

    def __init__(self, config: TenancyConfig):
        config.validate()
        self.config = config
        self.tenants = config.tenants
        n = len(self.tenants)
        self.sched = WeightedFairScheduler([t.weight for t in self.tenants])
        self.buckets: List[Optional[TokenBucket]] = [
            TokenBucket(t.rate_ops_per_s, t.burst_ops)
            if t.rate_ops_per_s is not None else None
            for t in self.tenants]
        self.workload_specs = [t.workload_spec() for t in self.tenants]
        # Per-tenant metric stores, filled by the runner's tenant lanes.
        self.op_stats = [OpStats() for _ in range(n)]
        self.latency = [LatencyRecorder() for _ in range(n)]
        self.ops_done = [0] * n
        self.failed_ops = [0] * n
        # Degraded-mode failures: ops that died on MNUnavailable or
        # StaleEpoch (a dead shard / a failover fence), counted apart
        # from chaos retries so rack tables show who served through an
        # outage and who paid for it.
        self.degraded_ops = [0] * n
        # Retry budgets: failed ops charged against TenantSpec.
        # retry_budget; once spent, the tenant only wins admission when
        # no in-budget tenant is ready.
        self.retry_spent = [0] * n
        self.budget_deferrals = [0] * n
        self._has_budgets = any(t.retry_budget is not None
                                for t in self.tenants)
        # Run-wide throttle accounting (a wait with every bucket empty
        # belongs to no single tenant).
        self.throttle_waits = 0
        self.throttle_wait_ns = 0

    def acquire(self, now_ns: int) -> Tuple[int, int]:
        """``(tenant, 0)`` when a tenant is admitted at ``now_ns``, or
        ``(-1, wait_ns)`` when every bucket is empty."""
        ready = [t for t, bucket in enumerate(self.buckets)
                 if bucket is None or bucket.ready_ns(now_ns) <= now_ns]
        if ready:
            if self._has_budgets:
                in_budget = [t for t in ready if not self.over_budget(t)]
                if in_budget and len(in_budget) < len(ready):
                    for t in ready:
                        if t not in in_budget:
                            self.budget_deferrals[t] += 1
                    ready = in_budget
            tenant = self.sched.pick(ready)
            bucket = self.buckets[tenant]
            if bucket is not None:
                bucket.take(now_ns)
            return tenant, 0
        wait = min(bucket.ready_ns(now_ns)
                   for bucket in self.buckets) - now_ns
        wait = max(wait, 1)
        self.throttle_waits += 1
        self.throttle_wait_ns += wait
        return -1, wait

    # -- retry budgets -----------------------------------------------------
    def over_budget(self, tenant: int) -> bool:
        """``True`` once ``tenant`` has spent its whole retry budget."""
        budget = self.tenants[tenant].retry_budget
        return budget is not None and self.retry_spent[tenant] >= budget

    def charge_retry(self, tenant: int, amount: int = 1) -> None:
        """Charge ``amount`` failed ops against ``tenant``'s budget.
        Tenants without a budget still accumulate ``retry_spent`` for
        reporting; only budgeted tenants can be demoted by it."""
        self.retry_spent[tenant] += amount

    # -- results -----------------------------------------------------------
    def tenant_counters(self, tenant: int) -> Counters:
        """One tenant's verb totals in the shared facade shape."""
        return Counters.from_opstats(self.op_stats[tenant])

    def tenant_rows(self, sim_ns: int) -> List[Dict]:
        """Per-tenant goodput/latency rows (the rack table's columns)."""
        rows = []
        seconds = max(sim_ns, 1) / 1e9
        for t, spec in enumerate(self.tenants):
            ops = self.ops_done[t]
            failed = self.failed_ops[t]
            counters = self.tenant_counters(t)
            rows.append({
                "tenant": spec.name,
                "workload": spec.workload,
                "weight": spec.weight,
                "rate_ops_per_s": spec.rate_ops_per_s,
                "ops": ops,
                "failed_ops": failed,
                "degraded_ops": self.degraded_ops[t],
                "retry_budget": spec.retry_budget,
                "retry_spent": self.retry_spent[t],
                "budget_deferrals": self.budget_deferrals[t],
                "goodput_mops": round((ops - failed) / seconds / 1e6, 4),
                "avg_latency_us": round(self.latency[t].mean() / 1e3, 3),
                "p99_latency_us": round(
                    self.latency[t].percentile(99) / 1e3, 3),
                "round_trips_per_op": round(
                    counters["round_trips"] / ops, 3) if ops else 0.0,
            })
        return rows
