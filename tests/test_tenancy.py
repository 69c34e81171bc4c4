"""Multi-tenant serving tests (ISSUE 9): admission control, weighted-fair
scheduling, the tenant-aware runner's determinism, and - the contract the
whole tier hangs off - byte-identity of the plain runner path when
tenancy is detached.

The golden fixture ``tests/fixtures/tenancy_detached_golden.json`` was
captured from the pre-tenancy runner; ``run_workload(..., tenancy=None)``
must keep reproducing it bit for bit, including the full client-metric
counter map.
"""

import json
import os

import pytest

from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig, ClusterSpec
from repro.errors import ConfigError
from repro.tenancy import (
    UNITS_PER_TOKEN,
    TenancyConfig,
    TenancyController,
    TenantSpec,
    TokenBucket,
    WeightedFairScheduler,
    default_tenants,
    run_rack,
)
from repro.ycsb import bulk_load, make_dataset, run_workload, workload

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The small rack every runner-level test here uses (seconds per run).
SMALL = ClusterSpec(num_cns=4, num_mns=8, group_size=4, num_shards=32,
                    clients=24, mn_capacity_bytes=32 << 20)


# ---------------------------------------------------------------------------
# Token bucket (exact integer arithmetic)
# ---------------------------------------------------------------------------

def test_token_bucket_starts_full_and_drains():
    bucket = TokenBucket(rate_ops_per_s=1000, burst_ops=3)
    for _ in range(3):
        assert bucket.ready_ns(0) == 0
        bucket.take(0)
    # Empty: one op at 1000 ops/s earns back in exactly 1e6 ns.
    assert bucket.ready_ns(0) == 1_000_000


def test_token_bucket_ceiling_division_is_exact():
    # 3 ops/s: one token = 1e9 units at 3 units/ns -> ceil(1e9/3) ns.
    bucket = TokenBucket(rate_ops_per_s=3, burst_ops=1)
    bucket.take(0)
    assert bucket.ready_ns(0) == (UNITS_PER_TOKEN + 2) // 3
    # And the bucket really is ready at that instant, not one ns later.
    at = bucket.ready_ns(0)
    assert bucket.ready_ns(at) == at
    bucket.take(at)


def test_token_bucket_refill_clamps_to_burst():
    bucket = TokenBucket(rate_ops_per_s=1_000_000, burst_ops=2)
    bucket.take(0)
    bucket.take(0)
    # A long idle period earns at most burst_ops tokens.
    far = 10_000_000_000
    bucket.take(far)
    bucket.take(far)
    assert bucket.ready_ns(far) > far


def test_token_bucket_take_before_ready_raises():
    bucket = TokenBucket(rate_ops_per_s=10, burst_ops=1)
    bucket.take(0)
    with pytest.raises(ConfigError):
        bucket.take(0)


def test_token_bucket_validates():
    with pytest.raises(ConfigError):
        TokenBucket(rate_ops_per_s=0)
    with pytest.raises(ConfigError):
        TokenBucket(rate_ops_per_s=10, burst_ops=0)


# ---------------------------------------------------------------------------
# Weighted-fair scheduler
# ---------------------------------------------------------------------------

def test_wfq_shares_proportional_to_weights():
    sched = WeightedFairScheduler([2, 1, 4, 1])
    picks = [0] * 4
    everyone = list(range(4))
    for _ in range(8000):
        picks[sched.pick(everyone)] += 1
    assert picks == [2000, 1000, 4000, 1000]


def test_wfq_tie_break_is_lowest_index():
    sched = WeightedFairScheduler([1, 1])
    assert sched.pick([0, 1]) == 0
    assert sched.pick([0, 1]) == 1


def test_wfq_idle_catch_up_prevents_credit_hoarding():
    """A tenant absent from the candidate set (throttled) must not bank
    unbounded virtual-time credit: once it returns, it gets its share of
    the remaining capacity, not a monopolizing backlog."""
    sched = WeightedFairScheduler([1, 1])
    for _ in range(1000):
        sched.pick([0])          # tenant 1 throttled away
    picks = [0, 0]
    for _ in range(1000):
        picks[sched.pick([0, 1])] += 1
    # Tenant 1 gets at most one catch-up pick beyond its fair half.
    assert abs(picks[0] - picks[1]) <= 1


# ---------------------------------------------------------------------------
# Controller: admission decisions, rosters, validation
# ---------------------------------------------------------------------------

def test_controller_uncapped_tenant_always_admitted():
    controller = TenancyController(TenancyConfig((
        TenantSpec("free"), TenantSpec("capped", rate_ops_per_s=1,
                                       burst_ops=1))))
    granted = [controller.acquire(0)[0] for _ in range(10)]
    assert -1 not in granted
    assert granted.count(1) == 1      # the capped tenant's single burst op


def test_controller_reports_wait_when_every_bucket_empty():
    controller = TenancyController(TenancyConfig((
        TenantSpec("a", rate_ops_per_s=1000, burst_ops=1),
        TenantSpec("b", rate_ops_per_s=2000, burst_ops=1))))
    assert controller.acquire(0) in ((0, 0), (1, 0))
    assert controller.acquire(0)[1] == 0
    tenant, wait = controller.acquire(0)
    assert tenant == -1
    # The earliest refill is b's (2000 ops/s -> 500us).
    assert wait == 500_000
    assert controller.throttle_waits == 1


def test_controller_defers_over_budget_tenant_while_another_is_ready():
    """Retry budgets (DESIGN.md §14.5): a tenant that spent its budget
    is admitted only when no in-budget tenant is ready."""
    controller = TenancyController(TenancyConfig((
        TenantSpec("spender", retry_budget=1),
        TenantSpec("steady", rate_ops_per_s=1, burst_ops=1))))
    controller.charge_retry(0)
    assert controller.over_budget(0) and not controller.over_budget(1)
    # Both ready (WFQ alone would pick the lower index): the in-budget
    # tenant wins and the over-budget one is charged a deferral.
    assert controller.acquire(0) == (1, 0)
    assert controller.budget_deferrals == [1, 0]
    # "steady" spent its one token; alone at the ready set, the
    # over-budget tenant is still admitted, with no deferral counted.
    assert controller.acquire(0) == (0, 0)
    assert controller.budget_deferrals == [1, 0]


def test_default_tenants_deterministic_and_throttled():
    a, b = default_tenants(16), default_tenants(16)
    assert a == b
    assert len(a) == 16
    capped = [t for t in a.tenants if t.rate_ops_per_s is not None]
    assert len(capped) == 2           # every 8th of 16
    assert len({t.workload for t in a.tenants}) == 4


def test_roster_validation():
    with pytest.raises(ConfigError):
        TenancyConfig(()).validate()
    with pytest.raises(ConfigError):
        TenancyConfig((TenantSpec("x"), TenantSpec("x"))).validate()
    with pytest.raises(ConfigError):
        TenantSpec("w", weight=0).validate()
    with pytest.raises(ConfigError):
        default_tenants(0)


# ---------------------------------------------------------------------------
# Detached path: byte-identical to the pre-tenancy runner
# ---------------------------------------------------------------------------

def _golden_row(scenario, seed):
    cluster = Cluster(ClusterConfig(
        mn_capacity_bytes=scenario["mn_capacity_bytes"]))
    index = SphinxIndex(cluster, SphinxConfig(
        filter_budget_bytes=scenario["filter_budget_bytes"]))
    dataset = make_dataset(scenario["dataset"], scenario["keys"],
                           insert_pool=scenario["insert_pool"])
    bulk_load(cluster, index, dataset)
    result = run_workload(cluster, index, workload(scenario["workload"]),
                          dataset, system="Sphinx",
                          workers=scenario["workers"], ops=scenario["ops"],
                          warmup_ops_per_cn=scenario["warmup_ops_per_cn"],
                          seed=seed)
    assert result.tenants is None     # no tenancy -> no tenant rows
    row = result.row()
    row["seed"] = seed
    row["sim_ns"] = result.sim_ns
    row["failed_ops"] = result.failed_ops
    row["crashed_workers"] = result.crashed_workers
    row["client_metrics"] = dict(
        sorted(result.client_metrics.as_dict().items()))
    return row


def test_tenancy_detached_matches_pre_tenancy_golden():
    """``run_workload`` without ``tenancy=`` must reproduce the fixture
    captured from the runner before this PR existed - every metric, every
    counter, bit for bit."""
    with open(os.path.join(FIXTURES, "tenancy_detached_golden.json")) as f:
        golden = json.load(f)
    for entry in golden["rows"]:
        row = _golden_row(golden["scenario"], entry["seed"])
        assert row == entry, (
            f"seed {entry['seed']}: detached runner drifted from the "
            f"pre-tenancy golden fixture")


# ---------------------------------------------------------------------------
# Tenant-aware runs: determinism and fairness
# ---------------------------------------------------------------------------

def test_rack_run_same_seed_bit_identical():
    kwargs = dict(tenants=8, num_keys=2000, insert_pool=400, ops=2500,
                  seed=5)
    a = run_rack(SMALL, **kwargs)
    b = run_rack(SMALL, **kwargs)
    assert json.dumps(a.rows(), sort_keys=True) \
        == json.dumps(b.rows(), sort_keys=True)
    assert a.fsck_exit == 0
    assert [t["ops"] for t in a.tenants] == [t["ops"] for t in b.tenants]


def test_rack_run_different_seed_differs():
    a = run_rack(SMALL, tenants=4, num_keys=1500, insert_pool=300,
                 ops=2000, seed=1)
    b = run_rack(SMALL, tenants=4, num_keys=1500, insert_pool=300,
                 ops=2000, seed=2)
    assert a.rows() != b.rows()


def test_saturated_tenants_share_by_weight():
    """Uncapped tenants hammering a saturated rack complete ops in exact
    proportion to their WFQ weights (closed-loop workers + integer WFQ
    make the shares deterministic, not just approximate)."""
    roster = TenancyConfig((
        TenantSpec("w2", workload="A", weight=2),
        TenantSpec("w1", workload="A", weight=1),
        TenantSpec("w4", workload="A", weight=4),
        TenantSpec("x1", workload="A", weight=1)))
    out = run_rack(SMALL, tenants=roster, num_keys=2000, insert_pool=400,
                   ops=4000, seed=3)
    ops = {t["tenant"]: t["ops"] for t in out.tenants}
    assert ops["w1"] > 0
    assert abs(ops["w2"] - 2 * ops["w1"]) <= 2
    assert abs(ops["w4"] - 4 * ops["w1"]) <= 4
    assert abs(ops["x1"] - ops["w1"]) <= 1
    total = sum(t["ops"] for t in out.tenants)
    assert total == out.result.ops


def test_admission_cap_throttles_below_fair_share():
    """A rate-capped tenant ends below an identically-weighted uncapped
    tenant, and the run reports the throttle waits it absorbed."""
    roster = TenancyConfig((
        TenantSpec("free", workload="A", weight=1),
        TenantSpec("slow", workload="A", weight=1,
                   rate_ops_per_s=20_000, burst_ops=4)))
    out = run_rack(SMALL, tenants=roster, num_keys=2000, insert_pool=400,
                   ops=3000, seed=7)
    ops = {t["tenant"]: t["ops"] for t in out.tenants}
    assert ops["slow"] < ops["free"]
    # The cap binds: admitted ops <= rate x elapsed time + bursts.
    seconds = out.result.sim_ns / 1e9
    assert ops["slow"] <= 20_000 * seconds + 4 * SMALL.clients + 1


def test_tenant_rows_reconcile_with_aggregate():
    out = run_rack(SMALL, tenants=6, num_keys=1500, insert_pool=300,
                   ops=2400, seed=9)
    assert len(out.tenants) == 6
    assert sum(t["ops"] for t in out.tenants) == out.result.ops
    for trow in out.tenants:
        assert trow["failed_ops"] == 0
        assert trow["goodput_mops"] > 0
        assert trow["p99_latency_us"] >= trow["avg_latency_us"] * 0.5
        if trow["ops"]:
            assert trow["round_trips_per_op"] > 0
    # Per-tenant verb totals folded into the aggregate OpStats.
    total_rt = sum(
        round(t["round_trips_per_op"] * t["ops"]) for t in out.tenants)
    agg_rt = out.result.verb_counters()["round_trips"]
    assert abs(total_rt - agg_rt) <= len(out.tenants)  # rounding slack
