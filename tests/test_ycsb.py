"""Unit tests for the YCSB layer: datasets, workloads, runner."""

import pytest

from repro.art import check_prefix_free
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.errors import ConfigError
from repro.fault import FaultPlan, crash_cn
from repro.tenancy import TenancyConfig, TenancyController, TenantSpec
from repro.ycsb import (
    WORKLOADS,
    WorkloadSpec,
    bulk_load,
    make_dataset,
    make_email_dataset,
    make_u64_dataset,
    run_workload,
    workload,
)


# -- datasets ---------------------------------------------------------------

def test_u64_dataset_properties():
    ds = make_u64_dataset(5_000, insert_pool=500)
    assert ds.size == 5_000
    assert len(ds.insert_pool) == 500
    assert len(set(ds.keys) | set(ds.insert_pool)) == 5_500
    assert all(len(k) == 8 for k in ds.keys)
    check_prefix_free(ds.keys)


def test_email_dataset_matches_paper_stats():
    ds = make_email_dataset(10_000)
    # Paper: 2-32 bytes, average ~18.93 (ours includes the terminator).
    assert all(2 <= len(k) <= 32 for k in ds.keys)
    assert 15 <= ds.average_key_len() <= 24
    check_prefix_free(ds.keys)


def test_email_dataset_has_shared_prefixes():
    from repro.art import LocalART
    ds = make_email_dataset(5_000)
    tree = LocalART()
    for key in ds.keys:
        tree.insert(key, b"v")
    census = tree.census()
    assert census.max_depth >= 5  # deep tree: the paper's email property


def test_dataset_deterministic_by_seed():
    a = make_dataset("u64", 100, seed=7)
    b = make_dataset("u64", 100, seed=7)
    c = make_dataset("u64", 100, seed=8)
    assert a.keys == b.keys
    assert a.keys != c.keys


def test_make_dataset_rejects_unknown():
    with pytest.raises(ValueError):
        make_dataset("bogus", 10)


# -- workloads ----------------------------------------------------------------

def test_paper_workloads_defined():
    for name in ("LOAD", "A", "B", "C", "D", "E"):
        spec = workload(name)
        assert abs(sum(spec.mix().values()) - 1.0) < 1e-9


def test_workload_mixes_match_paper():
    assert workload("A").read == 0.5 and workload("A").update == 0.5
    assert workload("B").read == 0.95
    assert workload("C").read == 1.0
    assert workload("D").distribution == "latest"
    assert workload("E").scan == 0.95 and workload("E").insert == 0.05
    assert workload("LOAD").insert == 1.0


def test_workload_lookup_case_insensitive():
    assert workload("c") is WORKLOADS["C"]
    with pytest.raises(ConfigError):
        workload("Z")


def test_workload_spec_validation():
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read=0.5)
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read=1.0, distribution="gaussian")


# -- runner --------------------------------------------------------------------

@pytest.fixture(scope="module")
def loaded():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    dataset = make_dataset("u64", 3_000, insert_pool=600)
    bulk_load(cluster, index, dataset)
    return cluster, index, dataset


def test_bulk_load_visible_from_every_cn(loaded):
    cluster, index, dataset = loaded
    ex = cluster.direct_executor()
    for cn in range(cluster.config.num_cns):
        client = index.client(cn)
        for key in dataset.keys[:50]:
            assert ex.run(client.search(key)) is not None


def test_run_workload_counts_and_latency(loaded):
    cluster, index, dataset = loaded
    result = run_workload(cluster, index, workload("C"), dataset,
                          system="sphinx", workers=12, ops=600)
    assert result.ops == 600
    assert result.throughput_mops > 0
    assert result.latency.count == 600
    assert result.avg_latency_us > 1.0  # at least one RTT
    assert result.op_stats.round_trips >= 600
    assert result.round_trips_per_op >= 1.0
    row = result.row()
    assert row["system"] == "sphinx" and row["workload"] == "C"


def test_run_workload_mixed_ops(loaded):
    cluster, index, dataset = loaded
    before = len(dataset.insert_pool)
    result = run_workload(cluster, index, workload("E"), dataset,
                          system="sphinx", workers=6, ops=120)
    assert result.ops == 120
    assert len(dataset.insert_pool) == before  # runner copies the pool
    metrics = result.client_metrics
    assert metrics["scans"] > 0 and metrics["inserts"] > 0


def test_run_workload_latest_distribution(loaded):
    cluster, index, dataset = loaded
    result = run_workload(cluster, index, workload("D"), dataset,
                          system="sphinx", workers=6, ops=300)
    assert result.ops == 300


def test_run_workload_rmw(loaded):
    cluster, index, dataset = loaded
    result = run_workload(cluster, index, workload("F"), dataset,
                          system="sphinx", workers=6, ops=120)
    assert result.ops == 120


def test_run_workload_validates_workers(loaded):
    cluster, index, dataset = loaded
    with pytest.raises(ConfigError):
        run_workload(cluster, index, workload("C"), dataset, workers=0)


def test_nic_utilization_reported(loaded):
    cluster, index, dataset = loaded
    result = run_workload(cluster, index, workload("C"), dataset,
                          workers=24, ops=600)
    assert set(result.nic_utilization) == {"mn0", "mn1", "mn2",
                                           "cn0", "cn1", "cn2"}
    assert any(u > 0 for u in result.nic_utilization.values())


def test_more_workers_do_not_reduce_total_throughput(loaded):
    cluster, index, dataset = loaded
    low = run_workload(cluster, index, workload("C"), dataset,
                       workers=3, ops=900, seed=1)
    high = run_workload(cluster, index, workload("C"), dataset,
                        workers=24, ops=900, seed=2)
    assert high.throughput_mops > low.throughput_mops


# -- one client loop, two modes ----------------------------------------------

MIX5 = WorkloadSpec("MIX5", read=0.3, update=0.2, insert=0.2, scan=0.15,
                    rmw=0.15, scan_max_len=10)


@pytest.mark.parametrize("mode", ["plain", "one-tenant"])
def test_client_loop_op_kinds_and_crash_accounting(mode, monkeypatch):
    """The runner has one client loop.  Plain (one lane, no controller)
    and under a one-tenant uncapped roster it must serve all five op
    kinds, account for every op, and charge a ``crash_cn`` victim's
    unfinished ops to the run."""
    monkeypatch.setitem(WORKLOADS, "MIX5", MIX5)

    def run(plan=None):
        cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
        index = SphinxIndex(cluster,
                            SphinxConfig(filter_budget_bytes=1 << 14))
        dataset = make_dataset("u64", 600, seed=1, insert_pool=120)
        bulk_load(cluster, index, dataset)
        if plan is not None:
            cluster.attach_recovery()
            cluster.attach_faults(plan)
        tenancy = None
        if mode == "one-tenant":
            tenancy = TenancyController(TenancyConfig(
                (TenantSpec("solo", workload="MIX5"),)))
        return run_workload(cluster, index, MIX5, dataset, workers=6,
                            ops=360, seed=3, tenancy=tenancy)

    result = run()
    assert set(result.latency_by_op) == {"read", "update", "insert",
                                         "scan", "rmw"}
    by_op = sum(rec.count for rec in result.latency_by_op.values())
    assert by_op == result.ops == result.latency.count == 360
    assert result.failed_ops == 0 and result.crashed_workers == 0
    assert result.op_stats.round_trips >= result.ops
    if mode == "plain":
        assert result.tenants is None
    else:
        (row,) = result.tenants
        assert row["ops"] == 360 and row["failed_ops"] == 0

    crashed = run(FaultPlan(rules=(crash_cn(400),), seed=4))
    assert crashed.ops == 360 and crashed.crashed_workers == 1
    completed = sum(rec.count for rec in crashed.latency_by_op.values())
    assert 0 < completed < 360
    assert crashed.failed_ops == crashed.ops - completed
    # The dying op still records its latency at run level.
    assert crashed.latency.count == completed + 1
    if mode == "one-tenant":
        (row,) = crashed.tenants
        assert row["ops"] == completed + 1 and row["failed_ops"] == 1
