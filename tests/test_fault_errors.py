"""Error-path coverage for the chaos substrate (ISSUE 3 satellite).

``RetryLimitExceeded`` must arrive carrying enough forensic context to
debug a chaos failure (client, OpStats snapshot, recent fault trace);
the ``op_timeout_ns`` deadline must fire with its own message; garbage
addresses must NAK like a real NIC instead of raising a Python
``KeyError``; DMSan must stay quiet while the injector is active (the
two monitors watch the same verbs and must not confuse each other); and
the fault kinds deliberately *excluded* from the chaos mix (``stale_cas``)
must still be containable by a correctly written client when targeted
explicitly.
"""

import pytest

from repro.art import encode_str
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats, ReadOp
from repro.errors import InjectedFault, RetryLimitExceeded
from repro.fault import FaultPlan, RetryPolicy, drop, stale_cas


def _fresh(plan, retry=None, keys=8):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    config = SphinxConfig(filter_budget_bytes=1 << 14,
                          **({"retry": retry} if retry else {}))
    index = SphinxIndex(cluster, config)
    client = index.client(0)
    ex = cluster.direct_executor()
    for i in range(keys):
        ex.run(client.insert(encode_str(f"e/{i}"), f"v{i}".encode()))
    cluster.attach_faults(plan)
    return cluster, client


def _one(verb):
    def gen():
        result = yield verb
        return result
    return gen()


def test_retry_limit_carries_context_and_fault_trace():
    plan = FaultPlan(seed=3, rules=(drop(1.0, ("read",)),))
    cluster, client = _fresh(plan, RetryPolicy(max_retries=4,
                                               backoff_ns=200))
    executor = cluster.direct_executor()
    with pytest.raises(RetryLimitExceeded) as info:
        executor.run(client.search(encode_str("e/3")))
    exc = info.value
    assert exc.client == executor.client_id
    assert exc.stats is not None and exc.stats.faults_injected > 0
    assert exc.fault_trace, "no fault trace attached"
    assert all(event.kind == "drop" for event in exc.fault_trace)
    rendered = str(exc)
    assert "exceeded" in rendered and "retries" in rendered
    assert "faults[n>=" in rendered and "drop" in rendered


def test_op_timeout_deadline_fires():
    plan = FaultPlan(seed=5, rules=(drop(1.0, ("read",)),))
    # A deadline shorter than one drop's completion timeout (12 us): the
    # second attempt must be refused with the timeout message, long
    # before the generous retry budget runs out.
    retry = RetryPolicy(max_retries=10_000, backoff_ns=100,
                        op_timeout_ns=10_000)
    cluster, client = _fresh(plan, retry)
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    engine = cluster.engine
    with pytest.raises(RetryLimitExceeded, match="timed out after"):
        engine.run_until_complete(
            engine.process(executor.run(client.search(encode_str("e/3"))),
                           name="deadline"))


def test_scan_deadline_fires_at_the_deadline():
    """Scans retry through the same ``_run`` as point ops, so the same
    ``op_timeout_ns`` bounds them: every read is dropped, the first
    attempt costs one completion timeout, and that is already past the
    deadline - the scan must stop there, not after all 200 attempts
    (3.36 ms and "exceeded 200 retries under faults" before scans moved
    onto ``_run``).  Each refused attempt still counts one
    ``fault_restarts``."""
    plan = FaultPlan(seed=5, rules=(drop(1.0, ("read",)),))
    retry = RetryPolicy(max_retries=200, backoff_ns=100,
                        op_timeout_ns=10_000)
    cluster, client = _fresh(plan, retry, keys=50)
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine
    scans = (lambda: client.scan_count(encode_str("e/2"), 10),
             lambda: client.scan_range(encode_str("e/1"), encode_str("e/4")))
    for scan in scans:
        t0, restarts = engine.now, client.metrics.fault_restarts
        with pytest.raises(RetryLimitExceeded, match="timed out after"):
            engine.run_until_complete(
                engine.process(executor.run(scan()), name="scan-deadline"))
        assert engine.now - t0 <= retry.op_timeout_ns + plan.timeout_ns
        assert client.metrics.fault_restarts == restarts + 1


def test_unreachable_address_naks_like_a_nic():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    cluster.attach_faults(FaultPlan(seed=1))
    executor = cluster.direct_executor()
    # Far beyond the MN's capacity: a real NIC NAKs; a KeyError or a
    # silent empty read would both be bugs.
    bogus = (1 << 20) + 4096
    with pytest.raises(InjectedFault) as info:
        executor.run(_one(ReadOp(bogus, 8)))
    assert info.value.kind == "nak"
    assert cluster.injector.counters.get("nak") == 1


def test_dmsan_quiet_under_chaos():
    """The sanitizer models the protocol contract; injected drops and
    delays must not read as data races.  (CI runs the whole fault suite
    under REPRO_SAN=1; this test makes the interaction explicit and
    runs it unconditionally.)"""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    monitor = cluster.attach_sanitizer()
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"q/{i:02d}") for i in range(16)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    cluster.attach_faults(FaultPlan.chaos(9, intensity=5.0))
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    engine = cluster.engine

    def mix():
        for step, key in enumerate(keys * 4):
            try:
                if step % 2:
                    yield from executor.run(client.search(key))
                else:
                    yield from executor.run(
                        client.update(key, f"u{step}".encode()))
            except RetryLimitExceeded:
                pass

    engine.run_until_complete(engine.process(mix(), name="san"))
    assert stats.faults_injected > 0, "chaos plan never fired"
    report = monitor.report
    assert report.clean, report.summary() + "\n" + \
        "\n".join(report.render_violations())


def test_stale_cas_is_contained_when_targeted():
    """``stale_cas`` (CAS applied, success reply forged into a failure)
    is excluded from FaultPlan.chaos because an applied-but-denied CAS
    can strand locks without lease recovery - but a client retrying a
    *lock acquisition* must survive it: the retry observes its own lock
    word and the operation either completes or fails cleanly, never
    corrupts."""
    plan = FaultPlan(seed=21, rules=(stale_cas(0.25),))
    cluster, client = _fresh(plan, RetryPolicy(max_retries=32,
                                               backoff_ns=500))
    executor = cluster.direct_executor()
    survived = 0
    for i in range(12):
        key = encode_str(f"sc/{i:02d}")
        try:
            executor.run(client.insert(key, f"s{i}".encode()))
        except RetryLimitExceeded:
            continue  # clean failure is acceptable containment
        survived += 1
        # Ground truth through a fault-free path: the committed insert
        # must be visible and exact.
        injector = cluster.injector
        cluster.injector = None
        try:
            got = cluster.direct_executor().run(client.search(key))
        finally:
            cluster.injector = injector
        assert got == f"s{i}".encode(), \
            f"stale_cas corrupted {key!r}: {got!r}"
    assert cluster.injector.counters.get("stale_cas", 0) > 0
    assert survived > 0, "every insert failed - containment untestable"
