"""Error-path coverage for the chaos substrate (ISSUE 3 satellite).

``RetryLimitExceeded`` must arrive carrying enough forensic context to
debug a chaos failure (client, OpStats snapshot, recent fault trace);
the ``op_timeout_ns`` deadline must fire with its own message; garbage
addresses must NAK like a real NIC instead of raising a Python
``KeyError``; DMSan must stay quiet while the injector is active (the
two monitors watch the same verbs and must not confuse each other); and
the fault kinds deliberately *excluded* from the chaos mix (``stale_cas``)
must still be containable by a correctly written client when targeted
explicitly.  A rule that cannot fire as written - a missing or doubled
trigger, a probability outside [0, 1], a filter on an environment rule,
a target the cluster does not have - is refused when it is attached,
not discovered mid-run.
"""

import pytest

from repro.art import encode_str
from repro.art.layout import hash_entry_word
from repro.baselines.bplus import BplusConfig, BplusIndex
from repro.baselines.outback import OutbackConfig, OutbackIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats, ReadOp
from repro.errors import ConfigError, InjectedFault, RetryLimitExceeded
from repro.dm.memory import make_addr
from repro.fault import FaultPlan, FaultRule, RetryPolicy, crash_cn, \
    crash_mn, drop, flip, poke, stale_cas
from repro.race import RaceClient, TableParams, create_table, fp2_of, key_hash


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


def test_nested_inht_lookup_stops_at_the_op_deadline():
    """The op's deadline reaches the loop nested inside it: a Sphinx
    search whose INHT lookup retries in ``RaceClient._read_group`` must
    stop at the search's deadline, neither after the lookup's own 200
    attempts (2 437 427 ns while the lookup kept a budget of its own)
    nor after degrading to a root walk that costs one more completion
    timeout."""
    plan = FaultPlan(seed=5, rules=(drop(1.0, ("read",)),))
    retry = RetryPolicy(max_retries=200, backoff_ns=100,
                        op_timeout_ns=10_000)
    cluster, client = _fresh(plan, retry, keys=50)
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine
    t0 = engine.now
    with pytest.raises(RetryLimitExceeded, match="timed out after"):
        engine.run_until_complete(engine.process(
            executor.run(client.search(encode_str("e/3"))),
            name="nested-deadline"))
    assert engine.now - t0 <= retry.op_timeout_ns + plan.timeout_ns
    assert client.inht_fallbacks == 0  # stopped, did not degrade


_KEYS = [f"k{i:03d}".encode() for i in range(16)]


def _race_ops(cluster, retry):
    params = TableParams(seed=7)
    client = RaceClient(cluster, create_table(cluster, 0, params),
                        retry=retry)

    def entry(key):
        return hash_entry_word(0x4000, fp2_of(key_hash(key, params.seed)), 0)
    loader = cluster.direct_executor()
    for key in _KEYS:
        loader.run(client.insert(key, entry(key)))
    return {"lookup": lambda: client.lookup(_KEYS[3]),
            "insert": lambda: client.insert(b"new", entry(b"new")),
            "delete": lambda: client.delete(_KEYS[3], 0x4000)}


def _bplus_ops(cluster, retry):
    client = BplusIndex(cluster, BplusConfig(retry=retry)).client(0)
    loader = cluster.direct_executor()
    for key in _KEYS:
        loader.run(client.insert(key, b"v"))
    return {"search": lambda: client.search(_KEYS[3]),
            "insert": lambda: client.insert(b"new", b"v"),
            "update": lambda: client.update(_KEYS[3], b"w"),
            "scan_count": lambda: client.scan_count(_KEYS[2], 4)}


def _outback_ops(cluster, retry):
    client = OutbackIndex(cluster, OutbackConfig(retry=retry)).client(0)
    loader = cluster.direct_executor()
    keys = [encode_str(key.decode()) for key in _KEYS]
    for key in keys:
        loader.run(client.insert(key, b"v"))
    # Every op targets a committed key: the directory hints its leaf, so
    # each one has to read (an unhinted key is answered with no verb).
    return {"search": lambda: client.search(keys[3]),
            "insert": lambda: client.insert(keys[3], b"w"),
            "delete": lambda: client.delete(keys[3]),
            "scan_count": lambda: client.scan_count(keys[3], 4)}


_CLIENT_OPS = {"race": _race_ops, "bplus": _bplus_ops,
               "outback": _outback_ops}
_CASES = [("race", "lookup"), ("race", "insert"), ("race", "delete"),
          ("bplus", "search"), ("bplus", "insert"), ("bplus", "update"),
          ("bplus", "scan_count"), ("outback", "search"),
          ("outback", "insert"), ("outback", "delete"),
          ("outback", "scan_count")]
_READ_LOSS = FaultPlan(seed=5, rules=(drop(1.0, ("read",)),))


def _fail_under_read_loss(system, op, retry):
    """Run one op of a loaded ``system`` client with every read dropped;
    returns (sim ns it took, its OpStats, the RetryLimitExceeded)."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    ops = _CLIENT_OPS[system](cluster, retry)
    cluster.attach_faults(_READ_LOSS)
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    engine = cluster.engine
    t0 = engine.now
    with pytest.raises(RetryLimitExceeded) as info:
        engine.run_until_complete(engine.process(
            executor.run(ops[op]()), name=f"{system}-{op}"))
    return engine.now - t0, stats, info.value


@pytest.mark.parametrize("system,op", _CASES,
                         ids=[f"{s}-{o}" for s, o in _CASES])
def test_client_deadline_fires_at_the_deadline(system, op):
    """RACE, B+ and Outback ops run under the same attempt loop as the
    trees: each stops at ``op_timeout_ns`` plus the one completion
    timeout in flight, not after 200 attempts (2.4-3.4 ms while they
    never read the deadline)."""
    retry = RetryPolicy(max_retries=200, backoff_ns=100,
                        op_timeout_ns=10_000)
    elapsed, _stats, exc = _fail_under_read_loss(system, op, retry)
    assert "timed out after 10000 ns" in exc.message
    assert elapsed <= retry.op_timeout_ns + _READ_LOSS.timeout_ns


@pytest.mark.parametrize("system,op", _CASES,
                         ids=[f"{s}-{o}" for s, o in _CASES])
def test_client_budget_without_deadline(system, op):
    """The deadline's twin: with ``op_timeout_ns=0`` the budget alone
    ends the op, after exactly as many round trips as the hand-written
    loops took (one dropped read per attempt)."""
    retry = RetryPolicy(max_retries=200, backoff_ns=100)
    _elapsed, stats, exc = _fail_under_read_loss(system, op, retry)
    assert "exceeded 200 retries" in exc.message
    assert stats.round_trips == 200


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


_MN0 = make_addr(0, 128)
_CAP = 1 << 16  # the smallest MN a ClusterConfig admits

#: (id, rule, refused by FaultRule.validate too - not only at attach).
_MALFORMED = [
    ("crash_cn-negative-at_verb", crash_cn(-5), True),
    ("crash_mn-negative-at_verb", crash_mn(0, at_verb=-3), True),
    ("flip-prob-out-of-range",
     FaultRule(kind="flip", addr=_MN0, prob=7.0), True),
    ("delay-both-triggers",
     FaultRule(kind="delay", at_verb=2, prob=0.5, delay_ns=100), True),
    ("drop-prob-out-of-range", drop(1.5), True),
    # Misfired as a bare "drop" with no MN lost and no byte poked:
    ("crash_mn-rate", FaultRule(kind="crash_mn", mn=0, prob=1.0), True),
    ("poke-rate",
     FaultRule(kind="poke", addr=_MN0, data=b"x", prob=1.0), True),
    ("crash_mn-unscheduled", FaultRule(kind="crash_mn", mn=0), True),
    ("poke-unscheduled", FaultRule(kind="poke", addr=_MN0, data=b"x"),
     True),
    ("flip-unscheduled", FaultRule(kind="flip", addr=_MN0), True),
    ("crash_cn-unscheduled", FaultRule(kind="crash_cn"), True),
    ("flip-verb-filter",
     FaultRule(kind="flip", addr=_MN0, at_verb=0, verbs=("read",)), True),
    # Targets a cluster of 3 MNs of _CAP bytes does not have:
    ("poke-missing-mn", poke(make_addr(5, 128), b"x"), False),
    ("poke-past-capacity", poke(make_addr(0, 2 * _CAP), b"xy"), False),
    ("poke-reserved-page", poke(make_addr(0, 8), b"x"), False),
    ("flip-span-past-capacity", flip(make_addr(1, _CAP - 6), length=8),
     False),
    ("crash_mn-missing-mn", crash_mn(7), False),
]


@pytest.mark.parametrize("rule,in_validate",
                         [case[1:] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_rule_is_refused(rule, in_validate):
    """A rule that cannot fire as written is refused with a
    ``ConfigError`` when it is attached - by ``FaultRule.validate`` when
    the rule alone is malformed, by the target check against the
    cluster's memories when it names memory the cluster does not have -
    never at fire time, mid-run."""
    if in_validate:
        with pytest.raises(ConfigError):
            rule.validate()
    else:
        rule.validate()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=_CAP))
    with pytest.raises(ConfigError):
        cluster.attach_faults(FaultPlan(seed=0, rules=(rule,)))
    assert cluster.injector is None
    assert all(len(memory._data) <= memory.capacity
               for memory in cluster.memories.values())
