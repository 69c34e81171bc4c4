"""The two fault triggers, whatever the rule's kind.

Every :class:`repro.fault.FaultRule` fires either at a scheduled verb
(``at_verb=k``: once, at the first verb with sequence number ``>= k``
that passes the rule's filters) or at a per-verb rate (``prob``).  These
tests pin the scheduled form of every fabric kind - "verb k lands d ns
late" is the primitive crash-point exploration is built from - on the
untimed executor and on the timed one under both engines, and the order
in which a due schedule fires: environment rules first, then the verb's
own decision.
"""

import pytest

from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import CasOp, FaaOp, ReadOp
from repro.errors import InjectedFault
from repro.fault import FaultPlan, FaultRule, drop, poke
from repro.fault.inject import TRACE_LIMIT
from repro.fault.plan import FABRIC_KINDS

K = 3       # the scheduled verb
VERBS = 7   # verbs each op issues


def _run(ex, cluster, gen):
    """Drive ``gen`` on ``ex``; returns its value."""
    if not hasattr(ex, "engine"):
        return ex.run(gen)
    engine = cluster.engine
    proc = engine.process(ex.run(gen), name="op")
    engine.run_until_complete(proc)
    return proc.value


def _executor(cluster, where):
    return cluster.direct_executor() if where == "direct" \
        else cluster.sim_executor(0)


def _casts(addr, seen):
    """``VERBS`` CASes of one word, 0 -> 0 (each succeeds, none moves
    it); ``seen`` gets each verb's result or fault kind."""
    for _ in range(VERBS):
        try:
            seen.append((yield CasOp(addr, 0, 0)))
        except InjectedFault as exc:
            seen.append(exc.kind)


ENGINES = [("direct", "0"), ("sim", "0"), ("sim", "1")]
ENGINE_IDS = ["direct", "sim-fast", "sim-reference"]


@pytest.mark.parametrize("where,slow", ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("kind", FABRIC_KINDS)
def test_scheduled_fabric_rule_fires_once_at_its_verb(kind, where, slow,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOW", slow)
    cluster = Cluster(ClusterConfig())
    addr = cluster.alloc(1, 8)
    injector = cluster.attach_faults(FaultPlan(seed=1, rules=(
        FaultRule(kind=kind, at_verb=K, delay_ns=500),)))
    ex = _executor(cluster, where)
    seen = []
    _run(ex, cluster, _casts(addr, seen))
    (event,) = injector.schedule()
    assert (event.seq, event.kind, event.verb, event.addr, event.client) \
        == (K, kind, "cas", addr, ex.client_id)
    assert injector.verb_seq == VERBS
    assert ex.stats.faults_injected == 1
    clean = [(True, 0)] * VERBS
    want = {"drop": "drop", "stale_cas": (False, 0)}.get(kind, (True, 0))
    assert seen == clean[:K] + [want] + clean[K + 1:]


@pytest.mark.parametrize("slow", ["0", "1"], ids=["fast", "reference"])
def test_scheduled_delay_ends_a_one_verb_op_exactly_late(slow,
                                                         monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOW", slow)
    d = 7_777

    def one_read(rules):
        cluster = Cluster(ClusterConfig())
        addr = cluster.alloc(2, 64)
        cluster.attach_faults(FaultPlan(seed=0, rules=rules))
        ex = cluster.sim_executor(1)
        engine = cluster.engine

        def op():
            return (yield ReadOp(addr, 64))
        t0 = engine.now
        assert _run(ex, cluster, op()) == bytes(64)
        return engine.now - t0

    late = one_read((FaultRule(kind="delay", at_verb=0, delay_ns=d),))
    assert late == one_read(()) + d


def test_scheduled_rule_waits_for_a_verb_its_filters_pass():
    """``at_verb`` is the earliest verb, not the only one: a rule for
    FAAs on MN 2 scheduled at verb 1 fires at the first such verb."""
    cluster = Cluster(ClusterConfig())
    addrs = [cluster.alloc(mn, 8) for mn in range(3)]
    injector = cluster.attach_faults(FaultPlan(seed=0, rules=(
        FaultRule(kind="drop", at_verb=1, verbs=("faa",), mn=2),)))
    ex = cluster.direct_executor()
    seen = []

    def op():
        for addr in addrs + addrs:
            try:
                seen.append((yield FaaOp(addr, 1)))
            except InjectedFault as exc:
                seen.append(exc.kind)
    ex.run(op())
    assert seen == [0, 0, "drop", 1, 1, 0]
    assert [event.seq for event in injector.schedule()] == [2]


def test_environment_fires_before_the_verb_decision():
    """A poke and a drop due at the same verb: the poke lands first (in
    the schedule and in memory), then the verb is decided; the verb
    after it reads the poked bytes."""
    cluster = Cluster(ClusterConfig())
    addr = cluster.alloc(0, 8)
    injector = cluster.attach_faults(FaultPlan(seed=0, rules=(
        FaultRule(kind="drop", at_verb=1),
        poke(addr, b"\xaa" * 8, at_verb=1),
    )))
    seen = []

    def op():
        for _ in range(3):
            try:
                seen.append((yield ReadOp(addr, 8)))
            except InjectedFault as exc:
                seen.append(exc.kind)
    cluster.direct_executor().run(op())
    assert seen == [bytes(8), "drop", b"\xaa" * 8]
    assert [(e.seq, e.kind) for e in injector.schedule()] \
        == [(1, "poke"), (1, "drop")]


def test_due_rules_fire_by_at_verb_then_plan_order():
    """Ties on ``at_verb`` keep plan order - for pokes to one word (the
    later one wins) and for verb rules (the earlier one takes the verb,
    the later one the next verb)."""
    cluster = Cluster(ClusterConfig())
    addr = cluster.alloc(0, 8)
    injector = cluster.attach_faults(FaultPlan(seed=0, rules=(
        poke(addr, b"\x02" * 8, at_verb=2),
        FaultRule(kind="duplicate", at_verb=1),
        poke(addr, b"\x01" * 8, at_verb=1),
        FaultRule(kind="drop", at_verb=1),
        poke(addr, b"\x03" * 8, at_verb=2),
    )))
    seen = []

    def op():
        for _ in range(4):
            try:
                seen.append((yield ReadOp(addr, 8)))
            except InjectedFault as exc:
                seen.append(exc.kind)
    cluster.direct_executor().run(op())
    assert seen == [bytes(8), b"\x01" * 8, "drop", b"\x03" * 8]
    assert [(e.seq, e.kind) for e in injector.schedule()] == [
        (1, "poke"), (1, "duplicate"), (2, "poke"), (2, "poke"),
        (2, "drop")]


def test_trace_is_the_tail_of_the_schedule():
    cluster = Cluster(ClusterConfig())
    addr = cluster.alloc(0, 8)
    injector = cluster.attach_faults(
        FaultPlan(seed=0, rules=(drop(1.0),)))

    def op():
        for _ in range(TRACE_LIMIT + 5):
            try:
                yield ReadOp(addr, 8)
            except InjectedFault:
                pass
    cluster.direct_executor().run(op())
    assert len(injector.schedule()) == TRACE_LIMIT + 5
    assert injector.trace_tuple() == injector.schedule()[-TRACE_LIMIT:]
