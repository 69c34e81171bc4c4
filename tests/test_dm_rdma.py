"""Unit tests for RDMA verbs and executors (timing + semantics)."""

import copy
import pickle

import pytest

from repro.dm import (
    Batch,
    CasOp,
    Cluster,
    ClusterConfig,
    FaaOp,
    LocalCompute,
    NetworkConfig,
    OpStats,
    ReadOp,
    WriteOp,
)
from repro.dm.rdma import Observer
from repro.errors import FrozenRecord, InjectedFault, SimulationError
from repro.fault import FaultPlan, drop


@pytest.fixture
def setup():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    addr = cluster.alloc(0, 64)
    return cluster, addr


def test_direct_read_write(setup):
    cluster, addr = setup
    ex = cluster.direct_executor()

    def op():
        yield WriteOp(addr, b"abc")
        data = yield ReadOp(addr, 3)
        return data

    assert ex.run(op()) == b"abc"
    assert ex.stats.round_trips == 2
    assert ex.stats.bytes_written == 3
    assert ex.stats.bytes_read == 3


def test_direct_cas_faa(setup):
    cluster, addr = setup
    ex = cluster.direct_executor()

    def op():
        ok, old = yield CasOp(addr, 0, 41)
        before = yield FaaOp(addr, 1)
        value = yield ReadOp(addr, 8)
        return ok, old, before, int.from_bytes(value, "little")

    assert ex.run(op()) == (True, 0, 41, 42)


def test_batch_counts_one_round_trip(setup):
    cluster, addr = setup
    ex = cluster.direct_executor()

    def op():
        results = yield Batch([WriteOp(addr, b"x"), ReadOp(addr, 1)])
        return results

    results = ex.run(op())
    assert results[1] == b"x"
    assert ex.stats.round_trips == 1
    assert ex.stats.messages == 2
    assert ex.stats.batches == 1


def test_batch_rejects_nested():
    with pytest.raises(SimulationError):
        Batch([Batch([ReadOp(0, 1)])])
    with pytest.raises(SimulationError):
        Batch([LocalCompute(5)])
    # Only the four verb classes: anything else is refused when the
    # doorbell is built, not when an executor reaches the member.
    for member in (None, (64, 8), 64):
        with pytest.raises(SimulationError):
            Batch([ReadOp(64, 8), member])


_RIVALS = (
    ReadOp(64, 8),
    WriteOp(64, b"abc", lease=("release",)),
    CasOp(64, 1, 2, lease=("node",)),
    FaaOp(64, 8),
    LocalCompute(5),
    Batch([ReadOp(64, 8), CasOp(72, 0, 1)]),
)


@pytest.mark.parametrize("record", _RIVALS,
                         ids=lambda record: type(record).__name__)
def test_verb_records_are_immutable_values(record):
    """Verbs are built once per verb and shared by executors, observers
    and fault traces: a field never changes after construction, and two
    records are equal only when their class and fields are."""
    cls = type(record)
    field = cls.__slots__[0]
    with pytest.raises(FrozenRecord):
        setattr(record, field, 0)
    with pytest.raises(FrozenRecord):
        delattr(record, field)
    assert issubclass(FrozenRecord, AttributeError)
    assert not hasattr(record, "__dict__")
    values = tuple(getattr(record, name) for name in cls.__slots__)
    twin = cls(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) and {record: 1}[twin] == 1
    assert record != values and values != record
    # Same field values, another class (READ and FAA both hold two ints).
    assert ReadOp(64, 8) != FaaOp(64, 8) and FaaOp(64, 8) != ReadOp(64, 8)
    assert all(record != rival for rival in _RIVALS if type(rival) is not cls)
    assert repr(record).startswith(f"{cls.__name__}(")
    for copied in (copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record
        assert hash(copied) == hash(record)


def test_sim_executor_same_results_as_direct(setup):
    cluster, addr = setup

    def op():
        yield WriteOp(addr, b"hello")
        ok, _ = yield CasOp(addr, int.from_bytes(b"hello" + bytes(3),
                                                 "little"), 7)
        data = yield ReadOp(addr, 8)
        return ok, data

    sx = cluster.sim_executor(0)
    p = cluster.engine.process(sx.run(op()))
    ok, data = cluster.engine.run_until_complete(p)
    assert ok and int.from_bytes(data, "little") == 7


def test_sim_verb_latency_matches_model():
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 64)
    sx = cluster.sim_executor(0)

    def op():
        yield ReadOp(addr, 8)

    p = cluster.engine.process(sx.run(op()))
    cluster.engine.run_until_complete(p)
    assert cluster.engine.now == net.unloaded_rtt_ns(0, 8)


def test_sim_batch_is_one_rtt_not_n():
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 256)
    sx = cluster.sim_executor(0)

    def op():
        yield Batch([ReadOp(addr + i * 8, 8) for i in range(8)])

    p = cluster.engine.process(sx.run(op()))
    cluster.engine.run_until_complete(p)
    one_rtt = net.unloaded_rtt_ns(0, 8)
    # Batched verbs pipeline: total time is far below 8 sequential RTTs,
    # but above a single verb (NIC serialization of 8 messages).
    assert one_rtt < cluster.engine.now < 3 * one_rtt


def test_sim_batch_same_mn_ordered(setup):
    """Verbs in a batch to one MN execute in posted order (the insert
    protocol of the RACE client depends on this)."""
    cluster, addr = setup
    sx = cluster.sim_executor(0)

    def op():
        results = yield Batch([
            CasOp(addr, 0, 99),
            ReadOp(addr, 8),
        ])
        return results

    p = cluster.engine.process(sx.run(op()))
    (ok, _), data = cluster.engine.run_until_complete(p)
    assert ok
    assert int.from_bytes(data, "little") == 99


def test_local_compute_advances_clock_only(setup):
    cluster, addr = setup
    sx = cluster.sim_executor(0)

    def op():
        yield LocalCompute(12_345)

    p = cluster.engine.process(sx.run(op()))
    cluster.engine.run_until_complete(p)
    assert cluster.engine.now == 12_345
    assert sx.stats.round_trips == 0


def test_nic_contention_creates_queueing():
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 8)
    finish_times = []

    def client():
        sx = cluster.sim_executor(0)

        def op():
            yield ReadOp(addr, 8)
        yield from sx.run(op())
        finish_times.append(cluster.engine.now)

    for _ in range(20):
        cluster.engine.process(client())
    cluster.engine.run()
    # All clients share one CN NIC: completions must spread out.
    assert len(set(finish_times)) == 20


def test_op_stats_merge():
    a = OpStats(reads=1, round_trips=2)
    b = OpStats(reads=3, writes=1, round_trips=1)
    a.merge(b)
    assert a.reads == 4 and a.writes == 1 and a.round_trips == 3


def test_batch_rejects_empty():
    # An empty doorbell would silently charge a round trip for nothing.
    with pytest.raises(SimulationError, match="empty batch"):
        Batch([])
    with pytest.raises(SimulationError, match="empty batch"):
        Batch(())


class _Recorder(Observer):
    def __init__(self):
        self.records = []

    def on_complete(self, rec):
        self.records.append(rec)


@pytest.mark.parametrize("doorbell", [False, True],
                         ids=["scalar", "doorbell"])
@pytest.mark.parametrize("verb", [ReadOp(0, 8), CasOp(0, 0, 1)],
                         ids=["read", "cas"])
def test_verb_record_stamps_split_an_idle_round_trip(verb, doorbell):
    """On an idle fabric each leg between two stamps is its service and
    wire time alone, and the four legs sum to the unloaded round trip."""
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 64)
    recorder = cluster.attach(_Recorder())
    sx = cluster.sim_executor(0)
    cls = type(verb)
    op = ReadOp(addr, 8) if cls is ReadOp else CasOp(addr, 0, 1)

    def client():
        yield Batch([op]) if doorbell else op

    cluster.engine.run_until_complete(cluster.engine.process(sx.run(client())))
    (rec,) = recorder.records
    req, resp = (0, 8) if cls is ReadOp else (16, 8)
    extra = net.atomic_extra_ns if cls is CasOp else 0
    assert rec.t_sent - rec.t_post == net.msg_service_ns("cn", req)
    assert rec.t_applied - rec.t_sent == \
        net.prop_ns + net.msg_service_ns("mn", req) + extra
    assert rec.t_replied - rec.t_applied == \
        net.mem_access_ns + net.msg_service_ns("mn", resp)
    assert rec.t_done - rec.t_replied == \
        net.prop_ns + net.msg_service_ns("cn", resp)
    assert rec.t_done - rec.t_post == net.unloaded_rtt_ns(req, resp) + extra


@pytest.mark.parametrize("executor", ["direct", "sim"])
@pytest.mark.parametrize("applied", [False, True],
                         ids=["request_lost", "completion_lost"])
def test_verb_record_stamps_stay_none_on_legs_that_never_ran(executor,
                                                             applied):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    addr = cluster.alloc(0, 64)
    recorder = cluster.attach(_Recorder())
    cluster.attach_faults(FaultPlan(seed=1, rules=(
        drop(1.0, applied_prob=1.0 if applied else 0.0),)))

    def client():
        try:
            yield ReadOp(addr, 8)
        except InjectedFault:
            return "lost"

    if executor == "direct":
        assert cluster.direct_executor().run(client()) == "lost"
    else:
        sx = cluster.sim_executor(0)
        proc = cluster.engine.process(sx.run(client()))
        assert cluster.engine.run_until_complete(proc) == "lost"
    (rec,) = recorder.records
    assert rec.fault == "drop" and rec.t_sent is not None
    assert (rec.t_applied is not None) == applied
    assert rec.t_replied is None and rec.t_done is not None


def test_direct_executor_stamps_every_leg_at_post(setup):
    cluster, addr = setup
    recorder = cluster.attach(_Recorder())
    ex = cluster.direct_executor()

    def client():
        yield Batch([WriteOp(addr, b"x"), CasOp(addr, 0, 1)])
        yield FaaOp(addr, 1)

    ex.run(client())
    assert len(recorder.records) == 3
    for rec in recorder.records:
        assert rec.t_sent == rec.t_applied == rec.t_replied == rec.t_done \
            == rec.t_post


def _spin(addr):
    while True:
        yield ReadOp(addr, 8)


@pytest.mark.parametrize("executor", ["direct", "sim"])
def test_verb_budget_holds_without_a_fault_plan(setup, executor):
    """``arm_verb_budget`` is the "never a hang" bound: it holds on both
    executors whether or not a plan is attached."""
    cluster, addr = setup
    if executor == "direct":
        ex = cluster.direct_executor()
        ex.arm_verb_budget(50)
        with pytest.raises(SimulationError, match="verb budget"):
            ex.run(_spin(addr))
    else:
        ex = cluster.sim_executor(0)
        ex.arm_verb_budget(50)
        proc = cluster.engine.process(ex.run(_spin(addr)))
        with pytest.raises(SimulationError, match="verb budget"):
            # The limit turns a missing bound into an error, not a hang.
            cluster.engine.run_until_complete(proc, limit=10_000_000)
    assert ex.stats.messages == 51


def test_hand_stepped_sim_run_raises_at_its_first_verb(setup):
    """A verb trip resumes the engine process driving ``run``; a
    generator stepped by hand has none, and gets an error, not a second
    verb path."""
    cluster, addr = setup
    ex = cluster.sim_executor(0)

    def client():
        yield LocalCompute(10)
        yield ReadOp(addr, 8)

    steps = ex.run(client())
    next(steps)  # the LocalCompute's timeout is an ordinary event
    with pytest.raises(SimulationError, match="hand-stepped"):
        next(steps)
    assert ex.stats.messages == 0
