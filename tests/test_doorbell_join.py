"""A doorbell joins once: the exactness oracle for the elided member joins.

On an executor with no observer, a member of a doorbell posted with no
fault decision that is not the last to reach its CN NIC reply charge
joins the doorbell at that charge: it stores its result, decrements the
join and is not re-armed.  The last member to reach the charge keeps its
completion event, then the batch's.  Every member replies through the
client's one CN NIC, a single FIFO station whose completion times
strictly increase in charge order, so that last member is exactly the
one whose completion the engine would have dispatched last, and the
dropped completions created nothing.  A clean doorbell of N members is
then 3N+4 dispatches instead of 4N+3; an observed member, or any member
of a doorbell with a fault decision, keeps its own completion event.

The checks run on both engines:

* an idle doorbell's exact dispatch count, plain, observed and faulted;
* a contended mix (several clients on three CNs, doorbells of 2-12
  members over three MNs, interleaved scalar READs, WRITEs and CASes)
  run plain and with a no-op :class:`Observer`: every simulated
  observable is identical and the dispatch counts differ by exactly
  the sum of N-1 over the mix's doorbells;
* a mutant in which the *first* member to reach the reply charge keeps
  the join fails the mix.
"""

import random

import pytest

from repro.dm import Cluster, ClusterConfig, rdma
from repro.dm.rdma import Batch, CasOp, Observer, OpStats, ReadOp, WriteOp
from repro.fault import FaultPlan, FaultRule
from mutation_matrix import mutate
from sim_helpers import has_pending

ENGINES = ("fast", "slow")


def _cluster(monkeypatch, engine, observed=False):
    """A cluster on the chosen engine with no observer but, when
    ``observed``, one no-op :class:`Observer`; the ``REPRO_SAN=1``
    harness monitor is detached (the hand-written clients below race
    plain WRITEs on purpose, and a monitor would keep every join)."""
    if engine == "slow":
        monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    else:
        monkeypatch.delenv("REPRO_SIM_SLOW", raising=False)
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    for observer in cluster.observers:
        cluster.detach(observer)
    if observed:
        cluster.attach(Observer())
    return cluster


def _dispatches(cluster, op):
    """Dispatches one process posting ``op`` costs on an idle engine,
    less those of a process that posts nothing."""
    engine = cluster.engine

    def run(gen):
        before = engine.events_processed
        engine.run_until_complete(
            engine.process(cluster.sim_executor(0).run(gen)))
        return engine.events_processed - before

    def post():
        return (yield op)

    def nothing():
        return
        yield  # pragma: no cover - makes this a generator

    return run(post()) - run(nothing())


# -- (a) one doorbell on an idle engine ---------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_idle_doorbell_dispatch_count(monkeypatch, engine, n):
    def doorbell(cluster):
        return Batch([ReadOp(cluster.alloc(i % 3, 8), 8) for i in range(n)])

    plain = _cluster(monkeypatch, engine)
    assert _dispatches(plain, doorbell(plain)) == 3 * n + 4

    observed = _cluster(monkeypatch, engine, observed=True)
    assert _dispatches(observed, doorbell(observed)) == 4 * n + 3

    faulted = _cluster(monkeypatch, engine)
    op = doorbell(faulted)
    # A duplicate is silent: the member keeps its stages, the doorbell
    # its results, and only the decision tells the trips apart.
    injector = faulted.attach_faults(FaultPlan(seed=0, rules=(
        FaultRule(kind="duplicate", at_verb=n - 1),)))
    assert _dispatches(faulted, op) == 4 * n + 3
    assert injector.verb_seq == n


# -- (b) a contended mix, plain against observed ------------------------------

def _mix(monkeypatch, engine, observed, slice_ns=None):
    """Six clients, two per CN, each posting 40 steps of doorbells
    (2-12 READs over three MNs), scalar READs, WRITEs and CASes against
    shared words.  Returns ``(observables, events, sizes)``: everything
    the simulated system shows, the dispatch count, and the member
    count of every doorbell posted."""
    cluster = _cluster(monkeypatch, engine, observed)
    addrs = [cluster.alloc(i % 3, 8) for i in range(30)]
    engine_ = cluster.engine
    sizes = []
    stats = []

    def client(cid):
        rng = random.Random(500 + cid)
        executor = cluster.sim_executor(cid % 3, OpStats())
        stats.append(executor.stats)

        def op():
            results = []
            for _ in range(40):
                k = rng.random()
                a = rng.choice(addrs)
                if k < 0.45:
                    width = rng.randint(2, 12)
                    sizes.append(width)
                    got = yield Batch([ReadOp(rng.choice(addrs), 8)
                                       for _ in range(width)])
                    results.append([bytes(x) for x in got])
                elif k < 0.65:
                    results.append(bytes((yield ReadOp(a, 8))))
                elif k < 0.85:
                    yield WriteOp(a, rng.getrandbits(64).to_bytes(8, "little"))
                else:
                    results.append(
                        (yield CasOp(a, rng.getrandbits(2), cid + 1))[0])
            return results

        return engine_.process(executor.run(op()), name=f"c{cid}")

    procs = [client(cid) for cid in range(6)]
    if slice_ns is None:
        for proc in procs:
            engine_.run_until_complete(proc)
    else:
        while not all(p.triggered for p in procs):
            assert has_pending(engine_), "deadlock"
            engine_.run(until=engine_.now + slice_ns)
    nics = [(nic.name, nic.messages, nic.payload_bytes, nic.busy_time,
             nic.free_at)
            for nic in (*cluster.cn_nics.values(),
                        *cluster.mn_nics.values())]
    observables = (engine_.now, [p.value for p in procs], nics, stats)
    return observables, engine_.events_processed, sizes


def _check_mix(monkeypatch, engine, slice_ns=None):
    plain, plain_events, sizes = _mix(monkeypatch, engine, False, slice_ns)
    observed, observed_events, observed_sizes = \
        _mix(monkeypatch, engine, True, slice_ns)
    assert sizes == observed_sizes
    assert plain == observed
    assert observed_events - plain_events == sum(n - 1 for n in sizes)
    return plain


@pytest.mark.parametrize("slice_ns", [None, 700])
@pytest.mark.parametrize("engine", ENGINES)
def test_contended_mix_matches_the_observed_join(monkeypatch, engine,
                                                 slice_ns):
    _now, results, nics, stats = _check_mix(monkeypatch, engine, slice_ns)
    # Not vacuous: doorbells shared every CN NIC with other clients'
    # verbs, and some CASes won.
    assert sum(s.batches for s in stats) > 60
    assert all(nic[1] > 0 for nic in nics)
    assert any(r is True for client in results for r in client)


# -- (c) the oracle notices the wrong member keeping the join -----------------

def test_first_member_keeping_the_join_is_caught(monkeypatch):
    """Mutant: the first member to reach the reply charge keeps its
    completion event and every later one joins at its charge, the last
    included - so the doorbell completes at the first member's
    completion, before its last reply has arrived."""
    mutate(monkeypatch, rdma, rdma._replied, "if ctx.remaining > 1 and",
           "if ctx.remaining < len(ctx.results) and")
    for engine in ENGINES:
        with pytest.raises(AssertionError):
            _check_mix(monkeypatch, engine)
