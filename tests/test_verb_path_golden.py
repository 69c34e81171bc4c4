"""The verb path's golden fixture.

``tests/fixtures/verb_path_golden.json`` pins, per run, everything a verb
leaves behind on the simulated system: the final clock, the clients'
results, every ``Nic.charge`` call in call order (NIC, clock, payload,
arrive delay), each executor's ``OpStats``, the fired fault schedule,
every :class:`repro.dm.rdma.VerbRecord` an observer saw (client, verb,
address and its five stamps, fault kind) and DMSan's summary.
``events_processed`` is not pinned: it counts the dispatches of the
engine that ran, not the system.  It was captured at the commit before
faulted verbs moved onto the verb trips, on the generator verb path
they took until then, so both engines must reproduce it run for run.

The runs: the mixed, lockstep and zero-cost workloads of
``tests/test_sim_fastpath.py`` with no plan; the lockstep workload under
``FaultPlan.chaos`` at three seeds; and a lattice of scheduled rules -
every fault decision (request drop, applied drop, delay, duplicate,
stale CAS, NAK, dead MN, unapplied and applied ``crash_cn``) once on a
scalar CAS, once on a scalar FAA and once on each member of a WRITE |
CAS | WRITE doorbell, with a second, unfaulted client racing the same
words.  Only when the
model really moved, regenerate it in the open::

    PYTHONPATH=src python tests/test_verb_path_golden.py --regenerate

It prints, per run that moved, the fields that changed.
"""

import functools
import hashlib
import json
import os
import sys
from dataclasses import astuple
from unittest import mock

import pytest

from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import make_addr
from repro.dm.network import Nic
from repro.dm.rdma import VERB_KIND, Batch, CasOp, FaaOp, Observer, \
    ReadOp, WriteOp, apply_verb
from repro.errors import ClientCrash, InjectedFault, MNUnavailable
from repro.fault import FaultPlan, FaultRule, crash_mn

from test_sim_fastpath import _lockstep_digest, _mixed_digest, \
    _zero_cost_digest

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "verb_path_golden.json")

CAPACITY = 1 << 20


class _Records(Observer):
    """Every verb record, in the order an executor first reported it
    (``on_post``, or ``on_complete`` for a verb the MN never saw)."""

    def __init__(self):
        self.records = []
        self._seen = set()

    def on_post(self, rec):
        if id(rec) not in self._seen:
            self._seen.add(id(rec))
            self.records.append(rec)

    on_complete = on_post

    def rows(self):
        return [[rec.client, VERB_KIND[rec.op.__class__], rec.op.addr,
                 rec.t_post, rec.t_sent, rec.t_applied, rec.t_replied,
                 rec.t_done, rec.fault] for rec in self.records]


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _capture(workload, plan=None) -> dict:
    """Run ``workload(prepare)`` with a verb recorder, DMSan and - when
    ``plan(cluster)`` is given - that fault plan attached before the
    workload allocates anything; ``workload`` returns ``(now,
    results)``."""
    charges, executors, attached = [], [], {}
    real_charge, real_executor = Nic.charge, Cluster.sim_executor

    def charge(nic, payload_bytes, extra_ns=0, arrive_delay=0):
        charges.append([nic.name, nic.engine.now, payload_bytes,
                        arrive_delay])
        return real_charge(nic, payload_bytes, extra_ns, arrive_delay)

    def sim_executor(cluster, *args, **kwargs):
        executors.append(real_executor(cluster, *args, **kwargs))
        return executors[-1]

    def prepare(cluster):
        attached["records"] = cluster.attach(_Records())
        attached["monitor"] = cluster.attach_sanitizer()
        if plan is not None:
            attached["injector"] = cluster.attach_faults(plan(cluster))

    with mock.patch.object(Nic, "charge", charge), \
            mock.patch.object(Cluster, "sim_executor", sim_executor):
        now, results = workload(prepare)
    injector = attached.get("injector")
    schedule = [list(event) for event in injector.schedule()] \
        if injector is not None else []
    rows = attached["records"].rows()
    return {"now": now,
            "results_sha256": _sha256(repr(results)),
            "charges": len(charges), "charges_sha256": _sha256(charges),
            "op_stats": [list(astuple(ex.stats)) for ex in executors],
            "faults": len(schedule), "schedule_sha256": _sha256(schedule),
            "records": len(rows), "records_sha256": _sha256(rows),
            "dmsan": attached["monitor"].report.summary()}


def _digest_run(digest, plan=None) -> dict:
    def workload(prepare):
        observables = digest(prepare=prepare)[0]
        return observables[0], observables[1:]
    return _capture(workload, plan)


# -- the lattice ----------------------------------------------------------

#: Every fault decision, as the rule (or, for a NAK and a dead MN, the
#: environment) that produces it on the verb a filter names.
DECISIONS = {
    "drop-request": dict(kind="drop"),
    "drop-applied": dict(kind="drop", applied_prob=1.0),
    "delay": dict(kind="delay", delay_ns=3_000),
    "delay-0": dict(kind="delay", delay_ns=0),
    "duplicate": dict(kind="duplicate"),
    "stale_cas": dict(kind="stale_cas"),
    "crash_cn": dict(kind="crash_cn"),
    "crash_cn-applied": dict(kind="crash_cn", applied_prob=1.0),
    "nak": None,
    "dead_mn": None,
}

#: The verbs of client 0 a decision lands on: the scalar CAS and FAA
#: and the doorbell's members, each the only verb of its kind on its MN.
#: Client 1's FAA on the same word reads back where a fault put the
#: scalar FAA's side effects in time.
TARGETS = {"scalar": ("cas", 0), "scalar-faa": ("faa", 2),
           "member0": ("write", 0), "member1": ("cas", 1),
           "member2": ("write", 2)}


def _lattice(decision, target, prepare):
    """Clients on CN 0 and CN 1 run the same script - READ, scalar CAS,
    FAA, the WRITE | CAS | WRITE doorbell, READs back - on the same
    words; only client 0's ``target`` verb gets ``decision``."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=CAPACITY))
    prepare(cluster)
    engine = cluster.engine
    words = [cluster.alloc(mn, 8) for mn in range(3)]
    bad = {mn: make_addr(mn, CAPACITY) for mn in range(3)}
    log = []

    def script(cid):
        def addr(kind, mn):
            # A NAK is a verb the fabric cannot route.
            if decision == "nak" and cid == 0 and TARGETS[target] == (kind,
                                                                      mn):
                return bad[mn]
            return words[mn]

        ops = [ReadOp(words[1], 8),
               CasOp(addr("cas", 0), 0, 10 + cid),
               FaaOp(addr("faa", 2), 1),
               Batch([WriteOp(addr("write", 0), bytes([cid + 1] * 8)),
                      CasOp(addr("cas", 1), 0, 20 + cid),
                      WriteOp(addr("write", 2), bytes([cid + 5] * 8))]),
               *(ReadOp(word, 8) for word in words)]
        for step, op in enumerate(ops):
            try:
                got = yield op
            except (InjectedFault, MNUnavailable) as exc:
                got = (type(exc).__name__, getattr(exc, "kind", None))
            log.append((cid, step, engine.now, repr(got)))

    def worker(cid, ex):
        try:
            yield from ex.run(script(cid))
        except ClientCrash as exc:
            log.append((cid, "crashed", engine.now, exc.applied))

    procs = [engine.process(worker(cid, cluster.sim_executor(cid)))
             for cid in range(2)]
    for proc in procs:
        engine.run_until_complete(proc)
    final = [bytes(apply_verb(cluster.memories, ReadOp(word, 8)))
             for word in words]
    return engine.now, (log, final)


def _lattice_plan(decision, target):
    def plan(cluster):
        if decision == "nak":
            rules = ()
        elif decision == "dead_mn":
            rules = (crash_mn(TARGETS[target][1], at_verb=0),)
        else:
            verb, mn = TARGETS[target]
            rules = (FaultRule(at_verb=0, client="cn0", verbs=(verb,),
                               mn=mn, **DECISIONS[decision]),)
        return FaultPlan(seed=1, rules=rules)
    return plan


RUNS = {
    "mixed": functools.partial(_digest_run, _mixed_digest),
    "lockstep": functools.partial(_digest_run, _lockstep_digest),
    "zero-cost": functools.partial(_digest_run, _zero_cost_digest),
    **{f"lockstep/chaos-{seed}": functools.partial(
        _digest_run, _lockstep_digest,
        lambda _cluster, seed=seed: FaultPlan.chaos(seed, intensity=4))
       for seed in (1, 2, 3)},
    **{f"lattice/{decision}/{target}": functools.partial(
        _capture, functools.partial(_lattice, decision, target),
        _lattice_plan(decision, target))
       for decision in DECISIONS for target in TARGETS},
}


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    with open(FIXTURE) as f:
        return json.load(f)["runs"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_verb_path_matches_golden(name):
    assert RUNS[name]() == _golden()[name], (
        f"{name}: the verb path drifted from "
        f"{os.path.basename(FIXTURE)}")


def _moved(old: dict, new: dict) -> list:
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name), new.get(name)
        if was == now:
            continue
        if was is None or now is None:
            lines.append(f"{name}: {'added' if was is None else 'removed'}")
            continue
        fields = [f for f in sorted(was.keys() | now.keys())
                  if was.get(f) != now.get(f)]
        lines.append(f"{name}: {', '.join(fields)}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_verb_path_golden.py "
                 "--regenerate")
    old = _golden() if os.path.exists(FIXTURE) else {}
    runs = {name: RUNS[name]() for name in sorted(RUNS)}
    print("\n".join(_moved(old, runs)) or "no run moved")
    with open(FIXTURE, "w") as f:
        json.dump({"runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", FIXTURE)
