"""The rack control plane's golden fixture.

``tests/fixtures/rack_control_golden.json`` pins, per rack run, what the
control plane (migration, re-replication, failover, anti-entropy) did:
a sha256 over the run's ``rows()`` digest, its simulated duration, the
rebalancer's summed verb totals, and a sha256 over the fault injector's
fired schedule (which names every executor by its client id).  It was
captured at the commit before the control plane's hand-written failure
arms were folded into one guarded step; its sweep runs were regenerated
once since, when settle and replicationd stopped comparing shards that
carry no repair debt (the K=0 runs and every run's ``sim_ns`` did not
move).  A refactor of that code must reproduce it run for run.  The
suites check it inside the runs they already make
(``tests/test_replication.py``'s crash sweep and the three
``tests/test_rack_properties.py`` families); a run the fixture does not
hold (a wider nightly seed) is not checked.

Runs that drive the control plane by hand, with no ``run_rack`` call -
the 93-point coordinator-crash lattice (``lattice/...``) and one run
per copy outcome the sweeps never reach (``outcome/...``) - have no
``rows()``; their fingerprint (:func:`control_fingerprint`) holds the
rebalancer's forfeits and the clock instead.  Those entries were
captured before the copy loops were folded into
``Rebalancer.copy_key``.

Only when the model really moved, regenerate it in the open::

    PYTHONPATH=src python tests/rack_golden.py --regenerate

It prints, per run that moved, the fingerprint fields that changed
against the committed fixture and the per-counter ``control_ops``
deltas, so a regeneration shows what moved, not just a new sha256.
"""

import functools
import hashlib
import json
import os
import sys

from repro.obs import Counters

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "rack_control_golden.json")


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _schedule_sha256(injector):
    return None if injector is None else _sha256(injector.schedule())


def fingerprint(out) -> dict:
    """A :func:`repro.tenancy.run_rack` call's fingerprint."""
    return {
        "rows_sha256": _sha256(out.rows()),
        "sim_ns": out.result.sim_ns,
        "control_ops": Counters.from_opstats(
            out.rebalancer.op_stats).as_dict(),
        "fault_schedule_sha256": _schedule_sha256(
            out.rack.cluster.injector),
    }


def control_fingerprint(rack, rebalancer) -> dict:
    """A hand-driven control-plane run's fingerprint: it has no
    ``rows()``, so its forfeits and the clock stand in for them."""
    return {
        "control_ops": Counters.from_opstats(rebalancer.op_stats).as_dict(),
        "forfeited_chaos": sorted([shard, key.hex()] for shard, key
                                  in rebalancer.forfeited_chaos),
        "forfeited_dead": sorted([shard, key.hex()] for shard, key
                                 in rebalancer.forfeited_dead),
        "now_ns": rack.cluster.engine.now,
        "fault_schedule_sha256": _schedule_sha256(rack.cluster.injector),
    }


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    with open(FIXTURE) as f:
        return json.load(f)["runs"]


def check_control_golden(name: str, got: dict) -> None:
    """Assert run ``name``'s fingerprint ``got`` reproduces the fixture
    (when it holds one)."""
    want = _golden().get(name)
    if want is not None:
        assert got == want, (
            f"{name}: the rack control plane drifted from "
            f"{os.path.basename(FIXTURE)}")


def _generate() -> dict:
    import test_rack_properties as props
    import test_replication as repl
    from repro.tenancy import run_rack

    runs = {}
    for seed in repl.SWEEP_SEEDS:
        runs[f"sweep/seed={seed}"] = fingerprint(
            run_rack(repl.RSPEC, **repl._sweep_kwargs(seed)))
    for family in props.FAMILIES:
        for seed in props.SEEDS:
            runs[f"{family}/seed={seed}"] = fingerprint(
                props.churn_run(family, seed))
    for a, b in repl.CRASH_LATTICE:
        runs[f"lattice/a={a},b={b}"] = control_fingerprint(
            *repl.crash_during_drain(a, b)[:2])
    for name, case in repl.OUTCOME_CASES.items():
        runs[f"outcome/{name}"] = control_fingerprint(*case()[:2])
    return {"runs": runs}


def _moved(old: dict, new: dict) -> list:
    """One line per run whose fingerprint differs: the fields that
    changed, then ``counter was -> now (delta)`` per moved control op."""
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
        ops_was, ops_now = was["control_ops"], now["control_ops"]
        for counter in sorted(ops_was.keys() | ops_now.keys()):
            a, b = ops_was.get(counter, 0), ops_now.get(counter, 0)
            if a != b:
                lines.append(f"    control_ops.{counter}: {a} -> {b} "
                             f"({b - a:+d})")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/rack_golden.py --regenerate")
    old = _golden() if os.path.exists(FIXTURE) else {}
    fixture = _generate()
    moved = _moved(old, fixture["runs"])
    print("\n".join(moved) or "no run moved")
    with open(FIXTURE, "w") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", FIXTURE)
