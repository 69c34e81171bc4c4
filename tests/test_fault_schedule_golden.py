"""The fault injector's golden fixture.

``tests/fixtures/fault_schedule_golden.json`` pins, per faulted run, what
the injector fired and what the run made of it: a sha256 over
``injector.schedule()`` (every fired fault with its verb sequence
number, clock, client, kind, verb and address), the injector's
counters, and - for benchmark-shaped runs - ``RunResult.row()``,
``failed_ops``, ``crashed_workers`` and ``sim_ns``.  It was captured at
the commit before the injector's three per-family rule queues were
folded into one matcher with two triggers (``at_verb`` or ``prob``), so
a refactor of ``repro.fault`` must reproduce it run for run, on either
engine.

The runs: the TINY chaos and chaos+crash cells (Sphinx and Sphinx+Loc,
YCSB A and E, as in ``tests/test_sim_fastpath.py``), the
``repro.tools.fsck --crash-verb`` scenario, and one scheduled ``poke`` +
``flip`` + ``crash_mn`` + ``crash_cn`` mix on a warmed TINY cell.  Only
when the model really moved, regenerate it in the open::

    PYTHONPATH=src python tests/test_fault_schedule_golden.py --regenerate

It prints, per run that moved, the fields that changed.
"""

import copy
import functools
import hashlib
import json
import os
import sys
from unittest import mock

import pytest

from repro.bench import CellSpec, clear_setup_caches, run_cell
from repro.bench.harness import _warmed_setup
from repro.dm import Cluster
from repro.fault import FaultPlan, crash_cn, crash_mn, flip, poke
from repro.tools.fsck import _build_scenario, check_index
from repro.ycsb import run_workload, workload

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "fault_schedule_golden.json")

TINY = dict(num_keys=900, ops=140, workers=6, warmup_ops_per_cn=60)

CELLS = {
    f"{system}/{wl}/{tag}": CellSpec(system=system, dataset="u64",
                                     workload=wl, chaos_seed=seed,
                                     chaos_crashes=crashes, **TINY)
    for system in ("Sphinx", "Sphinx+Loc")
    for wl in ("A", "E")
    for tag, seed, crashes in (("chaos", 5, False), ("crash", 9, True))
}

#: The ``python -m repro.tools.fsck --keys 300 --seed 7 --crash-verb 350``
#: scenario.
FSCK = dict(keys=300, seed=7, crash_verb=350)

MIX_CELL = CellSpec(system="Sphinx", dataset="u64", workload="A", **TINY)


def _mix_plan(root_addr: int) -> FaultPlan:
    """Every environment kind and a client crash, all scheduled: a poke
    and a flip into the root node's slot array, one MN lost mid-run."""
    return FaultPlan(seed=11, rules=(
        poke(root_addr + 40, b"\x00" * 8, at_verb=120),
        flip(root_addr + 57, xor=0x10, at_verb=60),
        crash_cn(200, applied_prob=0.5),
        crash_mn(2, at_verb=400),
    ))


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _fingerprint(injector, result=None) -> dict:
    out = {"schedule_sha256": _sha256(injector.schedule()),
           "counters": dict(sorted(injector.counters.items()))}
    if result is not None:
        out.update(row=result.row(), failed_ops=result.failed_ops,
                   crashed_workers=result.crashed_workers,
                   sim_ns=result.sim_ns)
    return out


def _cell_run(cell: CellSpec) -> dict:
    """``run_cell`` as the benchmark runs it, keeping hold of the
    injector it attached."""
    injectors = []
    attach = Cluster.attach_faults

    def keep(cluster, plan):
        injectors.append(attach(cluster, plan))
        return injectors[-1]

    with mock.patch.object(Cluster, "attach_faults", keep):
        result = run_cell(cell)
    (injector,) = injectors
    return _fingerprint(injector, result)


def _fsck_run() -> dict:
    cluster, index, _manager = _build_scenario(**FSCK)
    out = _fingerprint(cluster.injector)
    out["fsck"] = check_index(cluster, index).summary()
    return out


def _mix_run() -> dict:
    live = copy.deepcopy(_warmed_setup(MIX_CELL))
    cluster = live.cluster
    injector = cluster.attach_faults(_mix_plan(live.index.root_addr))
    cluster.attach_recovery()
    result = run_workload(cluster, live.index, workload(MIX_CELL.workload),
                          live.dataset, system=MIX_CELL.system,
                          workers=MIX_CELL.workers, ops=MIX_CELL.ops,
                          seed=MIX_CELL.seed)
    return _fingerprint(injector, result)


RUNS = {**{name: functools.partial(_cell_run, cell)
           for name, cell in CELLS.items()},
        "fsck/crash-verb": _fsck_run,
        "scheduled-mix": _mix_run}


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    with open(FIXTURE) as f:
        return json.load(f)["runs"]


@pytest.fixture(autouse=True)
def _fresh_snapshots():
    # Snapshots pin the engine mode they were built under.
    clear_setup_caches()
    yield
    clear_setup_caches()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fault_schedule_matches_golden(name):
    assert RUNS[name]() == _golden()[name], (
        f"{name}: the fault schedule drifted from "
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
        sys.exit("usage: python tests/test_fault_schedule_golden.py "
                 "--regenerate")
    old = _golden() if os.path.exists(FIXTURE) else {}
    runs = {}
    for name in sorted(RUNS):
        clear_setup_caches()
        runs[name] = RUNS[name]()
    print("\n".join(_moved(old, runs)) or "no run moved")
    with open(FIXTURE, "w") as f:
        json.dump({"runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", FIXTURE)
