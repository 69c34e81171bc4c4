"""Property-based chaos suite (ISSUE 3 satellite).

For each index (Sphinx, SMART, RACE) run dozens of seeded
:func:`FaultPlan.chaos` plans against a randomized operation mix and
check every response against a local oracle.  The linearizability
contract under the chaos fault model (fail-safe CAS, at-least-once
write - see DESIGN.md "Fault model") for a single sequential client:

* an operation that *returns* tells the truth - a search result is the
  value some permitted execution left behind, and collapses the oracle's
  ambiguity;
* an operation that raises :class:`RetryLimitExceeded` is a *clean*
  failure: it may or may not have applied, widening the oracle's set of
  possible states, but never corrupting others;
* nothing hangs: every run is bounded by a verb budget (livelock guard)
  and a simulated-time limit (deadlock guard).

A mutation check closes the loop: a deliberately broken retry policy
(silently swallowing exhaustion) must be *caught* by this same harness.
"""

import inspect
import os
import random
import textwrap

import pytest

from repro.art import encode_str
from repro.art.layout import HashEntry
from repro.baselines import SmartConfig, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.core.remote_art import RemoteArtTree
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import OpStats
from repro.errors import RetryLimitExceeded
from repro.fault import FaultPlan, RetryPolicy
from repro.race import (
    RaceClient,
    TableParams,
    allocate_segment,
    create_table,
    fp2_of,
    key_hash,
)

# Seeded sweeps: tier-1 can deselect with -m "not property"; the nightly
# workflow widens the sweep via REPRO_PROPERTY_SEEDS=100.
pytestmark = pytest.mark.property

N_SEEDS = int(os.environ.get("REPRO_PROPERTY_SEEDS", "50"))
NUM_KEYS = 40
OPS = 80
VERB_BUDGET = 500_000        # extra messages allowed per run (livelock)
TIME_LIMIT_NS = 60_000_000_000  # simulated ns per run (deadlock)

# "Sphinx+Loc" is Sphinx with the leaf-locator tier on: a stale locator
# entry (leaf moved/invalidated under it by a faulted op) must fall back
# to the INHT path, never answer wrong - the same oracle checks apply.
TREE_SEEDS = [("Sphinx", s) for s in range(N_SEEDS)] + \
             [("Sphinx+Loc", s) for s in range(N_SEEDS)] + \
             [("SMART", s) for s in range(N_SEEDS)]


def _keys():
    return [encode_str(f"k/{i:03d}") for i in range(NUM_KEYS)]


def _build_tree(system, retry=None):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    if system in ("Sphinx", "Sphinx+Loc"):
        config = SphinxConfig(filter_budget_bytes=1 << 14,
                              use_locator=(system == "Sphinx+Loc"),
                              locator_budget_bytes=1 << 12,
                              **({"retry": retry} if retry else {}))
        index = SphinxIndex(cluster, config)
    else:
        config = SmartConfig(cache_budget_bytes=1 << 16,
                             **({"retry": retry} if retry else {}))
        index = SmartIndex(cluster, config)
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = _keys()
    possible = {}
    for i, key in enumerate(keys):
        if i % 2 == 0:
            ex.run(client.insert(key, f"v{i}".encode()))
            possible[key] = {f"v{i}".encode()}
        else:
            possible[key] = {None}
    return cluster, client, keys, possible


def _run_tree_chaos(system, seed, intensity=3.0, retry=None):
    """One seeded chaos run; raises AssertionError on any wrong answer."""
    cluster, client, keys, possible = _build_tree(system, retry)
    cluster.attach_faults(FaultPlan.chaos(seed, intensity=intensity))
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    executor.arm_verb_budget(VERB_BUDGET)
    engine = cluster.engine
    rng = random.Random(seed * 7919 + 13)
    clean_failures = 0

    def mix():
        nonlocal clean_failures
        for step in range(OPS):
            key = keys[rng.randrange(len(keys))]
            vals = possible[key]
            dice = rng.random()
            faults_before = cluster.injector.faults_total()
            if dice < 0.45:
                try:
                    got = yield from executor.run(client.search(key))
                except RetryLimitExceeded:
                    clean_failures += 1
                    continue
                assert got in vals, (
                    f"{system} seed={seed} step={step}: search({key!r}) "
                    f"returned {got!r}, oracle allows {vals!r}")
                possible[key] = {got}  # reads are truthful: collapse
            elif dice < 0.70:
                val = f"i{seed}.{step}".encode()
                try:
                    yield from executor.run(client.insert(key, val))
                except RetryLimitExceeded:
                    clean_failures += 1
                    possible[key] = set(vals) | {val}
                    continue
                possible[key] = {val}
            elif dice < 0.85:
                val = f"u{seed}.{step}".encode()
                try:
                    found = yield from executor.run(client.update(key, val))
                except RetryLimitExceeded:
                    clean_failures += 1
                    possible[key] = set(vals) | {val}
                    continue
                if found:
                    assert vals != {None}, (
                        f"{system} seed={seed} step={step}: update found "
                        f"{key!r} which the oracle says is absent")
                    possible[key] = {val}
                else:
                    assert None in vals, (
                        f"{system} seed={seed} step={step}: update missed "
                        f"{key!r} which the oracle says is present")
                    possible[key] = {None}
            elif dice < 0.93:
                try:
                    removed = yield from executor.run(client.delete(key))
                except RetryLimitExceeded:
                    clean_failures += 1
                    possible[key] = set(vals) | {None}
                    continue
                # A delete whose internal write applied-dropped removes
                # the key, retries, finds nothing, and truthfully reports
                # "miss" about the *present* - so the miss flag is only
                # meaningful when no fault hit this particular op.
                op_faults = cluster.injector.faults_total() - faults_before
                if not removed and op_faults == 0:
                    assert None in vals, (
                        f"{system} seed={seed} step={step}: delete missed "
                        f"{key!r} which the oracle says is present")
                possible[key] = {None}
            else:
                start = keys[rng.randrange(len(keys))]
                try:
                    pairs = yield from executor.run(
                        client.scan_count(start, 8))
                except RetryLimitExceeded:
                    clean_failures += 1
                    continue
                for k, v in pairs:
                    assert k >= start
                    allowed = possible.get(k)
                    assert allowed is not None and v in allowed, (
                        f"{system} seed={seed} step={step}: scan returned "
                        f"({k!r}, {v!r}), oracle allows {allowed!r}")
                if clean_failures == 0:
                    # No ambiguity yet: the scan must be exactly the
                    # oracle's first 8 keys >= start.
                    expect = sorted(k for k, vs in possible.items()
                                    if vs != {None} and k >= start)[:8]
                    assert [k for k, _v in pairs] == expect, (
                        f"{system} seed={seed} step={step}: scan window "
                        f"mismatch")
        return clean_failures

    engine.run_until_complete(engine.process(mix(), name="chaos"),
                              limit=engine.now + TIME_LIMIT_NS)
    return cluster


@pytest.mark.parametrize("system,seed", TREE_SEEDS,
                         ids=[f"{s}-{n}" for s, n in TREE_SEEDS])
def test_tree_chaos_linearizable_or_clean_failure(system, seed):
    cluster = _run_tree_chaos(system, seed)
    # The plan actually perturbed the run (chaos seeds are not no-ops).
    assert cluster.injector.faults_total() > 0


# ---------------------------------------------------------------------------
# RACE hash table
# ---------------------------------------------------------------------------

def _entry(client, key, addr):
    h = key_hash(key, client.params.seed)
    return HashEntry(addr=addr, fp2=fp2_of(h), node_type=1, occupied=True)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_race_chaos_presence_or_clean_failure(seed):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=16 << 20))
    params = TableParams(seed=77, groups_per_segment=8, slots_per_group=4,
                         initial_depth=1)
    info = create_table(cluster, 0, params)
    client = RaceClient(
        info, lambda depth: allocate_segment(cluster, 0, params, depth))
    keys = [f"p/{i:02d}".encode() for i in range(32)]
    addr_of = {key: 0x4000 + i * 64 for i, key in enumerate(keys)}
    ex = cluster.direct_executor()
    # True / False / None = present / absent / ambiguous (clean failure)
    present = {}
    for i, key in enumerate(keys):
        if i % 2 == 0:
            ex.run(client.insert(key, _entry(client, key, addr_of[key])))
        present[key] = (i % 2 == 0)
    cluster.attach_faults(FaultPlan.chaos(seed, intensity=3.0))
    stats = OpStats()
    executor = cluster.sim_executor(0, stats)
    executor.arm_verb_budget(VERB_BUDGET)
    engine = cluster.engine
    rng = random.Random(seed * 104729 + 3)

    def mix():
        for step in range(OPS):
            key = keys[rng.randrange(len(keys))]
            state = present[key]
            dice = rng.random()
            faults_before = cluster.injector.faults_total()
            if dice < 0.5:
                try:
                    matches = yield from executor.run(client.lookup(key))
                except RetryLimitExceeded:
                    continue
                hit = any(e.addr == addr_of[key] for _sa, e in matches)
                if state is True:
                    assert hit, (f"seed={seed} step={step}: lookup lost "
                                 f"present key {key!r}")
                elif state is False:
                    assert not hit, (f"seed={seed} step={step}: lookup "
                                     f"resurrected absent key {key!r}")
                present[key] = hit  # collapse ambiguity
            elif dice < 0.75:
                # Insert only definitely-absent keys: RACE allows
                # duplicate entries, which the oracle does not model.
                if state is not False:
                    continue
                try:
                    yield from executor.run(client.insert(
                        key, _entry(client, key, addr_of[key])))
                except RetryLimitExceeded:
                    present[key] = None
                    continue
                present[key] = True
            else:
                if state is False:
                    continue
                try:
                    removed = yield from executor.run(
                        client.delete(key, addr_of[key]))
                except RetryLimitExceeded:
                    present[key] = None
                    continue
                op_faults = cluster.injector.faults_total() - faults_before
                if state is True and op_faults == 0:
                    assert removed, (f"seed={seed} step={step}: delete "
                                     f"missed present key {key!r}")
                present[key] = False

    engine.run_until_complete(engine.process(mix(), name="race-chaos"),
                              limit=engine.now + TIME_LIMIT_NS)
    assert cluster.injector.faults_total() > 0


# ---------------------------------------------------------------------------
# Mutation check: a broken retry policy must be caught by this harness
# ---------------------------------------------------------------------------

def test_mutation_broken_retry_is_caught(monkeypatch):
    """Mutate the unified retry loop to swallow exhaustion (returning
    "nothing there" instead of raising: None for a point op, an empty
    list for a scan - ``_run`` serves both).  Under heavy chaos with a
    tiny retry budget this manufactures silent wrong answers - which the
    oracle harness above must flag.  If this test ever fails, the
    property suite has lost its teeth."""
    original = RemoteArtTree._run

    def swallowing_run(self, once, ctx, op_name):
        try:
            result = yield from original(self, once, ctx, op_name)
        except RetryLimitExceeded:
            # The mutant: exhaustion pretends the key / range is empty.
            return [] if op_name.startswith("scan") else None
        return result

    monkeypatch.setattr(RemoteArtTree, "_run", swallowing_run)
    tiny = RetryPolicy(max_retries=3, backoff_ns=500)
    with pytest.raises(AssertionError):
        for seed in range(20):
            _run_tree_chaos("Sphinx", seed, intensity=25.0, retry=tiny)


def _stale_pointer_to_retired_node():
    """A reader whose cached path ends in a node that was retired under
    it: SMART client ``a`` caches root -> "e/" node; client ``b`` empties
    that node, replaces it outright with a leaf (the node goes Invalid)
    and then grows a new subtree holding "e/z" where it hung.  ``a``'s
    search for "e/z" starts from its cached copy of the retired node."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SmartIndex(cluster, SmartConfig(cache_budget_bytes=1 << 16))
    a, b = index.client(0), index.client(1)
    ex = cluster.direct_executor()
    for c in "ab":
        ex.run(a.insert(encode_str(f"e/{c}"), c.encode()))
    assert ex.run(a.search(encode_str("e/c"))) is None  # caches the path
    for c in "ab":
        assert ex.run(b.delete(encode_str(f"e/{c}")))
    assert ex.run(b.insert(encode_str("eXtra"), b"x"))
    assert b.metrics.empty_replacements == 1
    assert ex.run(b.insert(encode_str("e/z"), b"z"))
    restarts = a.metrics.op_restarts
    got = ex.run(a.search(encode_str("e/z")))
    assert got == b"z", f"search through a retired node returned {got!r}"
    assert a.metrics.op_restarts == restarts + 1


def test_stale_pointer_to_retired_node_restarts_the_walk():
    _stale_pointer_to_retired_node()


def test_mutation_descend_ignoring_invalid_is_caught(monkeypatch):
    """Mutate the one descent to ignore ``STATUS_INVALID`` (both the
    current node's and the child's check).  Killed by
    ``test_stale_pointer_to_retired_node_restarts_the_walk`` above - and,
    when this mutant was written, by nothing else: tier-1's concurrency,
    stateful, chaos, recovery, locator and rack suites and the golden
    verb streams of ``test_point_descent.py`` all pass under it, because
    every mutation below a retired node is CAS-guarded by that node's
    own header and a reader only gets there through a stale *cache*
    (ROADMAP.md, mutation-matrix item)."""
    source = textwrap.dedent(inspect.getsource(RemoteArtTree._descend))
    assert source.count("== STATUS_INVALID") == 2
    namespace = {}
    exec(compile(source.replace("== STATUS_INVALID", "== -1"),
                 "<_descend mutant>", "exec"),
         vars(inspect.getmodule(RemoteArtTree)), namespace)
    monkeypatch.setattr(RemoteArtTree, "_descend", namespace["_descend"])
    with pytest.raises(AssertionError, match="retired node returned None"):
        _stale_pointer_to_retired_node()
