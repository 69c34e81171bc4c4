"""Differential/property suite for the leaf-locator tier and Outback
(ISSUE 8 satellites).

Two families of seeded workloads (104 cases total, u64 + email keys,
zipfian + uniform request streams, balanced + insert-heavy mixes):

* **Sphinx differential**: locator-enabled Sphinx must return
  byte-identical results, op by op, to locator-disabled Sphinx on the
  same script - the locator is a pure fast path, never a semantic
  change - and the final locator-enabled state must pass fsck clean.
  Scripts mix value sizes (8..120 B) so updates move leaves
  out-of-place and deletes free them, exercising the staleness /
  invalidation protocol (DESIGN.md §12), not just the hit path.

* **Outback vs B+ oracle**: the MPH-directory baseline must agree with
  a dict model on every answer, and with the B+ tree extension on every
  committed key.  :class:`BplusClient` has no delete, so keys that were
  ever deleted are excluded from the B+ mirror (the model still covers
  them).
"""

import os
import random

import pytest

from repro.baselines import (
    BplusConfig,
    BplusIndex,
    OutbackConfig,
    OutbackIndex,
)
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.tools.fsck import check_index
from repro.util.zipf import ScrambledZipfianGenerator, UniformGenerator
from repro.ycsb import make_dataset

# Seeded sweeps: tier-1 can deselect with -m "not property"; the nightly
# workflow widens both families proportionally via REPRO_PROPERTY_SEEDS
# (50 = the stock 56 + 48 cases).
pytestmark = pytest.mark.property

N_SEEDS = int(os.environ.get("REPRO_PROPERTY_SEEDS", "50"))
N_KEYS = 48
OPS = 220
ZIPF_THETA = 0.99

DIFF_CASES = [(kind, dist, mix, seed)
              for kind in ("u64", "email")
              for dist in ("zipfian", "uniform")
              for mix in ("balanced", "insert_heavy")
              for seed in range(max(1, round(7 * N_SEEDS / 50)))]

OUTBACK_CASES = [(kind, dist, seed)
                 for kind in ("u64", "email")
                 for dist in ("zipfian", "uniform")
                 for seed in range(max(1, round(12 * N_SEEDS / 50)))]


def _universe(kind, seed):
    """Loaded keys plus an insert pool, deterministic per (kind, seed)."""
    dataset = make_dataset(kind, N_KEYS, seed=seed % 3 + 1,
                           insert_pool=N_KEYS)
    return list(dataset.keys), list(dataset.keys) + list(dataset.insert_pool)


def _script(kind, dist, mix, seed, value_sizes):
    """One deterministic op script: [(op, key, value), ...]."""
    preload, keys = _universe(kind, seed)
    rng = random.Random(seed * 31337 + 11)
    if dist == "zipfian":
        chooser = ScrambledZipfianGenerator(len(keys), ZIPF_THETA, rng)
    else:
        chooser = UniformGenerator(len(keys), rng)
    if mix == "balanced":
        names = ("search", "insert", "update", "delete", "scan")
        weights = (0.40, 0.18, 0.22, 0.12, 0.08)
    else:                       # insert-heavy: churn the key population
        names = ("search", "insert", "update", "delete", "scan")
        weights = (0.22, 0.45, 0.15, 0.13, 0.05)
    ops = []
    for step in range(OPS):
        key = keys[chooser.next() % len(keys)]
        op = rng.choices(names, weights=weights, k=1)[0]
        size = rng.choice(value_sizes)
        stamp = f"{seed}.{step}.".encode()
        value = (stamp * (size // len(stamp) + 1))[:size]
        ops.append((op, key, value))
    return preload, ops


# ---------------------------------------------------------------------------
# Sphinx: locator on == locator off, byte for byte
# ---------------------------------------------------------------------------

def _run_sphinx(use_locator, preload, ops):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(
        filter_budget_bytes=1 << 14, use_locator=use_locator,
        locator_budget_bytes=1 << 12))
    client = index.client(0)
    ex = cluster.direct_executor()
    for i, key in enumerate(preload):
        ex.run(client.insert(key, f"seed{i}".encode()))
    log = []
    for op, key, value in ops:
        if op == "search":
            log.append(("s", ex.run(client.search(key))))
        elif op == "insert":
            log.append(("i", ex.run(client.insert(key, value))))
        elif op == "update":
            log.append(("u", ex.run(client.update(key, value))))
        elif op == "delete":
            log.append(("d", ex.run(client.delete(key))))
        else:
            log.append(("c", ex.run(client.scan_count(key, 6))))
    return cluster, index, client, log


@pytest.mark.parametrize("kind,dist,mix,seed", DIFF_CASES,
                         ids=[f"{k}-{d}-{m}-{s}"
                              for k, d, m, s in DIFF_CASES])
def test_locator_differential_identity(kind, dist, mix, seed):
    preload, ops = _script(kind, dist, mix, seed,
                           value_sizes=(8, 24, 56, 120))
    _c0, _i0, _cl0, plain = _run_sphinx(False, preload, ops)
    cluster, index, client, with_loc = _run_sphinx(True, preload, ops)
    assert with_loc == plain, (
        f"{kind}/{dist}/{mix} seed={seed}: locator changed a result")
    counters = client.counters()
    # Every search consults the locator first, so the fast path ran.
    assert counters["locator_hits"] + counters["locator_misses"] > 0
    report = check_index(cluster, index)
    assert report.clean, (
        f"{kind}/{dist}/{mix} seed={seed}: fsck found "
        f"{report.findings!r} with the locator on")


def test_locator_counters_only_when_enabled():
    """Locator-disabled clients keep the exact pre-locator counter
    shape (BENCH baselines and dashboards depend on it)."""
    preload, ops = _script("u64", "uniform", "balanced", 0,
                           value_sizes=(8,))
    _c, _i, plain_client, _log = _run_sphinx(False, preload, ops[:20])
    _c, _i, loc_client, _log = _run_sphinx(True, preload, ops[:20])
    plain_keys = set(plain_client.counters().as_dict())
    loc_keys = set(loc_client.counters().as_dict())
    assert "locator_hits" not in plain_keys
    assert {"locator_hits", "locator_misses",
            "locator_fallbacks"} <= loc_keys


# ---------------------------------------------------------------------------
# Outback vs the B+ oracle (and a dict model)
# ---------------------------------------------------------------------------

def _build_outback():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    # Low rebuild threshold: at property-test scale the delta overflows
    # every few dozen inserts, so each run crosses several seeded MPH
    # rebuilds instead of living entirely in the delta map.
    index = OutbackIndex(cluster, OutbackConfig(rebuild_min=16))
    return cluster, index, index.client(0), cluster.direct_executor()


def _build_bplus(key_width):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = BplusIndex(cluster, BplusConfig(key_width=key_width))
    return cluster, index, index.client(0), cluster.direct_executor()


@pytest.mark.parametrize("kind,dist,seed", OUTBACK_CASES,
                         ids=[f"{k}-{d}-{s}" for k, d, s in OUTBACK_CASES])
def test_outback_agrees_with_bplus_oracle(kind, dist, seed):
    preload, ops = _script(kind, dist, "balanced", seed,
                           value_sizes=(8, 24, 56))
    _oc, oindex, oclient, oex = _build_outback()
    key_width = 8 if kind == "u64" else 32
    _bc, _bindex, bclient, bex = _build_bplus(key_width)
    model = {}
    ever_deleted = set()
    for i, key in enumerate(preload):
        val = f"seed{i}".encode()
        oex.run(oclient.insert(key, val))
        bex.run(bclient.insert(key, val))
        model[key] = val
    for step, (op, key, value) in enumerate(ops):
        tag = f"{kind}/{dist} seed={seed} step={step}"
        mirror = key not in ever_deleted
        if op == "search":
            got = oex.run(oclient.search(key))
            assert got == model.get(key), f"{tag}: search diverged"
            if mirror:
                assert bex.run(bclient.search(key)) == got, (
                    f"{tag}: outback and bplus disagree on search")
        elif op == "insert":
            was_new = oex.run(oclient.insert(key, value))
            assert was_new == (key not in model), f"{tag}: insert flag"
            if mirror:
                bex.run(bclient.insert(key, value))
            model[key] = value
        elif op == "update":
            found = oex.run(oclient.update(key, value))
            assert found == (key in model), f"{tag}: update flag"
            if mirror:
                assert bex.run(bclient.update(key, value)) == found, (
                    f"{tag}: outback and bplus disagree on update")
            if found:
                model[key] = value
        elif op == "delete":
            removed = oex.run(oclient.delete(key))
            assert removed == (key in model), f"{tag}: delete flag"
            model.pop(key, None)
            ever_deleted.add(key)       # bplus has no delete: stop mirror
        else:
            pairs = oex.run(oclient.scan_count(key, 6))
            expect = sorted(k for k in model if k >= key)[:6]
            assert [k for k, _v in pairs] == expect, f"{tag}: scan window"
            for k, v in pairs:
                assert v == model[k], f"{tag}: scan value"
    # Every committed never-deleted key: outback == bplus == model.
    for key, val in sorted(model.items()):
        got = oex.run(oclient.search(key))
        assert got == val, f"final: outback lost {key!r}"
        if key not in ever_deleted:
            assert bex.run(bclient.search(key)) == val, (
                f"final: bplus oracle disagrees on {key!r}")
    # Deleted keys stay deleted in outback (directory is authoritative).
    for key in sorted(ever_deleted - set(model)):
        assert oex.run(oclient.search(key)) is None, (
            f"final: outback resurrected {key!r}")
    # The mixed run exercised the incremental-rebuild machinery: the
    # directory exists and point lookups route through MPH slots.
    counters = oclient.counters().as_dict()
    assert counters["searches"] > 0
    assert oindex.rebuilds >= 1 and oindex.directory is not None
