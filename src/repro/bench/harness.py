"""Experiment harness: build clusters/systems and execute the paper's runs.

Scaling rule (see DESIGN.md): the paper loads 60 M keys and gives SMART/
Sphinx a 20 MB CN cache (SMART+C: 200 MB).  We scale the dataset down and
scale every CN-side budget by the same factor, preserving the
cache-coverage ratios that drive the results:

    budget = 20 MB * (keys / 60 M)          (Sphinx filter, SMART cache)
    budget_C = 10x budget                   (SMART+C)

``REPRO_BENCH_KEYS`` / ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_WORKERS``
environment variables override the default dataset / per-run operation /
worker counts for quicker smoke runs or bigger, higher-fidelity runs.

Grid execution model
--------------------
A figure is a grid of independent **cells** (system x dataset x workload
x scale), each described by a :class:`CellSpec`.  ``run_cell`` makes each
cell a pure function of its spec:

* the bulk-loaded system is built once per (system, dataset, scale) and
  cached as a canonical snapshot (loading dominated the old per-cell
  cost);
* cache warm-up runs once per (snapshot, distribution, warm size, seed)
  on a private copy, also cached;
* the timed run executes against a ``copy.deepcopy`` of the warmed
  snapshot, so no cell observes another cell's mutations.

Because cells are pure, ``run_grid`` can fan them over a fork-based
process pool (``--parallel`` / ``REPRO_BENCH_PARALLEL``) and the rows are
bit-identical to a serial run.
"""

from __future__ import annotations

import copy
import gc
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..baselines import ArtDmIndex, OutbackIndex, SmartConfig, SmartIndex
from ..core import SphinxConfig, SphinxIndex
from ..dm import Cluster, ClusterConfig
from ..errors import ConfigError
from ..ycsb import Dataset, RunResult, bulk_load, make_dataset, run_workload, \
    warm_clients, workload
from .perftrack import TRACKER, perf_record

PAPER_KEYS = 60_000_000
PAPER_CACHE_BYTES = 20 << 20
SMART_C_FACTOR = 10


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    """An integer environment override, validated.

    A malformed or out-of-range value raises :class:`ConfigError` naming
    the offending variable instead of surfacing a bare ``ValueError``
    from ``int()`` deep inside the first benchmark run.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw, 0)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


DEFAULT_KEYS = _env_int("REPRO_BENCH_KEYS", 60_000)
DEFAULT_OPS = _env_int("REPRO_BENCH_OPS", 4_800)
DEFAULT_WORKERS = _env_int("REPRO_BENCH_WORKERS", 192)
# 0 = serial; N > 1 = fan grid cells over N forked worker processes.
DEFAULT_PARALLEL = _env_int("REPRO_BENCH_PARALLEL", 0, minimum=0)

SYSTEMS = ("ART", "SMART", "SMART+C", "Sphinx")

# Opt-in systems: valid in --systems / make_index but outside the default
# grid, so BENCH_2 baselines keep comparing the paper's four systems.
# "Sphinx+Loc" is Sphinx with the CN-side leaf-locator tier grafted on
# (core.leaf_locator); "Outback" is the MPH-directory baseline
# (baselines.outback); "Sphinx-NoFilter" is the filter-cache ablation.
EXTRA_SYSTEMS = ("Sphinx-NoFilter", "Sphinx+Loc", "Outback")


def scaled_cache_bytes(num_keys: int, factor: int = 1) -> int:
    """The paper's 20 MB budget scaled to our dataset size."""
    return max(4_096, int(PAPER_CACHE_BYTES * num_keys / PAPER_KEYS) * factor)


@dataclass
class SystemSetup:
    """A loaded system ready for timed runs."""

    name: str
    cluster: Cluster
    index: object
    dataset: Dataset

    def cn_cache_bytes(self) -> int:
        return sum(self.index.client(cn).cn_cache_bytes()
                   if hasattr(self.index.client(cn), "cn_cache_bytes") else 0
                   for cn in range(self.cluster.config.num_cns))


def make_index(name: str, cluster: Cluster, num_keys: int,
               use_filter: bool = True):
    """Instantiate one of the paper's systems (or an EXTRA_SYSTEMS
    variant) with paper-scaled CN budgets."""
    budget = scaled_cache_bytes(num_keys)
    if name == "ART":
        return ArtDmIndex(cluster)
    if name == "SMART":
        return SmartIndex(cluster, SmartConfig(cache_budget_bytes=budget))
    if name == "SMART+C":
        return SmartIndex(cluster, SmartConfig(
            cache_budget_bytes=budget * SMART_C_FACTOR))
    if name == "Sphinx":
        return SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=budget, use_filter=use_filter))
    if name == "Sphinx-NoFilter":
        return SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=budget, use_filter=False))
    if name == "Sphinx+Loc":
        # The locator tier rides on top of the normal filter cache and
        # gets the same paper-scaled CN budget (its entries are 16 B, so
        # at equal budget it covers a large slice of the hot key set).
        return SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=budget, use_filter=use_filter,
            use_locator=True, locator_budget_bytes=budget))
    if name == "Outback":
        # CN budget is implicit: the MPH directory covers every loaded
        # key at ~12 B/key and rebuilds are seeded from the key set.
        return OutbackIndex(cluster)
    raise ConfigError(f"unknown system {name!r}")


def build_setup(system: str, dataset: Dataset,
                mn_capacity: int = 1 << 30) -> SystemSetup:
    """Create a cluster, instantiate the system and bulk-load the keys."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=mn_capacity))
    index = make_index(system, cluster, dataset.size)
    bulk_load(cluster, index, dataset)
    return SystemSetup(system, cluster, index, dataset)


def timed_run(setup: SystemSetup, workload_name: str, *,
              workers: int = DEFAULT_WORKERS, ops: int = DEFAULT_OPS,
              warmup_ops_per_cn: Optional[int] = None,
              seed: int = 0) -> RunResult:
    """One timed YCSB run against a loaded system."""
    spec = workload(workload_name)
    if warmup_ops_per_cn is None:
        warmup_ops_per_cn = min(2_000, setup.dataset.size // 4)
    return run_workload(setup.cluster, setup.index, spec, setup.dataset,
                        system=setup.name, workers=workers, ops=ops,
                        warmup_ops_per_cn=warmup_ops_per_cn, seed=seed)


def load_dataset(name: str, num_keys: int = DEFAULT_KEYS,
                 insert_fraction: float = 0.3, seed: int = 1) -> Dataset:
    """Dataset plus an insert pool big enough for LOAD/E runs."""
    return make_dataset(name, num_keys, seed=seed,
                        insert_pool=int(num_keys * insert_fraction))


# ---------------------------------------------------------------------------
# Grid cells: snapshot-cached, deterministic, fan-out-able benchmark units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """One benchmark grid cell; ``run_cell`` is a pure function of this."""

    system: str
    dataset: str
    workload: str
    num_keys: int = 60_000
    ops: int = 4_800
    workers: int = 192
    seed: int = 0
    insert_fraction: float = 0.3
    warmup_ops_per_cn: Optional[int] = None
    chaos_seed: Optional[int] = None
    """When set, a ``FaultPlan.chaos(chaos_seed)`` is attached to the
    cell's private cluster copy right before the timed run.  Loading and
    warming stay fault-free (and snapshot-shareable with non-chaos
    cells): the seed is deliberately absent from load_key()/warm_key()."""

    chaos_crashes: bool = False
    """With ``chaos_seed``: extend the chaos mix with crash scenarios
    (``crash_cn`` mid-op client kills and a possible ``crash_mn``).  A
    :class:`repro.recover.RecoveryManager` is attached alongside so the
    run exercises lease reclamation; ``result.crashed_workers`` reports
    how many workers died."""

    profile: bool = False
    """When set, a ``repro.obs.Tracer`` is attached to the cell's private
    cluster copy right before the timed run; ``result.profile`` and
    ``result.trace`` come back filled.  Like ``chaos_seed``, the flag is
    deliberately absent from load_key()/warm_key() - tracing never
    changes what the cell simulates, only what it records."""

    def resolved_warmup(self) -> int:
        if self.warmup_ops_per_cn is not None:
            return self.warmup_ops_per_cn
        return min(2_000, self.num_keys // 4)

    def load_key(self) -> Tuple:
        """Cache key of the bulk-loaded canonical snapshot."""
        return (self.system, self.dataset, self.num_keys,
                self.insert_fraction)

    def warm_key(self) -> Tuple:
        """Cache key of the warmed canonical snapshot.

        Warm-up traffic depends on the request distribution (YCSB-D warms
        under "latest", the rest under zipfian/uniform), the warm size and
        the run seed - not on the workload's operation mix.
        """
        spec = workload(self.workload)
        return self.load_key() + (spec.distribution, self.resolved_warmup(),
                                  self.seed)


# Canonical snapshots, keyed per CellSpec.load_key()/warm_key().  Both hold
# systems that are *never run against*: cells deepcopy them, so every cell
# starts from identical state no matter how many ran before it (that is
# what makes serial and parallel grids bit-identical).  Process-level by
# design - a figure reuses one bulk load across its whole workload row.
#
# Bounded: a full grid visits 8+ (system, dataset) groups, and keeping
# every group's snapshots alive makes each gen-2 GC pass walk tens of
# millions of objects, visibly slowing the *later* groups.  Grids run
# group by group, so a small LRU is enough; eviction only ever costs a
# re-load, never changes a result (run_cell is pure in its CellSpec).
_MAX_LOAD_GROUPS = 2
_loaded_snapshots: Dict[Tuple, SystemSetup] = {}
_warmed_snapshots: Dict[Tuple, SystemSetup] = {}


def clear_setup_caches() -> None:
    """Drop canonical snapshots (tests; also frees their MN memory)."""
    _loaded_snapshots.clear()
    _warmed_snapshots.clear()


def _evict_oldest_group() -> None:
    oldest = next(iter(_loaded_snapshots))
    del _loaded_snapshots[oldest]
    for key in [k for k in _warmed_snapshots if k[:len(oldest)] == oldest]:
        del _warmed_snapshots[key]
    gc.collect()  # snapshot graphs are cyclic (engine <-> processes)


def _loaded_setup(cell: CellSpec) -> SystemSetup:
    key = cell.load_key()
    setup = _loaded_snapshots.get(key)
    if setup is None:
        while len(_loaded_snapshots) >= _MAX_LOAD_GROUPS:
            _evict_oldest_group()
        dataset = load_dataset(cell.dataset, cell.num_keys,
                               insert_fraction=cell.insert_fraction)
        setup = build_setup(cell.system, dataset)
        _loaded_snapshots[key] = setup
    elif next(reversed(_loaded_snapshots)) is not setup:
        del _loaded_snapshots[key]          # LRU refresh: move to the end
        _loaded_snapshots[key] = setup
    return setup


def _warmed_setup(cell: CellSpec) -> SystemSetup:
    key = cell.warm_key()
    setup = _warmed_snapshots.get(key)
    if setup is None:
        setup = copy.deepcopy(_loaded_setup(cell))
        warm_clients(setup.cluster, setup.index, workload(cell.workload),
                     setup.dataset, cell.resolved_warmup(), cell.seed)
        _warmed_snapshots[key] = setup
    return setup


def run_cell(cell: CellSpec) -> RunResult:
    """Execute one grid cell from a pristine loaded-and-warmed snapshot.

    Returns the :class:`RunResult` with ``result.perf`` filled in by
    :func:`repro.bench.perftrack.perf_record`; here ``wall_s`` includes
    snapshot restore and any cache-miss build.
    """
    wall_start = time.perf_counter()
    live = copy.deepcopy(_warmed_setup(cell))
    if cell.chaos_seed is not None:
        from ..fault import FaultPlan
        live.cluster.attach_faults(
            FaultPlan.chaos(cell.chaos_seed, crashes=cell.chaos_crashes))
        if cell.chaos_crashes:
            # Crash cells also run the recovery stack: leases are stamped
            # on every lock CAS and survivors can reclaim orphans.
            live.cluster.attach_recovery()
    tracer = None
    if cell.profile:
        tracer = live.cluster.attach_tracer()
    engine = live.cluster.engine
    events_before = engine.events_processed
    run_start = time.perf_counter()
    result = run_workload(live.cluster, live.index, workload(cell.workload),
                          live.dataset, system=cell.system,
                          workers=cell.workers, ops=cell.ops,
                          warmup_ops_per_cn=0, seed=cell.seed)
    wall_end = time.perf_counter()
    result.perf = perf_record(result, engine, wall_end - wall_start,
                              wall_end - run_start,
                              engine.events_processed - events_before)
    if tracer is not None:
        from ..obs import profile_summary
        tracer.finish()  # drops live refs: results stay pool-picklable
        result.profile = profile_summary(tracer)
        result.trace = tracer
    return result


def _run_cell_batch(batch: List[CellSpec]) -> List[RunResult]:
    """Pool worker: run one snapshot group's cells (shares its bulk load)."""
    return [run_cell(cell) for cell in batch]


def run_grid(cells: Iterable[CellSpec],
             parallel: Optional[int] = None) -> List[RunResult]:
    """Run a grid of cells, serially or over a fork-based process pool.

    ``parallel`` defaults to ``REPRO_BENCH_PARALLEL`` (0 = serial).  Cells
    are grouped by loaded-snapshot key so each worker process bulk-loads a
    (system, dataset) once; results come back in input order and are
    bit-identical to a serial run because every cell restores a pristine
    snapshot.  Per-cell host perf lands on ``result.perf`` and is fed to
    :mod:`repro.bench.perftrack` for BENCH reports.
    """
    cells = list(cells)
    if parallel is None:
        parallel = DEFAULT_PARALLEL
    if parallel and parallel > 1 and len(cells) > 1:
        groups: Dict[Tuple, List[int]] = {}
        for i, cell in enumerate(cells):
            groups.setdefault(cell.load_key(), []).append(i)
        index_groups = list(groups.values())
        batches = [[cells[i] for i in idxs] for idxs in index_groups]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(parallel, len(batches))) as pool:
            batch_results = pool.map(_run_cell_batch, batches)
        results: List[Optional[RunResult]] = [None] * len(cells)
        for idxs, batch in zip(index_groups, batch_results):
            for i, result in zip(idxs, batch):
                results[i] = result
    else:
        # Serial path: cells allocate millions of short-lived simulation
        # objects while the cached snapshots pin tens of millions of
        # long-lived ones, so automatic gen-2 collections trigger often
        # and walk the whole snapshot graph each time.  Collect once per
        # cell instead - same reclamation, a fraction of the passes.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            results = []
            for cell in cells:
                results.append(run_cell(cell))
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
    for result in results:
        TRACKER.add(result)
    return results
