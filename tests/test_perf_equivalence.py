"""Determinism and fast/slow-path equivalence of the benchmark grid.

The engine's zero-delay FIFO fast path and the harness's snapshot-restore
grid are performance features: they must not change a single simulated
digit.  These tests pin that down:

* identical ``RunResult.row()`` (and raw latency samples) across repeated
  runs of one cell at a fixed seed;
* identical rows between the fast engine and the reference heap-only
  engine (``REPRO_SIM_SLOW=1``);
* validated ``REPRO_BENCH_*`` environment overrides (ConfigError naming
  the variable, never a bare ValueError).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.bench import CellSpec, clear_setup_caches, run_cell, run_grid
from repro.bench.harness import _env_int
from repro.bench.perftrack import SIM_FIELDS, TRACKER, PerfTracker, \
    CELL_ID_FIELDS, compare, load_report
from repro.bench.perftrack import main as perftrack_main
from repro.bench.rackfig import rack_family
from repro.errors import ConfigError

TINY = dict(num_keys=900, ops=120, workers=6, warmup_ops_per_cn=60)

CELLS = [
    CellSpec(system="Sphinx", dataset="u64", workload="LOAD", **TINY),
    CellSpec(system="Sphinx", dataset="u64", workload="A", **TINY),
    CellSpec(system="ART", dataset="u64", workload="C", **TINY),
]


@pytest.fixture(autouse=True)
def _fresh_snapshots():
    clear_setup_caches()
    yield
    clear_setup_caches()


# -- determinism -----------------------------------------------------------

def test_run_cell_bit_identical_across_repeats():
    first = run_cell(CELLS[1])
    second = run_cell(CELLS[1])
    assert first.row() == second.row()
    assert first.sim_ns == second.sim_ns
    assert first.latency.samples == second.latency.samples
    assert first.op_stats.round_trips == second.op_stats.round_trips
    assert first.op_stats.messages == second.op_stats.messages


def test_run_cell_independent_of_prior_cells():
    """A cell's result must not depend on which cells ran before it."""
    alone = run_cell(CELLS[2])
    clear_setup_caches()
    for cell in CELLS[:2]:
        run_cell(cell)
    after_others = run_cell(CELLS[2])
    assert alone.row() == after_others.row()
    assert alone.latency.samples == after_others.latency.samples


def test_seed_changes_results():
    base = run_cell(CELLS[1])
    reseeded = run_cell(CellSpec(system="Sphinx", dataset="u64",
                                 workload="A", seed=7, **TINY))
    assert base.latency.samples != reseeded.latency.samples


# -- fast engine vs reference heap engine ---------------------------------

def test_fast_engine_matches_slow_reference(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_SLOW", raising=False)
    fast = [r.row() for r in run_grid(CELLS)]
    fast_samples = None
    clear_setup_caches()
    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    slow_results = run_grid(CELLS)
    slow = [r.row() for r in slow_results]
    assert fast == slow
    # Spot-check beyond the row summary: the full latency distribution.
    clear_setup_caches()
    monkeypatch.delenv("REPRO_SIM_SLOW")
    fast_samples = run_cell(CELLS[0]).latency.samples
    clear_setup_caches()
    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    assert run_cell(CELLS[0]).latency.samples == fast_samples


def test_datasets_identical_across_processes():
    """Dataset construction must not depend on PYTHONHASHSEED.

    ``make_email_dataset`` collects unique keys in a str set; iterating
    that set follows the per-process hash seed, so without the explicit
    sort every process would build a differently-ordered dataset (and
    thus different trees and different measured numbers).  Run the same
    tiny build under three hash seeds and demand one unique digest.
    """
    script = (
        "import hashlib\n"
        "from repro.ycsb.datasets import make_dataset\n"
        "for name in ('u64', 'email'):\n"
        "    d = make_dataset(name, 400, seed=2, insert_pool=100)\n"
        "    h = hashlib.sha256(b''.join(d.keys + d.insert_pool))\n"
        "    print(name, h.hexdigest())\n"
    )
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, f"hash-seed-dependent datasets: {outputs}"


# -- environment override validation --------------------------------------

def test_env_int_accepts_valid_values(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_KEYS", "15000")
    assert _env_int("REPRO_BENCH_KEYS", 60_000) == 15_000
    monkeypatch.delenv("REPRO_BENCH_KEYS")
    assert _env_int("REPRO_BENCH_KEYS", 60_000) == 60_000
    monkeypatch.setenv("REPRO_BENCH_KEYS", "  ")
    assert _env_int("REPRO_BENCH_KEYS", 60_000) == 60_000


@pytest.mark.parametrize("name", ["REPRO_BENCH_KEYS", "REPRO_BENCH_OPS"])
def test_env_int_rejects_garbage(monkeypatch, name):
    monkeypatch.setenv(name, "lots")
    with pytest.raises(ConfigError, match=name):
        _env_int(name, 100)


def test_env_int_rejects_out_of_range(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_KEYS", "0")
    with pytest.raises(ConfigError, match="REPRO_BENCH_KEYS"):
        _env_int("REPRO_BENCH_KEYS", 60_000)
    monkeypatch.setenv("REPRO_BENCH_OPS", "-2")
    with pytest.raises(ConfigError, match="REPRO_BENCH_OPS"):
        _env_int("REPRO_BENCH_OPS", 4_800)


# -- perftrack -------------------------------------------------------------

def test_perf_records_and_report(tmp_path):
    tracker = PerfTracker()
    result = run_cell(CELLS[1])
    tracker.add(result)
    report = tracker.report()
    assert report["schema"] == "BENCH_2"
    assert len(report["cells"]) == 1
    cell = report["cells"][0]
    assert cell["system"] == "Sphinx" and cell["workload"] == "A"
    assert cell["sim_ns"] == result.sim_ns
    assert cell["throughput_mops"] == round(result.throughput_mops, 4)
    path = tmp_path / "BENCH_2.json"
    tracker.write(str(path))
    assert json.loads(path.read_text()) == report


def test_tiny_grid_report_is_its_own_baseline(tmp_path):
    """A report holds exactly cell id + simulated fields - the committed
    baseline format - and passes the gate against itself."""
    tracker = PerfTracker()
    for result in [run_cell(cell) for cell in CELLS]:
        tracker.add(result)
    path = tmp_path / "BENCH_2.json"
    report = tracker.write(str(path))
    assert set(report) == {"schema", "cells"}
    assert len(report["cells"]) == len(CELLS)
    for cell in report["cells"]:
        assert set(cell) == set(CELL_ID_FIELDS + SIM_FIELDS)
    messages, failed = compare(report, load_report(str(path)))
    assert not failed
    assert messages == [f"identity gate OK: {len(CELLS)} of {len(CELLS)} "
                        f"cells compared on sim_ns/throughput_mops"]


def _cell(system, workload, *, sim_ns=1000, mops=1.5, wall=None):
    """A gate record; ``wall`` adds the host fields older reports carried,
    which the gate must ignore."""
    cell = {"system": system, "dataset": "u64", "workload": workload,
            "workers": 6, "ops": 120, "sim_ns": sim_ns,
            "throughput_mops": mops}
    if wall is not None:
        cell.update(wall_s=wall, events=1000)
    return cell


def _report(*cells):
    return {"schema": "BENCH_2", "cells": list(cells)}


def test_compare_fails_on_sim_ns_off_by_one():
    base = _report(_cell("Sphinx", "A"), _cell("ART", "C"))
    cur = _report(_cell("Sphinx", "A"), _cell("ART", "C", sim_ns=1001))
    messages, failed = compare(cur, base)
    assert failed
    moved = [m for m in messages if "MOVED" in m]
    assert len(moved) == 1
    assert "ART/u64/C" in moved[0] and "sim_ns 1000 -> 1001" in moved[0]


def test_compare_fails_on_moved_throughput_with_identical_wall():
    base = _report(_cell("Sphinx", "A", wall=1.0))
    cur = _report(_cell("Sphinx", "A", mops=1.4999, wall=1.0))
    messages, failed = compare(cur, base)
    assert failed
    assert any("Sphinx/u64/A" in m and "throughput_mops" in m
               for m in messages)


def test_compare_passes_on_10x_wall_with_identical_simulated_fields():
    base = _report(_cell("Sphinx", "A", wall=1.0), _cell("ART", "C", wall=1.0))
    cur = _report(_cell("Sphinx", "A", wall=10.0),
                  _cell("ART", "C", wall=10.0))
    messages, failed = compare(cur, base)
    assert not failed
    assert messages == ["identity gate OK: 2 of 2 cells compared on "
                        "sim_ns/throughput_mops"]


def test_compare_tolerates_new_cells():
    base = _report(_cell("Sphinx", "A"))
    cur = _report(_cell("Sphinx", "A"), _cell("ART", "C", sim_ns=7, mops=9.9))
    messages, failed = compare(cur, base)
    assert not failed
    # The new cell has no baseline: it is named, and it is not gated.
    assert any("ART/u64/C" in m and "no baseline" in m for m in messages)
    assert any("1 of 2 cells compared" in m for m in messages)


def test_compare_tolerates_baselines_without_host_fields():
    """A report carrying host fields still gates against a gate-record
    baseline, on the simulated fields alone."""
    full = _report(_cell("Sphinx", "A", wall=1.0), _cell("ART", "C", wall=2.0))
    base = _report(_cell("Sphinx", "A"), _cell("ART", "C"))
    messages, failed = compare(full, base)
    assert not failed
    full["cells"][1]["sim_ns"] += 1
    messages, failed = compare(full, base)
    assert failed and any("ART/u64/C" in m for m in messages)


BASELINES = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


@pytest.mark.parametrize("name,cells", [("BENCH_2", 48), ("BENCH_LOC", 6),
                                        ("BENCH_RACK", 3)])
def test_committed_baselines_carry_no_host_fields(name, cells):
    """A committed baseline is what ``--perf-out`` writes: cell id +
    simulated fields only."""
    report = load_report(str(BASELINES / f"{name}.baseline.json"))
    assert set(report) == {"schema", "cells"}
    assert len(report["cells"]) == cells
    for cell in report["cells"]:
        assert set(cell) == set(CELL_ID_FIELDS + SIM_FIELDS)


def test_gate_cli_names_the_moved_cell(tmp_path, capsys):
    baseline = load_report(str(BASELINES / "BENCH_RACK.baseline.json"))
    current = tmp_path / "BENCH_RACK.json"
    current.write_text(json.dumps(baseline))
    committed = str(BASELINES / "BENCH_RACK.baseline.json")
    assert perftrack_main([str(current), "--compare", committed]) == 0
    baseline["cells"][2]["sim_ns"] += 1
    current.write_text(json.dumps(baseline))
    assert perftrack_main([str(current), "--compare", committed]) == 1
    out = capsys.readouterr().out
    assert "Rack+Rep1/u64/A/64/8000: sim_ns" in out
    assert "identity gate FAILED" in out


def test_rack_and_grid_cells_share_one_perf_record():
    """Both families feed the tracker the same record shape, built from
    the run's result, and a rack figure's digest is each cell's
    ``RackRunResult.rows()``."""
    tracked = len(TRACKER.cells)
    run_grid(CELLS[1:2])
    figure = rack_family(num_cns=2, num_mns=4, group_size=2, num_shards=8,
                         clients=4, tenants=2, num_keys=300, ops=80,
                         rebalance=False)
    grid, rack = TRACKER.cells[tracked:]
    assert set(rack) == set(grid) == set(CELL_ID_FIELDS + SIM_FIELDS)
    steady = figure.results["steady"]
    assert rack["system"] == "Rack"
    assert rack["sim_ns"] == steady.result.sim_ns
    assert figure.digest() == {"steady": steady.rows()}
    assert figure.fsck_exits == {"steady": steady.fsck_exit}
