"""Per-cell benchmark records and the simulated-result identity gate.

Every grid cell executed through :func:`repro.bench.harness.run_grid`
(and every rack cell) contributes one record: its id (system, dataset,
workload, workers, ops), its *simulated* outcome (``sim_ns``,
``throughput_mops``) and what producing it cost the *host* (wall
seconds, engine events, events per wall second, engine mode).  The
session report is written as ``BENCH_2.json``::

    {
      "schema": "BENCH_2",
      "total_wall_s": 41.2,
      "cells": [
        {"system": "Sphinx", "dataset": "u64", "workload": "A", ...},
        ...
      ]
    }

``compare`` (also the module CLI) is the regression gate, and it has one
rule: **no simulated digit moved**.  A cell present in both reports must
carry the same ``sim_ns`` and ``throughput_mops``::

    python -m repro.bench.perftrack BENCH_2.json --compare baseline.json

The simulated result is the reproducible artefact - identical on every
box and in both engine modes - so the gate is deterministic.  Host
fields are a trend and never gate; host time has its own calibrated
benchmark (``benchmarks/e2e``, ``TRAJECTORY.json``).  The committed
baselines are :func:`strip_host` projections (cell id + simulated
fields), so a host-only change never regenerates them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

SCHEMA = "BENCH_2"

_CELL_ID_FIELDS = ("system", "dataset", "workload", "workers", "ops")
#: What the gate compares: a cell's simulated outcome.
SIM_FIELDS = ("sim_ns", "throughput_mops")


def perf_record(result, engine, wall_s: float, run_wall_s: float,
                events: int) -> dict:
    """The ``RunResult.perf`` record of one finished cell.

    ``wall_s`` is the whole cell (restore/build included), ``run_wall_s``
    the measured phase alone; ``events_per_s`` is events per *run* wall
    second - the engine dispatch-rate metric, which restore time would
    pollute - and ``engine_mode`` names the engine that ran.
    """
    return {
        "wall_s": round(wall_s, 4),
        "run_wall_s": round(run_wall_s, 4),
        "events": events,
        "events_per_s": round(events / run_wall_s) if run_wall_s > 0 else 0,
        "engine_mode": "slow" if engine._slow else "fast",
        "sim_ns": result.sim_ns,
        "throughput_mops": round(result.throughput_mops, 4),
    }


class PerfTracker:
    """Accumulates per-cell host perf records for one process/session."""

    def __init__(self) -> None:
        self.cells: List[dict] = []

    def add(self, result) -> None:
        """Record one RunResult whose ``perf`` dict the harness filled."""
        if result is None or getattr(result, "perf", None) is None:
            return
        record = {f: getattr(result, f) for f in _CELL_ID_FIELDS}
        record.update(result.perf)
        self.cells.append(record)

    def report(self) -> dict:
        return {
            "schema": SCHEMA,
            "total_wall_s": round(sum(c["wall_s"] for c in self.cells), 3),
            "total_events": sum(c["events"] for c in self.cells),
            "cells": list(self.cells),
        }

    def write(self, path: str) -> dict:
        report = self.report()
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return report


#: Process-global tracker fed by ``run_grid``; figure CLIs and the
#: benchmark suite's session hook write it out as BENCH_2.json.
TRACKER = PerfTracker()


def _cell_id(cell: dict) -> Tuple:
    return tuple(cell.get(f) for f in _CELL_ID_FIELDS)


def _cell_name(cell: dict) -> str:
    return "/".join(str(part) for part in _cell_id(cell))


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def strip_host(report: dict) -> dict:
    """Project a report down to what a committed baseline keeps: each
    cell's id and simulated fields, no host measurement."""
    keep = _CELL_ID_FIELDS + SIM_FIELDS
    return {"schema": report.get("schema", SCHEMA),
            "cells": [{f: cell[f] for f in keep}
                      for cell in report.get("cells", ())]}


def compare(current: dict, baseline: dict) -> Tuple[List[str], bool]:
    """Diff two BENCH reports.

    Returns ``(messages, failed)``.  ``failed`` is True iff a cell
    present in both reports differs in a simulated field; each such cell
    is named.  Cells without a baseline are named and not gated.  Total
    wall time is reported as a trend when both sides carry it.
    """
    messages: List[str] = []
    failed = False
    base_cells: Dict[Tuple, dict] = {
        _cell_id(c): c for c in baseline.get("cells", ())}
    cells = current.get("cells", ())
    gated = 0
    for cell in cells:
        name = _cell_name(cell)
        base = base_cells.get(_cell_id(cell))
        if base is None:
            messages.append(f"cell {name}: no baseline, not gated")
            continue
        gated += 1
        for field in SIM_FIELDS:
            if cell.get(field) != base.get(field):
                messages.append(f"cell {name}: {field} {base.get(field)}"
                                f" -> {cell.get(field)} MOVED")
                failed = True
    messages.append(f"identity gate {'FAILED' if failed else 'OK'}: {gated} "
                    f"of {len(cells)} cells compared on "
                    f"{'/'.join(SIM_FIELDS)}")
    base_total = baseline.get("total_wall_s", 0)
    cur_total = current.get("total_wall_s", 0)
    if base_total > 0 and cur_total > 0:
        messages.append(
            f"host trend (not gated): total wall {base_total:.2f}s -> "
            f"{cur_total:.2f}s ({cur_total / base_total:.2f}x)")
    return messages, failed


def gate(current: dict, baseline_path: str) -> int:
    """Print :func:`compare` against the baseline file; the exit status."""
    messages, failed = compare(current, load_report(baseline_path))
    print("\n".join(messages))
    return int(failed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perftrack",
        description="Summarize or diff BENCH_2.json perf reports.")
    parser.add_argument("report", help="current BENCH_2.json")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline BENCH_2.json; exit 1 if a shared "
                             "cell's simulated result differs")
    args = parser.parse_args(argv)
    current = load_report(args.report)
    cells = current.get("cells", ())
    print(f"{args.report}: {len(cells)} cells, "
          f"total wall {current.get('total_wall_s', 0):.2f}s, "
          f"{current.get('total_events', 0)} events")
    print(f"{'cell':<40} {'wall_s':>8} {'events':>10} {'events/s':>12}")
    for cell in cells:
        wall = cell.get("wall_s", 0)
        events = cell.get("events", 0)
        rate = cell.get("events_per_s",
                        round(events / wall) if wall else 0)
        print(f"{_cell_name(cell):<40} {wall:>8.3f} {events:>10} "
              f"{rate:>12,}")
    return gate(current, args.compare) if args.compare else 0


if __name__ == "__main__":
    sys.exit(main())
