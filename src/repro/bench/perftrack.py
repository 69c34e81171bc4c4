"""Per-cell benchmark records and the simulated-result identity gate.

Every grid cell executed through :func:`repro.bench.harness.run_grid`
(and every rack cell) contributes one record: its id (system, dataset,
workload, workers, ops) and its *simulated* outcome (``sim_ns``,
``throughput_mops``).  The session report is written as
``BENCH_2.json``, in the very format of a committed baseline::

    {
      "schema": "BENCH_2",
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
box and in both engine modes - so the gate is deterministic.  Host time
is the other question, with its own calibrated benchmark
(``benchmarks/e2e``); no record here carries it.  Refreshing a baseline
after the model moved is a copy of the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

SCHEMA = "BENCH_2"

CELL_ID_FIELDS = ("system", "dataset", "workload", "workers", "ops")
#: What the gate compares: a cell's simulated outcome.
SIM_FIELDS = ("sim_ns", "throughput_mops")


class PerfTracker:
    """Accumulates the per-cell gate records of one process/session."""

    def __init__(self) -> None:
        self.cells: List[dict] = []

    def add(self, result) -> None:
        """Record one finished cell's :class:`RunResult`: its id and its
        simulated outcome."""
        record = {f: getattr(result, f) for f in CELL_ID_FIELDS}
        record["sim_ns"] = result.sim_ns
        record["throughput_mops"] = round(result.throughput_mops, 4)
        self.cells.append(record)

    def report(self) -> dict:
        return {"schema": SCHEMA, "cells": list(self.cells)}

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
    return tuple(cell.get(f) for f in CELL_ID_FIELDS)


def _cell_name(cell: dict) -> str:
    return "/".join(str(part) for part in _cell_id(cell))


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(current: dict, baseline: dict) -> Tuple[List[str], bool]:
    """Diff two BENCH reports.

    Returns ``(messages, failed)``.  ``failed`` is True iff a cell
    present in both reports differs in a simulated field; each such cell
    is named.  Cells without a baseline are named and not gated.
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
    return messages, failed


def gate(current: dict, baseline_path: str) -> int:
    """Print :func:`compare` against the baseline file; the exit status."""
    messages, failed = compare(current, load_report(baseline_path))
    print("\n".join(messages))
    return int(failed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perftrack",
        description="Summarize or diff BENCH_2.json cell reports.")
    parser.add_argument("report", help="current BENCH_2.json")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline BENCH_2.json; exit 1 if a shared "
                             "cell's simulated result differs")
    args = parser.parse_args(argv)
    current = load_report(args.report)
    print(f"{args.report}: {len(current.get('cells', ()))} cells")
    return gate(current, args.compare) if args.compare else 0


if __name__ == "__main__":
    sys.exit(main())
