#!/usr/bin/env python3
"""Append one row per PR to benchmarks/results/TRAJECTORY.json.

    python3 benchmarks/e2e/run.py --workload W --seed 0 --trace 0 --out W.0.json
    python3 benchmarks/e2e/run.py --workload W --seed 0 --trace 1 --out W.1.json
    python3 benchmarks/trajectory.py --pr 14 --parent <commit> \\
            [--checkout <dir measured>] *.json

Only *reads* ``run.py --out`` reports (both ``--trace`` modes of every
workload, same seed and ``--seconds`` on every row) and never rewrites a
row already there.  A row is one run of each workload, not a median: the
compare recipe in benchmarks/e2e/README.md is what backs a claim.
"""

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "results" / "TRAJECTORY.json"
END_TO_END = ("host_ops_per_s", "setup_s", "peak_rss_mb")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the tree the reports measured (for src LOC)")
    parser.add_argument("reports", nargs="+", type=Path)
    args = parser.parse_args()
    row = {"pr": args.pr, "parent": args.parent, "workloads": {},
           "src_loc": sum(len(p.read_text().splitlines()) for p in
                          (args.checkout / "src" / "repro").rglob("*.py"))}
    for path in args.reports:
        report = json.loads(path.read_text())
        run = {"seed": report["seed"], "seconds": report["seconds"]}
        if run != {name: row.setdefault(name, run[name]) for name in run}:
            parser.error(f"{path}: seed / --seconds differ from the others")
        cell = row["workloads"].setdefault(report["workload"], {})
        value = {name: m["value"] for name, m in report["metrics"].items()}
        if report["trace"]:
            cell["events_per_host_s"] = value["sim.engine.events_per_host_s"]
            cell["layer_share"] = {layer: round(share, 4) for layer, share
                                   in report["layer_share"].items()}
        else:
            cell.update({name: value[name] for name in END_TO_END})
            cell["setup_s_first"] = report["setup_s_all"][0]
            cell["sim_digest"] = report["sim_digest"]
    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    if any(old["pr"] == args.pr for old in rows):
        parser.error(f"TRAJECTORY.json already has a row for PR {args.pr}")
    TRAJECTORY.write_text(json.dumps(rows + [row], indent=1) + "\n")
    print(f"PR {args.pr}: {len(row['workloads'])} workloads, "
          f"{row['src_loc']} lines under src/repro -> {TRAJECTORY}")


if __name__ == "__main__":
    main()
