#!/usr/bin/env python3
"""The repo's benchmark: one command, both clocks.

    python3 benchmarks/e2e/run.py --workload <name|all> --seed <n>
            [--seconds <s>] [--trace <0|1>] [--scale <full|smoke>]
            [--out <file.json>]
    python3 benchmarks/e2e/run.py --aa [--out <file.json>]
    python3 benchmarks/e2e/run.py --self-test

``--trace 0`` builds the system, runs the workload, verifies the outputs
and prints every end-to-end metric; ``--trace 1`` repeats it untraced and
under cProfile and prints every per-layer metric.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Exit status is non-zero when verification
finds something unrepairable.  README.md explains every name.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"
ENV_REFUSED = re.compile(r"^REPRO_(SIM_|BENCH_|SAN$)")
SETUPS = 3           # set-ups per full-scale run; setup_s is their median


def _import_system() -> None:
    """Put ``src/`` on the path and import the benchmark's modules."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no system to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    refused = sorted(name for name in os.environ if ENV_REFUSED.match(name))
    if refused:
        sys.exit("run.py: refusing to run with " + ", ".join(refused)
                 + " set: two commits must compare the same engine mode")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    global cells, layers, metrics
    import cells
    import layers
    import metrics


def contract() -> Dict:
    return json.loads(CONTRACT.read_text())


# ---------------------------------------------------------------------------
# One workload, one pass
# ---------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool,
            scale: str) -> Dict:
    cell = cells.SCALES[scale][workload]
    report: Dict = {"workload": workload, "seed": seed, "scale": scale,
                    "trace": int(trace), "seconds": seconds,
                    "sizes": dataclasses.asdict(cell)}
    if not trace:
        run = cells.run_cell(cell, seed, seconds,
                             setups=SETUPS if scale == "full" else 1)
        values = metrics.end_to_end(run)
        registry = metrics.END_TO_END
    else:
        run = cells.run_cell(cell, seed, 0, extras=True)
        profile = cProfile.Profile()
        traced = cells.run_cell(cell, seed, 0, profile=profile)
        attribution = layers.attribute(profile)
        values = metrics.per_layer(run, traced, attribution)
        registry = metrics.PER_LAYER
        report["traced_sim_digest"] = traced.sim_digest()
        if traced.sim_digest() != run.sim_digest(traced.fixed):
            run.fatal.append("profiling moved simulated time: traced "
                             "sim_digest differs from untraced")
        total = attribution["total_self_s"]
        report["layer_share"] = {
            layer: totals["self_s"] / total
            for layer, totals in attribution["layers"].items()}
        report["top_functions"] = attribution["top"]
    if workload == "sphinx-c" and scale == "full" and seed == 0 \
            and run.rounds[0].sim_ns != cells.ANCHOR_SIM_NS:
        run.fatal.append(f"anchor: round 0 sim_ns {run.rounds[0].sim_ns} "
                         f"!= {cells.ANCHOR_SIM_NS} (BENCH_2 baseline)")
    rates = metrics.round_rates(run)
    report.update({
        # Repairable findings (a stale INHT hint at rest, say) are
        # reported, not fatal: the outputs were still all correct.
        "correct": not run.fatal and not run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "fatal": run.fatal,
        "integrity_findings": run.findings,
        "sim_digest": run.sim_digest(),
        "latency_samples": sum(len(r.latency) for r in run.window),
        "rounds": len(run.rounds),
        "fixed_rounds": run.fixed,
        "round_ops_per_s": rates,
        "round_ops_per_s_quartiles": metrics.quartiles(rates),
        "setup_s_all": run.setup_s,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in registry},
    })
    return report


def render(report: Dict) -> str:
    """Every metric by name, with unit, direction and bound."""
    trace = report["trace"]
    registry = metrics.PER_LAYER if trace else metrics.END_TO_END
    lines = [f"== {report['workload']}  seed {report['seed']}  "
             f"scale {report['scale']}  "
             f"{'per-layer (traced)' if trace else 'end-to-end'} =="]
    for m in registry:
        value = report["metrics"][m.name]["value"]
        tail = f"moves {m.moves[0]} on {m.moves[1]}" if m.moves \
            else f"bound {m.bound:.0%}"
        lines.append(f"{m.name:<36} {value:>16.6g} {m.unit:<10} "
                     f"{m.better + ' is better':<17} {tail}")
    if trace:
        shares = sorted(report["layer_share"].items(), key=lambda kv: -kv[1])
        lines.append("host self-time shares: " + "  ".join(
            f"{layer} {share:.1%}" for layer, share in shares))
    q = report["round_ops_per_s_quartiles"]
    lines.append(
        f"rounds {report['rounds']} ({report['fixed_rounds']} in the fixed "
        f"window), host ops/s quartiles "
        + " / ".join(f"{v:.0f}" for v in q)
        + f"; {report['latency_samples']} latency samples; "
        f"sim_digest {report['sim_digest'][:16]}")
    lines.append(f"verify: {report['integrity_findings']} integrity "
                 f"findings, {report['failed']} of {report['attempted']} "
                 "ops failed" + "".join(f"\n  FATAL {f}"
                                        for f in report["fatal"]))
    lines.append("simulated metrics: model unvalidated, see EXPERIMENTS.md "
                 "(no hardware reference in the repo, so no error figure)")
    return "\n".join(lines)


def result_line(report: Dict) -> str:
    return json.dumps({key: report[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ---------------------------------------------------------------------------
# --aa: two full sets of the same code must agree
# ---------------------------------------------------------------------------

def environment() -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def _child(workload: str, seed: int, seconds: float, trace: int,
           tmp: str) -> Dict:
    out = os.path.join(tmp, f"{workload}.{trace}.json")
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", out],
        check=True, stdout=subprocess.DEVNULL)
    with open(out) as handle:
        report = json.load(handle)
    report.pop("top_functions", None)  # --out keeps them; the baseline is
    return report                      # about numbers, not function names


def aa_differences(first: Dict, second: Dict) -> List[str]:
    """Where two sets of the same code disagree by more than the
    benchmark's own bounds allow."""
    registry = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}
    problems = []
    for workload in first:
        for trace in ("0", "1"):
            a, b = first[workload][trace], second[workload][trace]
            if a["sim_digest"] != b["sim_digest"]:
                problems.append(f"{workload}: sim_digest differs")
            for name, entry in a["metrics"].items():
                x, y = entry["value"], b["metrics"][name]["value"]
                metric = registry[name]
                if metric.exact:
                    if x != y:
                        problems.append(f"{workload}: {name} {x!r} != {y!r}")
                elif metric.bound is not None \
                        and abs(x - y) > metric.bound * min(x, y):
                    problems.append(
                        f"{workload}: {name} {x:.6g} vs {y:.6g} differ by "
                        f"more than {metric.bound:.0%}")
    return problems


def run_aa(seed: int, seconds: float, out: Optional[str]) -> int:
    names = [w["name"] for w in contract()["workloads"]]
    sets = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for order in (names, names[::-1]):  # alternate the workload order
            env = environment()
            sets.append({"environment": env, "workloads": {
                name: {str(trace): _child(name, seed, seconds, trace, tmp)
                       for trace in (0, 1)}
                for name in order}})
            print(f"set {len(sets)} done, loadavg {os.getloadavg()[0]:.2f}",
                  flush=True)
    problems = aa_differences(sets[0]["workloads"], sets[1]["workloads"])
    baseline = {"what": "two full sets of runs of one commit (A/A)",
                "seed": seed, "seconds": seconds, "agree": not problems,
                "differences": problems, "sets": sets}
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(baseline, indent=1) + "\n")
    print("\n".join(problems) if problems
          else "A/A: both sets agree within the benchmark's own bounds")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# --self-test
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract_problems(spec: Dict) -> List[str]:
    """BENCHMARK.json against the contract's limits and this registry."""
    bad = []
    if sorted(spec) != ["command", "end_to_end", "paths", "per_layer",
                        "run_seconds", "workloads"]:
        bad.append(f"keys are {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        bad.append("need 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        bad.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        bad.append("need 1 to 128 per-layer metrics")
    if not isinstance(spec["run_seconds"], int) \
            or not 1 <= spec["run_seconds"] <= 60:
        bad.append("run_seconds must be a whole number from 1 to 60")
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer") for entry in spec[kind]]
    bad += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    bad += [f"name {n!r} used twice" for n in set(names)
            if names.count(n) > 1]
    for entry in spec["workloads"]:
        if sorted(entry) != ["name", "why"] or len(entry["why"]) > 200 \
                or "\n" in entry["why"]:
            bad.append(f"workload {entry.get('name')!r}: need a name and a "
                       "one-line why of at most 200 characters")
    if [w["name"] for w in spec["workloads"]] != list(cells.SCALES["full"]):
        bad.append("workloads differ from cells.SCALES")
    for kind, registry in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        want = []
        for m in registry:
            entry = {"name": m.name, "unit": m.unit, "better": m.better}
            if kind == "end_to_end":
                entry["bound"] = m.bound
                if not 0 <= m.bound <= 0.25:
                    bad.append(f"{m.name}: bound outside [0, 0.25]")
            elif m.moves is None or m.moves[1] not in cells.SCALES["full"] \
                    or m.moves[0] not in [e.name for e in metrics.END_TO_END]:
                bad.append(f"{m.name}: names no end-to-end metric and "
                           "workload it should move")
            if not UNIT.match(m.unit) or m.better not in ("higher", "lower"):
                bad.append(f"{m.name}: bad unit or direction")
            want.append(entry)
        if spec[kind] != want:
            bad.append(f"{kind} differs from the registry in metrics.py")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s (s, lower) is missing")
    if len(CONTRACT.read_bytes()) > 64 << 10:
        bad.append("BENCHMARK.json is larger than 64 KiB")
    return bad


def self_test() -> int:
    problems = contract_problems(contract())
    for workload in cells.SCALES["smoke"]:
        for trace in (False, True):
            report = run_one(workload, 0, 0, trace, "smoke")
            label = f"{workload} --trace {int(trace)}"
            if not report["correct"]:
                problems.append(f"{label}: not correct: {report['fatal']}")
            for name, entry in report["metrics"].items():
                if not math.isfinite(entry["value"]):
                    problems.append(f"{label}: {name} is not finite")
            print(f"ok   {label}: {len(report['metrics'])} metrics",
                  flush=True)
    anchor = dataclasses.replace(cells.SCALES["full"]["sphinx-c"],
                                 rounds=1, max_rounds=1)
    run = cells.run_cell(anchor, 0, 0)
    if run.rounds[0].sim_ns != cells.ANCHOR_SIM_NS or run.fatal:
        problems.append(f"anchor: sim_ns {run.rounds[0].sim_ns} != "
                        f"{cells.ANCHOR_SIM_NS} {run.fatal}")
    print(f"ok   anchor sim_ns == {cells.ANCHOR_SIM_NS}"
          if not problems else "\n".join("FAIL " + p for p in problems))
    return 1 if problems else 0


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="op-stream seed (round r uses seed + r)")
    parser.add_argument("--seconds", type=float,
                        help="wall time to measure (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a cProfile'd pass")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the full report here")
    parser.add_argument("--aa", action="store_true",
                        help="A/A noise gate: two full sets must agree")
    parser.add_argument("--self-test", action="store_true",
                        help="schema + smoke-scale run + BENCH_2 anchor")
    args = parser.parse_args(argv)
    _import_system()
    seconds = args.seconds if args.seconds is not None \
        else contract()["run_seconds"]
    if args.self_test:
        return self_test()
    if args.aa:
        return run_aa(args.seed, seconds, args.out)
    names = list(cells.SCALES[args.scale])
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    chosen = names if args.workload == "all" else [args.workload]
    reports = [run_one(name, args.seed, seconds, bool(args.trace),
                       args.scale) for name in chosen]
    if args.out:
        Path(args.out).write_text(json.dumps(
            reports[0] if len(reports) == 1 else reports, indent=1) + "\n")
    for report in reports:
        print(render(report))
        print(result_line(report), flush=True)
    return 1 if any(report["fatal"] for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
