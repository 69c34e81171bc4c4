"""Command-line entry point: regenerate any paper figure.

Usage::

    python -m repro.bench.cli fig4 --dataset u64
    python -m repro.bench.cli fig5 --dataset email
    python -m repro.bench.cli fig6
    python -m repro.bench.cli ablations
    python -m repro.bench.cli rack --tenants 16 --clients 64
    python -m repro.bench.cli all

The ``rack`` family (not part of ``all``: it has its own BENCH_RACK
baseline) runs the multi-tenant serving grid - sharded MN groups, a
weighted-fair tenant roster, and an online MN join/leave rebalance cell
that must end fsck-clean (a dirty fsck exits nonzero).  ``--rows-out``
writes its deterministic digest for bit-identity checks.

Scale knobs: ``--keys`` (dataset size), ``--ops`` (timed operations per
run), ``--workers``; environment variables REPRO_BENCH_KEYS /
REPRO_BENCH_OPS / REPRO_BENCH_WORKERS set the defaults.

Perf knobs: ``--parallel N`` fans grid cells over N forked processes
(rows stay bit-identical to a serial run); ``--perf-out BENCH_2.json``
writes the per-cell perf records; ``--compare baseline.json`` exits
nonzero if a cell's simulated result (``sim_ns``, ``throughput_mops``)
differs from the baseline's - host time is reported, never gated.

Chaos mode: ``--chaos`` attaches the deterministic
``FaultPlan.chaos(--chaos-seed)`` fault mix to every fig4/fig5 cell and
reports goodput (successful ops/s) next to raw throughput.
``--chaos-crashes`` additionally mixes in crash scenarios - ``crash_cn``
kills a client generator mid-op (its orphaned locks are reclaimed by the
attached ``repro.recover`` manager's lease protocol) and ``crash_mn``
blanks a memory node (ops against it fail fast with ``MNUnavailable``) -
and reports how many workers died per cell.  ``--workloads A,C`` and
``--systems Sphinx,ART`` narrow the grid.

Profile mode: ``--profile`` attaches a ``repro.obs`` tracer to every
fig4/fig5 cell and prints the per-op round-trip/bytes/retry breakdown
and, under it, the memo census (``repro.util.hashing.memo_census()``:
entries held by every process-wide memo of a pure function - ``hash64``
per seed, the ART word decoders' ``layout.*``, the filter's
``filter.*`` tables, ``zipf.zeta``; each is cleared wholesale at one
bound);
``--trace-out trace.json`` additionally writes the Chrome
``trace_event`` JSON (load it in chrome://tracing or Perfetto), and
``--trace-jsonl trace.jsonl`` the compact JSONL span log.  Attached
tracing never changes simulated results - see DESIGN.md §8.
"""

from __future__ import annotations

import argparse
import json
import sys

from .figures import (
    ablation_cache_budget,
    ablation_depth_scaling,
    ablation_distribution_skew,
    ablation_filter_cache,
    ablation_fingerprint_bits,
    ablation_hotness,
    ablation_locator_budget,
    ablation_scan_batching,
    FIG4_WORKLOADS,
    fig4_ycsb,
    fig5_scalability,
    fig6_memory,
    render_chaos,
    render_fig4,
    render_fig5,
    render_fig6,
    render_rtt_histograms,
    rtt_histograms,
)
from .harness import DEFAULT_KEYS, DEFAULT_OPS, DEFAULT_PARALLEL, \
    DEFAULT_WORKERS, EXTRA_SYSTEMS, SYSTEMS
from .perftrack import TRACKER, gate
from .rackfig import rack_family, render_rack
from .reporting import banner, format_table
from ..util.hashing import memo_census


def _rows_table(rows) -> str:
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    return format_table(headers, [[row[h] for h in headers] for row in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("figure", choices=["fig4", "fig5", "fig6",
                                           "ablations", "rack", "all"])
    parser.add_argument("--dataset", choices=["u64", "email", "both"],
                        default="both")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--parallel", type=int, default=DEFAULT_PARALLEL,
                        help="fan grid cells over N forked processes "
                             "(0 = serial; results are bit-identical)")
    parser.add_argument("--perf-out", metavar="PATH",
                        help="write host-side perf per cell (BENCH_2.json)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline BENCH_2.json; exit 1 if a shared "
                             "cell's simulated result differs")
    parser.add_argument("--chaos", action="store_true",
                        help="attach FaultPlan.chaos(--chaos-seed) to every "
                             "fig4/fig5 cell and report goodput")
    parser.add_argument("--chaos-seed", type=int, default=42,
                        help="seed of the chaos fault plan (default 42)")
    parser.add_argument("--chaos-crashes", action="store_true",
                        help="with --chaos: mix in crash_cn/crash_mn "
                             "scenarios, attach the recovery manager and "
                             "report crashed workers per cell")
    parser.add_argument("--profile", action="store_true",
                        help="attach a repro.obs tracer to every fig4/fig5 "
                             "cell and print the per-op breakdown")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --profile: write the Chrome trace_event "
                             "JSON (chrome://tracing / Perfetto)")
    parser.add_argument("--trace-jsonl", metavar="PATH",
                        help="with --profile: write the compact JSONL "
                             "span log")
    parser.add_argument("--workloads", metavar="LIST",
                        help="comma-separated fig4 workload subset "
                             "(e.g. A,C; default LOAD,A-E)")
    parser.add_argument("--systems", metavar="LIST",
                        help="comma-separated system subset "
                             "(e.g. Sphinx,ART; default all four)")
    rack_group = parser.add_argument_group(
        "rack", "multi-tenant serving-grid family (figure 'rack'; "
                "BENCH_RACK baseline; not part of 'all')")
    rack_group.add_argument("--rack-cns", type=int, default=8,
                            help="compute nodes (default 8)")
    rack_group.add_argument("--rack-mns", type=int, default=8,
                            help="memory nodes (default 8)")
    rack_group.add_argument("--rack-group-size", type=int, default=2,
                            help="MNs per index group (default 2)")
    rack_group.add_argument("--rack-shards", type=int, default=64,
                            help="key-space shards (default 64)")
    rack_group.add_argument("--clients", type=int, default=64,
                            help="closed-loop client generators (default 64)")
    rack_group.add_argument("--tenants", type=int, default=16,
                            help="tenant roster size (default 16)")
    rack_group.add_argument("--rack-seed", type=int, default=0,
                            help="workload seed of the rack cells")
    rack_group.add_argument("--no-rebalance", action="store_true",
                            help="skip the online MN join/leave cell")
    rack_group.add_argument("--replicas", type=int, default=0,
                            help="shard replication degree K; K > 0 adds "
                                 "the 'replicated' cell (default 0)")
    rack_group.add_argument("--crash-mn-verb", type=int, metavar="N",
                            help="with --replicas: crash one MN after N "
                                 "injector verbs inside the replicated "
                                 "cell, forcing an online failover")
    rack_group.add_argument("--rows-out", metavar="PATH",
                            help="write the rack digest JSON (aggregate + "
                                 "per-tenant rows + topology log + fsck); "
                                 "byte-identical across same-seed runs")
    args = parser.parse_args(argv)
    datasets = ["u64", "email"] if args.dataset == "both" else [args.dataset]
    workloads = tuple(args.workloads.split(",")) if args.workloads \
        else FIG4_WORKLOADS
    for name in workloads:
        if name not in FIG4_WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    systems = tuple(args.systems.split(",")) if args.systems else SYSTEMS
    for name in systems:
        if name not in SYSTEMS + EXTRA_SYSTEMS:
            parser.error(f"unknown system {name!r}")
    chaos_seed = args.chaos_seed if args.chaos else None
    if args.chaos_crashes and not args.chaos:
        parser.error("--chaos-crashes requires --chaos")
    if (args.trace_out or args.trace_jsonl) and not args.profile:
        parser.error("--trace-out/--trace-jsonl require --profile")
    if args.crash_mn_verb is not None and args.replicas < 1:
        parser.error("--crash-mn-verb requires --replicas >= 1")
    profiles = {}
    traces = {}

    if args.figure in ("fig4", "all"):
        for dataset in datasets:
            fig4 = fig4_ycsb(dataset, num_keys=args.keys,
                             ops=args.ops, workers=args.workers,
                             systems=systems, parallel=args.parallel,
                             workloads=workloads, chaos_seed=chaos_seed,
                             chaos_crashes=args.chaos_crashes,
                             profile=args.profile)
            if args.chaos:
                print(render_chaos(fig4, args.chaos_seed))
            else:
                print(render_fig4(fig4))
            for label, prof in fig4.profiles.items():
                profiles[f"{dataset}:{label}"] = prof
                traces[f"{dataset}:{label}"] = fig4.traces[label]
    if args.figure in ("fig5", "all"):
        for dataset in datasets:
            fig5 = fig5_scalability(dataset, num_keys=args.keys,
                                    ops=args.ops, systems=systems,
                                    parallel=args.parallel,
                                    chaos_seed=chaos_seed,
                                    chaos_crashes=args.chaos_crashes,
                                    profile=args.profile)
            print(render_fig5(fig5))
            for label, prof in fig5.profiles.items():
                profiles[f"{dataset}:{label}"] = prof
                traces[f"{dataset}:{label}"] = fig5.traces[label]
    rack_fsck_failed = False
    if args.figure == "rack":
        figure = rack_family(num_cns=args.rack_cns, num_mns=args.rack_mns,
                             group_size=args.rack_group_size,
                             num_shards=args.rack_shards,
                             clients=args.clients, tenants=args.tenants,
                             num_keys=args.keys, ops=args.ops,
                             seed=args.rack_seed,
                             rebalance=not args.no_rebalance,
                             chaos_seed=chaos_seed,
                             replicas=args.replicas,
                             crash_mn_verb=args.crash_mn_verb)
        print(render_rack(figure))
        if args.rows_out:
            with open(args.rows_out, "w") as fh:
                json.dump(figure.digest(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.rows_out}: rack digest "
                  f"({len(figure.rows)} cells)")
        if not figure.fsck_clean:
            print(f"RACK FSCK FAILED: exits {figure.fsck_exits}")
            rack_fsck_failed = True
    if args.figure in ("fig6", "all"):
        print(render_fig6(fig6_memory(num_keys=args.keys)))
    if args.figure in ("ablations", "all"):
        print(banner("Ablation - succinct filter cache on/off (YCSB-C)"))
        print(_rows_table(ablation_filter_cache(num_keys=args.keys,
                                                ops=args.ops,
                                                workers=args.workers)))
        print(banner("Ablation - scan doorbell batching (YCSB-E)"))
        print(_rows_table(ablation_scan_batching(num_keys=args.keys)))
        print(banner("Ablation - hotness-bit second chance vs random"))
        print(_rows_table(ablation_hotness()))
        print(banner("Ablation - fingerprint width vs false positives"))
        print(_rows_table(ablation_fingerprint_bits()))
        print(banner("Ablation - round trips vs dataset size (tree depth)"))
        print(_rows_table(ablation_depth_scaling()))
        print(banner("Ablation - CN cache budget sensitivity (YCSB-C)"))
        print(_rows_table(ablation_cache_budget(num_keys=args.keys,
                                                ops=args.ops,
                                                workers=args.workers)))
        print(banner("Ablation - request skew robustness (YCSB-C)"))
        print(_rows_table(ablation_distribution_skew(num_keys=args.keys,
                                                     ops=args.ops,
                                                     workers=args.workers)))
        print(banner("Ablation - leaf-locator vs filter-cache budget "
                     "crossover (YCSB-C)"))
        print(_rows_table(ablation_locator_budget(num_keys=args.keys,
                                                  ops=args.ops,
                                                  workers=args.workers)))
    if args.profile and profiles:
        from ..obs import render_profile, write_chrome_trace
        print(banner("Profile - per-op round-trip/bytes/retry breakdown"))
        print(render_profile(profiles))
        print(render_rtt_histograms(rtt_histograms(traces)))
        print(banner("Memo census - entries per memo of a pure function "
                     "(this process)"))
        print(format_table(["memo", "entries"],
                           sorted(memo_census().items())))
        if args.trace_out:
            labels = list(traces)
            write_chrome_trace([traces[label] for label in labels],
                               args.trace_out, labels)
            print(f"wrote {args.trace_out}: Chrome trace_event JSON "
                  f"({len(labels)} cells; open in chrome://tracing)")
        if args.trace_jsonl:
            from ..obs import iter_jsonl
            with open(args.trace_jsonl, "w") as fh:
                for label, tracer in traces.items():
                    for line in iter_jsonl(tracer, cell=label):
                        fh.write(line)
                        fh.write("\n")
            print(f"wrote {args.trace_jsonl}: JSONL span log "
                  f"({len(traces)} cells)")
    if args.perf_out:
        report = TRACKER.write(args.perf_out)
        print(f"wrote {args.perf_out}: {len(report['cells'])} cells, "
              f"total wall {report['total_wall_s']:.2f}s")
    if args.compare and gate(TRACKER.report(), args.compare):
        return 1
    return 1 if rack_fsck_failed else 0


if __name__ == "__main__":
    sys.exit(main())
