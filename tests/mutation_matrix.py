"""The mutation matrix: which test and which static rule kill each
one-site mutant of a protocol, of a hash the filter cache computes, of
the offline checker, or of the sanitizer.

Each mutant below is one the test suite already builds with ``inspect``
+ ``exec`` (the test named in ``pinned_by`` applies the same text
replacement and asserts that ``killed_by`` fails under it).  This
module applies the replacement to the method's module source in a copy
of the ``repro`` package, runs the static checker
(:func:`repro.analysis.analyze_paths`) over the whole copy, and records
the findings that the mutation added.  ``static_rules`` is ``null`` when
no rule flags the mutant.

Regenerate ``benchmarks/results/MUTATION_MATRIX.json`` with::

    PYTHONPATH=src python tests/mutation_matrix.py --regenerate
"""

import inspect
import json
import shutil
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import repro
from repro.analysis import analyze_paths
from repro.core.remote_art import RemoteArtTree
from repro.dm.rack import Rack
from repro.dm.rdma import _lost, _replied
from repro.filters.hotness import SuccinctFilterCache, _lane_constants
from repro.race.client import RaceClient
from repro.recover import Rebalancer
from repro.san.monitor import AccessMonitor
from repro.tools.fsck import check_tree

REPO = Path(__file__).resolve().parent.parent
MATRIX = REPO / "benchmarks" / "results" / "MUTATION_MATRIX.json"

MUTANTS = [
    dict(id="descend-ignores-invalid",
         target=RemoteArtTree._descend,
         old="== STATUS_INVALID", new="== -1", count=2,
         killed_by="tests/test_fault_properties.py::"
                   "test_stale_pointer_to_retired_node_restarts_the_walk",
         pinned_by="tests/test_fault_properties.py::"
                   "test_mutation_descend_ignoring_invalid_is_caught"),
    dict(id="write-slot-skips-re-check",
         target=RaceClient._write_slot,
         old="if applied:", new="if applied is not False:", count=1,
         killed_by="tests/test_race_slot_writes.py::"
                   "test_insert_whose_header_read_was_lost_leaves_one_entry",
         pinned_by="tests/test_race_slot_writes.py::"
                   "test_mutant_skipping_the_re_check_is_caught"),
    dict(id="step-drops-header-read",
         target=RaceClient._step,
         old="GROUP_HEADER.unpack(u64_from_bytes(header))",
         new='{"locked": 0, "version": group.version}', count=1,
         killed_by="tests/test_race_slot_writes.py::"
                   "test_type_switch_repoint_racing_a_split_ends_with_the_"
                   "new_entry",
         pinned_by="tests/test_race_slot_writes.py::"
                   "test_mutant_dropping_the_header_read_is_caught"),
    dict(id="step-skips-inverse-cas",
         target=RaceClient._step,
         old="if new:", new="if False:", count=1,
         killed_by="tests/test_race_slot_writes.py::"
                   "test_insert_racing_a_split_leaves_one_reachable_entry"
                   "[stranded]",
         pinned_by="tests/test_race_slot_writes.py::"
                   "test_mutant_skipping_the_inverse_cas_is_caught"),
    dict(id="first-member-keeps-join",
         target=_replied,
         old="if ctx.remaining > 1 and",
         new="if ctx.remaining < len(ctx.results) and", count=1,
         killed_by="tests/test_doorbell_join.py::"
                   "test_contended_mix_matches_the_observed_join",
         pinned_by="tests/test_doorbell_join.py::"
                   "test_first_member_keeping_the_join_is_caught"),
    dict(id="replied-ignores-delay",
         target=_replied,
         old='decision is not None and decision.kind == "delay"',
         new="False", count=1,
         killed_by="tests/test_verb_path_golden.py::"
                   "test_verb_path_matches_golden[lattice/delay/scalar]",
         pinned_by="tests/test_verb_path_golden.py::"
                   "test_mutant_ignoring_a_delay_is_caught"),
    dict(id="lost-skips-timeout",
         target=_lost,
         old="engine.now + trip.ex._injector.plan.timeout_ns",
         new="engine.now", count=1,
         killed_by="tests/test_verb_path_golden.py::"
                   "test_verb_path_matches_golden"
                   "[lattice/drop-request/scalar]",
         pinned_by="tests/test_verb_path_golden.py::"
                   "test_mutant_completing_a_lost_request_at_once_is_caught"),
    dict(id="ladder-drops-zero-fp-remap",
         target=SuccinctFilterCache._build_ladder,
         old="code if code & fp_mask else code | 1", new="code", count=1,
         killed_by="tests/test_filters_hotness.py::"
                   "test_lane_ladders_match_scalar_hashes[fp12]",
         pinned_by="tests/test_filters_hotness.py::"
                   "test_mutant_dropping_the_zero_fp_remap_is_caught"),
    dict(id="lanes-use-shorter-crc-words",
         target=_lane_constants,
         old="_rung_words(d)", new="_rung_words(d - 1)", count=1,
         killed_by="tests/test_filters_hotness.py::"
                   "test_lane_ladders_match_scalar_hashes[fp12]",
         pinned_by="tests/test_filters_hotness.py::"
                   "test_mutant_using_the_shorter_crc_words_is_caught"),
    dict(id="agreement-skips-replica-compare",
         target=Rack._agreement,
         old="for gid in replicas:", new="for gid in ():", count=1,
         killed_by="tests/test_replication.py::"
                   "test_agreement_reports_exactly_the_seeded_defects",
         pinned_by="tests/test_replication.py::"
                   "test_mutant_skipping_the_replica_compare_is_caught"),
    dict(id="check-tree-keeps-checksum-bad-values",
         target=check_tree,
         old='"mismatch at rest")',
         new='"mismatch at rest"); values[leaf.key] = leaf.value', count=1,
         killed_by="tests/test_replication.py::"
                   "test_agreement_reports_exactly_the_seeded_defects",
         pinned_by="tests/test_replication.py::"
                   "test_mutant_accepting_checksum_bad_values_is_caught"),
    dict(id="copy-key-falls-back-on-a-transient-read",
         target=Rebalancer.copy_key,
         old='if failure == "dead":', new="if failure:", count=1,
         killed_by="tests/test_replication.py::"
                   "test_coordinator_crash_during_drain_is_survived",
         pinned_by="tests/test_replication.py::"
                   "test_mutant_falling_back_on_a_transient_read_is_caught"),
    dict(id="migrate-retires-a-recovered-source-copy",
         target=Rebalancer.migrate_shard,
         old='if outcome == "recovered":', new="if False:", count=1,
         killed_by="tests/test_replication.py::"
                   "test_crash_sweep_forfeits_no_committed_key",
         pinned_by="tests/test_replication.py::"
                   "test_mutant_retiring_a_recovered_source_copy_is_caught"),
    dict(id="sync-counts-a-failed-copy",
         target=Rebalancer.sync_replicas,
         old='if outcome in ("copied", "recovered"):', new="if True:",
         count=1,
         killed_by="tests/test_replication.py::"
                   "test_sync_with_a_dead_primary_copies_from_the_replica",
         pinned_by="tests/test_replication.py::"
                   "test_mutant_counting_a_failed_copy_is_caught"),
    dict(id="find-objects-judges-only-the-first",
         target=AccessMonitor._find_objects,
         old="return found", new="return found[:1]", count=1,
         killed_by="tests/test_dm_memory.py::"
                   "test_read_spanning_into_a_freed_block_counts_a_uaf",
         pinned_by="tests/test_dm_memory.py::"
                   "test_mutant_judging_only_the_first_object_is_caught"),
]


def _where(target):
    """(path relative to the package root, method source as it sits in
    its module, module source)."""
    module = Path(inspect.getsourcefile(target))
    package = Path(repro.__file__).resolve().parent
    return (module.resolve().relative_to(package),
            inspect.getsource(target), module.read_text(encoding="utf-8"))


def mutated_module(mutant):
    """(relative path, module source with the mutation applied)."""
    rel, method, module = _where(mutant["target"])
    assert method.count(mutant["old"]) == mutant["count"], mutant["id"]
    assert module.count(method) == 1, mutant["id"]
    return rel, module.replace(
        method, method.replace(mutant["old"], mutant["new"]))


def mutate(monkeypatch, owner, function, old, new):
    """Replace ``function`` on ``owner`` by its source with its one
    ``old`` -> ``new``, compiled in its own module's namespace: a
    mutant in-process, for the ``pinned_by`` tests."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), f"<{function.__name__} mutant>",
                 "exec"), vars(inspect.getmodule(function)), namespace)
    monkeypatch.setattr(owner, function.__name__,
                        namespace[function.__name__])


def _findings(package):
    return {(f.path, f.rule, f.message)
            for f in analyze_paths([package]).findings}


def build_matrix():
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        started = time.perf_counter()
        baseline = _findings(package)
        check_s = time.perf_counter() - started
        rows = []
        for mutant in MUTANTS:
            rel, source = mutated_module(mutant)
            path = package / rel
            original = path.read_text(encoding="utf-8")
            path.write_text(source, encoding="utf-8")
            try:
                added = sorted(_findings(package) - baseline)
            finally:
                path.write_text(original, encoding="utf-8")
            rules = sorted({rule for _path, rule, _msg in added})
            rows.append({
                "id": mutant["id"],
                "module": f"repro/{rel.as_posix()}",
                "function": mutant["target"].__qualname__,
                "mutation": {"old": mutant["old"], "new": mutant["new"],
                             "sites": mutant["count"]},
                "killed_by": mutant["killed_by"],
                "pinned_by": mutant["pinned_by"],
                "static_rules": rules or None,
                "static_findings": [f"{p}: {rule} {msg}"
                                    for p, rule, msg in added],
            })
    return {
        "checker": "python -m repro.tools.lint (every rule, whole package)",
        "baseline_findings": len(baseline),
        "checker_wall_s": round(check_s, 2),
        "mutants": rows,
    }


def main(argv):
    if argv != ["--regenerate"]:
        sys.exit("usage: python tests/mutation_matrix.py --regenerate")
    matrix = build_matrix()
    MATRIX.write_text(json.dumps(matrix, indent=2) + "\n")
    for row in matrix["mutants"]:
        print(f"{row['id']}: killed by {row['killed_by']}; "
              f"static: {row['static_rules']}")


if __name__ == "__main__":
    main(sys.argv[1:])
