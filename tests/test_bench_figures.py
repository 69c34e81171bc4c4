"""Coverage tests for the figure-generation code at miniature scale.

These do NOT validate the paper's shapes (the benchmark suite does, at
its default scale); they validate that the figure pipelines run, return
well-formed rows and render cleanly.

``tests/fixtures/ablation_rows_golden.json`` pins, row for row, the
three ablations that share the bench's bulk loader and warmed-client
round-trip probe (cache budget, locator budget, depth scaling) at a
miniature scale.  Only when the model really moved::

    PYTHONPATH=src python tests/test_bench_figures.py --regenerate
"""

import json
import os
import sys

import pytest

from repro.bench import (
    ablation_cache_budget,
    ablation_depth_scaling,
    ablation_fingerprint_bits,
    ablation_hotness,
    fig4_ycsb,
    fig5_scalability,
    fig6_memory,
    render_fig4,
    render_fig5,
    render_fig6,
)
from repro.bench.figures import ablation_locator_budget

TINY = dict(num_keys=1_200)


@pytest.mark.slow
def test_fig4_pipeline_tiny():
    result = fig4_ycsb("u64", ops=240, workers=6,
                       systems=("ART", "Sphinx"), **TINY)
    assert len(result.rows) == 2 * 6
    for row in result.rows:
        assert row["throughput_mops"] > 0
    text = render_fig4(result)
    assert "Fig 4" in text and "LOAD" in text
    assert result.speedups("C").keys() == {"ART"}


@pytest.mark.slow
def test_fig5_pipeline_tiny():
    result = fig5_scalability("u64", ops=240, systems=("Sphinx",),
                              worker_counts=(6, 12), **TINY)
    assert len(result.rows) == 2
    assert result.peak_throughput("Sphinx") > 0
    assert result.latency_at_peak("Sphinx") > 0
    assert "Fig 5" in render_fig5(result)


@pytest.mark.slow
def test_fig6_pipeline_tiny():
    result = fig6_memory(num_keys=1_500, datasets=("u64",))
    assert len(result.rows) == 3
    assert result.total("SMART", "u64") > result.total("ART", "u64")
    text = render_fig6(result)
    assert "vs ART" in text


def test_fast_ablations_rows():
    rows = ablation_hotness(num_keys=0)
    assert {r["policy"] for r in rows} == {"second-chance", "random"}
    fp_rows = ablation_fingerprint_bits()
    assert [r["fp_bits"] for r in fp_rows] == [4, 6, 8, 10, 12, 16]


GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "ablation_rows_golden.json")

#: Each ablation at the smallest scale that still runs every system row.
ABLATIONS = {
    "cache_budget": lambda: ablation_cache_budget(
        num_keys=2_000, ops=400, workers=12),
    "locator_budget": lambda: ablation_locator_budget(
        num_keys=2_000, ops=400, workers=12, factors=(0.5, 4),
        probe_ops=100),
    "depth_scaling": lambda: ablation_depth_scaling(
        sizes=(1_000, 2_000), probe_ops=100),
}


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_loader_and_probe_ablations_match_golden(name):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert ABLATIONS[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_bench_figures.py --regenerate")
    with open(GOLDEN, "w") as fh:
        json.dump({name: run() for name, run in sorted(ABLATIONS.items())},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", GOLDEN)
