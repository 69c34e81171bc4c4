"""Shared helpers for the benchmark suite.

Every figure's computation runs exactly once per session and its rendered
table is both printed (visible with ``pytest -s`` and in the benchmark
report's extra info) and saved under ``benchmarks/results/``.

Scale knobs: REPRO_BENCH_KEYS / REPRO_BENCH_OPS (see
repro.bench.harness).  The defaults regenerate every figure in
roughly half an hour; REPRO_BENCH_KEYS=15000 gives a quick smoke pass.
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


def pytest_sessionfinish(session, exitstatus):
    """Write the gate records of this session's grid cells as BENCH_2.json.

    Every cell executed through ``repro.bench.harness.run_grid`` feeds the
    process-global tracker; sessions that ran no grids (collection-only,
    figure subsets without grid cells) write nothing.
    """
    from repro.bench.perftrack import TRACKER

    if not TRACKER.cells:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    report = TRACKER.write(str(RESULTS_DIR / "BENCH_2.json"))
    print(f"\nBENCH_2.json: {len(report['cells'])} cells")
