"""The benchmark's self-test as a pytest case.

Outside tier-1 ``testpaths`` on purpose; run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
It drives the real command line, so it checks what the driver will run:
the BENCHMARK.json schema against the metric registry, all four
workloads at smoke scale in both modes, and the BENCH_2 anchor.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def test_self_test_passes():
    done = subprocess.run([sys.executable, str(RUN), "--self-test"],
                          capture_output=True, text=True, timeout=300,
                          env=_clean_env())
    assert done.returncode == 0, done.stdout + done.stderr
    assert "ok   anchor sim_ns == 451361" in done.stdout


def test_refuses_engine_mode_overrides():
    env = dict(_clean_env(), REPRO_SIM_SLOW="1")
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sphinx-c", "--scale",
         "smoke"], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode != 0
    assert "REPRO_SIM_SLOW" in done.stderr and not done.stdout
