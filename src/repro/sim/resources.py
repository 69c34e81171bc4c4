"""Measurement helpers for the simulator.

The one queueing station of the model, the NIC, lives in
:class:`repro.dm.network.Nic`; this module keeps the latency recorder
the runners and benchmarks summarize per-op simulated time with.
"""

from __future__ import annotations

from array import array
from typing import Dict, List


class LatencyRecorder:
    """Collects per-operation latencies (ns) and summarizes them.

    Samples live in an ``array('q')`` (8 bytes each) instead of a Python
    list of boxed ints (~32 bytes each plus pointer): a 400k-key grid
    cell records millions of latencies per run, and the recorder used to
    keep *two* full int lists resident (``samples`` plus the sorted
    view).  ``array`` supports the same ``==``/``len``/iteration
    contract the equivalence suites rely on.
    """

    def __init__(self):
        self.samples: array = array("q")
        # Sorted view, computed on the first percentile() call and
        # reused until the next record(); summary() alone asks for two
        # percentiles, so re-sorting per call dominated reporting time.
        self._sorted: List[int] | None = None

    def record(self, latency_ns: int) -> None:
        self.samples.append(latency_ns)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self.samples:
            return 0.0
        data = self._sorted
        if data is None or len(data) != len(self.samples):
            data = self._sorted = sorted(self.samples)
        if len(data) == 1:
            return float(data[0])
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean_ns": self.mean(),
            "p50_ns": self.percentile(50),
            "p99_ns": self.percentile(99),
        }
