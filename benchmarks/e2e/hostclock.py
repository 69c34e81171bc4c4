"""A host clock that is corrected for how fast the box was running.

The sandbox this benchmark runs in is a shared 2-core VM whose effective
CPU speed swings by tens of percent over seconds to minutes (measured: a
fixed pure-Python loop's per-second median moved between 1.6 and 3.0 ms
within one idle minute; CPU time tracks wall time, so it is the core
that slows, not the process that is descheduled).  Twelve seconds of
wall-clock rate therefore spread by 12-17 % between back-to-back runs of
the same code - wider than any bound worth having.

``Calibrated`` times a block and, while it runs, a ``SIGALRM`` interval
timer interrupts it every 25 ms to time a small fixed kernel of
stdlib-only Python (dict updates, generators on a heap, int/bytes
hashing - the instruction mix of the simulator, none of its code).  The
block's cost is then reported in **calibrated seconds**: its wall time,
less the time spent in the kernel, scaled by ``KERNEL_REF_S`` over the
mean kernel time seen *during that block*.  On a box where the kernel
takes exactly ``KERNEL_REF_S`` calibrated and raw seconds coincide.  In
the experiments that chose this design (7 minutes of sphinx-c or
sphinx-e rounds each) the spread of 12-second medians fell from 15-23 %
(raw) and 5.6 % (calibrating before and after each round) to 3.7-5.8 %.
Adding a 9 MB pointer chase to the kernel was tried and dropped: it
helped sphinx-c in isolation but widened whole-run spreads (sphinx-load
7 % -> 9 %).

Nothing under ``src/`` is involved: an optimisation of the simulator
cannot speed the kernel up, so it cannot hide in the correction.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

KERNEL_REF_S = 0.001       # what one kernel() costs at reference speed
SAMPLE_EVERY_S = 0.025     # => the sampler costs about 4 % of the block

_BLOB = bytes(range(256)) * 64


def _process(steps: int):
    total = 0
    for i in range(steps):
        total += yield i * 7 + 1
    return total


def kernel() -> int:
    """About a millisecond of deterministic, allocation-light Python."""
    counts: dict = {}
    for i in range(3000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    procs = [_process(20) for _ in range(30)]
    heap = []
    for pid, proc in enumerate(procs):
        heapq.heappush(heap, (next(proc), pid))
    while heap:
        now, pid = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (now + procs[pid].send(now & 15), pid))
        except StopIteration:
            pass
    acc = 0
    for i in range(1000):
        off = (i * 97) & 8191
        word = int.from_bytes(_BLOB[off:off + 8], "little")
        acc = (acc * 0x9E3779B97F4A7C15 + word) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 29
        acc += acc.to_bytes(8, "little")[0]
    return acc


def _time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibrated:
    """``with Calibrated() as clock: ...`` then ``clock.seconds``.

    ``raw_s`` is the block's plain wall time, ``kernel_s`` the mean
    kernel time sampled inside it, ``seconds`` the calibrated cost.
    Main thread only (signal handlers); not reentrant.
    """

    def __init__(self, sample: bool = True):
        self._sample = sample
        self._samples: List[float] = []
        self.raw_s = 0.0
        self.kernel_s = KERNEL_REF_S
        self.seconds = 0.0

    def _tick(self, _signum, _frame) -> None:
        self._samples.append(_time_kernel())

    def __enter__(self) -> "Calibrated":
        if self._sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.raw_s = time.perf_counter() - self._start
        if not self._sample:
            self.seconds = self.raw_s
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        samples = self._samples
        inside = sum(samples)
        if len(samples) < 3:  # a block too short for the timer
            samples = samples + [_time_kernel() for _ in range(3)]
        self.kernel_s = statistics.fmean(samples)
        self.seconds = (self.raw_s - inside) * KERNEL_REF_S / self.kernel_s
