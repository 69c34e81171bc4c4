"""The unified client retry/backoff/timeout policy and its attempt loop.

Every index client (Sphinx, SMART, ART-on-DM, RACE, B+, Outback) and the
recovery manager retries under one frozen :class:`RetryPolicy`, embedded
in the frozen config dataclasses and deep-copied with benchmark
snapshots.  Every loop bounded by ``max_retries`` iterates
:meth:`RetryPolicy.attempts`, so the budget, the ``op_timeout_ns``
deadline, the backoff clamp and the exhaustion messages exist once, in
:class:`Attempts`.  The deadline is op-scoped: an op starts it and hands
it down to the loops nested in it (a Sphinx search's INHT lookup), while
post-commit bookkeeping passes :data:`UNTIMED` (DESIGN.md §7.3).

``backoff_delay`` reproduces the historical jittered exponential backoff
bit-for-bit (same shift cap, same ``randrange`` bounds), so swapping the
old per-client fields for a shared policy does not move a single
simulated digit when faults are off.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar, Optional

from ..dm.rdma import LocalCompute
from ..errors import ConfigError, RetryLimitExceeded

UNTIMED = 1 << 63
"""A deadline no run reaches: the loop keeps its budget, never times out."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter, plus an optional per-op
    simulated-time deadline.

    * ``max_retries`` - attempts before :class:`RetryLimitExceeded`.
    * ``backoff_ns``  - base backoff; attempt *n* waits a jittered value
      in ``[c/2, c]`` with ``c = backoff_ns << min(n, max_backoff_shift)``.
    * ``op_timeout_ns`` - 0 disables; otherwise an operation that is
      still retrying ``op_timeout_ns`` simulated ns after it started
      raises :class:`RetryLimitExceeded` even with retries left.
    * ``torn_read_retries`` - inner-loop budget for checksum-failed
      leaf reads, historically hard-coded per call site (lint rule S004
      now requires every retry loop to be policy-bound).

    Two class constants complete the policy: ``max_backoff_shift`` caps
    the exponential growth, and ``inplace_update_retries`` bounds the
    re-read + CAS loop of a contended in-place leaf update.
    """

    max_retries: int = 64
    backoff_ns: int = 2_000
    op_timeout_ns: int = 0
    torn_read_retries: int = 16
    max_backoff_shift: ClassVar[int] = 6
    inplace_update_retries: ClassVar[int] = 8

    def validate(self) -> None:
        if self.max_retries < 1:
            raise ConfigError("RetryPolicy.max_retries must be >= 1")
        if self.backoff_ns < 0:
            raise ConfigError("RetryPolicy.backoff_ns must be >= 0")
        if self.op_timeout_ns < 0:
            raise ConfigError("RetryPolicy.op_timeout_ns must be >= 0")
        if self.torn_read_retries < 1:
            raise ConfigError("RetryPolicy.torn_read_retries must be >= 1")

    def attempts(self, cluster, op: str, key: Optional[bytes] = None,
                 deadline: Optional[int] = None) -> "Attempts":
        """The attempt loop of op ``op`` on ``key``, timed by ``cluster``'s
        engine (read only when there is a deadline).  ``deadline`` is the
        enclosing op's; None starts this op's own."""
        if deadline is None and self.op_timeout_ns:
            deadline = cluster.engine.now + self.op_timeout_ns
        return Attempts(self, cluster, op, key, deadline)

    def backoff_delay(self, rng: random.Random, attempt: int) -> int:
        """Jittered delay before retry number ``attempt`` (0-based)."""
        ceiling = self.backoff_ns << min(attempt, self.max_backoff_shift)
        return ceiling // 2 + rng.randrange(ceiling // 2 + 1)

    def flat_delay(self) -> int:
        """Constant backoff for clients that historically never jittered
        (RACE); kept flat so the no-fault benchmark numbers are stable."""
        return self.backoff_ns

    def torn_read_delay(self, attempt: int) -> int:
        """Linear backoff for torn leaf reads (0-based attempt).  At the
        default ``backoff_ns`` this reproduces the historical
        ``1_000 * (attempt + 1)`` bit-for-bit."""
        return (self.backoff_ns // 2) * (attempt + 1)


class Attempts(Iterator):
    """One op's attempt numbers; raises :class:`RetryLimitExceeded`
    instead of starting one past the deadline (absolute sim ns, handed
    to nested loops) or the budget.  The body yields its own verbs and
    ``attempts.pause(delay)``.  Not a generator: a clean op that returns
    from attempt 0 leaves nothing to close."""

    __slots__ = ("_policy", "_cluster", "_op", "_key", "deadline",
                 "_attempt")

    def __init__(self, policy: RetryPolicy, cluster, op: str,
                 key: Optional[bytes], deadline: Optional[int]):
        self._policy = policy
        self._cluster = cluster
        self._op = op
        self._key = key
        self.deadline = deadline
        self._attempt = -1

    def __next__(self) -> int:
        attempt = self._attempt = self._attempt + 1
        if attempt and expired(self._cluster, self.deadline):
            raise self._error(timed_out=True)
        if attempt == self._policy.max_retries:
            raise self._error(timed_out=False)
        return attempt

    def pause(self, delay: int) -> LocalCompute:
        """The backoff verb, clamped so an op times out at its deadline,
        not a backoff past it."""
        if self.deadline is not None:
            remaining = self.deadline - self._cluster.engine.now
            if remaining <= 0:
                raise self._error(timed_out=True)
            delay = min(delay, remaining)
        return LocalCompute(delay)

    def _error(self, timed_out: bool) -> RetryLimitExceeded:
        policy = self._policy
        what = (f"timed out after {policy.op_timeout_ns} ns of retries"
                if timed_out else f"exceeded {policy.max_retries} retries")
        subject = self._op if self._key is None \
            else f"{self._op}({self._key!r})"
        return RetryLimitExceeded(f"{subject} {what}")


def expired(cluster, deadline: Optional[int]) -> bool:
    """True once the absolute ``deadline`` has passed (None: never): a
    degradation point asks this before swallowing a failure."""
    return deadline is not None and cluster.engine.now >= deadline


DEFAULT_RETRY = RetryPolicy()
