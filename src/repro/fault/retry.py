"""The unified client retry/backoff/timeout policy.

Every index client (Sphinx, SMART, ART-on-DM, RACE, B+) retries
optimistic operations under one :class:`RetryPolicy` instead of scattered
``max_retries``/``backoff_ns`` pairs.  The policy is deliberately tiny and
frozen: it is embedded in frozen config dataclasses and deep-copied with
benchmark snapshots.

Budgets and backoffs are honoured by every client.  The ``op_timeout_ns``
deadline is enforced by ``RemoteArtTree._run`` only: the outermost
attempt loop of the tree point ops and scans of Sphinx, SMART and
ART-on-DM.  RACE, B+, Outback and the recovery manager never read it,
and a loop nested inside a tree op (an INHT lookup retrying in
``RaceClient._read_group``) can overshoot the op's deadline by its own
``max_retries`` budget (ROADMAP.md carries the reproducer).

``backoff_delay`` reproduces the historical jittered exponential backoff
bit-for-bit (same shift cap, same ``randrange`` bounds), so swapping the
old per-client fields for a shared policy does not move a single
simulated digit when faults are off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigError


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
    * ``torn_read_retries`` / ``inplace_update_retries`` - inner-loop
      budgets for checksum-failed leaf reads and contended in-place
      leaf updates; both historically hard-coded per call site (lint
      rule L006 now requires every retry loop to be policy-bound).
    """

    max_retries: int = 64
    backoff_ns: int = 2_000
    max_backoff_shift: int = 6
    op_timeout_ns: int = 0
    torn_read_retries: int = 16
    inplace_update_retries: int = 8

    def validate(self) -> None:
        if self.max_retries < 1:
            raise ConfigError("RetryPolicy.max_retries must be >= 1")
        if self.backoff_ns < 0:
            raise ConfigError("RetryPolicy.backoff_ns must be >= 0")
        if self.max_backoff_shift < 0:
            raise ConfigError("RetryPolicy.max_backoff_shift must be >= 0")
        if self.op_timeout_ns < 0:
            raise ConfigError("RetryPolicy.op_timeout_ns must be >= 0")
        if self.torn_read_retries < 1:
            raise ConfigError("RetryPolicy.torn_read_retries must be >= 1")
        if self.inplace_update_retries < 1:
            raise ConfigError(
                "RetryPolicy.inplace_update_retries must be >= 1")

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


DEFAULT_RETRY = RetryPolicy()
