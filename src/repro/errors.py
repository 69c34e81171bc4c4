"""Exception hierarchy for the Sphinx reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

if TYPE_CHECKING:  # import-cycle safety: runtime stays dependency-free
    from .dm.rdma import OpStats
    from .fault.inject import FaultEvent


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidArgument(ReproError, ValueError):
    """A caller passed an out-of-range or malformed argument.

    Also derives from :class:`ValueError` so existing callers (and tests)
    that catch the builtin keep working.
    """


class DataMissing(ReproError, KeyError):
    """A reporting/figure lookup referenced a (system, workload) pair that
    was never measured.  Also derives from :class:`KeyError` for dict-like
    call sites."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly or reached an
    inconsistent state (e.g. running a finished process)."""


class FrozenRecord(ReproError, AttributeError):
    """A field of an immutable record (a verb descriptor) was assigned or
    deleted.  Also derives from :class:`AttributeError`, as a frozen
    dataclass's error does."""


class MemoryError_(ReproError):
    """Simulated memory-node failure (out of memory, bad address, bad size).

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class OutOfMemory(MemoryError_):
    """Allocation failed because the memory node is exhausted."""


class BadAddress(MemoryError_):
    """An RDMA verb referenced an address outside any registered region."""


class DoubleFree(MemoryError_):
    """``free``/``retire`` was called on a block that overlaps a block
    already freed or retired (allocator misuse by a protocol)."""


class UseAfterFree(MemoryError_):
    """A verb touched a freed-and-not-yet-recycled region while the memory
    node was configured with ``uaf_policy="raise"``."""


class KeyCodecError(ReproError):
    """A key could not be encoded (e.g. contains the terminator byte)."""


class IndexError_(ReproError):
    """Base class for index-structure failures."""


class InjectedFault(ReproError):
    """A fault injected by :mod:`repro.fault` fired on a verb: the
    completion was lost, the request NAK'd, or the reply forged.

    Clients must treat this exactly like a failed/lost completion on real
    hardware: back off and retry under their :class:`RetryPolicy`.  It
    never escapes a correctly written client except wrapped in a
    :class:`RetryLimitExceeded` after exhaustion.
    """

    def __init__(self, message: str, *, kind: str = "fault",
                 addr: Optional[int] = None,
                 applied: bool = False) -> None:
        super().__init__(message)
        self.kind = kind        # fault-rule kind ("drop", "nak", ...)
        self.addr = addr        # target global address, when known
        self.applied = applied  # did the MN apply the side effect?


class MNUnavailable(IndexError_):
    """A verb targeted a memory node that has crashed (``crash_mn``).

    Deliberately *not* an :class:`InjectedFault`: retrying cannot help -
    the node's data is gone - so executors fail the operation fast
    instead of letting clients retry-storm through their
    :class:`RetryPolicy`.  Index clients may catch it at a degradation
    point (e.g. Sphinx falls back from a dead INHT to the root walk);
    otherwise it propagates to the workload driver, which counts the
    operation as failed goodput.
    """

    def __init__(self, message: str, *, mn: Optional[int] = None,
                 addr: Optional[int] = None) -> None:
        super().__init__(message)
        self.mn = mn
        self.addr = addr


class StaleEpoch(IndexError_):
    """A replicated rack write captured a shard epoch that a failover
    promotion has since fenced off.

    The rack bumps a shard's epoch when it promotes a replica to
    primary (see DESIGN.md §14), so an in-flight write that routed
    against the pre-failover assignment is rejected at its next apply
    instead of landing on a deposed primary or a stale replica chain.
    The workload driver counts the op as failed goodput, exactly like
    :class:`MNUnavailable` - retrying cannot help, the route itself is
    stale.
    """

    def __init__(self, message: str, *, shard: Optional[int] = None,
                 expected: Optional[int] = None,
                 current: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard
        self.expected = expected  # the epoch the op captured at route time
        self.current = current    # the shard's epoch at apply time


class ClientCrash(ReproError):
    """A ``crash_cn`` fault killed this executor's client mid-operation.

    Never delivered *into* the op generator: a crashed compute node runs
    no cleanup, so the generator is simply abandoned and any locks it
    holds stay held until a :class:`repro.recover.RecoveryManager`
    expires their leases.  The injector latches the client as crashed;
    further use of its executor raises this same error immediately.
    """

    def __init__(self, message: str, *, client: Optional[str] = None,
                 applied: bool = False) -> None:
        super().__init__(message)
        self.client = client
        self.applied = applied  # did the dying verb's side effect land?


class RetryLimitExceeded(IndexError_):
    """An optimistic operation exceeded its retry budget (indicates either a
    pathological conflict rate, an index-corruption bug, or - under
    chaos testing - an unsurvivable injected-fault schedule).

    Carries enough context to correlate with sanitizer/fsck output: the
    contended address (when the raise site knows it) and, attached by the
    executor that drove the generator, the client id, an
    :class:`repro.dm.rdma.OpStats` snapshot at the moment of failure, and
    the recent injected-fault trace when a fault plan was active.
    """

    def __init__(self, message: str, *,
                 addr: Optional[int] = None) -> None:
        super().__init__(message)
        self.message = message
        self.addr = addr
        self.client: Optional[str] = None
        # OpStats snapshot, attached by the executor.
        self.stats: Optional["OpStats"] = None
        # Recent FaultEvents, when a fault plan was active.
        self.fault_trace: Tuple["FaultEvent", ...] = ()

    def attach_context(self, client: Optional[str],
                       stats: Optional["OpStats"]) -> None:
        """Called by the driving executor; first attachment wins (the
        innermost executor is the one that actually ran the verbs)."""
        if self.client is None:
            self.client = client
        if self.stats is None:
            self.stats = stats

    def attach_fault_trace(self,
                           trace: Iterable["FaultEvent"]) -> None:
        """Called by an executor driving under an attached fault plan;
        first attachment wins, like :meth:`attach_context`."""
        if not self.fault_trace:
            self.fault_trace = tuple(trace)

    def __str__(self) -> str:
        parts = [self.message]
        if self.addr is not None:
            try:  # runtime import: errors.py must stay dependency-free
                from .dm.memory import format_addr
                parts.append(f"addr={format_addr(self.addr)}")
            except Exception:  # pragma: no cover - import cycle safety net
                parts.append(f"addr={self.addr:#x}")
        if self.client is not None:
            parts.append(f"client={self.client}")
        if self.stats is not None:
            s = self.stats
            parts.append(
                f"stats[rt={s.round_trips} msg={s.messages} r={s.reads} "
                f"w={s.writes} cas={s.cas} faa={s.faa}]")
        if self.fault_trace:
            last = self.fault_trace[-1]
            parts.append(f"faults[n>={len(self.fault_trace)} "
                         f"last={last.kind}:{last.verb}@seq{last.seq}]")
        return " ".join(parts)


class FilterError(ReproError):
    """Cuckoo-filter failure (e.g. insertion impossible after max kicks with
    eviction disabled)."""


class HashTableError(ReproError):
    """RACE hash-table failure (e.g. unresizable full bucket)."""


class ConfigError(ReproError):
    """An experiment or cluster configuration is invalid."""


class SanViolation(ReproError):
    """DMSan observed a concurrency-protocol violation and was configured
    with ``on_violation="raise"``."""
