"""One-sided RDMA verbs and the executors that run them.

Index algorithms in this library are written **once** as plain generators
that yield verb descriptors (:class:`ReadOp`, :class:`WriteOp`,
:class:`CasOp`, :class:`FaaOp`, a doorbell :class:`Batch`, or
:class:`LocalCompute`) and receive the verb's result back.  A descriptor
is an immutable slotted record, cheap to build once per verb: assigning
a field raises, and equality, hashing, ``repr``, ``copy`` and ``pickle``
go by class and field values.  A :class:`Batch` admits only the four
verb classes.  Two executors drive such generators:

* :class:`DirectExecutor` applies every verb immediately with no notion of
  time - used for bulk loading, unit tests, and memory measurements.
* :class:`SimExecutor` turns each verb into a timed trip through the
  CN NIC -> fabric -> MN NIC -> DRAM -> back, inside the discrete-event
  engine - used for all benchmarks.  Memory side effects are applied at
  the simulated instant the MN NIC processes the request, so concurrent
  clients interleave with exactly the atomicity of real one-sided RDMA.
  Every verb is one such trip, a single self-re-arming engine event, on
  either dispatch loop.

A :class:`Batch` models doorbell batching (Kalia et al., ATC'16): all verbs
are posted together, traverse the network in parallel, and the client
resumes when the last completion arrives - one round trip of latency, but
``len(ops)`` messages of NIC load.

An attached :class:`repro.fault.FaultPlan` is not a mode of either
executor: both ask ``FaultInjector.gate`` once per verb as they post it,
a verb the gate passes runs as if no plan were attached, and a verb's
decision only selects the stages of its trip - inside a doorbell that
still posts every member at once.  An attached :class:`Observer` (DMSan,
the lease table, the tracer) selects nothing either: each verb is
reported to it as one :class:`VerbRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from heapq import heappush
from typing import Any, Callable, ClassVar, Generator, Mapping, Optional, \
    Sequence, Tuple, Union

from ..errors import ClientCrash, FrozenRecord, InjectedFault, \
    MNUnavailable, RetryLimitExceeded, SimulationError
from ..sim.engine import _DEFER, Event as SimEvent
from .memory import OFFSET_BITS, OFFSET_MASK, Memory, addr_mn
from .network import Nic


# --------------------------------------------------------------------------
# Verb descriptors
# --------------------------------------------------------------------------
#
# ``lease`` on WriteOp/CasOp is recovery metadata, not protocol state: a
# lock-acquiring CAS tags itself ``("node",) / ("leaf",) / ("hash", ...)``
# and the verb that releases the lock tags ``("release",)``.  The fabric
# ignores it entirely; only a :class:`repro.recover.LeaseTable` bound via
# ``Cluster.attach_recovery`` reads it (the node header has no spare bits
# for an owner/epoch, so the lease lives CN-side).  The ``None`` default
# keeps untagged verbs - and every pre-recovery schedule - byte-identical.
#
# The records are built once per verb of every op (bulk load included),
# so they are slotted classes, not frozen dataclasses (DESIGN.md 4.3):
# ``__init__`` fills each slot through its member descriptor, and plain
# assignment raises.  Field reads are ordinary slot reads.

class _Record:
    """An immutable record: slotted, compared (class included), hashed,
    printed, copied and pickled by its field values in slot order."""

    __slots__ = ()
    #: Each slot's descriptor ``__set__``, in slot order (set per class).
    _setters: ClassVar[Tuple[Callable[[Any, Any], None], ...]] = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(cls.__dict__[name].__set__
                             for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenRecord(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecord(f"{self.__class__.__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class ReadOp(_Record):
    """RDMA READ of ``size`` bytes at global address ``addr`` -> bytes."""

    __slots__ = ("addr", "size")
    addr: int
    size: int

    def __init__(self, addr: int, size: int) -> None:
        set_addr, set_size = self._setters
        set_addr(self, addr)
        set_size(self, size)


class WriteOp(_Record):
    """RDMA WRITE of ``data`` at global address ``addr`` -> None."""

    __slots__ = ("addr", "data", "lease")
    addr: int
    data: bytes
    lease: Optional[tuple]

    def __init__(self, addr: int, data: bytes,
                 lease: Optional[tuple] = None) -> None:
        set_addr, set_data, set_lease = self._setters
        set_addr(self, addr)
        set_data(self, data)
        set_lease(self, lease)


class CasOp(_Record):
    """RDMA CAS on the 8-byte word at ``addr`` -> (swapped, old_value)."""

    __slots__ = ("addr", "expected", "desired", "lease")
    addr: int
    expected: int
    desired: int
    lease: Optional[tuple]

    def __init__(self, addr: int, expected: int, desired: int,
                 lease: Optional[tuple] = None) -> None:
        set_addr, set_expected, set_desired, set_lease = self._setters
        set_addr(self, addr)
        set_expected(self, expected)
        set_desired(self, desired)
        set_lease(self, lease)


class FaaOp(_Record):
    """RDMA FAA on the 8-byte word at ``addr`` -> old_value."""

    __slots__ = ("addr", "delta")
    addr: int
    delta: int

    def __init__(self, addr: int, delta: int) -> None:
        set_addr, set_delta = self._setters
        set_addr(self, addr)
        set_delta(self, delta)


class LocalCompute(_Record):
    """CN-side CPU work of ``ns`` nanoseconds (hashing, filter probes)."""

    __slots__ = ("ns",)
    ns: int

    def __init__(self, ns: int) -> None:
        self._setters[0](self, ns)


Verb = Union[ReadOp, WriteOp, CasOp, FaaOp]
_VERB_CLASSES = (ReadOp, WriteOp, CasOp, FaaOp)


class Batch(_Record):
    """A doorbell batch: verbs posted together, completing together."""

    __slots__ = ("ops",)
    ops: Tuple[Verb, ...]

    def __init__(self, ops: Sequence[Verb]) -> None:
        ops = tuple(ops)
        if not ops:
            # An empty doorbell would silently charge a full round trip
            # for zero messages - always a caller bug.
            raise SimulationError("empty batch: doorbell needs >= 1 verb")
        for op in ops:
            # Exactly the four verb classes: a nested batch, a
            # LocalCompute, a raw tuple or None would otherwise surface
            # only when an executor reaches that member.
            if op.__class__ not in _VERB_CLASSES:
                raise SimulationError(
                    f"batches must contain plain verbs, not {op!r}")
        self._setters[0](self, ops)


OpOrBatch = Union[Verb, Batch, LocalCompute]
OpGenerator = Generator[OpOrBatch, Any, Any]


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

@dataclass
class OpStats:
    """Verb-level counters for one executor (one client)."""

    reads: int = 0
    writes: int = 0
    cas: int = 0
    faa: int = 0
    round_trips: int = 0
    messages: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    batches: int = 0
    local_compute_ns: int = 0
    faults_injected: int = 0  # verbs perturbed by an attached FaultPlan

    def count_verb(self, op: Verb) -> None:
        # Exact-class dispatch: the verb set is closed (no subclassing),
        # and this runs once per verb of every benchmark op.
        cls = op.__class__
        if cls is ReadOp:
            self.reads += 1
            self.bytes_read += op.size
        elif cls is WriteOp:
            self.writes += 1
            self.bytes_written += len(op.data)
        elif cls is CasOp:
            self.cas += 1
        elif cls is FaaOp:
            self.faa += 1
        else:  # pragma: no cover - descriptor set is closed
            raise SimulationError(f"unknown verb {op!r}")
        self.messages += 1

    def merge(self, other: "OpStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


# --------------------------------------------------------------------------
# Shared verb semantics
# --------------------------------------------------------------------------

def apply_verb(memories: Mapping[int, Memory], op: Verb) -> Any:
    """Execute a verb's memory side effect and return its result."""
    addr = op.addr
    memory = memories[addr >> OFFSET_BITS]
    offset = addr & OFFSET_MASK
    cls = op.__class__
    if cls is ReadOp:
        return memory.read(offset, op.size)
    if cls is WriteOp:
        memory.write(offset, op.data)
        return None
    if cls is CasOp:
        return memory.cas_u64(offset, op.expected, op.desired)
    if cls is FaaOp:
        return memory.faa_u64(offset, op.delta)
    raise SimulationError(f"unknown verb {op!r}")


#: The name of each verb class, as fault rules filter on it and traces
#: and fault schedules report it.
VERB_KIND = {ReadOp: "read", WriteOp: "write", CasOp: "cas", FaaOp: "faa"}


def verb_sizes(op: Verb) -> Tuple[int, int]:
    """(request payload bytes, response payload bytes) for timing."""
    cls = op.__class__
    if cls is ReadOp:
        return 0, op.size
    if cls is WriteOp:
        return len(op.data), 0
    if cls is CasOp:
        return 16, 8
    if cls is FaaOp:
        return 8, 8
    raise SimulationError(f"unknown verb {op!r}")


#: Fault kinds whose verb still completes: the client gets a result (late,
#: twice applied, or a forged CAS failure), not an exception.
SILENT_FAULTS = ("delay", "duplicate", "stale_cas")


def _silent_result(memories: Mapping[int, Memory], op: Verb, kind: str,
                   result: Any) -> Any:
    """What a verb under a silent fault returns, once it has run: a
    phantom retransmission applies it a second time, and a stale CAS
    reply turns a swap into a failure carrying the pre-swap word."""
    if kind == "duplicate":
        apply_verb(memories, op)
    elif kind == "stale_cas" and op.__class__ is CasOp and result[0]:
        return (False, op.expected)
    return result


def _fault_error(client: str, op: Verb, decision) -> Exception:
    """The typed failure a fault decision ends its verb with."""
    kind = decision.kind
    if kind == "crash_cn":
        return ClientCrash(f"client {client} crashed (crash_cn)",
                           client=client, applied=decision.applied)
    if kind == "mn_unavailable":  # fail fast: not retryable
        mn = addr_mn(op.addr)
        return MNUnavailable(f"MN {mn} crashed (crash_mn)",
                             mn=mn, addr=op.addr)
    if kind == "nak":
        return InjectedFault("NAK: unreachable address",
                             kind="nak", addr=op.addr)
    if kind == "drop":
        return InjectedFault("completion dropped" if decision.applied
                             else "request dropped", kind="drop",
                             addr=op.addr, applied=decision.applied)
    raise SimulationError(f"unknown fault decision {kind!r}")


def _raise_member_faults(results: Sequence[Any]) -> None:
    """Join of a doorbell posted under faults: every member was posted
    and reported either its result or its fault, and the one completion
    the client waits for fails if any member's did.  A dead client
    outranks everything (it is always the last member posted), a dead MN
    outranks a retryable fault, else the last fault in member order."""
    failure = None
    for value in results:
        if isinstance(value, ClientCrash):
            raise value
        if isinstance(value, MNUnavailable) or (
                isinstance(value, InjectedFault)
                and not isinstance(failure, MNUnavailable)):
            failure = value
    if failure is not None:
        raise failure


# --------------------------------------------------------------------------
# Observers
# --------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class VerbRecord:
    """One verb as its observers see it: posted by ``client`` at
    ``t_post``, its request out of the CN NIC at ``t_sent``, executed by
    the MN at ``t_applied`` with ``result``, its response out of the MN
    NIC at ``t_replied``, completed at ``t_done``.  ``fault`` is the kind
    of the fault gate's decision, known when the verb is posted.  A stamp
    stays None for a leg that never ran: a verb the MN never saw (a NAK,
    a dead MN, a request drop) is only sent and completed, and one whose
    completion was lost is never replied to.  The untimed executor stamps
    every leg that ran at ``t_post``.  Built only by an executor that has
    observers; compared by identity (one record per verb posted)."""

    client: str
    op: Verb
    t_post: int
    t_sent: Optional[int] = None
    t_applied: Optional[int] = None
    t_replied: Optional[int] = None
    t_done: Optional[int] = None
    result: Any = None
    fault: Optional[str] = None


class Observer:
    """A passive watcher bound with ``Cluster.attach``: executors created
    after the attach report every verb and op to it, and every MN
    allocator its blocks.  It never steers a verb (the fault injector,
    which does, is not one), so attaching it moves no simulated digit.

    * per verb, in this order: ``on_post(rec)``, ``on_apply(rec)``,
      ``on_complete(rec)`` - a verb the MN never saw gets only
      ``on_complete``;
    * per op (one executor ``run``): ``op_begin(client, name, now)``,
      ``on_round_trip(client)`` per posted op, ``on_fault(client, kind,
      addr, now)`` per fault delivered into the generator, and
      ``op_end(client, now, status)``;
    * per allocator block: ``on_alloc`` / ``on_free`` /
      ``on_retire(mn_id, offset, size, category)``.

    Every hook is a no-op here; a subclass overrides what it reads."""

    def _ignore(self, *_event) -> None:
        pass

    on_post = on_apply = on_complete = _ignore
    op_begin = on_round_trip = on_fault = op_end = _ignore
    on_alloc = on_free = on_retire = _ignore


def _post(observers, client: str, op: Verb, now: int,
          fault: Optional[str] = None) -> VerbRecord:
    rec = VerbRecord(client, op, now, fault=fault)
    for obs in observers:
        obs.on_post(rec)
    return rec


def _applied(observers, rec: VerbRecord, now: int, result: Any) -> None:
    rec.t_applied = now
    rec.result = result
    for obs in observers:
        obs.on_apply(rec)


def _done(observers, rec: VerbRecord, now: int) -> None:
    rec.t_done = now
    for obs in observers:
        obs.on_complete(rec)


# --------------------------------------------------------------------------
# Executors
# --------------------------------------------------------------------------

class DirectExecutor:
    """Runs op generators instantly against simulated memory.

    Verbs still update :class:`OpStats`, so tests can assert round-trip
    counts (the paper's central metric) without running the clock.
    """

    def __init__(self, memories: Mapping[int, Memory],
                 stats: OpStats | None = None, *,
                 client_id: str = "direct",
                 clock: Optional[Callable[[], int]] = None,
                 injector=None, observers: Tuple[Observer, ...] = ()):
        self._memories = memories
        self.stats = stats if stats is not None else OpStats()
        self.client_id = client_id
        self._clock = clock if clock is not None else (lambda: 0)
        self._injector = injector
        self._observers = observers
        self._budget = 0  # message ceiling armed by arm_verb_budget
        # What runs one counted verb, fixed by what is attached now: the
        # fault gate, the observers' record, or the side effect alone.
        self._step: Callable[[Verb], Any] = \
            self._gated if injector is not None else \
            self._apply if observers else partial(apply_verb, memories)

    def arm_verb_budget(self, extra_messages: int) -> None:
        """Fail with SimulationError once ``stats.messages`` exceeds its
        current value plus ``extra_messages`` - the chaos suite's
        livelock bound ("never a hang")."""
        self._budget = self.stats.messages + extra_messages

    def _apply(self, verb: Verb, fault: Optional[str] = None,
               replied: bool = True) -> Any:
        """Apply one verb and report it to the observers, every leg that
        ran stamped now; ``replied`` is False when the fault lost the
        completion."""
        observers = self._observers
        if not observers:
            return apply_verb(self._memories, verb)
        now = self._clock()
        rec = _post(observers, self.client_id, verb, now, fault)
        rec.t_sent = now
        result = apply_verb(self._memories, verb)
        _applied(observers, rec, now, result)
        if replied:
            rec.t_replied = now
        _done(observers, rec, now)
        return result

    def _gated(self, verb: Verb) -> Any:
        """One verb through the post-time fault gate: no decision, no
        difference; otherwise the untimed form of the decision."""
        decision = self._injector.gate(self.client_id, verb, self._clock())
        if decision is None:
            return self._apply(verb)
        kind = decision.kind
        self.stats.faults_injected += 1
        if kind in SILENT_FAULTS:  # untimed: a delay is invisible
            return _silent_result(self._memories, verb, kind,
                                  self._apply(verb, kind))
        if decision.applied:
            # The side effect lands; the completion - or the CN - is lost.
            self._apply(verb, kind, replied=False)
        elif self._observers:  # lost before the MN: completed only
            now = self._clock()
            _done(self._observers,
                  VerbRecord(self.client_id, verb, now, fault=kind,
                             t_sent=None if kind == "crash_cn" else now),
                  now)
        raise _fault_error(self.client_id, verb, decision)

    def execute(self, op: OpOrBatch) -> Any:
        stats = self.stats
        if self._budget and stats.messages > self._budget:
            raise SimulationError(
                f"verb budget exceeded for {self.client_id}: "
                f"{stats.messages} messages - livelock under faults?")
        cls = op.__class__
        if cls is LocalCompute:
            stats.local_compute_ns += op.ns
            return None
        step = self._step
        stats.round_trips += 1
        if cls is not Batch:
            stats.count_verb(op)
            return step(op)
        # Doorbell: every member is posted (and counted), so under
        # faults surviving members still apply and a member's fault is
        # raised at the join.  Only a crash_cn stops the posting: later
        # members are neither gated nor counted.
        stats.batches += 1
        results = []
        for verb in op.ops:
            stats.count_verb(verb)
            try:
                results.append(step(verb))
            except (InjectedFault, MNUnavailable) as exc:
                results.append(exc)
        if self._injector is not None:
            _raise_member_faults(results)
        return results

    def run(self, gen: OpGenerator) -> Any:
        """Drive ``gen`` to completion; returns its return value.

        Injected faults are delivered *into* the client generator with
        ``gen.throw`` - the client sees them at its ``yield``, exactly
        where a real completion error would surface.
        """
        observers = self._observers
        client = self.client_id
        for obs in observers:
            obs.op_begin(client, getattr(gen, "__name__", "op"),
                         self._clock())
        status = "error"
        try:
            result = None
            pending: Exception | None = None
            while True:
                try:
                    if pending is not None:
                        exc, pending = pending, None
                        op = gen.throw(exc)
                    else:
                        op = gen.send(result)
                except StopIteration as stop:
                    status = "ok"
                    return stop.value
                except RetryLimitExceeded as exc:
                    status = "failed"
                    exc.attach_context(client, replace(self.stats))
                    if self._injector is not None:
                        exc.attach_fault_trace(self._injector.trace_tuple())
                    raise
                if observers and op.__class__ is not LocalCompute:
                    for obs in observers:
                        obs.on_round_trip(client)
                try:
                    result = self.execute(op)
                except (InjectedFault, MNUnavailable) as exc:
                    # Both are delivered into the generator so clients
                    # can retry (InjectedFault) or degrade
                    # (MNUnavailable) at the yield; ClientCrash
                    # deliberately is NOT - a dead CN runs no cleanup,
                    # so the generator is just abandoned.
                    for obs in observers:
                        # MNUnavailable is not a fault-rule kind.
                        obs.on_fault(client,
                                     getattr(exc, "kind", "mn_unavailable"),
                                     exc.addr or 0, self._clock())
                    pending = exc
                    result = None
        finally:
            for obs in observers:
                obs.op_end(client, self._clock(), status)


class _VerbTrip(SimEvent):
    """One verb as a single engine event that re-arms itself for each of
    its NIC stages - no generator frame, no per-stage timeout event.
    Every verb on either engine is one, whatever is attached.

    The trip is its own only callback (``_cb1 = self``): each dispatch
    charges one NIC stage and queues the trip again at the stage's
    completion time, one ``_seq`` draw per stage.  Constructing a trip
    posts the verb (stage 0).  The fault gate's ``decision`` (None for
    almost every verb) selects the stages that run: a verb lost before
    the MN stops after the CN NIC and completes a plan timeout later; a
    completion lost after the apply completes a timeout after it, or -
    the CN died - at once; a delayed completion takes one more stage.
    A scalar verb's last arming turns the trip into the event that
    resumes ``worker`` with the verb's raw result, and the client's
    :meth:`SimExecutor.run` finishes it; a doorbell member (``worker``
    None) finishes itself into its :class:`_BatchTrip` ``ctx`` - at its
    CN NIC reply charge when its doorbell has no fault decision, its
    executor no observer and another member is still to reach that
    charge, otherwise at its own completion event.  The observers'
    post / apply / complete hooks run at the stage they describe;
    ``rec`` is None when the executor has none.  The dispatch
    loop marks ``_cb1`` processed before each call, so a finished trip
    keeps no reference to itself (the e2e timed region runs with the
    cycle collector off).
    """

    __slots__ = ("ex", "op", "worker", "decision", "ctx", "idx",
                 "mn", "req", "resp", "stage", "rec")

    def __init__(self, ex: "SimExecutor", op: Verb, worker, decision=None,
                 ctx: "_BatchTrip | None" = None, idx: int = 0):
        self.engine = ex.engine
        self._proc = None
        self.ex = ex
        self.op = op
        self.worker = worker
        self.decision = decision
        self.ctx = ctx
        self.idx = idx
        self.stage = 0
        self(self)

    def __call__(self, _event: SimEvent) -> None:
        ex = self.ex
        engine = self.engine
        cfg = ex._config
        stage = self.stage
        self.stage = stage + 1
        again = self  # the next dispatch is this trip's next stage
        if stage == 0:
            # Posting the verb.
            op = self.op
            decision = self.decision
            if decision is not None:
                ex.stats.faults_injected += 1
                if not decision.applied \
                        and decision.kind not in SILENT_FAULTS:
                    # Lost before the MN: a dead MN, a NAK, a request
                    # drop, or a CN that died posting it - which sends
                    # nothing (only a doorbell member gets here; it
                    # joins now).
                    if decision.kind == "crash_cn":
                        self.rec = self._value = None
                        self.stage = 4
                        self(self)
                        return
                    self.stage = 6
            ex.stats.count_verb(op)
            self.req, self.resp = verb_sizes(op)
            if ex._observers:
                self.rec = _post(ex._observers, ex.client_id, op,
                                 engine.now, decision and decision.kind) \
                    if self.stage == 1 else \
                    VerbRecord(ex.client_id, op, engine.now,
                               fault=decision.kind)  # completed only
            else:
                self.rec = None
            done = ex._cn_nic.charge(self.req)
        elif stage == 1:
            # CN request sent; request crosses the wire to the MN NIC.
            if self.rec is not None:
                self.rec.t_sent = engine.now
            op = self.op
            cls = op.__class__
            self.mn = ex._mn_nics[addr_mn(op.addr)]
            done = self.mn.charge(
                self.req, cfg.atomic_extra_ns
                if (cls is CasOp or cls is FaaOp) else 0, cfg.prop_ns)
        elif stage == 2:
            # MN NIC executed the verb: side effect lands now.
            result = self._value = apply_verb(ex._memories, self.op)
            if self.rec is not None:
                _applied(ex._observers, self.rec, engine.now, result)
            decision = self.decision
            if decision is not None and decision.applied:
                # The completion is lost: dropped (the client times out)
                # or the CN died (no client is left to wait).
                if decision.kind == "drop":
                    done = engine.now + ex._injector.plan.timeout_ns
                else:
                    if self.rec is not None:
                        _done(ex._observers, self.rec, engine.now)
                    if self.ctx is not None:  # a member joins now
                        self.stage = 4
                        self(self)
                        return
                    done = engine.now
                again = self._complete_next()
            else:
                done = self.mn.charge(self.resp, 0, cfg.mem_access_ns)
        elif stage == 3:
            # MN response sent; back across the wire through the CN NIC.
            if self.rec is not None:
                self.rec.t_replied = engine.now
            done = ex._cn_nic.charge(self.resp, 0, cfg.prop_ns)
            if self.decision is not None and self.decision.kind == "delay":
                self.stage = 7
            elif self.worker is not None:
                # Scalar verb: the last dispatch resumes the client.
                self._proc = self.worker
                again = None
            else:
                ctx = self.ctx
                if ctx.remaining > 1 and self.rec is None \
                        and ctx.decisions is None:
                    # A clean, unobserved member that is not the last to
                    # reach this charge joins now: the CN NIC completes
                    # in charge order, so its done event would create
                    # nothing and dispatch before the last member's.
                    ctx.results[self.idx] = self._value
                    ctx.remaining -= 1
                    return
        elif stage == 4:
            # Batch member complete: it joins inline (observed or
            # faulted members; a clean unobserved one joined at its
            # reply charge unless it was the last).  The last member
            # keeps the two zero-delay hops - member done, then batch
            # done - that place the client's resume among same-time
            # events, so the schedule is exact under ties.
            decision = self.decision
            if decision is None:
                value = self._value
                if self.rec is not None:
                    _done(ex._observers, self.rec, engine.now)
            else:
                value = ex._finish(self.rec, self.op, decision, self._value)
            ctx = self.ctx
            ctx.results[self.idx] = value
            ctx.remaining -= 1
            if ctx.remaining == 0:
                self._cb1 = self
                engine._queue_event(self)
            return
        elif stage == 5:
            # The last member's completion event: queue the batch's.
            self.ctx.complete()
            return
        elif stage == 6:
            # A request lost before the MN (dead MN, NAK, drop in the
            # fabric) is sent; the client waits out its timeout.
            if self.rec is not None:
                self.rec.t_sent = engine.now
            self._value = None
            again = self._complete_next()
            done = engine.now + ex._injector.plan.timeout_ns
        else:
            # A delayed completion: arrived now, delivered later.
            if self.rec is not None:
                _done(ex._observers, self.rec, engine.now)
            again = self._complete_next()
            done = engine.now + self.decision.delay_ns
        # Re-arm: Engine.timeout's scheduling rule, inlined (one call
        # per stage was worth 6 % of sphinx-e host time, DESIGN.md 11.7).
        # A stage that completes at this very instant joins the FIFO run
        # like timeout(0); a heap entry at its own timestamp would break
        # the dispatch loop's heap-before-FIFO order.
        self._cb1 = again
        seq = engine._seq = engine._seq + 1
        if done > engine.now:
            heappush(engine._heap, (done, seq, self))
        else:
            self._when = done
            self._seq = seq
            engine._fifo.append(self)

    def _complete_next(self) -> "_VerbTrip | None":
        """Make the next dispatch the verb's completion: the client's
        resume for a scalar verb (no callback), the member's join
        (stage 4) for a doorbell member."""
        self.stage = 4
        if self.worker is None:
            return self
        self._proc = self.worker
        return None


class _BatchTrip(SimEvent):
    """A doorbell batch as one boot event and, re-armed, one completion
    event: 3N+4 dispatches for N clean members on an executor with no
    observer (only the last member to reach its reply charge keeps its
    own completion event), 4N+3 with an observer or a fault decision.

    The boot starts every member trip in member order, each with its
    fault decision; ``decisions`` (None when the gate passed every
    member) is cut short after a ``crash_cn``, and the members after it
    are not posted.  A faulted member's failure is its result, and the
    client's join raises it."""

    __slots__ = ("ex", "ops", "worker", "decisions", "results",
                 "remaining")

    def __init__(self, ex: "SimExecutor", ops: Tuple[Verb, ...], worker,
                 decisions=None):
        self.engine = ex.engine
        self._proc = None
        self._cb1 = self
        self.ex = ex
        self.ops = ops if decisions is None else ops[:len(decisions)]
        self.worker = worker
        self.decisions = decisions
        self.results: list = [None] * len(self.ops)
        self.remaining = len(self.ops)
        self.engine._queue_event(self)

    def __call__(self, _event: SimEvent) -> None:
        ex = self.ex
        decisions = self.decisions
        for idx, verb in enumerate(self.ops):
            _VerbTrip(ex, verb, None,
                      None if decisions is None else decisions[idx],
                      self, idx)

    def complete(self) -> None:
        """Re-arm as the event that resumes the client with the results
        in member order."""
        self._proc = self.worker
        self._cb1 = None
        self._value = self.results
        self.engine._queue_event(self)


class SimExecutor:
    """Runs op generators under the discrete-event clock.

    :meth:`run` is itself a generator of engine events, so client processes
    compose it with ``yield from`` (or hand it to ``engine.process``).
    """

    def __init__(self, engine, memories: Mapping[int, Memory],
                 cn_nic: Nic, mn_nics: Mapping[int, Nic],
                 config, stats: OpStats | None = None, *,
                 client_id: str = "sim", injector=None,
                 observers: Tuple[Observer, ...] = ()):
        self.engine = engine
        self._memories = memories
        self._cn_nic = cn_nic
        self._mn_nics = mn_nics
        self._config = config
        self.stats = stats if stats is not None else OpStats()
        self.client_id = client_id
        self._injector = injector
        self._observers = observers
        self._budget = 0  # message ceiling armed by arm_verb_budget

    def arm_verb_budget(self, extra_messages: int) -> None:
        """See :meth:`DirectExecutor.arm_verb_budget`."""
        self._budget = self.stats.messages + extra_messages

    def _gate(self, op: OpOrBatch):
        """Ask the fault gate about ``op`` as it is posted.  ``None``:
        no verb of it is touched, so it runs as if no plan were
        attached.  Otherwise the :class:`Decision` of a scalar verb, or
        a doorbell's per-member decisions in member order - cut short
        after a ``crash_cn``, whose later members are neither gated nor
        posted."""
        gate = self._injector.gate
        client = self.client_id
        now = self.engine.now
        if op.__class__ is not Batch:
            return gate(client, op, now)
        decisions = []
        faulted = False
        for verb in op.ops:
            decision = gate(client, verb, now)
            decisions.append(decision)
            if decision is not None:
                faulted = True
                if decision.kind == "crash_cn":
                    break
        return decisions if faulted else None

    def _finish(self, rec: Optional[VerbRecord], op: Verb, decision,
                result: Any) -> Any:
        """A verb's outcome, the instant its client learns it: closes
        the observers' record (unless a lost completion closed it
        earlier) and returns the result - made late, twice applied or
        stale by a silent fault - or the typed failure a fault ended
        the verb with."""
        if rec is not None and rec.t_done is None:
            _done(self._observers, rec, self.engine.now)
        if decision is None:
            return result
        kind = decision.kind
        if kind in SILENT_FAULTS:
            return _silent_result(self._memories, op, kind, result)
        return _fault_error(self.client_id, op, decision)

    # -- generator driver -------------------------------------------------
    def run(self, gen: OpGenerator):
        """Drive ``gen`` under the clock; yields engine events throughout.

        Every verb and doorbell is posted as a trip that resumes the
        driving process, so ``run`` must be driven by one (``yield
        from`` inside an engine process); a generator stepped by hand
        gets a :class:`SimulationError` at its first posted verb.
        Injected faults are delivered into the client generator with
        ``gen.throw``, exactly like :meth:`DirectExecutor.run`.  The
        observed schedule stays bit-identical because observers never
        create engine events.
        """
        observers = self._observers
        client = self.client_id
        injector = self._injector
        engine = self.engine
        stats = self.stats
        for obs in observers:
            obs.op_begin(client, getattr(gen, "__name__", "op"), engine.now)
        status = "error"
        try:
            result = None
            pending: Exception | None = None
            while True:
                try:
                    if pending is not None:
                        exc, pending = pending, None
                        op = gen.throw(exc)
                    else:
                        op = gen.send(result)
                except StopIteration as stop:
                    status = "ok"
                    return stop.value
                except RetryLimitExceeded as exc:
                    status = "failed"
                    exc.attach_context(client, replace(stats))
                    if injector is not None:
                        exc.attach_fault_trace(injector.trace_tuple())
                    raise
                cls = op.__class__
                if cls is LocalCompute:
                    stats.local_compute_ns += op.ns
                    yield engine.timeout(op.ns)
                    result = None
                    continue
                for obs in observers:
                    obs.on_round_trip(client)
                if self._budget and stats.messages > self._budget:
                    raise SimulationError(
                        f"verb budget exceeded for {client}: "
                        f"{stats.messages} messages - livelock under "
                        "faults?")
                decision = None if injector is None else self._gate(op)
                stats.round_trips += 1
                if cls is not Batch and decision is not None \
                        and decision.kind == "crash_cn" \
                        and not decision.applied:
                    # The CN dies posting the verb: nothing is sent.
                    stats.faults_injected += 1
                    raise _fault_error(client, op, decision)
                # engine._active is the process being dispatched - our
                # driving client, which the trip resumes.
                worker = engine._active
                if worker is None:
                    raise SimulationError(
                        f"{client}: SimExecutor.run posted a verb outside "
                        "an engine process (a hand-stepped generator)")
                try:
                    if cls is Batch:
                        stats.batches += 1
                        _BatchTrip(self, op.ops, worker, decision)
                        result = yield _DEFER
                        if decision is not None:
                            _raise_member_faults(result)
                        continue
                    # Stage 0 ran in the constructor, so the record
                    # exists; hold it, not the trip (a trip -> worker ->
                    # frame cycle).
                    rec = _VerbTrip(self, op, worker, decision).rec
                    result = yield _DEFER
                    if decision is None:
                        if rec is not None:
                            _done(observers, rec, engine.now)
                        continue
                    result = self._finish(rec, op, decision, result)
                    if isinstance(result, Exception):
                        raise result
                except (InjectedFault, MNUnavailable) as exc:
                    # Delivered into the generator (retry vs. degrade at
                    # the yield); ClientCrash is NOT - the generator of
                    # a dead CN is abandoned with its locks still held.
                    for obs in observers:
                        # MNUnavailable is not a fault-rule kind.
                        obs.on_fault(client,
                                     getattr(exc, "kind", "mn_unavailable"),
                                     exc.addr or 0, engine.now)
                    pending = exc
                    result = None
        finally:
            for obs in observers:
                obs.op_end(client, engine.now, status)
