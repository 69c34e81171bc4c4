"""A small deterministic discrete-event simulation engine.

This is the timing substrate for the disaggregated-memory model: client
operations are Python generators that ``yield`` events (timeouts, child
processes, sub-operations) and are resumed by the engine when those
events fire.  The design follows SimPy's process/event model, trimmed to
exactly what the RDMA substrate needs:

* :class:`Event` - one-shot, carries a value, resumes its one waiter
  when fired; :meth:`Engine.timeout` builds one due ``delay`` ns later.
* :class:`Process` - wraps a generator; itself an event that fires with
  the generator's return value.
* :class:`Engine` - the clock and the event queues.

Time is integer **nanoseconds**; all ordering is deterministic (ties broken
by schedule order), which keeps benchmark results reproducible.

Fast path
---------

Many events in an RDMA workload are *zero-delay bookkeeping* - process
bootstraps, doorbell boots and joins, zero-length computes - not
timing-relevant completions.  The engine therefore keeps two structures:

* a min-heap of ``(time, seq, event)`` for events scheduled strictly in
  the future, and
* a plain FIFO deque of bare events due "now" (each event carries its
  ``_when``/``_seq`` in slots, so no per-event tuple is allocated).

``seq`` is shared and monotonically increasing, so merging the two by
``(time, seq)`` reproduces the single-heap execution order exactly.  The
fast loop exploits an invariant of this split: every heap entry at time
``t`` was created strictly before simulated time ``t`` (a positive delay
always lands in the future), while every FIFO entry at time ``t`` was
created *at* time ``t`` - so at each timestamp the heap run drains first,
then the FIFO run, and nothing created during the drain can sort into the
part already drained.  :meth:`Engine.run` therefore advances ``self.now``
once per timestamp and dispatches whole same-time runs in tight inner
loops ("macro-batch draining") instead of re-entering the heap-vs-FIFO
comparison per event.

One rule keeps the dispatch cheap: **an event has exactly one waiter**.
A process yields either a fresh event that nobody waits on yet (a
timeout, a child process, a pending :meth:`Engine.event`) or ``_DEFER``.
The yielding process is stored in the event's ``_proc`` slot, and the
dispatch loop calls ``gen.send`` directly, with no bound-method call
and no callback list.  A ``repro.dm.rdma`` verb trip is instead its own
callback, in the ``_cb1`` slot.  Waiting on an event that already has a
waiter, or that has already fired, raises :class:`SimulationError`
naming the process: there is no second subscriber to fall back to.

Setting the environment variable ``REPRO_SIM_SLOW=1`` (checked at
:class:`Engine` construction) selects :meth:`Engine._run_ref` as the one
loop that :meth:`Engine.run` and :meth:`Engine.run_until_complete`
drive: the engine's own zero-delay events go through the heap again,
and events are dispatched strictly one at a time, merged head-to-head
by ``(time, seq)``, a waiter resumed through :meth:`Process._resume`
rather than inline - the bit-identical reference oracle of the dispatch
loop.  It takes the fast loop's ``(until, stop, limit)`` and checks them
at the same timestamp boundaries.  Both loops dispatch the same events
(``repro.dm.rdma``'s verb trips included), so ``events_processed`` is
equal across them.  The equivalence suites in
``tests/test_sim_fastpath.py`` and ``tests/test_perf_equivalence.py``
diff benchmark rows across the two loops.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional

from ..errors import SimulationError

PENDING = object()

#: Sentinel stored in an event's callback slot once the engine has
#: processed it; waiting on the event then raises.
_PROCESSED = object()

#: Sentinel a generator may yield to tell the dispatch loop "I already
#: subscribed myself to a future event" (see repro.dm.rdma's verb trips,
#: which put the yielding process in their own ``_proc`` slot for their
#: last dispatch).  The loop skips subscriber registration; the generator
#: is resumed when whatever event it attached itself to fires.
_DEFER = object()


def _slow_requested() -> bool:
    return os.environ.get("REPRO_SIM_SLOW", "") not in ("", "0")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` gives it a value and queues
    it for dispatch at the current simulation time, which resumes its one
    waiter: the process in ``_proc``, or the callable in ``_cb1``.
    """

    __slots__ = ("engine", "_cb1", "_value", "_proc", "_when", "_seq")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._proc: Optional["Process"] = None
        self._value: Any = PENDING

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value read before it triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        self.engine._queue_event(self)
        return self


class Process(Event):
    """Drives a generator of events; fires with the generator's return value.

    The generator may ``yield`` any :class:`Event` nobody waits on yet;
    it is resumed with the event's value.  ``yield from`` composes
    sub-operations naturally.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        super().__init__(engine)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: resume once at the current time, through the
        # _proc slot on both loops.
        engine.timeout(0)._proc = self

    def _resume(self, event: Event) -> None:
        """The reference loop's dispatch; the fast loop inlines it."""
        self.engine._active = self
        try:
            target = self._gen.send(event._value)
        except StopIteration as stop:
            if self._value is PENDING:
                self.succeed(stop.value)
            return
        if (isinstance(target, Event) and target._cb1 is None
                and target._proc is None):
            target._proc = self
        elif target is not _DEFER:
            self._refuse(target)

    def _refuse(self, target: Any) -> None:
        """Raise for a yield the one-waiter rule refuses: not an event,
        an event that already fired, or one that already has a waiter
        (both loops' error path)."""
        self._gen.close()
        if not isinstance(target, Event):
            what = f"yielded {type(target).__name__}, expected an Event"
        elif target._cb1 is _PROCESSED:
            what = "waits on an event that has already fired"
        else:
            what = "waits on an event that already has a waiter"
        raise SimulationError(f"process {self.name!r} {what}")


class Engine:
    """The simulation clock and scheduler.

    ``slow=None`` (the default) consults ``REPRO_SIM_SLOW``; passing an
    explicit boolean pins the dispatch loop regardless of environment.
    """

    def __init__(self, slow: Optional[bool] = None):
        self.now: int = 0
        self._heap: List = []
        self._fifo: deque = deque()
        self._seq = 0
        self._slow = _slow_requested() if slow is None else bool(slow)
        # The one loop run() and run_until_complete() drive, unbound: a
        # bound method would tie the engine into a reference cycle.
        self._loop = Engine._run_ref if self._slow else Engine._run_fast
        self._active: Optional[Process] = None
        self.events_processed: int = 0

    # -- scheduling ---------------------------------------------------
    def _queue_event(self, event: Event) -> None:
        seq = self._seq = self._seq + 1
        if self._slow:
            heappush(self._heap, (self.now, seq, event))
        else:
            event._when = self.now
            event._seq = seq
            self._fifo.append(event)

    def _peek_time(self) -> Optional[int]:
        """Timestamp of the next event across both queues, if any."""
        if self._fifo:
            when = self._fifo[0]._when
            if self._heap and self._heap[0][0] < when:
                return self._heap[0][0]
            return when
        if self._heap:
            return self._heap[0][0]
        return None

    # -- public factory helpers ---------------------------------------
    def timeout(self, delay: int, value: Any = None) -> Event:
        """An event that fires ``delay`` ns from now: one seq draw, then
        the FIFO for a zero delay and the heap otherwise.  The split is
        what `_run_fast` relies on - a heap entry is never created at
        its own timestamp.  ``repro.dm.rdma``'s verb trips re-arm
        themselves with an inlined copy of this rule, once per NIC
        stage; keep the two in step."""
        # Built inline, bypassing Event.__init__: one per LocalCompute
        # of every op.
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        ev = Event.__new__(Event)
        ev.engine = self
        ev._cb1 = None
        ev._proc = None
        ev._value = value
        seq = self._seq = self._seq + 1
        if delay == 0 and not self._slow:
            ev._when = self.now
            ev._seq = seq
            self._fifo.append(ev)
        else:
            heappush(self._heap, (self.now + delay, seq, ev))
        return ev

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    # -- main loop ----------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Process events until both queues empty or the clock passes
        ``until``.  Returns the final simulation time.  An ``until``
        before the current time is refused: the clock never moves
        backwards."""
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is before the current time {self.now}")
        return self._loop(self, until, None, None)

    def run_until_complete(self, process: Process,
                           limit: Optional[int] = None) -> Any:
        """Run until ``process`` finishes; returns its value.

        ``limit`` guards against runaway simulations (deadlock / livelock
        bugs) by bounding simulated time.
        """
        if not process.triggered:
            self._loop(self, None, process, limit)
        return process.value

    def _run_fast(self, until: Optional[int], stop: Optional[Process],
                  limit: Optional[int]) -> int:
        """Batched dispatch loop (the fast path).

        Processes whole same-timestamp runs per iteration: the heap run
        first (created strictly before this timestamp, so smaller seq),
        then the FIFO run (created at this timestamp; appends during the
        drain join the same run in seq order).  ``stop`` turns the loop
        into ``run_until_complete``: after each complete timestamp batch
        the stop process is checked, and an empty queue with ``stop``
        still pending is a deadlock.
        """
        heap = self._heap
        fifo = self._fifo
        popleft = fifo.popleft
        processed = 0
        try:
            while heap or fifo:
                if fifo:
                    t = fifo[0]._when
                    if heap and heap[0][0] < t:
                        t = heap[0][0]
                else:
                    t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    return until
                if limit is not None and t > limit:
                    raise SimulationError(
                        f"process {stop.name!r} exceeded time limit {limit}"
                    )
                self.now = t
                while heap and heap[0][0] == t:
                    event = heappop(heap)[2]
                    processed += 1
                    proc = event._proc
                    cb1 = event._cb1
                    event._cb1 = _PROCESSED
                    if proc is not None:
                        event._proc = None
                        self._active = proc
                        gen = proc._gen
                        try:
                            target = gen.send(event._value)
                        except StopIteration as stop_iter:
                            if proc._value is PENDING:
                                proc.succeed(stop_iter.value)
                        else:
                            if (isinstance(target, Event)
                                    and target._cb1 is None
                                    and target._proc is None):
                                target._proc = proc
                            elif target is not _DEFER:
                                proc._refuse(target)
                    if cb1 is not None:
                        cb1(event)
                while fifo and fifo[0]._when == t:
                    event = popleft()
                    processed += 1
                    proc = event._proc
                    cb1 = event._cb1
                    event._cb1 = _PROCESSED
                    if proc is not None:
                        event._proc = None
                        self._active = proc
                        gen = proc._gen
                        try:
                            target = gen.send(event._value)
                        except StopIteration as stop_iter:
                            if proc._value is PENDING:
                                proc.succeed(stop_iter.value)
                        else:
                            if (isinstance(target, Event)
                                    and target._cb1 is None
                                    and target._proc is None):
                                target._proc = proc
                            elif target is not _DEFER:
                                proc._refuse(target)
                    if cb1 is not None:
                        cb1(event)
                if stop is not None and stop._value is not PENDING:
                    return self.now
            if stop is not None and stop._value is PENDING:
                raise SimulationError(
                    f"deadlock: process {stop.name!r} pending with an "
                    "empty event heap"
                )
            return self.now
        finally:
            self.events_processed += processed
            self._active = None

    def _run_ref(self, until: Optional[int], stop: Optional[Process],
                 limit: Optional[int]) -> int:
        """Reference dispatch loop: one event at a time, merged by
        ``(time, seq)`` head-to-head - the ``REPRO_SIM_SLOW=1`` oracle.
        ``until``, ``stop`` and ``limit`` mean what they mean to
        :meth:`_run_fast` and are checked at the same timestamp
        boundaries."""
        heap = self._heap
        fifo = self._fifo
        t = None  # the timestamp being drained
        try:
            while heap or fifo:
                from_fifo = fifo and not (
                    heap and (heap[0][0], heap[0][1])
                    < (fifo[0]._when, fifo[0]._seq))
                when = fifo[0]._when if from_fifo else heap[0][0]
                if when != t:
                    if stop is not None and stop._value is not PENDING:
                        return self.now
                    if until is not None and when > until:
                        self.now = until
                        return until
                    if limit is not None and when > limit:
                        raise SimulationError(
                            f"process {stop.name!r} exceeded time limit "
                            f"{limit}"
                        )
                    t = self.now = when
                event = fifo.popleft() if from_fifo else heappop(heap)[2]
                self.events_processed += 1
                proc = event._proc
                cb1 = event._cb1
                event._cb1 = _PROCESSED
                if proc is not None:
                    event._proc = None
                    proc._resume(event)
                if cb1 is not None:
                    cb1(event)
            if stop is not None and stop._value is PENDING:
                raise SimulationError(
                    f"deadlock: process {stop.name!r} pending with an "
                    "empty event heap"
                )
            return self.now
        finally:
            self._active = None
