"""Structured tracing: per-op spans, nested verb events, resource gauges.

A :class:`Tracer` is an :class:`repro.dm.rdma.Observer`, attached to a
cluster through :meth:`repro.dm.cluster.Cluster.attach_tracer` like the
DMSan monitor and the lease table.  Executors created afterwards report
into it:

* ``op_begin``/``op_end`` bracket one client operation (one
  ``executor.run(...)`` of an op generator) into an :class:`OpSpan`;
* ``on_complete`` nests one executed RDMA verb - kind, target MN,
  address, request/response payload bytes, simulated start/end time, the
  op's retry round, and an injected-fault tag when the chaos substrate
  perturbed it - into the client's open span;
* ``on_fault`` tags the span when an :class:`repro.errors.InjectedFault`
  is delivered into the client generator and bumps its retry counter.

Resource gauges (NIC busy fraction, queued work, delivered bandwidth)
are sampled **passively**: the tracer snapshots them when a verb
completes and at least ``sample_every_ns`` of simulated time has passed
since the previous sample.  Sampling therefore never creates engine
events, which is what keeps an *attached* tracer schedule-invariant -
the same simulated history, with or without observability (the
determinism suite pins this down; detached, the executors do not touch
the tracer at all).

Everything the tracer records is a pure function of simulated state, so
traces are bit-reproducible: same seed, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dm.memory import addr_mn
from ..dm.rdma import SILENT_FAULTS, VERB_KIND, Observer, VerbRecord, \
    verb_sizes


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of one tracer."""

    sample_every_ns: int = 50_000
    """Minimum simulated time between resource samples (0 disables)."""

    record_verbs: bool = True
    """Keep the per-verb event list on every span (the span aggregates
    stay filled either way)."""

    max_spans: int = 0
    """Retain at most this many spans for export (0 = unbounded).  The
    per-op profile totals keep aggregating past the cap."""


@dataclass
class VerbEvent:
    """One executed RDMA verb inside an op span."""

    kind: str                 # "read" | "write" | "cas" | "faa"
    addr: int                 # 48-bit global address
    mn: int                   # memory node the verb targeted
    req_bytes: int            # request payload bytes
    resp_bytes: int           # response payload bytes
    t_start: int              # simulated ns at issue
    t_end: int                # simulated ns at completion
    retry: int = 0            # op retry round the verb was issued in
    fault: Optional[str] = None   # injected-fault kind, when perturbed


@dataclass
class FaultTag:
    """One injected fault delivered while an op span was open."""

    kind: str
    addr: int
    t: int


@dataclass
class OpSpan:
    """One client operation (search/insert/update/scan/...)."""

    seq: int
    client: str
    name: str
    t_start: int
    t_end: int = -1            # -1 while the op is still running
    status: str = "open"       # "ok" | "failed" | "error"
    retries: int = 0           # injected faults delivered into the op
    round_trips: int = 0
    messages: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    verbs: List[VerbEvent] = field(default_factory=list)
    faults: List[FaultTag] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return 0 if self.t_end < 0 else self.t_end - self.t_start


@dataclass
class ResourceSample:
    """One point-in-time snapshot of cluster resource gauges."""

    t: int
    gauges: Dict[str, float]


class Tracer(Observer):
    """Event sink for spans, verb events, and resource samples."""

    def __init__(self, config: TraceConfig | None = None):
        self.config = config if config is not None else TraceConfig()
        self.spans: List[OpSpan] = []
        self.orphan_verbs: List[VerbEvent] = []
        self.samples: List[ResourceSample] = []
        self.dropped_spans = 0
        self.op_totals: Dict[str, Dict[str, int]] = {}
        self._open: Dict[str, List[OpSpan]] = {}
        self._seq = 0
        # Live resource references (dropped by finish() so traces pickle
        # without dragging the whole cluster along).
        self._engine = None
        self._nics: List = []
        self._next_sample = 0
        self._last_bytes: Dict[str, int] = {}
        self._last_sample_t = 0

    # -- span lifecycle --------------------------------------------------
    def op_begin(self, client: str, name: str, now: int) -> OpSpan:
        self._seq += 1
        span = OpSpan(self._seq, client, name, now)
        limit = self.config.max_spans
        if limit and len(self.spans) >= limit:
            self.dropped_spans += 1
        else:
            self.spans.append(span)
        self._open.setdefault(client, []).append(span)
        return span

    def op_end(self, client: str, now: int, status: str = "ok") -> None:
        stack = self._open.get(client)
        if not stack:
            return
        span = stack.pop()
        span.t_end = now
        span.status = status
        agg = self.op_totals.get(span.name)
        if agg is None:
            agg = self.op_totals[span.name] = {
                "count": 0, "failed": 0, "round_trips": 0, "messages": 0,
                "bytes_read": 0, "bytes_written": 0, "retries": 0,
                "sim_ns": 0,
            }
        agg["count"] += 1
        if status != "ok":
            agg["failed"] += 1
        agg["round_trips"] += span.round_trips
        agg["messages"] += span.messages
        agg["bytes_read"] += span.bytes_read
        agg["bytes_written"] += span.bytes_written
        agg["retries"] += span.retries
        agg["sim_ns"] += span.duration_ns
        self._maybe_sample(now)

    def _current(self, client: str) -> Optional[OpSpan]:
        stack = self._open.get(client)
        return stack[-1] if stack else None

    # -- executor hooks --------------------------------------------------
    def on_complete(self, rec: VerbRecord) -> None:
        """Record one executed verb into the client's open span; a fault
        that does not surface as an exception (a delay, a phantom
        duplicate, a stale CAS reply) also tags the span."""
        op = rec.op
        req_bytes, resp_bytes = verb_sizes(op)
        span = self._current(rec.client)
        event = VerbEvent(VERB_KIND[op.__class__], op.addr, addr_mn(op.addr),
                          req_bytes, resp_bytes, rec.t_post, rec.t_done,
                          retry=span.retries if span is not None else 0,
                          fault=rec.fault)
        if span is None:
            self.orphan_verbs.append(event)
        else:
            span.messages += 1
            if event.kind == "read":
                span.bytes_read += resp_bytes
            elif event.kind == "write":
                span.bytes_written += req_bytes
            if self.config.record_verbs:
                span.verbs.append(event)
            if rec.fault in SILENT_FAULTS:
                span.faults.append(FaultTag(rec.fault, 0, span.t_start))
        self._maybe_sample(rec.t_done)

    def on_round_trip(self, client: str) -> None:
        span = self._current(client)
        if span is not None:
            span.round_trips += 1

    def on_fault(self, client: str, kind: str, addr: int, now: int) -> None:
        """An injected fault surfaced at the client's yield point."""
        span = self._current(client)
        if span is None:
            return
        span.retries += 1
        span.faults.append(FaultTag(kind, addr, now))

    # -- resource sampling ----------------------------------------------
    def attach_resources(self, cluster) -> None:
        """Bind the cluster's engine and NICs for passive gauge sampling."""
        self._engine = cluster.engine
        self._nics = (sorted(cluster.mn_nics.values(), key=lambda n: n.name)
                      + sorted(cluster.cn_nics.values(),
                               key=lambda n: n.name))
        self._last_bytes = {nic.name: nic.payload_bytes
                            for nic in self._nics}
        self._last_sample_t = cluster.engine.now
        self._next_sample = cluster.engine.now

    def _maybe_sample(self, now: int) -> None:
        if self._engine is None or not self.config.sample_every_ns:
            return
        if now < self._next_sample:
            return
        self.sample(now)
        self._next_sample = now + self.config.sample_every_ns

    def sample(self, now: int) -> None:
        """Snapshot every bound NIC's gauges at simulated time ``now``."""
        if self._engine is None:
            return
        dt = now - self._last_sample_t
        gauges: Dict[str, float] = {}
        for nic in self._nics:
            server = nic.server
            busy = server.busy_time / (now * server.capacity) if now else 0.0
            gauges[f"{nic.name}.busy_frac"] = round(busy, 6)
            gauges[f"{nic.name}.queue_ns"] = float(server.backlog_ns(now))
            delta = nic.payload_bytes - self._last_bytes.get(nic.name, 0)
            self._last_bytes[nic.name] = nic.payload_bytes
            gbps = (delta * 8.0 / dt) if dt > 0 else 0.0
            gauges[f"{nic.name}.gbps"] = round(gbps, 4)
        self.samples.append(ResourceSample(now, gauges))
        self._last_sample_t = now

    # -- teardown --------------------------------------------------------
    def finish(self) -> "Tracer":
        """Close out the trace: one final sample, live references dropped
        (so results carrying the tracer pickle cleanly across the
        fork-pool grid), open spans marked as such."""
        if self._engine is not None:
            self.sample(self._engine.now)
        self._engine = None
        self._nics = []
        self._open = {}
        return self
