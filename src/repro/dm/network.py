"""Network and NIC model for the simulated DM cluster.

The paper's performance argument is about *messages and bytes through
NICs*: tree traversal costs one round trip per level; the inner-node hash
table costs Theta(L) parallel messages; the succinct filter cache brings
that down to one.  We therefore model each NIC as a FIFO station with a
per-message processing cost plus a serialization cost proportional to the
message size, and a fixed propagation delay between CNs and MNs.  Queueing
at these stations under increasing worker counts produces the saturation
behaviour of Fig 5.

Defaults approximate the paper's testbed (ConnectX-6, ~2 us RTT,
100 Gbps): one verb's unloaded round trip is

    cn_msg + prop + mn_msg + mem + mn_msg + prop + cn_msg  ~=  2.0 us
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..sim import Engine


@dataclass(frozen=True)
class NetworkConfig:
    """Timing parameters of the simulated fabric (all times ns)."""

    prop_ns: int = 800
    """One-way propagation + switching delay between a CN and an MN."""

    cn_msg_ns: int = 25
    """Per-message processing cost at a compute-node NIC (40 Mmsg/s)."""

    mn_msg_ns: int = 25
    """Per-message processing cost at a memory-node NIC."""

    bytes_per_ns: float = 12.5
    """Serialization bandwidth, 12.5 B/ns = 100 Gbps."""

    mem_access_ns: int = 80
    """DRAM + PCIe DMA access latency on the memory side."""

    atomic_extra_ns: int = 30
    """Extra NIC-side cost of CAS/FAA over a plain READ/WRITE."""

    header_bytes: int = 32
    """Per-message wire overhead (RoCE/IB headers) added to payloads."""

    def msg_service_ns(self, side: str, payload_bytes: int) -> int:
        """Service time for one message carrying ``payload_bytes``."""
        per_msg = self.cn_msg_ns if side == "cn" else self.mn_msg_ns
        wire = payload_bytes + self.header_bytes
        return per_msg + int(wire / self.bytes_per_ns)

    def unloaded_rtt_ns(self, req_bytes: int = 0, resp_bytes: int = 8) -> int:
        """Latency of a single verb with no queueing (sanity/testing aid)."""
        return (self.msg_service_ns("cn", req_bytes)
                + self.prop_ns
                + self.msg_service_ns("mn", req_bytes)
                + self.mem_access_ns
                + self.msg_service_ns("mn", resp_bytes)
                + self.prop_ns
                + self.msg_service_ns("cn", resp_bytes))


@dataclass
class Nic:
    """One NIC: a single-server FIFO message-processing station (jobs
    are served in arrival order, one at a time, M/G/1-style) plus byte
    accounting.  Queueing here under load is what produces the
    throughput-latency saturation curves of the paper's Fig 5."""

    engine: Engine
    name: str
    config: NetworkConfig
    side: str  # "cn" or "mn"
    messages: int = field(init=False, default=0)
    payload_bytes: int = field(init=False, default=0)
    busy_time: int = field(init=False, default=0)
    free_at: int = field(init=False, default=0)
    """Simulated time at which the station finishes its accepted work."""
    stats_since: int = field(init=False, default=0)
    """Simulated time of the last :meth:`reset_stats`: ``messages``,
    ``payload_bytes`` and ``busy_time`` count from here."""

    def __post_init__(self):
        # Service time is a pure function of the payload size and the
        # (frozen) config, and verbs reuse a handful of payload sizes, so
        # memoize rather than redo the bandwidth arithmetic per message.
        self._service_ns: dict = {}

    def charge(self, payload_bytes: int, extra_ns: int = 0,
               arrive_delay: int = 0) -> int:
        """Account one message and advance the FIFO station, returning
        the **absolute** completion time without scheduling an event.

        ``arrive_delay`` is the wire time before the message reaches this
        NIC (propagation from the far side, DMA completion, ...); service
        starts at the later of its arrival and the end of the station's
        accepted work, and takes the message's service time plus
        ``extra_ns``.  The verb trips in :mod:`repro.dm.rdma` re-arm
        themselves at the returned time, once per stage.
        """
        self.messages += 1
        self.payload_bytes += payload_bytes
        service = self._service_ns.get(payload_bytes)
        if service is None:
            service = self._service_ns[payload_bytes] = \
                self.config.msg_service_ns(self.side, payload_bytes)
        service += extra_ns
        start = self.engine.now + arrive_delay
        free = self.free_at
        if free > start:
            start = free
        done = self.free_at = start + service
        self.busy_time += service
        return done

    def utilization(self) -> float:
        """Fraction of the simulated time since the last stats reset this
        station spent busy.  Accepted work still queued past now counts
        as busy, so the fraction is capped at 1."""
        elapsed = self.engine.now - self.stats_since
        return min(self.busy_time / elapsed, 1.0) if elapsed > 0 else 0.0

    def backlog_ns(self, now: int) -> int:
        """Accepted-but-unfinished work, in ns, ahead of a message
        arriving at simulated time ``now`` - the queue-depth gauge
        sampled by :class:`repro.obs.Tracer`."""
        free = self.free_at
        return free - now if free > now else 0

    def reset_stats(self) -> None:
        self.stats_since = self.engine.now
        self.messages = 0
        self.payload_bytes = 0
        self.busy_time = 0
