"""Cluster assembly: memory nodes, compute nodes, NICs, placement.

A :class:`Cluster` bundles the full simulated testbed - the paper's three
machines each hosting a CN and an MN - and hands out executors:

* ``direct_executor()`` for untimed bulk loading / inspection,
* ``sim_executor(cn_id)`` for timed benchmark clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..errors import ConfigError
from ..sim import Engine
from .memory import Memory, addr_mn, addr_offset, make_addr
from .network import NetworkConfig, Nic
from .placement import NodePlacement
from .rdma import DirectExecutor, Observer, OpStats, SimExecutor


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and sizing of the simulated DM cluster."""

    num_mns: int = 3
    num_cns: int = 3
    mn_capacity_bytes: int = 1 << 30
    network: NetworkConfig = field(default_factory=NetworkConfig)
    ring_vnodes: int = 64
    placement_seed: int = 11

    def validate(self) -> None:
        if self.num_mns < 1:
            raise ConfigError("need at least one memory node")
        if self.num_cns < 1:
            raise ConfigError("need at least one compute node")
        if self.mn_capacity_bytes < (1 << 16):
            raise ConfigError("mn_capacity_bytes unreasonably small")


class Cluster:
    """The simulated disaggregated-memory testbed."""

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config if config is not None else ClusterConfig()
        self.config.validate()
        self.engine = Engine()
        net = self.config.network
        self.memories: Dict[int, Memory] = {
            mn: Memory(mn, self.config.mn_capacity_bytes)
            for mn in range(self.config.num_mns)
        }
        self.mn_nics: Dict[int, Nic] = {
            mn: Nic(self.engine, f"mn{mn}.nic", net, "mn",
                    net.mn_nic_capacity)
            for mn in range(self.config.num_mns)
        }
        self.cn_nics: Dict[int, Nic] = {
            cn: Nic(self.engine, f"cn{cn}.nic", net, "cn",
                    net.cn_nic_capacity)
            for cn in range(self.config.num_cns)
        }
        self.placement = NodePlacement(
            list(self.memories), vnodes=self.config.ring_vnodes,
            seed=self.config.placement_seed)
        self.observers: Tuple[Observer, ...] = ()
        self.injector = None       # optional repro.fault FaultInjector
        self.recovery = None       # optional repro.recover RecoveryManager
        self._client_seq = 0
        self._seed_seq = 0

    # -- observers ---------------------------------------------------------
    def attach(self, observer: Observer) -> Observer:
        """Report to ``observer`` (DMSan, a lease table, a tracer) every
        allocator block from now on, and every verb and op of the
        executors created *after* this call; executors created before it
        are untouched.  Observers never create engine events, so the
        simulated schedule stays bit-identical (DESIGN.md §8.4).
        Returns ``observer``."""
        self._observe(self.observers + (observer,))
        return observer

    def detach(self, observer: Observer) -> Observer:
        """Stop reporting to ``observer``: executors created from here on
        no longer see it.  Returns ``observer``."""
        self._observe(tuple(o for o in self.observers if o is not observer))
        return observer

    def _observe(self, observers: Tuple[Observer, ...]) -> None:
        self.observers = observers
        for memory in self.memories.values():
            memory.observers = observers

    def attach_sanitizer(self, config=None):
        """Attach a new DMSan :class:`repro.san.AccessMonitor` and return
        it; attach before building indexes so it sees every allocation."""
        from ..san import AccessMonitor  # local import: san depends on dm
        return self.attach(AccessMonitor(config))

    def attach_tracer(self, tracer=None, config=None):
        """Attach a :class:`repro.obs.Tracer` (created from ``config`` when
        not given) bound to this cluster's NIC gauges, and return it."""
        from ..obs import Tracer  # local import: obs depends on dm
        tracer = tracer if tracer is not None else Tracer(config)
        tracer.attach_resources(self)
        return self.attach(tracer)

    def detach_tracer(self):
        """Detach the last tracer attached and return it (None if none)."""
        from ..obs import Tracer  # local import: obs depends on dm
        tracers = [o for o in self.observers if isinstance(o, Tracer)]
        return self.detach(tracers[-1]) if tracers else None

    def attach_recovery(self, config=None):
        """Create a :class:`repro.recover.RecoveryManager`, attach its
        :class:`repro.recover.LeaseTable`, and return the manager."""
        from ..recover import RecoveryManager  # local: recover uses dm
        self.recovery = RecoveryManager(self, config)
        self.attach(self.recovery.lease_table)
        return self.recovery

    # -- fault injection ---------------------------------------------------
    def attach_faults(self, plan):
        """Bind a :class:`repro.fault.FaultPlan` to this cluster and
        return the live :class:`repro.fault.FaultInjector`.

        Like :meth:`attach`: executors created *after* this call ask the
        injector's fault gate about every verb as they post it;
        executors created before it are untouched.  A verb the gate
        passes runs exactly as with no plan attached - the plan selects
        no verb path and does not serialise doorbells (DESIGN.md 7.1).
        Attach after bulk loading so the loaded image is fault-free and
        snapshot-shareable.
        """
        from ..fault import FaultInjector  # local import: fault uses dm
        injector = FaultInjector(plan, self.memories)
        self.injector = injector
        return injector

    def _next_client_id(self, prefix: str) -> str:
        self._client_seq += 1
        return f"{prefix}#{self._client_seq}"

    def next_seed(self, salt: int = 0) -> int:
        """A deterministic per-cluster RNG seed.

        Client-side jitter RNGs must be seeded from *cluster-scoped*
        state: a process-global counter would make a client's random
        stream depend on how many clusters the process built before this
        one, breaking run-order independence (and with it, bit-identical
        serial-vs-parallel benchmark grids)."""
        self._seed_seq += 1
        return salt ^ self._seed_seq

    # -- allocation ------------------------------------------------------
    def alloc(self, mn_id: int, size: int, category: str = "generic") -> int:
        """Allocate on a specific MN; returns a 48-bit global address."""
        offset = self.memories[mn_id].alloc(size, category)
        return make_addr(mn_id, offset)

    def alloc_for_prefix(self, prefix: bytes, size: int,
                         category: str = "generic") -> int:
        """Allocate on the MN that consistent hashing assigns to ``prefix``."""
        return self.alloc(self.placement.mn_for_prefix(prefix), size, category)

    def alloc_for_leaf(self, key: bytes, size: int,
                       category: str = "leaf") -> int:
        return self.alloc(self.placement.mn_for_leaf(key), size, category)

    def free(self, addr: int, size: int, category: str = "generic") -> None:
        """Release a block previously handed out by :meth:`alloc`."""
        self.memories[addr_mn(addr)].free(addr_offset(addr), size, category)

    def retire(self, addr: int, size: int, category: str = "generic") -> None:
        """Release a once-visible block without recycling it (see
        :meth:`repro.dm.memory.Memory.retire`)."""
        self.memories[addr_mn(addr)].retire(addr_offset(addr), size, category)

    # -- executors ---------------------------------------------------------
    def direct_executor(self, stats: OpStats | None = None) -> DirectExecutor:
        return DirectExecutor(self.memories, stats,
                              client_id=self._next_client_id("direct"),
                              clock=lambda: self.engine.now,
                              injector=self.injector,
                              observers=self.observers)

    def sim_executor(self, cn_id: int,
                     stats: OpStats | None = None) -> SimExecutor:
        if cn_id not in self.cn_nics:
            raise ConfigError(f"no such compute node {cn_id}")
        return SimExecutor(self.engine, self.memories,
                           self.cn_nics[cn_id], self.mn_nics,
                           self.config.network, stats,
                           client_id=self._next_client_id(f"cn{cn_id}"),
                           injector=self.injector,
                           observers=self.observers)

    # -- accounting --------------------------------------------------------
    def mn_bytes_by_category(self) -> Dict[str, int]:
        """Net allocated MN bytes summed per category across all MNs."""
        total: Dict[str, int] = {}
        for memory in self.memories.values():
            for category, size in memory.allocated_by_category.items():
                total[category] = total.get(category, 0) + size
        return total

    def total_mn_bytes(self) -> int:
        return sum(m.allocated_bytes() for m in self.memories.values())

    def reset_nic_stats(self) -> None:
        for nic in list(self.mn_nics.values()) + list(self.cn_nics.values()):
            nic.reset_stats()
