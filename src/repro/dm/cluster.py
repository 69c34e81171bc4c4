"""Cluster assembly: memory nodes, compute nodes, NICs, placement.

A :class:`Cluster` bundles the full simulated testbed - the paper's three
machines each hosting a CN and an MN - and hands out executors:

* ``direct_executor()`` for untimed bulk loading / inspection,
* ``sim_executor(cn_id)`` for timed benchmark clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigError
from ..sim import Engine
from .memory import Memory, addr_mn, addr_offset, make_addr
from .network import NetworkConfig, Nic
from .placement import NodePlacement
from .rdma import DirectExecutor, OpStats, SimExecutor


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
        self.monitor = None        # optional DMSan AccessMonitor
        self.injector = None       # optional repro.fault FaultInjector
        self.tracer = None         # optional repro.obs Tracer
        self.recovery = None       # optional repro.recover RecoveryManager
        self._client_seq = 0
        self._seed_seq = 0

    # -- sanitizer ---------------------------------------------------------
    def attach_monitor(self, monitor) -> None:
        """Route every verb and allocator event through ``monitor``.

        Executors created *after* this call carry the monitor; attach it
        before building indexes so the monitor sees every allocation.
        """
        self.monitor = monitor
        monitor.bind_clock(lambda: self.engine.now)
        for memory in self.memories.values():
            memory.tracker = monitor

    def attach_sanitizer(self, config=None):
        """Create a DMSan :class:`repro.san.AccessMonitor`, attach it, and
        return it (convenience for tests and debugging sessions)."""
        from ..san import AccessMonitor  # local import: san depends on dm
        monitor = AccessMonitor(config)
        self.attach_monitor(monitor)
        return monitor

    # -- fault injection ---------------------------------------------------
    def attach_faults(self, plan):
        """Bind a :class:`repro.fault.FaultPlan` to this cluster and
        return the live :class:`repro.fault.FaultInjector`.

        Mirrors :meth:`attach_monitor`: executors created *after* this
        call ask the injector's fault gate about every verb as they post
        it; executors created before it are untouched.  A verb the gate
        passes runs exactly as with no plan attached - the plan selects
        no verb path and does not serialise doorbells (DESIGN.md 7.1).
        Attach after bulk loading so the loaded image is fault-free and
        snapshot-shareable.
        """
        from ..fault import FaultInjector  # local import: fault uses dm
        injector = FaultInjector(plan, self.memories)
        self.injector = injector
        return injector

    # -- observability -----------------------------------------------------
    def attach_tracer(self, tracer=None, config=None):
        """Bind a :class:`repro.obs.Tracer` (created from ``config`` when
        not given) to this cluster and return it.

        Mirrors :meth:`attach_monitor` / :meth:`attach_faults`: executors
        created *after* this call report op spans and verb events into
        the tracer; executors created before it are untouched.  The
        tracer samples resource gauges passively (never creating engine
        events), so an attached tracer leaves the simulated schedule
        bit-identical - see DESIGN.md §8.
        """
        if tracer is None:
            from ..obs import Tracer  # local import: obs depends on dm
            tracer = Tracer(config)
        self.tracer = tracer
        tracer.attach_resources(self)
        return tracer

    def detach_tracer(self):
        """Stop tracing: executors created from here on run the
        zero-overhead clean path.  Returns the detached tracer."""
        tracer, self.tracer = self.tracer, None
        return tracer

    # -- crash recovery ----------------------------------------------------
    def attach_recovery(self, config=None):
        """Create a :class:`repro.recover.RecoveryManager`, attach it, and
        return it.

        Mirrors :meth:`attach_monitor` / :meth:`attach_faults` /
        :meth:`attach_tracer`: executors created *after* this call report
        lease-tagged lock verbs into the manager's
        :class:`repro.recover.LeaseTable`; executors created before it -
        and every cluster with no manager attached - run the exact
        pre-recovery path, so schedules and OpStats stay bit-identical.
        """
        from ..recover import RecoveryManager  # local: recover uses dm
        manager = RecoveryManager(self, config)
        self.recovery = manager
        return manager

    def detach_recovery(self):
        """Stop lease tracking: executors created from here on run the
        clean path.  Returns the detached manager."""
        manager, self.recovery = self.recovery, None
        return manager

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
        recovery = self.recovery
        return DirectExecutor(self.memories, stats,
                              monitor=self.monitor,
                              client_id=self._next_client_id("direct"),
                              clock=lambda: self.engine.now,
                              injector=self.injector,
                              tracer=self.tracer,
                              lease_hook=None if recovery is None
                              else recovery.lease_table.on_verb)

    def sim_executor(self, cn_id: int,
                     stats: OpStats | None = None) -> SimExecutor:
        if cn_id not in self.cn_nics:
            raise ConfigError(f"no such compute node {cn_id}")
        recovery = self.recovery
        return SimExecutor(self.engine, self.memories,
                           self.cn_nics[cn_id], self.mn_nics,
                           self.config.network, stats,
                           monitor=self.monitor,
                           client_id=self._next_client_id(f"cn{cn_id}"),
                           injector=self.injector,
                           tracer=self.tracer,
                           lease_hook=None if recovery is None
                           else recovery.lease_table.on_verb)

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
