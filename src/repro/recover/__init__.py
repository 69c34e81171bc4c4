"""Crash recovery for the simulated DM testbed (DESIGN.md §9).

Remote lock words have no spare bits for an owner or epoch, so leases
live CN-side: executors report every lease-tagged lock verb into a
:class:`LeaseTable`, and a :class:`RecoveryManager` (attached via
:meth:`repro.dm.cluster.Cluster.attach_recovery`) expires orphaned
leases, CAS-reclaims the locks they cover, rolls crashed hash-table
splits forward or back, and drives ``fsck --repair`` for anything
structural the lock protocol alone cannot mend.
"""

from .failover import FailoverManager
from .manager import (
    LEASE_NS,
    LeaseRecord,
    LeaseTable,
    RecoveryManager,
    RecoveryReport,
)
from .rebalance import Rebalancer

__all__ = [
    "FailoverManager",
    "LEASE_NS",
    "LeaseRecord",
    "LeaseTable",
    "RecoveryManager",
    "RecoveryReport",
    "Rebalancer",
]
