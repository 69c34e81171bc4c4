"""Node-grained locks (paper Sec. III-C).

An ART node's header word doubles as its lock: the 2-bit status field is
CASed Idle -> Locked by structural writers.  Reads stay lock-free; readers
only *check* status and retry on Locked/Invalid nodes.  Because the rest
of the header (type, depth, prefix hash, creation-time count) never
changes over a node's lifetime, the CAS expected value is always known
from the last node read.  Every lock word below is packed straight
from that header with its status replaced (the status is the word's low
two bits, ``art/layout.py``); no ``Header`` is built per lock.
"""

from __future__ import annotations

from ..art.layout import STATUS_IDLE, STATUS_INVALID, STATUS_LOCKED, Header, \
    header_word
from ..dm.rdma import CasOp, WriteOp
from ..util.bits import u64_to_bytes


def idle_word(header: Header) -> int:
    """``header``'s word with status Idle: what a lock CAS expects and an
    unlock writes back.  ORed with a status, it is that status's word."""
    return header_word(STATUS_IDLE, header.node_type, header.depth,
                       header.prefix_hash, header.count)


def try_lock_node(addr: int, header: Header):
    """CAS the node's header Idle -> Locked.  Returns True if acquired.

    ``header`` must be the header as last read (status Idle); a failed CAS
    means another writer got there first or the node went Invalid.

    The CAS carries a ``("node",)`` lease tag: when a
    :class:`repro.recover.RecoveryManager` is attached, the executor
    records who acquired this word so an orphaned lock (its owner
    crashed) can be expired and CAS-reclaimed.  The header itself has no
    spare bits for an owner/epoch, so the lease lives CN-side.
    """
    idle = idle_word(header)
    swapped, _old = yield CasOp(addr, idle, idle | STATUS_LOCKED,
                                lease=("node",))
    return swapped


def unlock_op(addr: int, header: Header) -> WriteOp:
    """The verb releasing a lock we hold (plain write; we own the node)."""
    return WriteOp(addr, u64_to_bytes(idle_word(header)),
                   lease=("release",))


def invalidate_op(addr: int, header: Header) -> WriteOp:
    """The verb retiring a node after a type switch (write Invalid)."""
    return WriteOp(addr, u64_to_bytes(idle_word(header) | STATUS_INVALID),
                   lease=("release",))
