"""Leaf-node operations (paper Sec. III-C / IV, "Update").

Leaves are 64 B-aligned blobs with a status byte, a LeafLen (in 64 B
units), and a CRC32 checksum over the logical payload.  Readers verify
the checksum before trusting a leaf - a mismatch means the read raced an
in-place writer and is simply retried.  The in-place update protocol is
the paper's two-verb scheme:

1. CAS the leaf's first word from (Idle, ...) to (Locked, ...).
2. Locally build the new leaf image - new value, new checksum, status
   already back to Idle - and publish it with a single RDMA WRITE,
   folding the unlock into the value write.
"""

from __future__ import annotations

from ..art.layout import (
    LEAF_ALIGN,
    STATUS_IDLE,
    STATUS_INVALID,
    STATUS_LOCKED,
    LeafView,
    decode_leaf,
    encode_leaf,
    leaf_status_word,
    leaf_units_for,
)
from ..dm.rdma import CasOp, LocalCompute, ReadOp, WriteOp
from ..errors import InvalidArgument, RetryLimitExceeded
from ..fault.retry import DEFAULT_RETRY, RetryPolicy

LEAF_CATEGORY = "leaf"


def read_leaf(addr: int, units: int, retry: RetryPolicy = DEFAULT_RETRY):
    """Read and decode a leaf, retrying torn (checksum-failing) reads.

    Returns a :class:`LeafView`; ``view.status`` may be ``STATUS_INVALID``
    (deleted) or ``STATUS_LOCKED`` (update in flight) - callers decide how
    to react.  Raises after ``retry.torn_read_retries`` consecutive torn
    reads (lint S004: every retry loop is bound by the one RetryPolicy).
    """
    for attempt in range(retry.torn_read_retries):
        data = yield ReadOp(addr, units * LEAF_ALIGN)
        view = decode_leaf(data)
        if view.checksum_ok or view.status == STATUS_INVALID:
            return view
        yield LocalCompute(retry.torn_read_delay(attempt))
    raise RetryLimitExceeded("leaf kept failing checksum", addr=addr)


def write_new_leaf(addr: int, key: bytes, value: bytes,
                   units: int | None = None):
    """Write a fresh leaf image at a pre-allocated address."""
    yield WriteOp(addr, encode_leaf(key, value, STATUS_IDLE, units))


def in_place_update(addr: int, view: LeafView, new_value: bytes):
    """The paper's checksum-based in-place update.  Returns True on
    success, False if the lock CAS lost (caller retries the operation)."""
    if leaf_units_for(len(view.key), len(new_value)) > view.units:
        raise InvalidArgument("value does not fit; caller must go out-of-place")
    idle_word = leaf_status_word(STATUS_IDLE, view.units,
                                 len(view.key), len(view.value))
    locked_word = leaf_status_word(STATUS_LOCKED, view.units,
                                   len(view.key), len(view.value))
    swapped, _old = yield CasOp(addr, idle_word, locked_word,
                                lease=("leaf",))
    if not swapped:
        return False
    image = encode_leaf(view.key, new_value, STATUS_IDLE,
                        units=view.units, version=view.version + 1)
    yield WriteOp(addr, image, lease=("release",))
    return True


def invalidate_leaf(addr: int, view: LeafView):
    """Mark a leaf deleted (CAS Idle -> Invalid).  Returns True on success."""
    idle_word = leaf_status_word(STATUS_IDLE, view.units,
                                 len(view.key), len(view.value))
    invalid_word = leaf_status_word(STATUS_INVALID, view.units,
                                    len(view.key), len(view.value))
    swapped, _old = yield CasOp(addr, idle_word, invalid_word)
    return swapped
