"""Leaf-node checksums.

The paper's in-place update scheme (Sec. III-C) writes a whole leaf with a
single RDMA WRITE and relies on a checksum so that concurrent readers can
detect a partially visible write.  CRC32 is sufficient and fast.
"""

from __future__ import annotations

import zlib

CHECKSUM_BYTES = 4
LEAF_CHECKSUM_SEED = 0x5F3759DF


def leaf_checksum(payload: bytes) -> int:
    """32-bit checksum over a leaf's logical payload (lengths + key + value)."""
    return zlib.crc32(payload, LEAF_CHECKSUM_SEED) & 0xFFFFFFFF


def verify(payload: bytes, expected: int) -> bool:
    """True iff ``payload`` hashes to ``expected``."""
    return leaf_checksum(payload) == (expected & 0xFFFFFFFF)
