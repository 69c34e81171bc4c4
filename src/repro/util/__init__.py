"""Shared low-level utilities: bit packing, hashing, checksums, distributions."""

from .bits import BitField, BitStruct, round_up, u64_from_bytes, u64_to_bytes
from .checksum import leaf_checksum, verify
from .hashing import (
    ConsistentHashRing,
    fingerprint,
    hash64,
    hash_pair,
    prefix_hash42,
)
from .zipf import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    zeta,
)

__all__ = [
    "BitField",
    "BitStruct",
    "round_up",
    "u64_from_bytes",
    "u64_to_bytes",
    "leaf_checksum",
    "verify",
    "ConsistentHashRing",
    "fingerprint",
    "hash64",
    "hash_pair",
    "prefix_hash42",
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "zeta",
]
