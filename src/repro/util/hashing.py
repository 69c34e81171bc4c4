"""Deterministic hashing primitives.

The index stack needs several independent hash functions of byte strings:

* bucket placement in the RACE hash table (two functions, per MN),
* 12-bit fingerprints stored in hash entries (fp2 in the paper's Fig 3),
* the 42-bit full-prefix hash stored in ART node headers,
* cuckoo-filter bucket/fingerprint hashes,
* the consistent-hashing ring that spreads ART nodes over memory nodes.

Everything here is seeded and deterministic across processes (CPython's
builtin ``hash`` is not), built on ``zlib.crc32`` for speed with a
splitmix64 finalizer to de-correlate the two 32-bit halves.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, List, Sequence, Tuple

from ..errors import InvalidArgument

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """Finalizer from the splitmix64 PRNG; a strong 64-bit bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# Memo of computed hashes, one table per seed (the library uses a small
# fixed set of seeds).  hash64 is a pure function, so caching cannot
# change any result - but index workloads rehash the same keys and
# prefixes millions of times, and the cache turns each repeat into one
# dict probe.  Bounded: cleared wholesale if a table grows past _CACHE_MAX
# (re-filling is correct by purity; clearing keeps long sessions flat).
_CACHE_MAX = 1 << 21
_hash_tables: dict = {}

# Every memo that goes through ``cache_put``, by name (``memo``).
_memos: Dict[str, dict] = {}

FINGERPRINT_SEED = 0x0F1E2D3C


def cache_put(table: dict, key, value) -> None:
    """Store into a memo of a pure function, under the one bound."""
    if len(table) >= _CACHE_MAX:
        table.clear()
    table[key] = value


def memo(name: str) -> dict:
    """The process-wide ``cache_put`` table called ``name`` (made on
    first request), listed by :func:`memo_census`."""
    return _memos.setdefault(name, {})


def memo_census() -> Dict[str, int]:
    """``{name: entries}`` for every memo of a pure function in this
    process: ``hash64[<seed>]`` and whatever other modules asked
    :func:`memo` for (the ART header decoder's ``layout.header``, the filter
    cache's ``filter.probe(...)`` / ``filter.ladder(...)`` /
    ``filter.lanes(...)`` / ``filter.alt(...)``, the zipfian
    ``zipf.zeta``).  It is where host memory that is not simulated
    state goes."""
    return {name: len(table) for name, table in _memos.items()}


def hash64_raw(data: bytes, seed: int = 0) -> int:
    """:func:`hash64` without its memo: the computation itself.

    Two CRC32 passes with seed-derived initial values provide 64 input-
    sensitive bits; splitmix64 mixes them so that low bits are usable as
    bucket indexes and high bits as fingerprints.  For callers that keep
    their own table of derived values (the filter's probe and ladder
    tables) and so would only store every hash twice, and for bytes that
    are hashed once (a new key's leaf placement).
    """
    lo = zlib.crc32(data, seed & 0xFFFFFFFF)
    hi = zlib.crc32(data, (~seed ^ 0x5BD1E995) & 0xFFFFFFFF)
    return _splitmix64((hi << 32) | lo ^ ((seed >> 32) & _MASK64))


def hash64(data: bytes, seed: int = 0) -> int:
    """Seeded 64-bit hash of ``data``, memoized per seed."""
    table = _hash_tables.get(seed)
    if table is None:
        table = _hash_tables[seed] = memo(f"hash64[{seed:#x}]")
    h = table.get(data)
    if h is None:
        h = hash64_raw(data, seed)
        cache_put(table, data, h)
    return h


def hash_pair(data: bytes, seed: int = 0) -> Tuple[int, int]:
    """Two independent 64-bit hashes of ``data`` (for two-choice hashing)."""
    h1 = hash64(data, seed)
    h2 = _splitmix64(h1 ^ 0xA5A5A5A5DEADBEEF)
    return h1, h2


def fingerprint(data: bytes, bits: int,
                seed: int = FINGERPRINT_SEED) -> int:
    """A ``bits``-wide nonzero fingerprint of ``data``.

    Fingerprint 0 is reserved to mean "empty slot" in both the cuckoo
    filter and the inner-node hash table, so the value is remapped to 1.
    """
    if not 1 <= bits <= 62:
        raise InvalidArgument("fingerprint width must be in [1, 62]")
    fp = hash64(data, seed) & ((1 << bits) - 1)
    return fp if fp != 0 else 1


def prefix_hash42(data: bytes) -> int:
    """The 42-bit full-prefix hash stored in ART inner-node headers."""
    return hash64(data, 0x42_42_42) & ((1 << 42) - 1)


class ConsistentHashRing:
    """A classic consistent-hashing ring with virtual nodes.

    Used to spread ART nodes (and their hash-table entries) across memory
    nodes, as in the paper's Fig 1.  Lookup is O(log V) via bisect.
    """

    def __init__(self, members: Sequence[int], vnodes: int = 64, seed: int = 7):
        if not members:
            raise InvalidArgument("ring needs at least one member")
        if vnodes <= 0:
            raise InvalidArgument("vnodes must be positive")
        self._members = list(members)
        self._seed = seed
        points: List[Tuple[int, int]] = []
        for member in self._members:
            for v in range(vnodes):  # once per ring: not worth a memo
                token = hash64_raw(f"{member}:{v}".encode(), seed)
                points.append((token, member))
        points.sort()
        self._tokens = [p[0] for p in points]
        self._owners = [p[1] for p in points]

    @property
    def members(self) -> List[int]:
        return list(self._members)

    def lookup(self, data: bytes, hasher=hash64) -> int:
        """Return the member owning ``data``.

        ``hasher`` is :func:`hash64`, whose memo already makes a repeated
        lookup one dict probe plus a bisect, or :func:`hash64_raw` for
        bytes that are looked up once and so are not worth keeping.
        """
        idx = bisect.bisect_right(self._tokens,
                                  hasher(data, self._seed ^ 0xC0FFEE))
        return self._owners[idx if idx < len(self._tokens) else 0]

    def lookup_int(self, value: int) -> int:
        return self.lookup(value.to_bytes(8, "little", signed=False))

    def lookup_chain(self, data: bytes, count: int) -> List[int]:
        """The first ``count`` *distinct* members at/after ``data``'s
        token, in ring order (the successor chain replica placement
        walks).  ``lookup_chain(data, 1)[0] == lookup(data)``; asking
        for more members than the ring has returns them all.
        """
        if count < 1:
            raise InvalidArgument("chain length must be >= 1")
        h = hash64(data, self._seed ^ 0xC0FFEE)
        start = bisect.bisect_right(self._tokens, h)
        n = len(self._tokens)
        chain: List[int] = []
        seen = set()
        for step in range(n):
            member = self._owners[(start + step) % n]
            if member not in seen:
                seen.add(member)
                chain.append(member)
                if len(chain) == count:
                    break
        return chain
