"""YCSB-style request distributions.

Faithful ports of the generators in the YCSB core package:

* :class:`UniformGenerator` - uniform over ``[0, n)``.
* :class:`ZipfianGenerator` - Gray et al.'s rejection-free zipfian sampler
  (the algorithm in "Quickly Generating Billion-Record Synthetic
  Databases"), skew ``theta`` (YCSB default 0.99).
* :class:`ScrambledZipfianGenerator` - zipfian popularity scattered across
  the keyspace with a hash, as YCSB uses for workloads A-C.
* :class:`LatestGenerator` - zipfian over recency: item ``max - z`` where
  ``z`` is zipfian, as YCSB uses for workload D.
"""

from __future__ import annotations

import random

from ..errors import InvalidArgument
from ..util.hashing import cache_put, hash64, memo

ZIPFIAN_CONSTANT = 0.99


# zeta is a pure function of (n, theta), and benchmark workers construct
# generators over keyspaces that differ by a handful of inserts - so a
# plain (n, theta) memo would miss almost every time while each miss
# recomputes an O(n) sum.  Instead cache the *prefix sums* per theta and
# extend incrementally.  Both ``sum()`` and the extension loop accumulate
# terms left to right in a single double, so the extended value is bit
# for bit the value a from-scratch sum would produce.
_zeta_prefix = memo("zipf.zeta")


def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number sum_{i=1..n} 1/i^theta."""
    prefix = _zeta_prefix.get(theta)
    if prefix is None:
        prefix = [0.0]  # prefix[i] == zeta(i, theta)
        cache_put(_zeta_prefix, theta, prefix)
    if n >= len(prefix):
        z = prefix[-1]
        for i in range(len(prefix), n + 1):
            z += 1.0 / (i ** theta)
            prefix.append(z)
    return prefix[n]


class UniformGenerator:
    """Uniform integers over ``[0, n)``."""

    def __init__(self, n: int, rng: random.Random):
        if n <= 0:
            raise InvalidArgument("n must be positive")
        self.n = n
        self._rng = rng

    def next(self) -> int:
        return self._rng.randrange(self.n)


class ZipfianGenerator:
    """Zipfian integers over ``[0, n)``; rank 0 is the most popular item."""

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT,
                 rng: random.Random | None = None):
        if n <= 0:
            raise InvalidArgument("n must be positive")
        if not 0 < theta < 1:
            raise InvalidArgument("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = rng if rng is not None else random.Random(0)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = zeta(n, theta)
        self._zeta2theta = zeta(2, theta)
        if n > 2:
            self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                         / (1.0 - self._zeta2theta / self._zetan))
        else:
            # For n <= 2 every draw lands in the closed-form branches of
            # next() (u * zeta(n) < 1 + 0.5**theta), so eta is never used.
            self._eta = 0.0

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)


class ScrambledZipfianGenerator:
    """Zipfian popularity with hot items scattered over the keyspace.

    YCSB hashes the zipfian rank so that popular items are not clustered
    at low key values (which would artificially improve tree locality).
    """

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT,
                 rng: random.Random | None = None):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, rng)

    def next(self) -> int:
        rank = self._zipf.next()
        return hash64(rank.to_bytes(8, "little"), 0x5C4A) % self.n


class LatestGenerator:
    """Zipfian over recency for YCSB-D: recently inserted items are hot.

    ``max_index`` is the index of the most recently inserted item; callers
    bump it via :meth:`advance` as the insert portion of the workload runs.
    """

    def __init__(self, initial_count: int, theta: float = ZIPFIAN_CONSTANT,
                 rng: random.Random | None = None):
        if initial_count <= 0:
            raise InvalidArgument("initial_count must be positive")
        self._rng = rng if rng is not None else random.Random(0)
        self.theta = theta
        self.max_index = initial_count - 1
        # Re-deriving zeta on every insert is O(n); YCSB uses an
        # incrementally-updated zipfian.  A fixed-horizon zipfian over the
        # most recent window is an accurate, cheap approximation.
        self._window = min(initial_count, 1 << 16)
        self._zipf = ZipfianGenerator(self._window, theta, self._rng)

    def advance(self, new_count: int = 1) -> None:
        """Record ``new_count`` newly inserted items."""
        self.max_index += new_count

    def next(self) -> int:
        offset = self._zipf.next()
        idx = self.max_index - offset
        return idx if idx >= 0 else 0


def zipf_pmf(n: int, theta: float) -> list:
    """Exact probability mass function of the zipfian distribution.

    Used by tests to validate the samplers against theory.
    """
    zn = zeta(n, theta)
    return [1.0 / (i ** theta) / zn for i in range(1, n + 1)]
