"""The Succinct Filter Cache (paper Sec. III-B, Fig 2).

A cuckoo filter sized to a CN-side byte budget, tracking the *existence*
of inner-node prefixes rather than node contents.  When the budget cannot
hold every prefix, a second-chance (clock-like) policy keeps hot prefixes:

* every slot carries a **hotness bit**, set on access, cleared on
  insert/relocation;
* when both candidate buckets are full, a random cold entry (hotness 0)
  is replaced;
* if every candidate entry is hot, normal cuckoo relocation runs and all
  relocated entries have their hotness reset;
* if relocation exhausts its kick budget, the homeless fingerprint is
  dropped (an eviction - a tolerable false negative, repaired lazily by
  the search path's cache-refresh rule).

Unlike the plain :class:`~repro.filters.cuckoo.CuckooFilter`, insertion
therefore **never fails**; it may instead evict.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Tuple

from ..errors import FilterError
from ..util.hashing import FINGERPRINT_SEED, cache_put, hash64, hash64_raw

EMPTY = 0

# One probe table per filter geometry ``(fp_bits, num_buckets)``, shared
# by every filter of that geometry in the process: prefix bytes ->
# ``(fp, bucket1, bucket2, code1, code2)``, where a *resident code* is
# ``(bucket << fp_bits) | fp``.  It caches a pure function, so sharing
# cannot change an answer; it is filled from ``hash64_raw`` (nothing is
# stored twice) and bounded by ``cache_put`` like ``hash64``'s own
# tables.  Probes dominate every search.
_probe_tables: Dict[Tuple[int, int], dict] = {}


def _floor_pow2(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p <<= 1
    return p


class SuccinctFilterCache:
    """Budget-bound cuckoo filter with hot-prefix retention."""

    def __init__(self, budget_bytes: int, fp_bits: int = 12,
                 bucket_slots: int = 4, max_kicks: int = 64,
                 rng: random.Random | None = None,
                 second_chance: bool = True):
        if budget_bytes < 16:
            raise FilterError("filter budget unreasonably small")
        if not 2 <= fp_bits <= 32:
            raise FilterError("fp_bits must be in [2, 32]")
        self.fp_bits = fp_bits
        self.bucket_slots = bucket_slots
        self.max_kicks = max_kicks
        bits_per_slot = fp_bits + 1  # fingerprint + hotness bit
        total_slots = max(bucket_slots * 2,
                          budget_bytes * 8 // bits_per_slot)
        self.num_buckets = _floor_pow2(max(2, total_slots // bucket_slots))
        self._mask = self.num_buckets - 1
        n = self.num_buckets * bucket_slots
        self._fps: List[int] = [EMPTY] * n
        self._hot: List[bool] = [False] * n
        self._rng = rng if rng is not None else random.Random(0x5FC)
        self._table = _probe_tables.setdefault(
            (fp_bits, self.num_buckets), {})
        # Resident index: code -> slot for every occupied slot.  ``_fps``
        # and ``_hot`` stay the ground truth (eviction, relocation and
        # every RNG draw read them in slot order); the index only answers
        # "is this fingerprint in this bucket, and where".  It is a map,
        # not a multimap, because (bucket, fp) is unique: ``insert``
        # refuses a fingerprint already in its bucket pair, a relocation
        # moves an entry within its own pair, and ``_alt_index`` is an
        # involution, so a fingerprint's pair is fixed by either bucket.
        self._index: Dict[int, int] = {}
        self.second_chance = second_chance
        """False = ablation mode: evict uniformly, ignoring hotness bits."""
        self.count = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def __deepcopy__(self, memo):
        """Snapshot-restore support: copy the filter *state* (slots,
        hotness bits, resident index, RNG, counters); the probe table
        stays the process-wide one."""
        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        clone.__dict__.update(self.__dict__)
        clone._fps = list(self._fps)
        clone._hot = list(self._hot)
        clone._index = dict(self._index)
        clone._rng = copy.deepcopy(self._rng, memo)
        return clone

    # -- hashing (same scheme as the base filter) -------------------------
    def _alt_index(self, index: int, fp: int) -> int:
        return (index ^ hash64(fp.to_bytes(4, "little"), 0xA17)) & self._mask

    def _probe(self, item: bytes):
        """``(fp, bucket1, bucket2, code1, code2)`` for ``item``."""
        table = self._table
        probe = table.get(item)
        if probe is None:
            bits = self.fp_bits
            fp = hash64_raw(item, FINGERPRINT_SEED) & ((1 << bits) - 1) or 1
            i1 = hash64_raw(item, 0xB0CCE7) & self._mask
            i2 = self._alt_index(i1, fp)
            probe = (fp, i1, i2, i1 << bits | fp, i2 << bits | fp)
            cache_put(table, item, probe)
        return probe

    def _resident(self, probe) -> int | None:
        """The slot holding ``probe``'s fingerprint in its bucket pair."""
        slot = self._index.get(probe[3])
        return self._index.get(probe[4]) if slot is None else slot

    def _store(self, slot: int, fp: int) -> None:
        """The one writer of a slot; keeps the resident index in step."""
        base = slot // self.bucket_slots << self.fp_bits
        old = self._fps[slot]
        if old != EMPTY:
            del self._index[base | old]
        if fp != EMPTY:
            assert base | fp not in self._index, "(bucket, fp) not unique"
            self._index[base | fp] = slot
        self._fps[slot] = fp
        self._hot[slot] = False

    # -- queries ----------------------------------------------------------
    def contains(self, item: bytes) -> bool:
        """Existence check; a hit marks the entry as recently used."""
        slot = self._resident(self._probe(item))
        if slot is None:
            self.misses += 1
            return False
        self._hot[slot] = True
        self.hits += 1
        return True

    def deepest_hit(self, key: bytes, depth: int) -> int:
        """The largest ``d <= depth`` with ``key[:d]`` present, else 0.

        Exactly ``contains(key[:d])`` asked for d = depth, depth - 1, ...
        up to and including the first hit - same hot bit, same hit and
        miss counts - fused because the search path asks it of every key
        and nearly every rung is a miss.
        """
        table = self._table
        index = self._index
        for d in range(depth, 0, -1):
            prefix = key[:d]
            probe = table.get(prefix)
            if probe is None:
                probe = self._probe(prefix)
            slot = index.get(probe[3])
            if slot is None:
                slot = index.get(probe[4])
                if slot is None:
                    continue
            self._hot[slot] = True
            self.hits += 1
            self.misses += depth - d
            return d
        self.misses += max(depth, 0)
        return 0

    # -- updates -----------------------------------------------------------
    def insert(self, item: bytes) -> None:
        """Insert ``item``; never fails (may evict a cold entry)."""
        probe = self._probe(item)
        # Already present? Nothing to do (idempotent for a *cache*).
        if self._resident(probe) is not None:
            return
        fp, i1, i2 = probe[:3]
        fps, hot, per = self._fps, self._hot, self.bucket_slots
        slots = (*range(i1 * per, i1 * per + per),
                 *range(i2 * per, i2 * per + per))
        for slot in slots:
            if fps[slot] == EMPTY:
                self._store(slot, fp)
                self.count += 1
                return
        # Both buckets full: second chance - replace a random cold entry.
        # (In the ablation mode every resident counts as cold.)
        cold = [slot for slot in slots
                if not (self.second_chance and hot[slot])]
        if cold:
            self._store(self._rng.choice(cold), fp)
            self.evictions += 1
            return
        # All hot: cuckoo relocation, resetting hotness along the way.
        bucket = self._rng.choice((i1, i2))
        for _ in range(self.max_kicks):
            slot = bucket * per + self._rng.randrange(per)
            victim = fps[slot]
            self._store(slot, fp)
            fp = victim
            bucket = self._alt_index(bucket, fp)
            targets = range(bucket * per, bucket * per + per)
            for target in targets:
                if fps[target] == EMPTY:
                    self._store(target, fp)
                    self.count += 1
                    return
            for target in targets:
                if not hot[target]:
                    self._store(target, fp)
                    self.evictions += 1
                    return
        # Kick budget exhausted: drop the homeless fingerprint.
        self.evictions += 1

    def delete(self, item: bytes) -> bool:
        slot = self._resident(self._probe(item))
        if slot is None:
            return False
        self._store(slot, EMPTY)
        self.count -= 1
        return True

    # -- introspection ------------------------------------------------------
    def load_factor(self) -> float:
        return self.count / len(self._fps)

    def size_bytes(self) -> int:
        """Packed size: (fp_bits + 1 hotness bit) per slot."""
        return (len(self._fps) * (self.fp_bits + 1) + 7) // 8

    def stats(self) -> dict:
        return {
            "count": self.count,
            "buckets": self.num_buckets,
            "load": self.load_factor(),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size_bytes": self.size_bytes(),
        }
