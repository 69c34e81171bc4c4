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

Host side, the filter state proper is ``_fps`` / ``_hot`` plus a resident
index over them.  *Where an item may live* is a pure function of its
bytes and the geometry, memoised process-wide in two tables (below): point
probes per inner-node prefix, search ladders per key.
"""

from __future__ import annotations

import copy
import random
from array import array
from typing import Dict, List, Tuple
from zlib import crc32

from ..errors import FilterError
from ..util.hashing import FINGERPRINT_SEED, cache_put, hash64_raw, memo

EMPTY = 0

# Where an item may live is a pure function of its bytes and the filter
# geometry ``(fp_bits, num_buckets)``: a fingerprint and two buckets,
# i.e. two *resident codes* ``(bucket << fp_bits) | fp``.  It is memoised
# per geometry, process-wide (sharing a pure function cannot change an
# answer), filled from the un-memoised hash (nothing is stored twice),
# bounded by ``cache_put`` - and at the granularity its caller repeats:
#
# * the *probe table* ``filter.probe(fp_bits, buckets)``: item bytes ->
#   ``(fp, bucket1, bucket2, code1, code2)`` for the point operations
#   ``insert`` / ``contains`` / ``delete``.  Their items are inner-node
#   prefixes, which many keys and every CN's filter share, so the prefix
#   is the unit that repeats.
# * the *ladder table* ``filter.ladder(fp_bits, buckets)``: key bytes ->
#   its ladder, an ``array`` with the two codes of ``key[:d]`` at
#   ``[2d - 2, 2d - 1]``, for ``deepest_hit``.  A search walks ~13-16
#   rungs of its key and almost every rung is a prefix no other key
#   shares, so the key is the unit that repeats.  0 means "rung not
#   hashed yet" (a code is never 0: ``fp >= 1``); rungs are filled by
#   the walks that visit them.
#
# One hash (``_locate``), two memos over it.

# fp -> hash64 of its 4 little-endian bytes, seed 0xA17: the XOR that
# takes a fingerprint from either of its buckets to the other.
_alt_hashes = memo("filter.alt")

# ``_locate`` is ``hash64_raw`` inlined for its two seeds (a cold rung
# runs it ~13 times per inserted key; the frames were a third of its
# cost, DESIGN.md 11.6).  These are the CRC initial values ``hash64_raw``
# derives from a seed; both seeds are below 2^32, so the seed's high half
# contributes nothing.  ``test_probe_table_matches_hashing_functions``
# pins the copy to ``util.hashing``.
_BUCKET_SEED = 0xB0CCE7
_M64 = (1 << 64) - 1
_FP_LO = FINGERPRINT_SEED & 0xFFFFFFFF
_FP_HI = (~FINGERPRINT_SEED ^ 0x5BD1E995) & 0xFFFFFFFF
_BUCKET_LO = _BUCKET_SEED & 0xFFFFFFFF
_BUCKET_HI = (~_BUCKET_SEED ^ 0x5BD1E995) & 0xFFFFFFFF


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
        geometry = (fp_bits, self.num_buckets)
        self._table = memo(f"filter.probe{geometry}")
        self._ladders = memo(f"filter.ladder{geometry}")
        # A resident code is fp_bits + log2(num_buckets) bits wide, so a
        # ladder rung pair is two 4-byte words when that fits, else 8-byte.
        rung = "I" if fp_bits + self._mask.bit_length() <= \
            8 * array("I").itemsize else "Q"
        self._empty_rung = array(rung, (0, 0))
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
        hotness bits, resident index, RNG, counters); the probe and
        ladder tables stay the process-wide ones."""
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
        h = _alt_hashes.get(fp)
        if h is None:
            h = hash64_raw(fp.to_bytes(4, "little"), 0xA17)
            cache_put(_alt_hashes, fp, h)
        return (index ^ h) & self._mask

    def _locate(self, item: bytes) -> Tuple[int, int, int]:
        """``(fp, bucket1, bucket2)`` for ``item``, the one hash:
        ``hash64_raw(item, FINGERPRINT_SEED)`` masked and never 0,
        ``hash64_raw(item, _BUCKET_SEED)`` masked, ``_alt_index`` of
        the two - in one frame."""
        x = (crc32(item, _FP_HI) << 32 | crc32(item, _FP_LO)) \
            + 0x9E3779B97F4A7C15 & _M64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _M64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _M64
        fp = (x ^ x >> 31) & ((1 << self.fp_bits) - 1) or 1
        x = (crc32(item, _BUCKET_HI) << 32 | crc32(item, _BUCKET_LO)) \
            + 0x9E3779B97F4A7C15 & _M64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _M64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _M64
        i1 = (x ^ x >> 31) & self._mask
        h = _alt_hashes.get(fp)
        if h is None:
            return fp, i1, self._alt_index(i1, fp)
        return fp, i1, (i1 ^ h) & self._mask

    def _probe(self, item: bytes):
        """``(fp, bucket1, bucket2, code1, code2)`` for ``item``."""
        table = self._table
        probe = table.get(item)
        if probe is None:
            fp, i1, i2 = self._locate(item)
            bits = self.fp_bits
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
        and nearly every rung is a miss.  The rungs come from the key's
        ladder; every ``d`` past the end of the key names the key itself,
        so it reads the last rung.
        """
        ladders = self._ladders
        ladder = ladders.get(key)
        if ladder is None:
            ladder = self._empty_rung * (len(key) or 1)
            cache_put(ladders, key, ladder)
        index = self._index
        last = len(ladder)
        for d in range(depth, 0, -1):
            end = d + d if d + d < last else last  # of this rung's pair
            code = ladder[end - 2]
            if not code:
                fp, i1, i2 = self._locate(key[:end >> 1])
                code = ladder[end - 2] = i1 << self.fp_bits | fp
                ladder[end - 1] = i2 << self.fp_bits | fp
            slot = index.get(code)
            if slot is None:
                slot = index.get(ladder[end - 1])
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
