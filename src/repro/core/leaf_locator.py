"""CN-resident leaf directories: the 1-RTT point-read machinery.

Outback (PAPERS.md) observes that for a key already known to the client,
the whole index traversal is overhead: a compute-node-resident directory
mapping the key straight to its memory-node leaf address turns a point
read into a *single* RDMA READ.  This module holds the two directory
flavours the repo builds on that observation:

:class:`MinimalPerfectHash`
    A seeded, deterministic minimal-perfect-hash table over a static key
    set (the hash-displace construction: keys are grouped into buckets by
    a first hash, then each bucket receives a small displacement chosen
    so its keys land in distinct free slots).  Storage is compact int
    arrays - one displacement per bucket, one fingerprint + one payload
    word per slot - so the per-key cost is a handful of bytes, not a
    Python dict entry.  Fingerprint bits bound false routing for keys
    outside the construction set.  The Outback baseline
    (:mod:`repro.baselines.outback`) builds its directory out of this.

:class:`LeafLocator`
    A budget-bounded, set-associative CN cache mapping full keys to
    ``(leaf addr, units)``.  Sphinx grafts it in as an optional tier in
    front of the Inner Node Hash Table (``SphinxConfig.use_locator``):
    on a hit, a search reads the leaf directly (1 round trip) and
    verifies the leaf's own fence - checksum, status, and the stored key
    - before trusting it; any mismatch falls back to the regular
    filter-cache/INHT ladder.  Entries are hints, never truth: a stale
    entry costs one wasted round trip, it cannot produce a wrong answer.

Both structures are deterministic: same key set + same seed => same
tables, bit for bit.  Neither consumes RNG state, so enabling a locator
does not shift any seeded stream elsewhere in the cluster.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Tuple

from ..errors import InvalidArgument
from ..util.hashing import hash64

_ADDR_BITS = 48
_ADDR_MASK = (1 << _ADDR_BITS) - 1

#: Displacement search bound per bucket.  With ~4 keys per bucket a
#: suitable displacement is found after a handful of tries with high
#: probability; hitting the bound means the seed is unlucky for this key
#: set and the whole build retries with the next seed (still
#: deterministic: the seed sequence is a pure function of the base seed).
_MAX_DISPLACE = 4096


def pack_leaf_ref(addr: int, units: int) -> int:
    """Pack a 48-bit leaf address and its size class into one word."""
    if addr != addr & _ADDR_MASK:
        raise InvalidArgument(f"leaf address {addr:#x} exceeds 48 bits")
    return addr | (units << _ADDR_BITS)


def unpack_leaf_ref(word: int) -> Tuple[int, int]:
    """Inverse of :func:`pack_leaf_ref`: ``(addr, units)``."""
    return word & _ADDR_MASK, word >> _ADDR_BITS


class MinimalPerfectHash:
    """Seeded MPH over a static key set, with per-slot fingerprints.

    ``build`` assigns every key a distinct slot in ``[0, len(keys))``;
    ``slot_of`` finds it back in O(1) with exactly one :func:`hash64`
    evaluation.  For keys outside the construction set ``slot_of``
    returns some slot whose fingerprint rejects the probe with
    probability ``1 - 2**-fp_bits``; callers that store payloads verify
    the final answer against ground truth (Outback reads the leaf and
    checks its stored key), so a fingerprint collision costs one wasted
    round trip and nothing else.
    """

    __slots__ = ("seed", "fp_bits", "num_slots", "_num_buckets",
                 "_displace", "_fingerprints", "values")

    def __init__(self, seed: int, fp_bits: int, num_slots: int,
                 num_buckets: int, displace: array, fingerprints: array,
                 values: array):
        self.seed = seed
        self.fp_bits = fp_bits
        self.num_slots = num_slots
        self._num_buckets = num_buckets
        self._displace = displace
        self._fingerprints = fingerprints
        self.values = values
        """One payload word per slot, caller-owned (0 = absent)."""

    # -- construction ---------------------------------------------------
    @staticmethod
    def _mix(key: bytes, seed: int, num_slots: int,
             num_buckets: int) -> Tuple[int, int, int, int]:
        """(bucket, base slot, odd stride, fingerprint) from one hash."""
        h = hash64(key, seed)
        bucket = h % num_buckets
        base = (h >> 12) % num_slots
        stride = 1 + ((h >> 33) % (num_slots - 1)) if num_slots > 1 else 0
        fp = (h >> 48) & ((1 << 16) - 1)
        return bucket, base, stride, fp

    @classmethod
    def build(cls, keys: List[bytes], seed: int = 0x0B1A5,
              fp_bits: int = 16, keys_per_bucket: int = 4,
              max_seed_tries: int = 64) -> "MinimalPerfectHash":
        """Deterministically construct an MPH over ``keys``.

        Buckets are processed largest first (the classic heuristic: big
        buckets have the fewest placement options, so they get first
        pick of the free slots).  If any bucket exhausts the
        displacement bound the whole construction restarts with the
        next seed; the result is a pure function of (keys, seed).
        """
        if not 1 <= fp_bits <= 16:
            raise InvalidArgument("locator fingerprint width must be 1..16")
        num_slots = max(1, len(keys))
        num_buckets = max(1, (len(keys) + keys_per_bucket - 1)
                          // keys_per_bucket)
        for attempt in range(max_seed_tries):
            table = cls._try_build(keys, seed + attempt, fp_bits,
                                   num_slots, num_buckets)
            if table is not None:
                return table
        raise InvalidArgument(
            f"MPH construction failed for {len(keys)} keys after "
            f"{max_seed_tries} seeds (duplicate keys?)")

    @classmethod
    def _try_build(cls, keys: List[bytes], seed: int, fp_bits: int,
                   num_slots: int, num_buckets: int
                   ) -> Optional["MinimalPerfectHash"]:
        buckets: List[List[Tuple[int, int, int]]] = \
            [[] for _ in range(num_buckets)]
        for key in keys:
            bucket, base, stride, fp = cls._mix(key, seed, num_slots,
                                                num_buckets)
            buckets[bucket].append((base, stride, fp))
        displace = array("l", [-1] * num_buckets)
        fingerprints = array("H", [0] * num_slots)
        values = array("Q", [0] * num_slots)
        occupied = bytearray(num_slots)
        fp_mask = (1 << fp_bits) - 1
        order = sorted(range(num_buckets),
                       key=lambda b: (-len(buckets[b]), b))
        free_cursor = 0
        for b in order:
            members = buckets[b]
            if not members:
                continue
            if len(members) == 1:
                # Singleton buckets fill the leftover holes directly (a
                # displacement orbit need not reach every slot when the
                # stride shares a factor with num_slots); the direct
                # slot is encoded as a negative displacement.  Largest-
                # first ordering puts all singletons last, so one
                # forward cursor finds each next hole in O(1) amortized.
                while occupied[free_cursor]:
                    free_cursor += 1
                displace[b] = -2 - free_cursor
                slots = [free_cursor]
            else:
                placed = cls._place_bucket(members, occupied, num_slots)
                if placed is None:
                    return None
                displace[b], slots = placed
            for (base, stride, fp), slot in zip(members, slots):
                occupied[slot] = 1
                stored = fp & fp_mask
                fingerprints[slot] = stored if stored else 1
        return cls(seed, fp_bits, num_slots, num_buckets, displace,
                   fingerprints, values)

    @staticmethod
    def _place_bucket(members: List[Tuple[int, int, int]],
                      occupied: bytearray, num_slots: int
                      ) -> Optional[Tuple[int, List[int]]]:
        """Smallest displacement placing every member in a free slot.

        The displacement splits into an additive shift (``d % m``) and a
        per-key stride multiplier (``d // m``): the additive sweep visits
        every slot regardless of stride/num_slots common factors, the
        stride component decorrelates members that collided under a pure
        shift.  Search cost is CN-local build-time compute only.
        """
        bound = min(max(_MAX_DISPLACE, 8 * num_slots), num_slots * num_slots)
        for d in range(bound):
            shift, mult = d % num_slots, d // num_slots
            slots: List[int] = []
            taken = set()
            for base, stride, _fp in members:
                slot = (base + shift + mult * stride) % num_slots
                if occupied[slot] or slot in taken:
                    slots = []
                    break
                taken.add(slot)
                slots.append(slot)
            if slots:
                return d, slots
        return None

    # -- lookup ---------------------------------------------------------
    def slot_of(self, key: bytes) -> Optional[int]:
        """The key's slot, or None when the fingerprint rejects it."""
        bucket, base, stride, fp = self._mix(key, self.seed, self.num_slots,
                                             self._num_buckets)
        d = self._displace[bucket]
        if d == -1:
            return None
        if d < 0:
            slot = -2 - d
        else:
            slot = (base + d % self.num_slots
                    + (d // self.num_slots) * stride) % self.num_slots
        stored = fp & ((1 << self.fp_bits) - 1)
        if self._fingerprints[slot] != (stored if stored else 1):
            return None
        return slot

    def size_bytes(self) -> int:
        """Compact storage footprint of the directory arrays."""
        return (self._displace.itemsize * len(self._displace)
                + self._fingerprints.itemsize * len(self._fingerprints)
                + self.values.itemsize * len(self.values))


#: Set associativity of the locator cache, and its tag-hash seed (one
#: seed, shared by every client: hash64 memoizes per seed, so distinct
#: per-client seeds would defeat the memo).
LOCATOR_WAYS = 4
LOCATOR_SEED = 0x10CA


class LeafLocator:
    """Budget-bounded CN cache: full key -> packed (leaf addr, units).

    Set-associative over flat int arrays (tags + payload words), so a
    deepcopy of a warmed benchmark snapshot copies two arrays instead of
    a per-key object graph.  Eviction is deterministic round-robin per
    set - no RNG, so an enabled locator never shifts seeded streams.

    The cache stores *hints*.  A tag collision or a stale entry routes
    the reader to a wrong or recycled leaf; the reader's fence check
    (checksum + status + stored key) catches it and the caller falls
    back, dropping the entry.  Correctness never depends on the locator.
    """

    __slots__ = ("ways", "num_sets", "seed", "_tags", "_refs", "_clock",
                 "hits", "misses", "drops", "inserts")

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise InvalidArgument("locator budget must be positive")
        ways = self.ways = LOCATOR_WAYS
        entry_bytes = 16  # one u64 tag + one u64 payload word
        entries = max(ways, budget_bytes // entry_bytes)
        self.num_sets = max(1, entries // ways)
        self.seed = LOCATOR_SEED
        self._tags = array("Q", [0] * (self.num_sets * ways))
        self._refs = array("Q", [0] * (self.num_sets * ways))
        self._clock = array("B", [0] * self.num_sets)
        self.hits = 0
        self.misses = 0
        self.drops = 0
        self.inserts = 0

    def _locate(self, key: bytes) -> Tuple[int, int]:
        h = hash64(key, self.seed)
        set_index = h % self.num_sets
        tag = h >> 12 or 1  # tag 0 means "empty way"
        return set_index * self.ways, tag

    def get(self, key: bytes) -> Optional[Tuple[int, int]]:
        """``(leaf addr, units)`` for the key, or None on a miss."""
        base, tag = self._locate(key)
        tags = self._tags
        for way in range(self.ways):
            if tags[base + way] == tag:
                self.hits += 1
                return unpack_leaf_ref(self._refs[base + way])
        self.misses += 1
        return None

    def put(self, key: bytes, addr: int, units: int) -> None:
        """Insert or refresh the key's leaf hint."""
        base, tag = self._locate(key)
        ref = pack_leaf_ref(addr, units)
        tags = self._tags
        free = -1
        for way in range(self.ways):
            if tags[base + way] == tag:
                self._refs[base + way] = ref
                return
            if free < 0 and tags[base + way] == 0:
                free = way
        if free < 0:
            set_index = base // self.ways
            free = self._clock[set_index]
            self._clock[set_index] = (free + 1) % self.ways
        tags[base + free] = tag
        self._refs[base + free] = ref
        self.inserts += 1

    def drop(self, key: bytes) -> None:
        """Forget the key's hint (delete / observed-stale paths)."""
        base, tag = self._locate(key)
        tags = self._tags
        for way in range(self.ways):
            if tags[base + way] == tag:
                tags[base + way] = 0
                self._refs[base + way] = 0
                self.drops += 1
                return

    def __len__(self) -> int:
        return sum(1 for t in self._tags if t)

    def size_bytes(self) -> int:
        return (self._tags.itemsize * len(self._tags)
                + self._refs.itemsize * len(self._refs)
                + len(self._clock))


def build_directory(pairs: Iterable[Tuple[bytes, int, int]],
                    seed: int = 0x0B1A5,
                    fp_bits: int = 16) -> MinimalPerfectHash:
    """An MPH directory pre-filled with packed leaf refs (Outback load)."""
    items = list(pairs)
    keys = [key for key, _addr, _units in items]
    mph = MinimalPerfectHash.build(keys, seed=seed, fp_bits=fp_bits)
    for key, addr, units in items:
        slot = mph.slot_of(key)
        if slot is None:  # cannot happen for construction-set keys
            raise InvalidArgument(f"MPH lost key {key!r} during build")
        mph.values[slot] = pack_leaf_ref(addr, units)
    return mph
