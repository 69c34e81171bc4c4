"""Outback-style baseline: a CN-resident MPH directory, 1-RTT point reads.

Outback (PAPERS.md) dissolves the index traversal entirely: compute
nodes hold a minimal-perfect-hash directory mapping every loaded key
straight to its memory-node leaf address, so a point read is a *single*
RDMA READ - the theoretical floor Sphinx's filter cache approaches from
the other side.  The price is staleness: the MPH is built over a static
key set, so inserts, deletes and out-of-place moves punch holes in it
and the directory must absorb them until a seeded rebuild folds them in.

The model here:

* The directory (:class:`repro.core.leaf_locator.MinimalPerfectHash`)
  lives at the index and is shared by every client - modelling
  replicated per-CN directories with instantaneous update broadcast
  (real Outback piggybacks directory deltas on RPC responses; the
  simulation collapses that propagation delay to zero, which only
  *flatters* the baseline's staleness story and is called out in
  DESIGN.md).  Storage is compact int arrays with fingerprint bits, so
  a key outside the directory false-routes with probability
  ``2**-fp_bits`` and is caught by the leaf's own key check - one
  wasted round trip, bounded by the fingerprint width.

* New keys overflow into a CN-local ``delta`` dict; deletes tombstone
  their MPH slot; out-of-place value growth patches the slot's packed
  leaf ref in place (the "incremental" part: a moved leaf invalidates
  exactly its own directory entry, nothing else).  Once the overflow
  exceeds ``rebuild_min``/``rebuild_frac`` the whole directory is
  rebuilt deterministically over the live key set with the same base
  seed - same keys, same seed, same tables, bit for bit.

* Leaves are the shared 64-B-aligned checksummed blobs of
  :mod:`repro.core.leaf`, with the same CAS lock word protocol, so MN
  memory accounting and the value path match the ART-family systems.

The index keeps the construction key list CN-side purely for rebuilds
and scans (a real deployment would stream the key set back from MN leaf
pages); the *serving* path never consults it - point lookups route
through the MPH + fingerprint exactly as the compact directory would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..art.layout import (
    STATUS_IDLE,
    STATUS_INVALID,
    decode_leaf,
    encode_leaf,
    leaf_units_for,
)
from ..core import leaf as leaf_ops
from ..core.leaf_locator import (
    MinimalPerfectHash,
    pack_leaf_ref,
    unpack_leaf_ref,
)
from ..dm.cluster import Cluster
from ..dm.rdma import Batch, LocalCompute, ReadOp, WriteOp
from ..errors import InjectedFault
from ..fault.retry import DEFAULT_RETRY, RetryPolicy

LEAF_ALIGN = 64

_RETRY = object()


@dataclass(frozen=True)
class OutbackConfig:
    """Tunables of the Outback-style directory index."""

    dir_seed: int = 0x0B1A5
    """Base seed of the MPH construction (rebuilds reuse it, so the
    directory is a pure function of the live key set)."""

    dir_fp_bits: int = 16
    """Fingerprint bits per directory slot: an absent key false-routes
    (costing one wasted READ) with probability ``2**-dir_fp_bits``."""

    rebuild_min: int = 256
    rebuild_frac: int = 4
    """A rebuild triggers once delta + tombstones exceed
    ``max(rebuild_min, directory_size // rebuild_frac)``."""

    rebuild_ns_per_key: int = 40
    """CN CPU charged per live key when a rebuild runs (hash + placement
    are local compute; no verbs are issued)."""

    retry: RetryPolicy = DEFAULT_RETRY
    """The unified retry/backoff/timeout policy (see repro.fault.retry)."""


class OutbackIndex:
    """Cluster-wide Outback index: the shared directory + MN leaves.

    Deliberately exposes neither ``root_addr`` nor ``inht`` - there is
    no tree to walk; :func:`repro.tools.fsck.check_index` has nothing to
    check here and its dispatch must not mistake this for an ART index.
    """

    def __init__(self, cluster: Cluster, config: OutbackConfig | None = None):
        self.cluster = cluster
        self.config = config if config is not None else OutbackConfig()
        self.directory: Optional[MinimalPerfectHash] = None
        self._mph_keys: List[bytes] = []
        """Construction key set of the current directory (rebuild/scan
        bookkeeping only - never consulted by point lookups)."""
        self._mph_members: frozenset = frozenset()
        """Membership view of ``_mph_keys``: slot patches must be gated
        on true membership, because a fingerprint collision would let a
        *new* key's publish clobber the colliding victim's slot."""
        self.delta: Dict[bytes, Tuple[int, int]] = {}
        """Overflow directory: keys committed after the last rebuild."""
        self.tombstones: int = 0
        """Directory slots zeroed by deletes since the last rebuild."""
        self.rebuilds = 0
        self.version = 0
        """Bumped per rebuild; clients snapshot it to detect that a
        rebuild folded their pending delta entries in."""
        self._clients: Dict[int, OutbackClient] = {}

    def client(self, cn_id: int) -> "OutbackClient":
        if cn_id not in self._clients:
            self._clients[cn_id] = OutbackClient(self, cn_id)
        return self._clients[cn_id]

    # -- directory operations (CN-local, zero verbs) -----------------------
    def dir_lookup(self, key: bytes) -> Optional[Tuple[int, int]]:
        """Resolve ``key`` to a hinted ``(leaf addr, units)``.

        The delta is authoritative for post-rebuild keys; MPH routing
        for unknown keys may false-route on a fingerprint collision -
        callers must verify the leaf's stored key.
        """
        hit = self.delta.get(key)
        if hit is not None:
            return hit
        if self.directory is None:
            return None
        slot = self.directory.slot_of(key)
        if slot is None:
            return None
        word = self.directory.values[slot]
        if word == 0:
            return None  # tombstoned
        return unpack_leaf_ref(word)

    def dir_publish(self, key: bytes, addr: int, units: int) -> None:
        """Commit ``key``'s leaf ref (insert or out-of-place move).

        Callers only publish after verifying the key's leaf (or having
        created it), so an MPH slot match here is genuine, never a
        fingerprint collision.
        """
        if key in self.delta:
            self.delta[key] = (addr, units)
            return
        if self.directory is not None and key in self._mph_members:
            slot = self.directory.slot_of(key)
            if slot is not None and self.directory.values[slot] != 0:
                self.directory.values[slot] = pack_leaf_ref(addr, units)
                return
        self.delta[key] = (addr, units)

    def dir_remove(self, key: bytes) -> None:
        """Drop ``key`` from the directory (delete path)."""
        if self.delta.pop(key, None) is not None:
            return
        if self.directory is None or key not in self._mph_members:
            return
        slot = self.directory.slot_of(key)
        if slot is not None and self.directory.values[slot] != 0:
            self.directory.values[slot] = 0
            self.tombstones += 1

    def live_pairs(self) -> List[Tuple[bytes, int, int]]:
        """Every committed ``(key, addr, units)``, sorted by key
        (rebuild input and scan index; deterministic by construction)."""
        pairs: Dict[bytes, Tuple[int, int]] = {}
        if self.directory is not None:
            for key in self._mph_keys:
                if key in self.delta:
                    continue
                slot = self.directory.slot_of(key)
                word = self.directory.values[slot] if slot is not None else 0
                if word:
                    pairs[key] = unpack_leaf_ref(word)
        pairs.update(self.delta)
        return [(key, addr, units)
                for key, (addr, units) in sorted(pairs.items())]

    def overflow(self) -> int:
        return len(self.delta) + self.tombstones

    def rebuild_due(self) -> bool:
        threshold = max(self.config.rebuild_min,
                        len(self._mph_keys) // self.config.rebuild_frac)
        return self.overflow() > threshold

    def rebuild(self) -> int:
        """Fold delta + tombstones into a fresh seeded MPH; returns the
        number of live keys hashed (the caller charges CN compute)."""
        pairs = self.live_pairs()
        keys = [key for key, _a, _u in pairs]
        if keys:
            mph = MinimalPerfectHash.build(keys, seed=self.config.dir_seed,
                                           fp_bits=self.config.dir_fp_bits)
            for key, addr, units in pairs:
                mph.values[mph.slot_of(key)] = pack_leaf_ref(addr, units)
            self.directory = mph
        else:
            self.directory = None
        self._mph_keys = keys
        self._mph_members = frozenset(keys)
        self.delta = {}
        self.tombstones = 0
        self.rebuilds += 1
        self.version += 1
        return len(keys)

    def dir_bytes(self) -> int:
        """CN-side footprint of the compact directory + delta overflow."""
        total = 0
        if self.directory is not None:
            total += self.directory.size_bytes()
        # Delta entries cost roughly one dict slot: key + packed ref.
        for key in self.delta:
            total += len(key) + 16
        return total


class OutbackClient:
    """One compute node's Outback client (op generators)."""

    def __init__(self, index: OutbackIndex, cn_id: int):
        self.index = index
        self.cn_id = cn_id
        self.config = index.config
        self.cluster = index.cluster
        import random as _random
        self._rng = _random.Random(0x0B ^ cn_id)
        self.metrics = {"searches": 0, "inserts": 0, "updates": 0,
                        "deletes": 0, "scans": 0, "restarts": 0,
                        "dir_hits": 0, "dir_misses": 0, "false_routes": 0,
                        "torn_rereads": 0, "lock_failures": 0}

    def counters(self):
        """Snapshot into the shared :class:`repro.obs.Counters` shape."""
        from ..obs.counters import Counters
        counters = Counters(self.metrics)
        counters.merge({
            "dir_rebuilds": self.index.rebuilds,
            "dir_delta_keys": len(self.index.delta),
            "dir_tombstones": self.index.tombstones,
        })
        return counters

    # -- small helpers -----------------------------------------------------
    def _attempts(self, op: str, key: bytes):
        return self.config.retry.attempts(self.cluster, f"outback {op}", key)

    def _backoff(self, attempt: int) -> int:
        return self.config.retry.backoff_delay(self._rng, attempt)

    def _alloc_leaf(self, key: bytes, value: bytes) -> Tuple[int, int]:
        units = leaf_units_for(len(key), len(value))
        addr = self.cluster.alloc_for_leaf(key, units * LEAF_ALIGN)
        return addr, units

    def _free_leaf(self, addr: int, units: int) -> None:
        self.cluster.free(addr, units * LEAF_ALIGN, leaf_ops.LEAF_CATEGORY)

    def _maybe_rebuild(self):
        """Run a deterministic directory rebuild when the overflow is
        over budget (CN-local compute; zero verbs)."""
        if not self.index.rebuild_due():
            return
        hashed = self.index.rebuild()
        if self.config.rebuild_ns_per_key:
            yield LocalCompute(self.config.rebuild_ns_per_key * hashed)

    # -- search ------------------------------------------------------------
    def search(self, key: bytes):
        """Op generator: value for ``key`` or None.

        Directory hit: exactly one READ round trip (the tentpole).
        Directory miss: zero round trips - the replicated directory is
        authoritative for absence.  A fingerprint collision routes to
        some other key's leaf; the stored-key check converts it into a
        clean None at the cost of that one wasted READ.
        """
        self.metrics["searches"] += 1
        attempts = self._attempts("search", key)
        for attempt in attempts:
            hinted = self.index.dir_lookup(key)
            if hinted is None:
                self.metrics["dir_misses"] += 1
                return None
            self.metrics["dir_hits"] += 1
            addr, units = hinted
            try:
                data = yield ReadOp(addr, units * LEAF_ALIGN)
            except InjectedFault:
                self.metrics["restarts"] += 1
                yield attempts.pause(self._backoff(attempt))
                continue
            leaf = decode_leaf(data)
            if leaf.checksum_ok:
                if leaf.status == STATUS_INVALID:
                    return None  # raced a delete: linearize after it
                if leaf.key != key:
                    self.metrics["false_routes"] += 1
                    return None  # fingerprint collision, provably absent
                return leaf.value
            # Torn read (raced an in-place writer): re-read, bounded by
            # the one retry policy.
            self.metrics["torn_rereads"] += 1
            yield attempts.pause(self.config.retry.torn_read_delay(attempt))

    # -- insert / update -----------------------------------------------------
    def insert(self, key: bytes, value: bytes):
        """Op generator: upsert; True if the key was new."""
        self.metrics["inserts"] += 1
        result = yield from self._upsert(key, value, create=True)
        return result

    def update(self, key: bytes, value: bytes):
        """Op generator: overwrite; False when absent (never creates)."""
        self.metrics["updates"] += 1
        result = yield from self._upsert(key, value, create=False)
        return result is not None

    def _upsert(self, key: bytes, value: bytes, create: bool):
        """True if ``key`` was created, False if overwritten, None if it
        is absent and ``create`` is False (nothing allocated or written)."""
        attempts = self._attempts("upsert", key)
        for attempt in attempts:
            hinted = self.index.dir_lookup(key)
            if hinted is None and not create:
                return None
            try:
                if hinted is None:
                    outcome = yield from self._insert_new(key, value)
                else:
                    outcome = yield from self._overwrite(key, value, hinted,
                                                         create)
            except InjectedFault:
                outcome = _RETRY
            if outcome is not _RETRY:
                return outcome
            self.metrics["restarts"] += 1
            yield attempts.pause(self._backoff(attempt))

    def _insert_new(self, key: bytes, value: bytes):
        addr, units = self._alloc_leaf(key, value)
        yield WriteOp(addr, encode_leaf(key, value, units=units))
        # The publish decides the race: if another client committed the
        # key while our WRITE was in flight, ours is the loser - drop
        # the orphan leaf and retry as an overwrite.
        if self.index.dir_lookup(key) is not None:
            self._free_leaf(addr, units)
            return _RETRY
        self.index.dir_publish(key, addr, units)
        yield from self._maybe_rebuild()
        return True

    def _overwrite(self, key: bytes, value: bytes,
                   hinted: Tuple[int, int], create: bool):
        addr, units = hinted
        leaf = yield from leaf_ops.read_leaf(addr, units,
                                             retry=self.config.retry)
        if leaf.status == STATUS_INVALID:
            return _RETRY  # raced a delete; re-resolve via the directory
        if leaf.key != key:
            # Fingerprint collision on a never-committed key: this is
            # somebody else's leaf, so the key is genuinely absent.
            self.metrics["false_routes"] += 1
            if not create:
                return None
            new_addr, new_units = self._alloc_leaf(key, value)
            yield WriteOp(new_addr, encode_leaf(key, value, units=new_units))
            if self.index.dir_lookup(key) != hinted:
                self._free_leaf(new_addr, new_units)
                return _RETRY
            self.index.dir_publish(key, new_addr, new_units)
            yield from self._maybe_rebuild()
            return True
        if leaf.status != STATUS_IDLE:
            return _RETRY  # locked by a concurrent writer
        if leaf_units_for(len(key), len(value)) <= leaf.units:
            ok = yield from leaf_ops.in_place_update(addr, leaf, value)
            if not ok:
                self.metrics["lock_failures"] += 1
                return _RETRY
            return False
        # Out-of-place growth: lock the old leaf, publish the new one,
        # patch the directory slot (the "incremental invalidation"),
        # then invalidate + reclaim the old leaf.
        from ..art.layout import STATUS_LOCKED, leaf_status_word
        from ..dm.rdma import CasOp
        idle = leaf_status_word(STATUS_IDLE, leaf.units, len(leaf.key),
                                len(leaf.value))
        locked = leaf_status_word(STATUS_LOCKED, leaf.units, len(leaf.key),
                                  len(leaf.value))
        swapped, _old = yield CasOp(addr, idle, locked, lease=("leaf",))
        if not swapped:
            self.metrics["lock_failures"] += 1
            return _RETRY
        new_addr, new_units = self._alloc_leaf(key, value)
        invalid = leaf_status_word(STATUS_INVALID, leaf.units,
                                   len(leaf.key), len(leaf.value))
        yield Batch([
            WriteOp(new_addr, encode_leaf(key, value, units=new_units)),
            WriteOp(addr, invalid.to_bytes(8, "little"), lease=("release",)),
        ])
        self.index.dir_publish(key, new_addr, new_units)
        self._free_leaf(addr, leaf.units)
        return False

    # -- delete --------------------------------------------------------------
    def delete(self, key: bytes):
        """Op generator: remove ``key``; False if absent."""
        self.metrics["deletes"] += 1
        attempts = self._attempts("delete", key)
        for attempt in attempts:
            hinted = self.index.dir_lookup(key)
            if hinted is None:
                return False
            addr, units = hinted
            try:
                leaf = yield from leaf_ops.read_leaf(addr, units,
                                                     retry=self.config.retry)
                if leaf.status == STATUS_INVALID:
                    return False  # raced another delete
                if leaf.key != key:
                    self.metrics["false_routes"] += 1
                    return False  # collision routing: genuinely absent
                if leaf.status != STATUS_IDLE:
                    ok = False  # locked by a writer: back off below
                else:
                    ok = yield from leaf_ops.invalidate_leaf(addr, leaf)
            except InjectedFault:
                self.metrics["restarts"] += 1
                yield attempts.pause(self._backoff(attempt))
                continue
            if not ok:
                self.metrics["lock_failures"] += 1
                yield attempts.pause(self._backoff(attempt))
                continue
            self.index.dir_remove(key)
            self._free_leaf(addr, leaf.units)
            yield from self._maybe_rebuild()
            return True

    # -- scan ----------------------------------------------------------------
    def scan_count(self, start_key: bytes, count: int):
        """First ``count`` pairs with key >= start_key.

        The MPH cannot answer range queries; the directory-assisted scan
        walks the replicated key list and doorbell-batches the leaf
        reads (real Outback delegates scans to an MN-side structure)."""
        self.metrics["scans"] += 1
        attempts = self._attempts("scan", start_key)
        for attempt in attempts:
            try:
                return (yield from self._scan_once(start_key, count))
            except InjectedFault:
                self.metrics["restarts"] += 1
                yield attempts.pause(self._backoff(attempt))

    def _scan_once(self, start_key: bytes, count: int):
        targets = [(key, addr, units)
                   for key, addr, units in self.index.live_pairs()
                   if key >= start_key][:count + 8]
        results: List[Tuple[bytes, bytes]] = []
        while targets and len(results) < count:
            chunk, targets = targets[:count], targets[count:]
            blobs = yield Batch([ReadOp(addr, units * LEAF_ALIGN)
                                 for _key, addr, units in chunk])
            for (key, addr, units), blob in zip(chunk, blobs):
                leaf = decode_leaf(blob)
                if not leaf.checksum_ok:
                    leaf = yield from leaf_ops.read_leaf(
                        addr, units, retry=self.config.retry)
                if (leaf.checksum_ok and leaf.status != STATUS_INVALID
                        and leaf.key == key):
                    results.append((leaf.key, leaf.value))
        return results[:count]
