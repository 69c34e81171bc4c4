"""Unit tests for the succinct filter cache (hotness-bit second chance)."""

import copy
import random
from collections import Counter
from itertools import count, product

import pytest

from mutation_matrix import mutate
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig, ClusterSpec
from repro.dm.rdma import OpStats
from repro.errors import FilterError
from repro.filters import SuccinctFilterCache, hotness
from repro.tenancy import run_rack
from repro.util import hashing
from repro.util.hashing import ConsistentHashRing, fingerprint, hash64
from repro.util.zipf import ScrambledZipfianGenerator


def test_insert_contains_delete():
    c = SuccinctFilterCache(4096)
    c.insert(b"prefix")
    assert c.contains(b"prefix")
    assert c.delete(b"prefix")
    assert not c.contains(b"prefix")


def test_insert_is_idempotent():
    c = SuccinctFilterCache(4096)
    c.insert(b"p")
    c.insert(b"p")
    assert c.count == 1


def test_insert_never_fails_under_pressure():
    c = SuccinctFilterCache(256)  # tiny: forces constant eviction
    for i in range(50_000):
        c.insert(f"p{i}".encode())
    assert c.evictions > 0
    assert c.load_factor() <= 1.0


def test_budget_respected():
    for budget in (512, 4096, 1 << 16):
        c = SuccinctFilterCache(budget)
        assert c.size_bytes() <= budget


def test_contains_sets_hotness_and_survives_pressure():
    rng = random.Random(1)
    c = SuccinctFilterCache(2048, rng=rng)
    hot = [f"hot{i}".encode() for i in range(64)]
    for h in hot:
        c.insert(h)
    retained_hot = retained_cold = 0
    for round_no in range(6):
        for h in hot:
            c.contains(h)  # keep marking hot
        for i in range(1_500):
            c.insert(f"cold{round_no}-{i}".encode())
    retained_hot = sum(c.contains(h) for h in hot)
    cold_probe = [f"cold5-{i}".encode() for i in range(1_500)]
    retained_cold = sum(c.contains(p) for p in cold_probe)
    # Second-chance must clearly privilege the hot set.
    assert retained_hot / len(hot) > retained_cold / len(cold_probe)
    assert retained_hot > 0.7 * len(hot)


def test_no_false_negatives_when_under_capacity():
    c = SuccinctFilterCache(1 << 16)
    items = [f"i{i}".encode() for i in range(2_000)]
    for item in items:
        c.insert(item)
    assert c.evictions == 0
    assert all(c.contains(i) for i in items)


def test_false_positive_rate_under_one_percent():
    c = SuccinctFilterCache(1 << 16, fp_bits=12)
    for i in range(10_000):
        c.insert(f"m{i}".encode())
    fps = sum(c.contains(f"x{i}".encode()) for i in range(50_000))
    assert fps / 50_000 < 0.01


def test_stats_shape():
    c = SuccinctFilterCache(4096)
    c.insert(b"a")
    c.contains(b"a")
    c.contains(b"b")
    assert c.hits == 1 and c.misses == 1
    assert c.count == 1


def test_fp_rate_grows_with_smaller_fingerprints():
    small = SuccinctFilterCache(1 << 14, fp_bits=4)
    large = SuccinctFilterCache(1 << 14, fp_bits=16)
    for i in range(4_000):
        small.insert(f"m{i}".encode())
        large.insert(f"m{i}".encode())
    probes = [f"x{i}".encode() for i in range(30_000)]
    assert sum(map(small.contains, probes)) > \
        sum(map(large.contains, probes))


def test_load_factor_and_size():
    c = SuccinctFilterCache(4096, fp_bits=12)
    assert c.load_factor() == 0.0
    for i in range(500):
        c.insert(f"i{i}".encode())
    assert 0 < c.load_factor() <= 1
    assert c.size_bytes() == c.num_buckets * 4 * 13 // 8


def test_validates_parameters():
    with pytest.raises(FilterError):
        SuccinctFilterCache(4)
    with pytest.raises(FilterError):
        SuccinctFilterCache(1024, fp_bits=1)
    with pytest.raises(FilterError):
        SuccinctFilterCache(1024, fp_bits=40)


def test_alt_index_is_involution():
    c = SuccinctFilterCache(4096)
    for i in range(200):
        fp, i1, i2 = c._probe(f"item{i}".encode())[:3]
        assert c._alt_index(i2, fp) == i1
        assert c._alt_index(i1, fp) == i2


def test_delete_missing_returns_false():
    c = SuccinctFilterCache(1024)
    assert not c.delete(b"nope")


# -- differential oracle: the slot-scan algorithm the resident index replaced --

class _SlotScanReference:
    """The pre-index filter, kept as the oracle: every query and update
    walks the candidate slots, every hash goes through ``util.hashing``."""

    def __init__(self, real: SuccinctFilterCache, rng: random.Random):
        self.fp_bits, self.per = real.fp_bits, real.bucket_slots
        self.max_kicks, self.second_chance = real.max_kicks, real.second_chance
        self._mask = real.num_buckets - 1
        self._fps = [0] * len(real._fps)
        self._hot = [False] * len(real._fps)
        self._rng = rng
        self.count = self.evictions = self.hits = self.misses = 0
        self.branches = Counter()

    def _alt(self, index, fp):
        return (index ^ hash64(fp.to_bytes(4, "little"), 0xA17)) & self._mask

    def _slots(self, bucket):
        return range(bucket * self.per, bucket * self.per + self.per)

    def _candidates(self, item):
        fp = fingerprint(item, self.fp_bits)
        i1 = hash64(item, 0xB0CCE7) & self._mask
        return fp, [s for b in (i1, self._alt(i1, fp)) for s in self._slots(b)]

    def _put(self, slot, fp):
        self._fps[slot], self._hot[slot] = fp, False

    def contains(self, item):
        fp, slots = self._candidates(item)
        for slot in slots:
            if self._fps[slot] == fp:
                self._hot[slot] = True
                self.hits += 1
                return True
        self.misses += 1
        return False

    def deepest_hit(self, key, depth):
        return next((d for d in range(depth, 0, -1)
                     if self.contains(key[:d])), 0)

    def insert(self, item):
        fp, slots = self._candidates(item)
        if any(self._fps[s] == fp for s in slots):
            return
        for slot in slots:
            if self._fps[slot] == 0:
                self._put(slot, fp)
                self.count += 1
                return
        cold = [s for s in slots
                if not (self.second_chance and self._hot[s])]
        if cold:
            self.branches["cold_replace"] += 1
            self._put(self._rng.choice(cold), fp)
            self.evictions += 1
            return
        bucket = self._rng.choice((slots[0] // self.per,
                                   slots[-1] // self.per))
        for _ in range(self.max_kicks):
            slot = bucket * self.per + self._rng.randrange(self.per)
            fp, self._fps[slot] = self._fps[slot], fp
            self._hot[slot] = False
            bucket = self._alt(bucket, fp)
            for target in self._slots(bucket):
                if self._fps[target] == 0:
                    self.branches["relocated"] += 1
                    self._put(target, fp)
                    self.count += 1
                    return
            for target in self._slots(bucket):
                if not self._hot[target]:
                    self.branches["relocated"] += 1
                    self._put(target, fp)
                    self.evictions += 1
                    return
        self.branches["kick_exhausted"] += 1
        self.evictions += 1

    def delete(self, item):
        fp, slots = self._candidates(item)
        for slot in slots:
            if self._fps[slot] == fp:
                self._put(slot, 0)
                self.count -= 1
                return True
        return False


def _state(f):
    return (f._fps, f._hot, f.hits, f.misses, f.evictions, f.count)


KEYS = [bytes(k) for n in range(1, 7) for k in product(b"abc", repeat=n)]


def _op_mix(ops: random.Random, steps: int, keys=KEYS):
    """A seeded op stream over a small alphabet (so prefixes repeat).
    Now and then every key is probed: only a filter whose slots are all
    hot relocates, and only a long all-hot chain exhausts its kicks.
    ``deepest_hit`` is asked from below 0 to past the end of the key:
    slices clamp, each depth still counts one miss or stops at a hit."""
    for _ in range(steps):
        key = ops.choice(keys)
        op = ops.choices(("insert", "contains", "delete", "deepest_hit",
                          "heat"), weights=(60, 30, 3, 40, 2))[0]
        if op == "heat":
            yield from (("contains", (k,)) for k in KEYS)
        elif op == "deepest_hit":
            yield op, (key, ops.randint(-1, len(key) + 2))
        else:
            yield op, (key,)


def _step(real, ref, op, args, where):
    """One op on the filter and on its oracle: same answer, same state."""
    assert getattr(real, op)(*args) == getattr(ref, op)(*args), (where, op)
    assert _state(real) == _state(ref), (where, op, args)


def _check_index(real, where):
    assert real._index == {
        (slot // real.bucket_slots << real.fp_bits) | fp: slot
        for slot, fp in enumerate(real._fps) if fp}, where


def test_matches_slot_scan_reference():
    branches = Counter()
    for fp_bits, budget, max_kicks, second_chance in product(
            (2, 12, 32), (16, 32, 64, 200, 1000), (8, 64), (True, False)):
        where = (f"fp_bits={fp_bits} budget={budget} kicks={max_kicks} "
                 f"sc={second_chance}")
        seed = budget * 1000 + max_kicks * 2 + second_chance
        real = SuccinctFilterCache(budget, fp_bits=fp_bits,
                                   max_kicks=max_kicks,
                                   rng=random.Random(seed),
                                   second_chance=second_chance)
        ref = _SlotScanReference(real, random.Random(seed))
        for op, args in _op_mix(random.Random(~seed), 2000):
            _step(real, ref, op, args, where)
        assert real._rng.getstate() == ref._rng.getstate(), where
        _check_index(real, where)
        branches += ref.branches
    # Not vacuous: every eviction branch ran, many times.
    assert min(branches[b] for b in (
        "cold_replace", "relocated", "kick_exhausted")) >= 10, branches


def test_shared_ladders_hold_prefix_hashes_not_filter_state():
    """Two filters of one geometry share one ladder table.  They replay
    different op streams turn by turn, re-asking the same few keys at
    varying depths between inserts, deletes, cold replacements and
    relocations; each must keep matching its own slot-scan oracle."""
    asked = [k for k in KEYS if len(k) == 6][::20]
    branches = Counter()
    for budget in (32, 64, 200):
        pairs = []
        for seed in (budget, budget + 1):
            real = SuccinctFilterCache(budget, rng=random.Random(seed))
            ref = _SlotScanReference(real, random.Random(seed))
            pairs.append((real, ref, _op_mix(random.Random(~seed), 2000),
                          random.Random(seed * 31)))
        assert pairs[0][0]._ladders is pairs[1][0]._ladders
        for _ in range(2000):
            for real, ref, stream, again in pairs:
                key = again.choice(asked)
                _step(real, ref, *next(stream), budget)
                _step(real, ref, "deepest_hit",
                      (key, again.randint(-1, len(key) + 2)), budget)
        for real, ref, _, _ in pairs:
            assert real._rng.getstate() == ref._rng.getstate(), budget
            _check_index(real, budget)
            branches += ref.branches
    assert min(branches[b] for b in ("cold_replace", "relocated")) >= 10, \
        branches


def test_ladder_codes_fit_widest_geometry():
    """32-bit fingerprints in 2^17 buckets: resident codes are 49 bits."""
    real = SuccinctFilterCache((1 << 17) * 4 * 33 // 8, fp_bits=32)
    assert real.num_buckets == 1 << 17
    ref = _SlotScanReference(real, random.Random(0))
    for op, args in _op_mix(random.Random(49), 600):
        assert getattr(real, op)(*args) == getattr(ref, op)(*args), (op, args)
    assert _state(real) == _state(ref)
    assert max(real._index) >> 48
    assert {ladder.itemsize for ladder in real._ladders.values()} == {8}


@pytest.mark.parametrize("budget,fp_bits,itemsize", [
    (4096, 12, 4),   # the benchmark's (12, 512): 21-bit codes
    (6144, 23, 4),   # 23 + 9 = 32 bits: still 4-byte words
    (6400, 24, 8),   # 24 + 9 = 33 bits: 8-byte words
])
def test_ladder_words_are_as_wide_as_the_codes(budget, fp_bits, itemsize):
    real = SuccinctFilterCache(budget, fp_bits=fp_bits)
    assert real.num_buckets == 512
    ref = _SlotScanReference(real, random.Random(0))
    for op, args in _op_mix(random.Random(fp_bits), 600):
        assert getattr(real, op)(*args) == getattr(ref, op)(*args), (op, args)
    assert _state(real) == _state(ref)
    assert {ladder.itemsize for ladder in real._ladders.values()} == \
        {itemsize}


# -- the shared probe table: same hashes, bounded ---------------------------

@pytest.mark.parametrize("fp_bits", [2, 8, 12, 32])
def test_probe_table_matches_hashing_functions(fp_bits):
    f = SuccinctFilterCache(4096, fp_bits=fp_bits)
    mask = f.num_buckets - 1
    rng = random.Random(fp_bits)
    items = [rng.randbytes(rng.randint(1, 40)) for _ in range(300)]
    if fp_bits == 2:  # a masked fingerprint of 0 is remapped to 1
        zero = next(p for p in (b"z%d" % i for i in range(1000))
                    if hash64(p, hashing.FINGERPRINT_SEED) & 3 == 0)
        assert f._probe(zero)[0] == 1
        items.append(zero)
    for p in items:
        fp, i1, i2, code1, code2 = f._probe(p)
        assert fp == fingerprint(p, fp_bits)
        assert i1 == hash64(p, 0xB0CCE7) & mask
        assert i2 == (i1 ^ hash64(fp.to_bytes(4, "little"), 0xA17)) & mask
        assert (code1, code2) == (i1 << fp_bits | fp, i2 << fp_bits | fp)
        assert f._probe(p) is f._table[p]
        f.deepest_hit(p, len(p))  # whole-key rung: the ladder's last pair
        assert tuple(f._ladders[p][-2:]) == (code1, code2)
        assert f._ladders[p].itemsize == (8 if fp_bits == 32 else 4)
        assert hashing.hash64_raw(p, fp_bits) == hash64(p, fp_bits)


# -- the lane-built ladder: every rung is the scalar hash -------------------

LANE_GEOMETRIES = {  # id -> (budget, fp_bits)
    "fp2": (4096, 2), "fp8": (4096, 8), "fp12": (4096, 12),
    "fp32": (4096, 32),
    "fp32-2^17": ((1 << 17) * 4 * 33 // 8, 32),  # 49-bit codes, "Q" words
}


def _lane_keys(fp_bits, mask):
    """Keys of every length 1-80, runs of 0x00 and 0xff, a key with a
    rung whose fingerprint masks to 0 (where one can be found), and the
    empty key last."""
    rng = random.Random(fp_bits)
    keys = [rng.randbytes(n) for n in range(1, 81)]
    keys += [bytes([b]) * n for b in (0x00, 0xFF) for n in (1, 8, 33, 80)]
    zero = None
    if fp_bits <= 12:
        zero = next(p for p in (b"z%d" % i for i in count())
                    if hashing.hash64_raw(p, hashing.FINGERPRINT_SEED)
                    & mask == 0)
        keys.append(zero + b"/tail")
    return keys + [b""], zero


@pytest.mark.parametrize("budget,fp_bits", LANE_GEOMETRIES.values(),
                         ids=LANE_GEOMETRIES.keys())
def test_lane_ladders_match_scalar_hashes(monkeypatch, budget, fp_bits):
    """Each rung of a ladder built in one pass equals ``fingerprint`` /
    ``hash64`` / the 0xA17 alternate of its prefix - once while the
    geometry meets its fingerprints for the first time, once after."""
    # Fresh tables, dropped afterwards: every ladder is built here, and
    # a mutant's wrong ladders never reach the process-wide tables.
    monkeypatch.setattr(hashing, "_memos", {})
    monkeypatch.setattr(hashing, "_hash_tables", {})
    f = SuccinctFilterCache(budget, fp_bits=fp_bits)
    mask = f.num_buckets - 1
    keys, zero = _lane_keys(fp_bits, (1 << fp_bits) - 1)
    for _ in range(2):
        f._ladders.clear()
        for key in keys:
            f.deepest_hit(key, 0)  # builds the ladder, probes no rung
            ladder = f._ladders[key]
            assert len(ladder) == 2 * max(len(key), 1), key
            for d in range(1, max(len(key), 1) + 1):
                p = key[:d]
                fp = fingerprint(p, fp_bits)
                i1 = hash64(p, 0xB0CCE7) & mask
                i2 = (i1 ^ hash64(fp.to_bytes(4, "little"), 0xA17)) & mask
                assert ladder[2 * d - 2:2 * d].tolist() == \
                    [i1 << fp_bits | fp, i2 << fp_bits | fp], (key, d)
    if zero is not None:
        assert f._ladders[zero + b"/tail"][2 * len(zero) - 2] \
            & ((1 << fp_bits) - 1) == 1
    assert budget == 4096 or f.num_buckets == 1 << 17
    assert f._empty_rung.itemsize == \
        (4 if fp_bits + mask.bit_length() <= 32 else 8)


def test_mutant_dropping_the_zero_fp_remap_is_caught(monkeypatch):
    """A rung whose fingerprint masks to 0 keeps it: an empty slot's
    code.  Killed by the lane differential at the benchmark's width."""
    mutate(monkeypatch, SuccinctFilterCache,
           SuccinctFilterCache._build_ladder,
           "code if code & fp_mask else code | 1", "code")
    with pytest.raises(AssertionError):
        test_lane_ladders_match_scalar_hashes(monkeypatch,
                                              *LANE_GEOMETRIES["fp12"])


def test_mutant_using_the_shorter_crc_words_is_caught(monkeypatch):
    """Every rung xors in the seed words of a prefix one byte shorter.
    Killed by the lane differential at the benchmark's width."""
    mutate(monkeypatch, hotness, hotness._lane_constants,
           "_rung_words(d)", "_rung_words(d - 1)")
    with pytest.raises(AssertionError):
        test_lane_ladders_match_scalar_hashes(monkeypatch,
                                              *LANE_GEOMETRIES["fp12"])


def _replay(f, seed, steps=400):
    """Answers of a seeded insert/contains/delete/deepest_hit run, and a
    snapshot of the state it left."""
    ops = random.Random(seed)
    out = []
    for _ in range(steps):
        op = ops.choice(("insert", "contains", "delete", "deepest_hit"))
        key = ops.choice(KEYS)
        args = (key, ops.randint(-1, len(key) + 2)) \
            if op == "deepest_hit" else (key,)
        out.append(getattr(f, op)(*args))
    return out, copy.deepcopy((_state(f), f._index, f._rng.getstate()))


def test_tables_clear_wholesale_at_cache_max(monkeypatch):
    # A geometry and a seed no other test uses: the tables start empty,
    # so the capped runs below miss, overflow and clear again and again.
    with monkeypatch.context() as patch:
        patch.setattr(hashing, "_CACHE_MAX", 8)
        f = SuccinctFilterCache(200, fp_bits=9)
        twin = SuccinctFilterCache(200, fp_bits=9)
        assert f._table is twin._table and f._ladders is twin._ladders
        capped = _replay(f, 3)
        assert 0 < len(f._table) <= 8 and 0 < len(f._ladders) <= 8
        hashed = [hash64(k, 0xBEEF) for k in KEYS]
        assert 0 < len(hashing._hash_tables[0xBEEF]) <= 8
    assert _replay(SuccinctFilterCache(200, fp_bits=9), 3) == capped
    assert len(f._table) > 8 and len(f._ladders) > 8
    assert hashed == [hashing.hash64_raw(k, 0xBEEF) for k in KEYS]


# -- every memo: one bound, listed by the census ---------------------------

# The process-wide memos a single-cluster Sphinx run asks for: the ART
# header decoder, and hash64 for prefix placement, prefix_hash42, the
# three MNs' INHT tables and the zipf scramble.
SPHINX_MEMOS = {"layout.header",
                "hash64[0xc0ffe5]", "hash64[0x424242]", "hash64[0xd15c0]",
                "hash64[0x9e3a6c71]", "hash64[0x13c63e6a2]",
                "hash64[0x5c4a]"}


def _sphinx_script():
    """Answers, ``OpStats`` and ``TreeMetrics`` of a small Sphinx insert /
    zipfian search / scan run."""
    cluster = Cluster(ClusterConfig())
    client = SphinxIndex(cluster, SphinxConfig(
        filter_budget_bytes=1 << 12)).client(0)
    stats = OpStats()
    run = cluster.direct_executor(stats).run
    rng = random.Random(27)
    # Three letters of eight: ~140 inner nodes, dozens per MN's INHT.
    keys = [bytes(rng.choice(b"abcdefgh") for _ in range(3)) + b"/%d\0" % i
            for i in range(300)]
    answers = [run(client.insert(key, b"v%d" % i))
               for i, key in enumerate(keys)]
    zipf = ScrambledZipfianGenerator(len(keys), 0.99, rng)
    answers += [run(client.search(keys[zipf.next()])) for _ in range(300)]
    answers += [run(client.scan_count(keys[i], 5)) for i in range(0, 300, 30)]
    return answers, stats, client.metrics


def _empty_every_memo():
    for table in hashing._memos.values():
        table.clear()  # pure functions: refilling cannot change an answer


def test_every_memo_clears_at_cache_max_and_replays_equal(monkeypatch):
    _empty_every_memo()
    uncapped = _sphinx_script()
    asked = {name: n for name, n in hashing.memo_census().items() if n}
    _empty_every_memo()
    with monkeypatch.context() as patch:
        patch.setattr(hashing, "_CACHE_MAX", 8)
        assert _sphinx_script() == uncapped
        held = hashing.memo_census()
    # Both runs ask the same keys, so a table asked for more than 8 that
    # holds at most 8 was cleared at least once.
    assert SPHINX_MEMOS <= {name for name, n in asked.items() if n > 8}, \
        asked
    assert all(held[name] <= 8 for name in asked), held


# -- footprint: ladders are per key, probes per inner-node prefix ----------

def test_ladder_walks_add_keys_not_prefixes():
    f = SuccinctFilterCache(3000, fp_bits=11)  # a geometry of its own
    geometry = (f.fp_bits, f.num_buckets)
    rng = random.Random(11)
    keys = [b"%d/" % i + rng.randbytes(rng.randint(8, 30))
            for i in range(2000)]
    for key in keys + keys[:200]:
        f.deepest_hit(key, len(key) - 1)
    census = hashing.memo_census()
    assert census[f"filter.ladder{geometry}"] == 2000
    assert census[f"filter.probe{geometry}"] == 0


def test_sphinx_load_memoises_inner_prefixes_and_keys_only(monkeypatch):
    asked = set()
    for name in ("insert", "contains", "delete"):
        def counted(self, item, _inner=getattr(SuccinctFilterCache, name)):
            asked.add(item)
            return _inner(self, item)
        monkeypatch.setattr(SuccinctFilterCache, name, counted)
    cluster = Cluster(ClusterConfig())
    index = SphinxIndex(cluster, SphinxConfig(  # a geometry of its own
        filter_budget_bytes=5000, filter_fp_bits=10))
    client, run = index.client(0), cluster.direct_executor().run
    rng = random.Random(10)
    keys = [b"user/%d@%s.org\0" % (i, rng.randbytes(3).hex().encode())
            for i in range(300)]
    for key in keys:
        run(client.insert(key, b"v"))
    geometry = (client.filter.fp_bits, client.filter.num_buckets)
    census = hashing.memo_census()
    assert 0 < census[f"filter.probe{geometry}"] <= len(asked)
    assert 0 < census[f"filter.ladder{geometry}"] <= len(keys)


def test_census_is_complete_and_holds_no_leaf_keys():
    """After a Sphinx cell and a rack call: the ART decoders are on the
    census, the ring keeps no memo of its own (lookups, tokens), and no
    table holds a ``b"leaf:" + key`` (leaf placement is hashed once,
    unmemoised)."""
    ConsistentHashRing([0, 1, 2], seed=0x7E57)
    assert "hash64[0x7e57]" not in hashing.memo_census()
    _sphinx_script()
    run_rack(ClusterSpec(num_cns=2, num_mns=4, group_size=2, num_shards=8,
                         clients=8, replicas=1), tenants=2, num_keys=300,
             insert_pool=60, ops=300, seed=5)
    census = hashing.memo_census()
    assert SPHINX_MEMOS <= set(census) and "ring.lookup" not in census
    assert not [key for table in hashing._memos.values() for key in table
                if isinstance(key, bytes) and key.startswith(b"leaf:")]


# -- snapshot / deepcopy ---------------------------------------------------

def test_deepcopy_carries_index_and_diverges_independently():
    original = SuccinctFilterCache(64)  # tiny: evictions, so the RNG matters
    fresh = SuccinctFilterCache(64)
    loaded = _replay(original, 1)
    assert _replay(fresh, 1) == loaded
    clone = copy.deepcopy(original)
    assert clone._table is original._table
    assert clone._ladders is original._ladders
    assert clone._index is not original._index
    assert _replay(clone, 2) == _replay(fresh, 2)
    assert _replay(original, 0, steps=0) == ([], loaded[1])  # left alone
    assert _replay(original, 5) != _replay(clone, 5)  # different histories
