"""DMSan tests: each analysis must flag a seeded violation of its class,
and the shipped protocols must run clean under the monitor."""

import random

import pytest

from repro.art import encode_u64
from repro.baselines import ArtDmIndex, SmartConfig, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.rdma import Batch, CasOp, FaaOp, ReadOp, WriteOp
from repro.errors import RetryLimitExceeded, SanViolation
from repro.san import ABA, ATOMIC_MIX, STALE_READ, TORN_READ, \
    UNLOCKED_WRITE, USE_AFTER_FREE, WRITE_AFTER_FREE, SanConfig


def fresh(monitor_config=None):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    monitor = cluster.attach_sanitizer(monitor_config)
    return cluster, monitor


def one(*verbs):
    """A generator protocol issuing the given verbs in order."""
    def gen():
        out = []
        for verb in verbs:
            out.append((yield verb))
        return out
    return gen()


def kinds(report):
    return [v.kind for v in report.violations]


# ---------------------------------------------------------------------------
# Lockset / ownership
# ---------------------------------------------------------------------------

class TestLockset:
    def test_unlocked_write_to_published_object_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "inner")
        writer = cluster.direct_executor()
        writer.run(one(WriteOp(addr, bytes(64))))          # creator
        other = cluster.direct_executor()
        other.run(one(ReadOp(addr, 64)))                   # published
        other.run(one(WriteOp(addr + 16, b"\xab" * 8)))    # no lock held!
        assert kinds(monitor.report) == [UNLOCKED_WRITE]
        violation = monitor.report.violations[0]
        assert "mn0+0x" in violation.render()
        assert violation.client == other.client_id

    def test_cas_locked_write_is_clean(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "inner")
        writer = cluster.direct_executor()
        writer.run(one(WriteOp(addr, bytes(64))))
        other = cluster.direct_executor()
        other.run(one(ReadOp(addr, 64)))
        # Acquire the object's header word, mutate, release (unlock writes
        # a different value than the CAS installed).
        other.run(one(CasOp(addr, 0, 1),
                      WriteOp(addr + 16, b"\xab" * 8),
                      WriteOp(addr, bytes(8))))
        assert monitor.report.clean, monitor.report.render_violations()

    def test_write_after_unlock_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "inner")
        cluster.direct_executor().run(one(WriteOp(addr, bytes(64))))
        other = cluster.direct_executor()
        other.run(one(ReadOp(addr, 64),
                      CasOp(addr, 0, 1),          # lock
                      WriteOp(addr, bytes(8)),    # unlock releases ownership
                      WriteOp(addr + 8, b"x" * 8)))  # late write: flagged
        assert kinds(monitor.report) == [UNLOCKED_WRITE]

    def test_creator_initialization_never_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 128, "inner")
        creator = cluster.direct_executor()
        creator.run(one(WriteOp(addr, bytes(128)),
                        WriteOp(addr + 8, b"y" * 16)))
        assert monitor.report.clean

    def test_external_sync_category_escape(self):
        cluster, monitor = fresh()
        seg = cluster.alloc(0, 64, "hash_table")       # holds the lock word
        directory = cluster.alloc(0, 64, "hash_table")  # written lock-free
        cluster.direct_executor().run(one(WriteOp(directory, bytes(64))))
        other = cluster.direct_executor()
        other.run(one(ReadOp(directory, 64)))
        # Holding a group lock in the *segment* legitimizes the directory
        # repoint (RACE split, Phase 4) ...
        other.run(one(CasOp(seg, 0, 1),
                      WriteOp(directory + 8, b"p" * 8)))
        assert monitor.report.clean
        # ... but holding nothing at all is still flagged.
        third = cluster.direct_executor()
        third.run(one(WriteOp(directory + 8, b"q" * 8)))
        assert kinds(monitor.report) == [UNLOCKED_WRITE]


# ---------------------------------------------------------------------------
# Torn reads
# ---------------------------------------------------------------------------

def run_concurrent(cluster, ops_by_worker):
    processes = []
    for wid, gens in enumerate(ops_by_worker):
        def worker(wid=wid, gens=gens):
            executor = cluster.sim_executor(wid % cluster.config.num_cns)
            for gen in gens:
                yield from executor.run(gen)
        processes.append(cluster.engine.process(worker()))
    for process in processes:
        cluster.engine.run_until_complete(
            process, limit=cluster.engine.now + 60_000_000_000)


class TestTornRead:
    def test_overlapping_read_write_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        run_concurrent(cluster, [
            [one(ReadOp(addr, 24))],
            [one(WriteOp(addr, b"w" * 24))],
        ])
        assert TORN_READ in kinds(monitor.report)
        violation = monitor.report.violations[0]
        assert "overlaps write" in violation.detail

    def test_single_word_overlap_is_nic_atomic(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        run_concurrent(cluster, [
            [one(ReadOp(addr, 24))],
            [one(WriteOp(addr + 16, b"w" * 8))],   # one aligned word
        ])
        assert monitor.report.clean

    def test_tear_tolerant_category_counted_not_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "leaf")        # checksummed: tolerated
        run_concurrent(cluster, [
            [one(ReadOp(addr, 24))],
            [one(WriteOp(addr, b"w" * 24))],
        ])
        assert monitor.report.clean
        assert monitor.report.torn_tolerated >= 1

    def test_sequential_access_never_torn(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, b"w" * 24)))
        cluster.direct_executor().run(one(ReadOp(addr, 24)))
        assert monitor.report.clean


# ---------------------------------------------------------------------------
# Atomic-word hygiene + ABA
# ---------------------------------------------------------------------------

class TestAtomicHygiene:
    def test_plain_write_partially_covering_cas_word(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(CasOp(addr, 0, 1)))
        executor.run(one(WriteOp(addr + 4, b"zz")))   # straddles the word
        assert ATOMIC_MIX in kinds(monitor.report)

    def test_plain_read_partially_covering_cas_word(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(CasOp(addr, 0, 1)))
        executor.run(one(ReadOp(addr + 2, 4)))
        assert ATOMIC_MIX in kinds(monitor.report)

    def test_unaligned_cas_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        cluster.direct_executor().run(one(CasOp(addr + 4, 0, 1)))
        assert kinds(monitor.report) == [ATOMIC_MIX]

    def test_full_word_write_is_legitimate_unlock(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(CasOp(addr, 0, 1), WriteOp(addr, bytes(8))))
        assert monitor.report.clean

    def test_aba_pattern_warned(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        a = cluster.direct_executor()
        b = cluster.direct_executor()
        b.run(one(CasOp(addr, 0, 7),                # registers the word
                  WriteOp(addr, bytes(8))))         # ... and releases it
        a.run(one(ReadOp(addr, 8)))                 # A observes value 0
        b.run(one(CasOp(addr, 0, 7),                # B: 0 -> 7
                  WriteOp(addr, bytes(8))))         # B: 7 -> 0 (A can't tell)
        a.run(one(CasOp(addr, 0, 9)))               # A's CAS succeeds: ABA
        assert monitor.report.clean                 # warning, not violation
        assert monitor.report.warning_count >= 1
        assert any(ABA in w for w in monitor.report.warnings)


# ---------------------------------------------------------------------------
# Use-after-free
# ---------------------------------------------------------------------------

#: Each verb on one 8-byte word, and what it is flagged as on a freed
#: object: a read is a use-after-free; a write, CAS or FAA (an atomic
#: writes its word, or may) is a write-after-free.
FREED_WORD_VERBS = {
    "read": (lambda addr: ReadOp(addr, 8), USE_AFTER_FREE),
    "write": (lambda addr: WriteOp(addr, bytes(8)), WRITE_AFTER_FREE),
    "cas": (lambda addr: CasOp(addr, 0, 0), WRITE_AFTER_FREE),
    "faa": (lambda addr: FaaOp(addr, 0), WRITE_AFTER_FREE),
}


class TestUseAfterFree:
    def test_read_of_freed_object_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(64))))
        cluster.free(addr, 64, "generic")
        executor.run(one(ReadOp(addr, 64)))
        assert kinds(monitor.report) == [USE_AFTER_FREE]

    def test_write_to_freed_object_flagged(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(64))))
        cluster.free(addr, 64, "generic")
        executor.run(one(WriteOp(addr, b"z" * 8)))
        assert kinds(monitor.report) == [WRITE_AFTER_FREE]

    def test_freed_leaf_read_is_stale_warning(self):
        # Shipped protocols free leaves that stale pointers still reach;
        # readers validate checksum + key, so DMSan only warns.
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "leaf")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(64))))
        cluster.free(addr, 64, "leaf")
        executor.run(one(ReadOp(addr, 64)))
        assert monitor.report.clean
        assert monitor.report.stale_reads == 1
        assert any(STALE_READ in w for w in monitor.report.warnings)

    @pytest.mark.parametrize("verb", sorted(FREED_WORD_VERBS))
    def test_each_word_verb_on_a_freed_object_is_flagged(self, verb):
        make, kind = FREED_WORD_VERBS[verb]
        cluster, monitor = fresh()
        keep = cluster.alloc(0, 64, "generic")
        victim = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(keep, bytes(64)),
                         WriteOp(victim, bytes(64))))
        cluster.free(victim, 64, "generic")
        executor.run(one(make(keep)))
        assert monitor.report.clean
        executor.run(one(make(victim + 56)))   # last word of the freed block
        assert kinds(monitor.report) == [kind]

    def test_realloc_resets_tracking(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(64))))
        cluster.free(addr, 64, "generic")
        addr2 = cluster.alloc(0, 64, "generic")   # recycles the block
        assert addr2 == addr
        executor.run(one(ReadOp(addr2, 64)))      # fresh object: clean
        assert monitor.report.clean


# ---------------------------------------------------------------------------
# Policy / report plumbing
# ---------------------------------------------------------------------------

class TestPolicy:
    def test_on_violation_raise(self):
        cluster, monitor = fresh(SanConfig(on_violation="raise"))
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(64))))
        cluster.free(addr, 64, "generic")
        with pytest.raises(SanViolation, match="use-after-free"):
            executor.run(one(ReadOp(addr, 64)))

    def test_check_clean_raises_with_rendered_violations(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(64))))
        cluster.free(addr, 64, "generic")
        executor.run(one(ReadOp(addr, 64)))
        with pytest.raises(SanViolation, match="VIOLATIONS"):
            monitor.check_clean()

    def test_summary_counts_events(self):
        cluster, monitor = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()
        executor.run(one(WriteOp(addr, bytes(8)), ReadOp(addr, 8),
                         FaaOp(addr + 8, 1)))
        summary = monitor.report.summary()
        assert "CLEAN" in summary
        assert "3 events" in summary
        assert monitor.report.reads == 1
        assert monitor.report.writes == 1
        assert monitor.report.atomics == 1

    def test_retry_limit_carries_client_and_stats(self):
        cluster, _ = fresh()
        addr = cluster.alloc(0, 64, "generic")
        executor = cluster.direct_executor()

        def hot_loop():
            yield ReadOp(addr, 8)
            raise RetryLimitExceeded("lock acquisition starved", addr=addr)

        with pytest.raises(RetryLimitExceeded) as exc_info:
            executor.run(hot_loop())
        rendered = str(exc_info.value)
        assert "addr=mn0+0x" in rendered
        assert f"client={executor.client_id}" in rendered
        assert "stats[rt=1" in rendered


# ---------------------------------------------------------------------------
# The shipped protocols run clean under the monitor
# ---------------------------------------------------------------------------

SYSTEMS = {
    "art": lambda c: ArtDmIndex(c),
    "smart": lambda c: SmartIndex(c, SmartConfig(cache_budget_bytes=1 << 16)),
    "sphinx": lambda c: SphinxIndex(c, SphinxConfig(
        filter_budget_bytes=1 << 14)),
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_shipped_protocols_run_clean(system):
    cluster, monitor = fresh()
    index = SYSTEMS[system](cluster)
    rng = random.Random(7)
    keys = [encode_u64(rng.getrandbits(64)) for _ in range(240)]
    shards = [keys[i::4] for i in range(4)]
    inserts = [[index.client(w % 3).insert(k, b"v-" + k[:4]) for k in shard]
               for w, shard in enumerate(shards)]
    run_concurrent(cluster, inserts)
    mixed = [[index.client(w % 3).update(k, b"u-" + k[:4])
              for k in shard[:20]] +
             [index.client(w % 3).delete(k) for k in shard[20:30]]
             for w, shard in enumerate(shards)]
    run_concurrent(cluster, mixed)
    report = monitor.report
    assert report.clean, report.summary() + "\n" + "\n".join(
        report.render_violations())
    assert report.events > 1000   # the monitor really saw the workload
    assert report.objects_tracked > 100
