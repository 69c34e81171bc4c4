"""The one guarded slot write of RACE (``RaceClient._step``) and its one
re-check rule, pinned by shrunk reproducers of the two tree-vs-hash
coherence bugs it fixed and by source-level mutants of the step.

Each reproducer drives the op generators verb by verb (``_Op``) so a
segment split lands exactly in the window that broke the old code:

* an insert whose [CAS, header READ] doorbell applied the CAS and lost
  the READ used to retry into the next slot - a second copy that a
  delete left behind (the race-chaos "lookup resurrected absent key");
* a split-coupled INHT insert whose undo landed after the split had
  copied the entry used to re-insert it - a second copy that the later
  type switch did not repoint (the ``sphinx-load`` ``inht_orphan``);
* a type-switch repoint or a delete landing between a split's lock CAS
  and its phase-5 clear used to be overwritten by the clear, leaving the
  old entry in the sibling segment.
"""

import inspect
import random
import textwrap

import pytest

from repro.art import encode_str
from repro.art.layout import NODE4, NODE16, hash_entry_word
from repro.art.keys import common_prefix_len
from repro.core import SphinxConfig, SphinxIndex
from repro.core.inht import InhtClient, InnerNodeHashTable
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn, addr_offset
from repro.dm.rdma import Batch, CasOp, ReadOp, WriteOp
from repro.errors import InjectedFault
from repro.race import RaceClient, TableParams, create_table, fp2_of, key_hash
from repro.race.layout import DIR_ENTRY
from repro.tools import check_index
from repro.util.bits import u64_from_bytes

DEPTH = 1  # initial local depth: a split moves entries whose fp2 bit 1 is set


class _Op:
    """One op generator driven a verb (or doorbell) at a time."""

    def __init__(self, ex, gen):
        self.ex, self.gen = ex, gen
        self.done, self.value = False, None
        self._resume(lambda: gen.send(None))

    def _resume(self, advance):
        try:
            self.verb = advance()
        except StopIteration as stop:
            self.done, self.value, self.verb = True, stop.value, None

    def step(self):
        result = self.ex.execute(self.verb)
        self._resume(lambda: self.gen.send(result))

    def throw(self, exc):
        self._resume(lambda: self.gen.throw(exc))

    def run_until(self, pred):
        while not pred(self.verb):
            self.step()

    def finish(self):
        while not self.done:
            self.step()
        return self.value


def _is_step_doorbell(verb):
    """A RACE [CAS(slot), READ(header)] doorbell."""
    return isinstance(verb, Batch) and isinstance(verb.ops[0], CasOp) \
        and isinstance(verb.ops[1], ReadOp)


def _is_slot_write(verb):
    """The verb of a RACE op carrying its entry-slot CAS: the step's
    doorbell, or a bare CAS (how a repoint and a delete used to write)."""
    return _is_step_doorbell(verb) or isinstance(verb, CasOp)


def _lock(split):
    """Run a split up to and including its phase-1 header-lock doorbell."""
    split.run_until(lambda v: isinstance(v, Batch)
                    and all(isinstance(o, CasOp) for o in v.ops))
    split.step()


def _copy(split):
    """Phase 2 (re-read under the lock) and phase 3 (sibling written)."""
    split.run_until(lambda v: isinstance(v, WriteOp))
    split.step()


def _raw_words(cluster, info, word):
    """How many slots of the live segments hold exactly ``word``, whether
    a lookup reaches them or not (a copy stranded in the wrong segment is
    invisible to lookups)."""
    memory = cluster.memories[addr_mn(info.dir_addr)]
    params = info.params
    raw = memory.read(addr_offset(info.dir_addr), params.directory_slots * 8)
    entries = [DIR_ENTRY.unpack(u64_from_bytes(raw[i:i + 8]))
               for i in range(0, len(raw), 8)]
    segments = {e["addr"] for e in entries if e["occupied"]}
    count = 0
    for seg in segments:
        data = memory.read(addr_offset(seg), params.segment_size)
        for g in range(params.groups_per_segment):
            base = params.group_offset(g) + 8
            count += sum(u64_from_bytes(data[base + 8 * s:base + 8 * s + 8])
                         == word for s in range(params.slots_per_group))
    return count


def _moving_key(client, stem):
    """A key whose entry the first split of its segment moves to the
    sibling (``client``: a RaceClient, or an InhtClient routing by key)."""
    def table(key):
        return client._client_for(key) if isinstance(client, InhtClient) \
            else client
    return next(key for key in (f"{stem}{i}".encode() for i in range(256))
                if fp2_of(key_hash(key, table(key).params.seed)) >> DEPTH & 1)


def _split_of(inht_client, prefix):
    """The segment split of ``prefix``'s table, by ``inht_client``."""
    race_client = inht_client._client_for(prefix)
    return race_client._split(key_hash(prefix, race_client.params.seed))


def _entry(client, key, addr, node_type=NODE4):
    return hash_entry_word(addr, fp2_of(key_hash(key, client.params.seed)),
                           node_type)


@pytest.fixture
def race():
    """A one-MN table, a client and a second client that splits."""
    cluster = Cluster(ClusterConfig(num_mns=1, num_cns=1,
                                    mn_capacity_bytes=16 << 20))
    info = create_table(cluster, 0, TableParams(
        seed=77, groups_per_segment=8, slots_per_group=4,
        initial_depth=DEPTH))
    return cluster, info, RaceClient(cluster, info), RaceClient(cluster, info)


@pytest.fixture
def inht():
    """The INHT wrapper (the type switch's and delete's public entry
    points at every commit) plus a second CN's client that splits."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=16 << 20))
    table = InnerNodeHashTable.create(cluster, TableParams(
        seed=5, groups_per_segment=8, slots_per_group=4, initial_depth=DEPTH))
    return cluster, InhtClient(cluster, table), InhtClient(cluster, table)


# ---------------------------------------------------------------------------
# (a) race-chaos seeds 69 / 92, shrunk
# ---------------------------------------------------------------------------

def test_insert_whose_header_read_was_lost_leaves_one_entry(race):
    cluster, info, client, _other = race
    ex = cluster.direct_executor()
    key = b"p/07"
    entry = _entry(client, key, 0x4000)
    op = _Op(ex, client.insert(key, entry))
    op.run_until(_is_slot_write)
    cas, read = op.verb.ops
    ex.execute(cas)  # the CAS applies; the header READ's reply is lost
    op.throw(InjectedFault("header read dropped", kind="drop",
                           addr=read.addr))
    op.finish()
    assert _raw_words(cluster, info, entry) == 1
    assert ex.run(client.delete(key, 0x4000))
    assert ex.run(client.lookup(key)) == []


# ---------------------------------------------------------------------------
# Inserts racing a split: copied by it, or landing after its re-read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("window", ["copied", "stranded"])
def test_insert_racing_a_split_leaves_one_reachable_entry(race, window):
    """``copied``: the CAS lands under the lock before the split re-reads
    the segment, so the sibling gets a copy, and the undo lands before
    the phase-5 clear.  ``stranded``: the CAS lands after the re-read, so
    the entry sits in the old segment, which lookups no longer reach -
    only the inverse CAS takes it out."""
    cluster, info, client, splitter = race
    ex = cluster.direct_executor()
    key = _moving_key(client, "mv")
    entry = _entry(client, key, 0x4000)
    ex.run(client.lookup(key))  # warm the directory cache
    op = _Op(ex, client.insert(key, entry))
    op.run_until(_is_slot_write)
    split = _Op(ex, splitter._split(key_hash(key, info.params.seed)))
    _lock(split)
    if window == "stranded":
        _copy(split)
    op.step()  # the doorbell: CAS applied, header locked
    if window == "copied":
        _copy(split)
        op.step()  # the undo, before the phase-5 clear
    split.finish()
    op.finish()
    assert _raw_words(cluster, info, entry) == 1
    assert [e for _s, e in ex.run(client.lookup(key))] == [entry]


# ---------------------------------------------------------------------------
# (b) sphinx-load seed 25, shrunk
# ---------------------------------------------------------------------------

def _split_coupled_insert_then_type_switch():
    """Client 0's leaf split creates the inner node for ``prefix``; its
    piggybacked INHT insert races client 1's split of the segment
    holding ``prefix``: the CAS lands under the lock, the split copies
    the entry into the sibling, then the undo takes the original back.
    Three more children later the node type-switches."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14,
                                              table_initial_depth=DEPTH))
    writer, other = index.client(0), index.client(1)
    prefix = _moving_key(writer.inht, "s")
    keys = [encode_str(f"{prefix.decode()}{c}") for c in "12345"]
    assert keys[0][:common_prefix_len(keys[0], keys[1])] == prefix
    ex = cluster.direct_executor()
    ex.run(writer.insert(keys[0], b"v"))
    ex.run(writer.inht.lookup(prefix))  # warm: the split coupling piggybacks
    op = _Op(ex, writer.insert(keys[1], b"v"))
    op.run_until(_is_step_doorbell)  # not the tree's bare slot CASes
    split = _Op(ex, _split_of(other.inht, prefix))
    _lock(split)
    op.step()   # insert_into_group's doorbell: applied, header locked
    _copy(split)
    op.step()   # the undo, after the copy and before the phase-5 clear
    split.finish()
    op.finish()
    copies = [e for _s, e in ex.run(writer.inht.lookup(prefix))]
    assert len(copies) == 1, copies
    for key in keys[2:]:
        ex.run(writer.insert(key, b"v"))
    assert writer.metrics.type_switches == 1
    return check_index(cluster, index)


def test_split_coupled_insert_racing_a_split_leaves_no_orphan():
    report = _split_coupled_insert_then_type_switch()
    assert report.findings == [], report.warnings
    assert report.clean, report.errors


# ---------------------------------------------------------------------------
# (c) / (d) a repoint or a delete between a split's lock and its clear
# ---------------------------------------------------------------------------

def _in_split_window(inht, prefix, op_gen):
    """Land ``op_gen``'s slot write after the split copied the segment
    into the sibling and before its phase-5 clear; then let both end."""
    cluster, _client, other = inht
    ex = cluster.direct_executor()
    op = _Op(ex, op_gen)
    op.run_until(_is_slot_write)
    split = _Op(ex, _split_of(other, prefix))
    _lock(split)
    _copy(split)
    op.step()
    split.finish()
    return op.finish()


def test_type_switch_repoint_racing_a_split_ends_with_the_new_entry(inht):
    cluster, client, _other = inht
    ex = cluster.direct_executor()
    prefix = _moving_key(client, "n")
    ex.run(client.insert(prefix, 0x100, NODE4))
    _in_split_window(inht, prefix, client.update_for_type_switch(
        prefix, 0x100, NODE4, 0x200, NODE16))
    entries = [e for _s, e in ex.run(client.lookup(prefix))]
    assert entries == [client.entry_for(prefix, 0x200, NODE16)]


def test_delete_racing_a_split_leaves_the_key_absent(inht):
    cluster, client, _other = inht
    ex = cluster.direct_executor()
    prefix = _moving_key(client, "n")
    ex.run(client.insert(prefix, 0x100, NODE4))
    assert _in_split_window(inht, prefix, client.delete(prefix, 0x100))
    assert ex.run(client.lookup(prefix)) == []


# ---------------------------------------------------------------------------
# Exit test: a fault-free concurrent insert load ends fsck-clean at rest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_concurrent_insert_load_is_fsck_clean_at_rest(seed):
    """48 workers insert 3 000 keys into a Sphinx index whose INHT
    segments hold 16 entries, so segment splits race the split-coupled
    installs and type-switch repoints (~160 splits, ~210 switches).
    With a blind re-insert after an undo, or an unguarded repoint, both
    seeds end with an ``inht_orphan`` (seed 1 also an ``inht_missing``)."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(
        filter_budget_bytes=1 << 14, table_groups_per_segment=4,
        table_slots_per_group=4, table_initial_depth=DEPTH))
    rng = random.Random(seed)
    keys = sorted({encode_str(f"u{rng.randrange(10 ** 5)}")
                   for _ in range(3000)})
    rng.shuffle(keys)
    num_cns, workers = cluster.config.num_cns, 48

    def worker(w):
        executor = cluster.sim_executor(w % num_cns)
        client = index.client(w % num_cns)
        for key in keys[w::workers]:
            yield from executor.run(client.insert(key, b"v"))

    for process in [cluster.engine.process(worker(w))
                    for w in range(workers)]:
        cluster.engine.run_until_complete(
            process, limit=cluster.engine.now + 600_000_000_000)
    clients = [index.client(cn) for cn in range(num_cns)]
    assert sum(c.inht.splits() for c in clients) > 100
    assert sum(c.metrics.type_switches for c in clients) > 100
    report = check_index(cluster, index)
    assert report.findings == [], report.warnings[:5]
    assert report.clean, report.errors[:5]


# ---------------------------------------------------------------------------
# Mutants of the step: each is killed by a named test above
# ---------------------------------------------------------------------------

def _mutate(monkeypatch, method, old, new):
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), f"<{method.__name__} mutant>",
                 "exec"), vars(inspect.getmodule(RaceClient)), namespace)
    monkeypatch.setattr(RaceClient, method.__name__,
                        namespace[method.__name__])


def test_mutant_skipping_the_re_check_is_caught(monkeypatch, race):
    """An ambiguous step reported as applied: the op finishes without
    re-reading the group.  Killed by the lost-header-READ reproducer."""
    _mutate(monkeypatch, RaceClient._write_slot,
            "if applied:", "if applied is not False:")
    with pytest.raises(AssertionError):
        test_insert_whose_header_read_was_lost_leaves_one_entry(race)


def test_mutant_dropping_the_header_read_is_caught(monkeypatch, inht):
    """The step learns nothing from its header READ, so only a lost
    reply is ambiguous.  Killed by the repoint-in-the-split-window
    reproducer: the phase-5 clear wipes the repoint."""
    _mutate(monkeypatch, RaceClient._step,
            'GROUP_HEADER.unpack(u64_from_bytes(header))',
            '{"locked": 0, "version": group.version}')
    with pytest.raises(AssertionError):
        test_type_switch_repoint_racing_a_split_ends_with_the_new_entry(inht)


def test_mutant_skipping_the_inverse_cas_is_caught(monkeypatch, race):
    """An ambiguous step leaves what it planted.  Killed by the
    stranded-insert reproducer: the copy in the old segment stays."""
    _mutate(monkeypatch, RaceClient._step, "if new:", "if False:")
    with pytest.raises(AssertionError):
        test_insert_racing_a_split_leaves_one_reachable_entry(race,
                                                              "stranded")
