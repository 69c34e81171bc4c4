"""The scan walk against the walk it replaced.

``RemoteArtTree._scan_walk`` is one generator with an explicit stack over
raw slot words.  The recursive, ``Slot``-object walk it replaced lives on
here as :class:`_RecursiveScanReference` and both are driven over the
same trees: results, the recorded op stream (every ``ReadOp`` / ``Batch``
with addresses and sizes, in order) and ``OpStats`` must be equal; under
``SimExecutor`` with concurrent inserters so must the clock, the event
count and every NIC counter.

The oracle was mutation-checked while this file was written.  Sorting the
reference's children by slot index instead of partial byte, ignoring
``hi`` in its prune, or flushing at ``flush_chunk`` whatever the budget
each fail the differential tests below on the op stream; the last is kept
as ``test_oracle_notices_a_late_flush`` so the check stays mechanical.
Dropping the reference's *flush-before-descend* does not: with a budget,
``buffer_full()`` and ``maybe_satisfied()`` are one condition and every
append checks it, so it can never hold when the walk descends.  The new
walk therefore does not carry that flush, and
``test_flush_before_descend_was_dead`` pins the reason.
"""

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro.art import encode_str, encode_u64
from repro.art.layout import (
    LEAF_ALIGN,
    NODE4,
    NODE16,
    NODE48,
    NODE256,
    STATUS_INVALID,
    NodeView,
    Slot,
    decode_leaf,
    decode_node,
    node_size,
)
from repro.baselines import ArtDmConfig, ArtDmIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.core import leaf as leaf_ops
from repro.core.remote_art import EMPTY_SUBTREE, OpContext
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn, addr_offset
from repro.dm.rdma import Batch, ReadOp
from repro.errors import RetryLimitExceeded
from repro.fault.retry import RetryPolicy
from repro.ycsb.datasets import make_email_dataset, make_u64_dataset


# -- the oracle: the parent commit's walk, verbatim ---------------------------

@dataclass
class _RefScanState:
    """The parent's ``_ScanState``, predicates included."""

    start_key: bytes
    count: Optional[int]
    hi: Optional[bytes]
    results: List[Tuple[bytes, bytes]] = None  # type: ignore[assignment]
    pending: List[Slot] = None  # type: ignore[assignment]
    done: bool = False
    flush_chunk: int = 64  # buffer bound for unbounded (hi-only) scans

    def __post_init__(self):
        self.results = []
        self.pending = []

    def satisfied(self) -> bool:
        return self.count is not None and len(self.results) >= self.count

    def maybe_satisfied(self) -> bool:
        """True when the buffered leaves could already cover the budget."""
        return self.count is not None and \
            len(self.results) + len(self.pending) >= self.count

    def buffer_full(self) -> bool:
        if self.count is not None:
            return len(self.results) + len(self.pending) >= self.count
        return len(self.pending) >= self.flush_chunk


class _NoEarlyFlushState(_RefScanState):
    """Never flush before descending (unreachable in the parent)."""

    def maybe_satisfied(self) -> bool:
        return False


class _LateFlushState(_RefScanState):
    """The mutant: buffer to ``flush_chunk`` whatever the budget."""

    def buffer_full(self) -> bool:
        return len(self.pending) >= self.flush_chunk


class _RecursiveScanReference:
    """The recursive scan of the parent commit, bound to a live client.

    ``_scan_rec`` and ``_flush_leaves`` are the parent's, verbatim, but
    for the two bugfixes that ride this PR: the torn-leaf re-read passes
    ``retry=self.retry`` like the tree does (the default policy reads the
    same), and a subtree above ``hi`` ends the walk *without* setting
    ``state.done``, which made the last flush drop the in-range leaves
    still buffered (``test_scan_range_matches_reference`` checks both
    sides against the tree's truth).  Everything the PR left alone - ``_read_node``,
    ``_recover_leaf_key``, ``_run``, ``scan_batched``, ``retry``,
    ``metrics`` - is the client's own, reached through ``__getattr__``.
    """

    def __init__(self, tree, state_cls=_RefScanState):
        self.tree = tree
        self.state_cls = state_cls

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def scan_count(self, start_key: bytes, count: int):
        self.metrics.scans += 1
        result = yield from self._run(
            lambda ctx: self._scan_count_once(start_key, count),
            OpContext(start_key, 0), "scan_count")
        return result

    def _scan_count_once(self, start_key: bytes, count: int):
        state = self.state_cls(start_key=start_key, count=count, hi=None)
        root = yield from self._read_node(self.root_addr, NODE256)
        if root is None:
            return state.results
        yield from self._scan_rec(root, b"", state, True)
        yield from self._flush_leaves(state)
        return state.results[:count]

    def scan_range(self, lo: bytes, hi: bytes):
        self.metrics.scans += 1
        result = yield from self._run(
            lambda ctx: self._scan_range_once(lo, hi),
            OpContext(lo, 0), "scan_range")
        return result

    def _scan_range_once(self, lo: bytes, hi: bytes):
        state = self.state_cls(start_key=lo, count=None, hi=hi)
        root = yield from self._read_node(self.root_addr, NODE256)
        if root is None:
            return state.results
        yield from self._scan_rec(root, b"", state, True)
        yield from self._flush_leaves(state)
        return state.results

    def _flush_leaves(self, state):
        if not state.pending or state.done:
            state.pending.clear()
            return
        reads = [ReadOp(s.addr, s.size_class * LEAF_ALIGN)
                 for s in state.pending]
        if self.scan_batched:
            blobs = yield Batch(reads)
        else:
            blobs = []
            for op in reads:
                blobs.append((yield op))
        for slot, blob in zip(state.pending, blobs):
            if state.satisfied():
                break
            leaf = decode_leaf(blob)
            if not leaf.checksum_ok:
                leaf = yield from leaf_ops.read_leaf(slot.addr,
                                                     slot.size_class,
                                                     retry=self.retry)
            if leaf.status == STATUS_INVALID or not leaf.checksum_ok:
                continue
            if leaf.key < state.start_key:
                continue
            if state.hi is not None and leaf.key > state.hi:
                # Leaves are buffered in key order: nothing later fits.
                state.done = True
                break
            state.results.append((leaf.key, leaf.value))
        state.pending.clear()

    def _scan_rec(self, view: NodeView, known_prefix: bytes, state,
                  ambiguous: bool):
        start_key, hi = state.start_key, state.hi
        depth = view.header.depth
        real_prefix = known_prefix
        if depth > len(known_prefix):
            if not ambiguous and hi is None:
                pass  # whole subtree already known in-range below
            else:
                witness = yield from self._recover_leaf_key(view)
                if witness is EMPTY_SUBTREE or witness is None:
                    return True  # nothing live below (or mid-churn: skip)
                real_prefix = witness[:depth]
        if ambiguous:
            head = start_key[:depth]
            if real_prefix < head:
                return True   # entire subtree below the range start
            if real_prefix > head:
                ambiguous = False
        if hi is not None and real_prefix > hi[:depth]:
            return False      # entire subtree above the range end
        threshold = start_key[depth] if ambiguous and depth < len(start_key) \
            else None
        children = sorted(view.occupied_slots(), key=lambda s: s.partial)
        if threshold is not None:
            children = [s for s in children if s.partial >= threshold]
        if hi is not None and depth < len(hi):
            # Conservative upper prune: children strictly above hi's byte
            # can only hold keys > hi when the prefix equals hi's head.
            if real_prefix == hi[:depth]:
                children = [s for s in children if s.partial <= hi[depth]]
        for slot in children:
            if state.satisfied() or state.done:
                return False
            if slot.is_leaf:
                state.pending.append(slot)
                if state.buffer_full():
                    yield from self._flush_leaves(state)
                    if state.satisfied() or state.done:
                        return False
                continue
            # Descend.  Before crossing a subtree boundary the buffered
            # budget may already cover the request: flush first so the
            # traversal can stop without reading another subtree.
            if state.maybe_satisfied():
                yield from self._flush_leaves(state)
                if state.satisfied() or state.done:
                    return False
            child = yield from self._read_node(slot.addr, slot.size_class)
            if child is None or child.header.status == STATUS_INVALID:
                continue
            child_ambiguous = ambiguous and slot.partial == threshold
            keep_going = yield from self._scan_rec(
                child, real_prefix + bytes([slot.partial]), state,
                child_ambiguous)
            if not keep_going:
                return False
        return True


# -- harness ------------------------------------------------------------------

class _Recorder:
    """A direct executor that logs every op it is handed (verbs are frozen
    dataclasses, so two logs compare with ``==``) and can hand back one
    torn image for chosen leaf addresses: the first READ of each comes
    back with a payload bit flipped, later ones clean."""

    def __init__(self, cluster, tear=()):
        self.ex = cluster.direct_executor()
        self.log = []
        self._tear = set(tear)
        execute = self.ex.execute

        def recording(op):
            self.log.append(op)
            result = execute(op)
            if op.__class__ is Batch:
                return [self._maybe_torn(v, r) for v, r in zip(op.ops, result)]
            return self._maybe_torn(op, result)

        self.ex.execute = recording

    def _maybe_torn(self, verb, result):
        if verb.__class__ is ReadOp and verb.addr in self._tear:
            self._tear.discard(verb.addr)
            return result[:16] + bytes([result[16] ^ 1]) + result[17:]
        return result

    def run(self, gen):
        """``(outcome, value)``: a scan that dies of a leaf that never
        checksums must die the same way, after the same ops, on both
        sides."""
        try:
            return "ok", self.ex.run(gen)
        except RetryLimitExceeded as exc:
            return "retry-limit", exc.addr

    def reads_of(self, addr):
        return sum(1 for op in self.log
                   for verb in (op.ops if op.__class__ is Batch else (op,))
                   if verb.__class__ is ReadOp and verb.addr == addr)


def _raw_node(cluster, addr, node_type):
    memory = cluster.memories[addr_mn(addr)]
    return decode_node(memory.read(addr_offset(addr), node_size(node_type)))


def _inner_nodes(cluster, index):
    """``(parent_depth, view, witness)`` for every inner node below the
    root; ``witness`` is some key stored under the node, or None."""
    found = []

    def visit(view):
        witness = None
        for slot in view.occupied_slots():
            if slot.is_leaf:
                memory = cluster.memories[addr_mn(slot.addr)]
                leaf = decode_leaf(memory.read(addr_offset(slot.addr),
                                               slot.size_class * LEAF_ALIGN))
                witness = witness or leaf.key
                continue
            child = _raw_node(cluster, slot.addr, slot.size_class)
            entry = [view.header.depth, child, None]
            found.append(entry)
            entry[2] = visit(child)
            witness = witness or entry[2]
        return witness

    visit(_raw_node(cluster, index.root_addr, NODE256))
    return [tuple(e) for e in found]


def _leaf_slot(cluster, index, key):
    view = _raw_node(cluster, index.root_addr, NODE256)
    while True:
        slot = view.find_child(key[view.header.depth])
        if slot.is_leaf:
            return slot
        view = _raw_node(cluster, slot.addr, slot.size_class)


def _flip_checksum(cluster, addr):
    memory = cluster.memories[addr_mn(addr)]
    offset = addr_offset(addr) + 8  # the CRC32 field of the leaf header
    memory.write(offset, bytes([memory.read(offset, 1)[0] ^ 0xFF]))


def _keys(name):
    """``(keys, doomed)``: the dataset's keys plus clusters dense enough
    to grow a Node-48 and a Node-256 one level below the root, and (u64:
    random keys share no long prefixes) triples that do.  ``doomed`` are
    whole small subtrees for the deletes to empty."""
    if name == "email":
        keys = make_email_dataset(1400, seed=11).keys
        keys += [encode_str(f"zed/{chr(40 + i)}{i % 7}") for i in range(70)]
        keys += [encode_str(f"yak/{chr(40 + i)}") for i in range(30)]
        doomed = [encode_str(f"qux/quux/{c}") for c in "abc"]
    else:
        keys = make_u64_dataset(1400, seed=12).keys
        keys += [encode_u64((0x7F << 56) | (i << 48) | (i * 2654435761 % 997))
                 for i in range(70)]
        keys += [encode_u64((0x7E << 56) | (i << 48) | i) for i in range(30)]
        rng = random.Random(13)
        bases = [rng.getrandbits(64) & ~0xFFFF for _ in range(16)]
        keys += [encode_u64(b | low) for b in bases for low in (1, 0x102, 0x203)]
        doomed = [encode_u64(bases[0] | low) for low in (1, 0x102, 0x203)]
    return keys + [k for k in doomed if k not in keys], doomed


class _Tree:
    """One ART-on-DM tree (all four node types; ``scan_batched`` is a
    plain attribute, so one tree serves both settings) plus its truth."""

    def __init__(self, name, retry=None):
        self.cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
        config = ArtDmConfig() if retry is None else ArtDmConfig(retry=retry)
        self.index = ArtDmIndex(self.cluster, config)
        self.live = {}
        ex = self.cluster.direct_executor()
        client = self.index.client(0)
        keys, self.doomed = _keys(name)
        for i, key in enumerate(keys):
            value = b"v%d" % i * (1 + i % 5)
            ex.run(client.insert(key, value))
            self.live[key] = value

    def delete_some(self, rng, n):
        ex = self.cluster.direct_executor()
        client = self.index.client(0)
        victims = set(self.doomed) | set(rng.sample(sorted(self.live), n))
        for key in sorted(victims):
            assert ex.run(client.delete(key))
            del self.live[key]

    def invalidate_some(self, rng, n):
        """Leaves caught mid-delete: status Invalid, slot still linked."""
        ex = self.cluster.direct_executor()
        for key in rng.sample(sorted(self.live), n):
            slot = _leaf_slot(self.cluster, self.index, key)
            leaf = ex.run(leaf_ops.read_leaf(slot.addr, slot.size_class))
            assert ex.run(leaf_ops.invalidate_leaf(slot.addr, leaf))
            del self.live[key]

    def both(self, method, *args, batched, tear=(), state_cls=_RefScanState):
        """Run one scan through the walk and through the reference, each
        on its own client and executor; assert they cannot be told apart
        and return the walk's ``(outcome, value)`` and its recorder."""
        walk_client, ref_client = self.index.client(1), self.index.client(2)
        walk_client.scan_batched = ref_client.scan_batched = batched
        reference = _RecursiveScanReference(ref_client, state_cls)
        walk, ref = _Recorder(self.cluster, tear), _Recorder(self.cluster, tear)
        got = walk.run(getattr(walk_client, method)(*args))
        want = ref.run(getattr(reference, method)(*args))
        where = (method, args, batched)
        assert got == want, where
        assert walk.log == ref.log, where
        assert walk.ex.stats == ref.ex.stats, where
        assert walk_client.metrics == ref_client.metrics, where
        return got, walk

    def expected(self, lo, count=None, hi=None):
        pairs = [(k, v) for k, v in sorted(self.live.items())
                 if k >= lo and (hi is None or k <= hi)]
        return pairs if count is None else pairs[:max(count, 0)]


@pytest.fixture(scope="module", params=["email", "u64"])
def tree(request):
    built = _Tree(request.param)
    rng = random.Random(len(request.param))
    built.delete_some(rng, 260)
    built.invalidate_some(rng, 40)
    return built


def _start_keys(tree, rng):
    ordered = sorted(tree.live)
    present = rng.sample(ordered, 3)
    absent = [k[:-2] + bytes([k[-2] ^ 0x55]) + k[-1:] for k in present]
    absent += [present[0][:3], present[1][:5] + b"\xff\xff"]
    assert not set(absent) & set(ordered)
    below, above = b"\x00", ordered[-1] + b"\x01"
    assert below < ordered[0]
    return present + absent + [below, above, ordered[0], ordered[-1]]


# -- the trees are the ones the issue asks for --------------------------------

def test_trees_cover_every_shape(tree):
    nodes = _inner_nodes(tree.cluster, tree.index)
    types = {view.header.node_type for _pd, view, _w in nodes}
    assert types == {NODE4, NODE16, NODE48, NODE256}
    # Path compression, and subtrees the deletes emptied.
    assert any(view.header.depth > pd + 1 for pd, view, _w in nodes)
    assert any(view.occupied_count() == 0 for _pd, view, _w in nodes)


# -- DirectExecutor: results, op stream, stats --------------------------------

@pytest.mark.parametrize("batched", [True, False])
def test_scan_count_matches_reference(tree, batched):
    rng = random.Random(7)
    for start in _start_keys(tree, rng):
        for count in (0, 1, 2, 17, 100, len(tree.live) + 50):
            (outcome, pairs), _rec = tree.both("scan_count", start, count,
                                               batched=batched)
            assert outcome == "ok"
            assert pairs == tree.expected(start, count), (start, count)


@pytest.mark.parametrize("batched", [True, False])
def test_scan_range_matches_reference(tree, batched):
    rng = random.Random(8)
    ordered = sorted(tree.live)
    ranges = [(ordered[40], ordered[20]),            # lo > hi
              (ordered[0], ordered[-1]),             # wider than flush_chunk
              (ordered[100], ordered[400]),
              (ordered[7], ordered[7]),
              (b"\x00", ordered[3]), (ordered[-3], b"\xff" * 40)]
    # hi cut inside a compressed path, and just below / above it there.
    compressed = [(pd, view, w) for pd, view, w in
                  _inner_nodes(tree.cluster, tree.index)
                  if w is not None and view.header.depth >= pd + 3]
    for pd, view, witness in rng.sample(compressed, 6):
        depth = view.header.depth
        cut = witness[:rng.randrange(pd + 2, depth)]
        for hi in (cut, cut[:-1] + bytes([max(cut[-1] - 1, 0)]),
                   cut[:-1] + bytes([min(cut[-1] + 1, 255)]),
                   witness[:depth], witness[:depth] + b"\xff"):
            ranges.append((witness[:pd], hi))
            ranges.append((ordered[0], hi))
    # Seeded pairs of mangled keys.
    for _ in range(25):
        a, b = sorted(rng.sample(ordered, 2))
        ranges.append((a[:rng.randrange(1, len(a) + 1)],
                       b[:rng.randrange(1, len(b) + 1)] + rng.choice(
                           (b"", b"\x00", b"\xff"))))
    widest = 0
    for lo, hi in ranges:
        (outcome, pairs), _rec = tree.both("scan_range", lo, hi,
                                           batched=batched)
        assert outcome == "ok"
        assert pairs == tree.expected(lo, hi=hi), (lo, hi)
        widest = max(widest, len(pairs))
    assert widest > 4 * _RefScanState.flush_chunk


def test_torn_leaf_is_reread_identically(tree):
    """A leaf whose batched image fails its checksum is re-read through
    ``read_leaf``; a leaf that never checksums ends the scan."""
    ordered = sorted(tree.live)
    start = ordered[200]
    torn = [_leaf_slot(tree.cluster, tree.index, k).addr
            for k in ordered[203:212:4]]
    for batched in (True, False):
        (outcome, pairs), rec = tree.both("scan_count", start, 30,
                                          batched=batched, tear=torn)
        assert outcome == "ok" and pairs == tree.expected(start, 30)
        assert [rec.reads_of(addr) for addr in torn] == [2, 2, 2]
    victim = torn[1]
    _flip_checksum(tree.cluster, victim)
    try:
        for batched in (True, False):
            (outcome, addr), rec = tree.both("scan_count", start, 30,
                                             batched=batched)
            assert (outcome, addr) == ("retry-limit", victim)
            assert rec.reads_of(victim) == 1 + 16
            # A scan that stops short of the bad leaf never notices.
            (outcome, pairs), _rec = tree.both("scan_count", start, 3,
                                               batched=batched)
            assert outcome == "ok" and pairs == tree.expected(start, 3)
    finally:
        _flip_checksum(tree.cluster, victim)


def _scan_matrix(tree, state_cls):
    start = sorted(tree.live)[300]
    for count in (2, 17, 100):
        for batched in (True, False):
            tree.both("scan_count", start, count, batched=batched,
                      state_cls=state_cls)
    for lo, hi in ((start, sorted(tree.live)[700]), (start[:2], start[:3])):
        tree.both("scan_range", lo, hi, batched=True, state_cls=state_cls)


def test_oracle_notices_a_late_flush(tree):
    """Mutation check: a reference that buffers past the budget returns
    the same pairs, but not through the same ops."""
    with pytest.raises(AssertionError):
        _scan_matrix(tree, _LateFlushState)


def test_flush_before_descend_was_dead(tree):
    """Why the walk has no flush-before-descend: a reference without it
    cannot be told from one with it."""
    _scan_matrix(tree, _NoEarlyFlushState)


# -- the tree's RetryPolicy bounds its torn-leaf reads ------------------------

def test_torn_read_budget_follows_the_tree_policy():
    tree = _Tree("u64", retry=RetryPolicy(torn_read_retries=2))
    ordered = sorted(tree.live)
    key = ordered[50]
    victim = _leaf_slot(tree.cluster, tree.index, key).addr
    _flip_checksum(tree.cluster, victim)
    client = tree.index.client(1)

    rec = _Recorder(tree.cluster)
    assert rec.run(client.search(key)) == ("retry-limit", victim)
    assert rec.reads_of(victim) == 2

    client.scan_batched = True
    rec = _Recorder(tree.cluster)
    assert rec.run(client.scan_count(ordered[45], 20)) == \
        ("retry-limit", victim)
    batched_reads = sum(verb.addr == victim for op in rec.log
                        if op.__class__ is Batch for verb in op.ops)
    assert batched_reads == 1 and rec.reads_of(victim) == 1 + 2


# -- SimExecutor: the same schedule, to the nanosecond ------------------------

def _sim_run(use_reference):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    loader = cluster.direct_executor()
    loaded = _keys("email")[0][::2]
    for i, key in enumerate(loaded):
        loader.run(index.client(0).insert(key, b"L%d" % i))
    ordered = sorted(loaded)
    results = {}

    def scanner(wid):
        executor = cluster.sim_executor(wid % 3)
        client = index.client(wid % 3)
        side = _RecursiveScanReference(client) if use_reference else client
        rng = random.Random(100 + wid)
        for n in range(24):
            if n % 4 == 3:
                lo, hi = sorted(rng.sample(ordered, 2))
                gen = side.scan_range(lo, hi[:rng.randrange(2, len(hi) + 1)])
            else:
                gen = side.scan_count(rng.choice(ordered)[:rng.randrange(1, 9)],
                                      rng.choice((1, 17, 100)))
            results[wid, n] = yield from executor.run(gen)

    def inserter(wid):
        # Few hot prefixes: leaf and edge splits, then type switches under
        # the scanners' feet.
        executor = cluster.sim_executor(wid % 3)
        client = index.client(wid % 3)
        rng = random.Random(200 + wid)
        for n in range(90):
            key = encode_str("%s%c%d.%d" % (rng.choice(("ja", "ma", "li")),
                                            33 + rng.randrange(90), wid, n))
            yield from executor.run(client.insert(key, b"I%d" % n))

    workers = [scanner(w) for w in range(5)] + [inserter(w) for w in range(4)]
    processes = [cluster.engine.process(w) for w in workers]
    for p in processes:
        cluster.engine.run_until_complete(
            p, limit=cluster.engine.now + 60_000_000_000)
    metrics = [index.client(cn).metrics.as_dict() for cn in range(3)]
    nics = [(nic.name, nic.messages, nic.payload_bytes, nic.server.busy_time)
            for nic in list(cluster.cn_nics.values())
            + list(cluster.mn_nics.values())]
    return (results, cluster.engine.now, cluster.engine.events_processed,
            nics, metrics)


def test_walk_and_reference_share_one_simulated_schedule():
    walk, ref = _sim_run(False), _sim_run(True)
    results, now, events, nics, metrics = walk
    assert (now, events, nics, metrics) == ref[1:]
    assert results == ref[0]
    # Not vacuous: the scans ran against a tree that was reshaping itself,
    # and they returned data.
    assert sum(m["type_switches"] for m in metrics) > 0
    assert sum(m["leaf_splits"] + m["edge_splits"] for m in metrics) > 0
    assert sum(len(pairs) for pairs in results.values()) > 1000
