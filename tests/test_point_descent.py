"""The point-op descent against a golden verb stream.

``search`` / ``insert`` / ``update`` / ``delete`` are one optimistic walk
(``RemoteArtTree._descend``) plus a different action where it lands.  The
benchmarks pin that walk through digests of whole runs; this file pins it
op by op, independently of them: ``tests/fixtures/point_ops_golden.json``
records, for one scripted single-client sequence on every tree client
(``ART``, ``SMART``, ``Sphinx``, ``Sphinx-NoFilter``, ``Sphinx+Loc``), the
verbs each op yielded - ``(kind, addr, size)``, doorbells bracketed - its
result, and the client's final ``TreeMetrics`` / ``OpStats``; and for a
two-client ``SimExecutor`` interleaving (hot-leaf updates racing deletes
and a type switch) the results, ``engine.now``, ``events_processed`` and
both ``OpStats``.

The fixture was generated at the commit *before* the four hand-written
walks were folded into ``_descend`` and must be reproduced byte for byte
by any later one, on the fast engine and under ``REPRO_SIM_SLOW=1``.
``events_processed`` is recorded per engine (both dispatch the same verb
trips, so the two counts are equal) and per observation: ``plain`` with
no observer attached, ``observed`` with one, where every doorbell member
keeps its own completion event.  Under ``REPRO_SAN=1`` the harness
monitor is attached, so the observed count is the one checked.  A
change that moves the model regenerates it in the open, in the same
diff::

    PYTHONPATH=src python tests/test_point_descent.py --regenerate
    REPRO_SIM_SLOW=1 PYTHONPATH=src python tests/test_point_descent.py --regenerate

(the second run only fills in the reference engine's event counts).
"""

import json
import os
import sys
from dataclasses import asdict

import pytest

from repro.art import encode_str
from repro.art.layout import (
    NODE4,
    NODE16,
    NODE48,
    NODE256,
    decode_node,
    node_size,
)
from repro.baselines import ArtDmIndex, SmartConfig, SmartIndex
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn, addr_offset
from repro.dm.rdma import Batch, CasOp, LocalCompute, Observer, OpStats, \
    ReadOp, WriteOp

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "point_ops_golden.json")
SYSTEMS = ("ART", "SMART", "Sphinx", "Sphinx-NoFilter", "Sphinx+Loc")


def _build(system):
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))
    if system == "ART":
        index = ArtDmIndex(cluster)
    elif system == "SMART":
        index = SmartIndex(cluster, SmartConfig(cache_budget_bytes=1 << 20))
    else:
        index = SphinxIndex(cluster, SphinxConfig(
            filter_budget_bytes=1 << 14,
            use_filter=system != "Sphinx-NoFilter",
            use_locator=system == "Sphinx+Loc",
            locator_budget_bytes=1 << 12))
    return cluster, index


# -- the script ---------------------------------------------------------------

def _script():
    """``(cn, op, key, value)`` rows; every branch of the walk's landing
    is taken at least once on at least one system (``test_script_covers_*``
    check the ones that can be read back from metrics and memory)."""
    k = encode_str
    ops = []

    def add(op, text, value=None, cn=0):
        ops.append((cn, op, k(text), value))

    # Growth: 52 siblings one level below the root take "g/" through
    # Node-4 -> 16 -> 48 -> 256 (three type switches; the node is found
    # through the filter / INHT on Sphinx, so the switch needs
    # ``_find_parent``).
    for i in range(52):
        add("insert", f"g/{chr(48 + i)}x", b"g%02d" % i)
    # Compressed paths: a deep inner node, then an edge split above it,
    # then a leaf split below one of the growth leaves.
    add("insert", "path/compressed/a", b"pa")
    add("insert", "path/compressed/b", b"pb")
    add("insert", "path/cut", b"pc")
    add("insert", "g/0xtra", b"deep")
    # Search: hit; miss with no child; miss at a leaf holding another key;
    # miss at a child whose compressed prefix diverges; miss on a key
    # shorter than the node below it; miss at an unused root byte.
    add("search", "g/7x")
    add("search", "path/compressed/b")
    add("search", "g/~x")
    add("search", "g/7y")
    add("search", "path/comXressed/a")
    add("search", "pat")
    add("search", "zzz")
    # Update: in place, out of place (does not fit), absent in three ways.
    add("update", "g/3x", b"G03!")
    add("update", "g/4x", b"L" * 200)
    add("update", "g/~x", b"no")
    add("update", "g/3y", b"no")
    add("update", "path/comXressed/a", b"no")
    add("search", "g/3x")
    add("search", "g/4x")
    # Upsert through insert: in place and out of place.
    add("insert", "g/5x", b"G05!")
    add("insert", "g/5x", b"M" * 150)
    # Delete: hit, the same key again, misses at a leaf / a diverging
    # child / no child.
    add("delete", "g/6x")
    add("delete", "g/6x")
    add("search", "g/6x")
    add("delete", "g/7y")
    add("delete", "path/comXressed/a")
    add("delete", "zzz")
    # A stale leaf pointer: the second insert's first attempt loses its
    # slot CAS on SMART (the cached root predates "c/one"), the split
    # relinks "c/one" under a new inner node, and the delete - still
    # holding the pre-split root on SMART - has to chase the leaf.
    add("insert", "c/one", b"c1")
    add("insert", "c/two", b"c2")
    add("delete", "c/one")
    add("search", "c/two")
    add("search", "c/one")
    # An emptied node: append after the deletes, reuse a hole once the
    # append cursor is at capacity, then replace the empty node outright
    # from a key that diverges above it; the INHT entry it leaves behind
    # points at an Invalid node, which the next insert under "e/" meets.
    for c in "abc":
        add("insert", f"e/{c}", b"e" + c.encode())
    for c in "abc":
        add("delete", f"e/{c}")
    add("search", "e/b")
    add("insert", "e/d", b"ed")
    add("delete", "e/d")
    add("insert", "e/f", b"ef")
    add("update", "e/f", b"EF")
    add("delete", "e/f")
    add("insert", "eXtra", b"ex")
    add("insert", "e/z", b"ez")
    add("search", "e/z")
    add("search", "eXtra")
    add("delete", "g/0xtra")
    add("search", "g/0x")
    # A second CN, cold caches: its delete walks from the root without
    # telling the filter (delete alone never calls ``on_path``), so the
    # search after it walks from the root too and is the one that fills
    # the filter; the third op then starts from the INHT.
    add("delete", "path/compressed/b", cn=1)
    add("search", "path/compressed/a", cn=1)
    add("update", "path/compressed/a", b"PA", cn=1)
    add("insert", "path/compressed/c", b"pc", cn=1)
    return ops


# -- recording ----------------------------------------------------------------

def _verb_token(verb):
    cls = verb.__class__
    if cls is ReadOp:
        return f"R{verb.addr:x}:{verb.size}"
    if cls is WriteOp:
        return f"W{verb.addr:x}:{len(verb.data)}"
    if cls is CasOp:
        return f"C{verb.addr:x}:8"
    if cls is LocalCompute:
        return f"L0:{verb.ns}"
    assert cls is Batch, verb
    return "B(" + ",".join(_verb_token(v) for v in verb.ops) + ")"


def _text(value):
    return value.decode("latin-1") if isinstance(value, bytes) else value


def _run_script(system):
    cluster, index = _build(system)
    clients = [index.client(0), index.client(1)]
    ex = cluster.direct_executor()
    log = []
    execute = ex.execute

    def recording(op):
        log.append(_verb_token(op))
        return execute(op)

    ex.execute = recording
    truth, rows = {}, []
    for cn, op, key, value in _script():
        del log[:]
        method = getattr(clients[cn], op)
        gen = method(key) if value is None else method(key, value)
        result = ex.run(gen)
        if op == "search":
            assert result == truth.get(key), (system, key)
        elif op == "insert":
            assert result == (key not in truth), (system, key)
            truth[key] = value
        elif op == "update":
            assert result == (key in truth), (system, key)
            if result:
                truth[key] = value
        else:
            assert result == (key in truth), (system, key)
            truth.pop(key, None)
        rows.append({"op": f"cn{cn} {op} {_text(key[:-1])}",
                     "result": _text(result), "verbs": " ".join(log)})
    del log[:]
    scan = ex.run(clients[0].scan_count(b"\x00", len(truth) + 5))
    assert scan == sorted(truth.items()), system
    return {"ops": rows, "metrics": [c.metrics.as_dict() for c in clients],
            "stats": asdict(ex.stats)}


# -- the two-client interleaving ----------------------------------------------

def _engine_name(engine):
    return "slow" if engine._slow else "fast"


def _run_interleaving(system, observed=None):
    """Client 0 hammers one leaf with in-place and out-of-place updates;
    client 1 deletes and re-inserts that leaf and grows the Node-4 it
    hangs off through a type switch, on its own CN (its own caches).
    ``observed`` None runs with whatever observers the cluster was built
    with; True / False replace them with one no-op :class:`Observer` /
    none.  The second value returned is ``(engine, observation,
    events_processed)``."""
    cluster, index = _build(system)
    if observed is not None:
        for observer in cluster.observers:
            cluster.detach(observer)
        if observed:
            cluster.attach(Observer())
    loader = cluster.direct_executor()
    for c in "abc":
        loader.run(index.client(2).insert(encode_str(f"h/{c}"), b"h" + c.encode()))
    hot = encode_str("h/a")
    results = []
    stats = [OpStats(), OpStats()]

    def updater():
        executor = cluster.sim_executor(0, stats[0])
        client = index.client(0)
        for n in range(24):
            value = b"u%02d" % n * (12 if n % 5 == 4 else 1)
            results.append(("update", n, (yield from executor.run(
                client.update(hot, value)))))
            if n % 6 == 5:
                results.append(("search", n, _text((yield from executor.run(
                    client.search(hot))))))

    def reshaper():
        executor = cluster.sim_executor(1, stats[1])
        client = index.client(1)
        for n, c in enumerate("defghijk"):
            results.append(("insert", c, (yield from executor.run(
                client.insert(encode_str(f"h/{c}"), b"r" + c.encode())))))
            if n % 3 == 1:
                results.append(("delete", n, (yield from executor.run(
                    client.delete(hot)))))
                results.append(("reinsert", n, (yield from executor.run(
                    client.insert(hot, b"back%d" % n)))))
        results.append(("delete", "b", (yield from executor.run(
            client.delete(encode_str("h/b"))))))

    engine = cluster.engine
    processes = [engine.process(updater(), name="updater"),
                 engine.process(reshaper(), name="reshaper")]
    for process in processes:
        engine.run_until_complete(process, limit=engine.now + 60_000_000_000)
    metrics = [index.client(cn).metrics.as_dict() for cn in (0, 1)]
    return {"results": [list(r) for r in results], "now": engine.now,
            "stats": [asdict(s) for s in stats], "metrics": metrics}, \
        (_engine_name(engine),
         "observed" if cluster.observers else "plain",
         engine.events_processed)


# -- generation and the tests -------------------------------------------------

INTERLEAVED = ("Sphinx", "SMART")


def _generate(previous=None):
    golden = {"script": {s: _run_script(s) for s in SYSTEMS},
              "interleaving": {}}
    for system in INTERLEAVED:
        row, (engine, _, plain) = _run_interleaving(system, observed=False)
        observed_row, (_, _, observed) = \
            _run_interleaving(system, observed=True)
        assert observed_row == row, system
        old = ((previous or {}).get("interleaving") or {}).get(system) or {}
        row["events_processed"] = dict(
            old.get("events_processed") or {},
            **{engine: {"plain": plain, "observed": observed}})
        golden["interleaving"][system] = row
    return golden


def _golden():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("system", SYSTEMS)
def test_point_ops_reproduce_the_golden_verb_stream(system):
    want = _golden()["script"][system]
    got = json.loads(json.dumps(_run_script(system)))
    for n, (g, w) in enumerate(zip(got["ops"], want["ops"])):
        assert g == w, f"{system}: op {n} ({w['op']}) moved"
    assert len(got["ops"]) == len(want["ops"])
    assert got["metrics"] == want["metrics"]
    assert got["stats"] == want["stats"]


@pytest.mark.parametrize("system", INTERLEAVED)
def test_two_client_interleaving_reproduces_the_golden_schedule(system):
    want = _golden()["interleaving"][system]
    got, (engine, observation, events) = _run_interleaving(system)
    got = json.loads(json.dumps(got))
    for field in ("results", "now", "stats", "metrics"):
        assert got[field] == want[field], f"{system}: {field} moved"
    assert events == want["events_processed"][engine][observation], system
    # Not vacuous: the two clients really collided.
    assert sum(m["op_restarts"] for m in got["metrics"]) > 0
    assert ["update", 1, False] in got["results"] \
        or ["update", 3, False] in got["results"]


def test_script_covers_every_landing():
    """The branches of the walk that leave a trace in metrics or memory."""
    golden = _golden()["script"]
    art = golden["ART"]["metrics"][0]
    assert art["type_switches"] == 3 and art["edge_splits"] == 1
    assert art["leaf_splits"] >= 3
    for system in SYSTEMS:
        first, second = golden[system]["metrics"]
        assert first["empty_replacements"] == 1, system
        assert first["fault_restarts"] == second["fault_restarts"] == 0
    # SMART starts negative verdicts from cached (untrusted) views, loses
    # a slot CAS to its stale root and chases a relinked leaf.
    smart = golden["SMART"]
    assert smart["metrics"][0]["op_restarts"] >= 1
    assert smart["metrics"][0]["type_switches"] == 0
    by_op = {row["op"]: row for row in smart["ops"]}
    assert by_op["cn0 search zzz"]["verbs"].count("R") == 1    # the refresh
    # Invalidate, a slot CAS lost to the stale root, the chase, the clear.
    assert by_op["cn0 delete c/one"]["verbs"].count("C") == 3
    # Sphinx meets a dangling INHT entry; its cold second client fills
    # the filter from the search's walk, not from the delete's.
    sphinx = golden["Sphinx"]
    assert sphinx["metrics"][0]["fp_restarts"] >= 1
    assert sphinx["metrics"][1]["stale_filter_fills"] == 2
    by_op = {row["op"]: row for row in sphinx["ops"]}
    cold, warm = (by_op["cn1 delete path/compressed/b"],
                  by_op["cn1 update path/compressed/a"])
    assert len(warm["verbs"].split()) < len(cold["verbs"].split())
    # The locator answers a repeat read in one round trip.
    loc = {row["op"]: row for row in golden["Sphinx+Loc"]["ops"]}
    assert len(loc["cn0 search g/4x"]["verbs"].split()) == 1


def test_script_grows_all_four_node_types():
    def raw(cluster, addr, node_type):
        memory = cluster.memories[addr_mn(addr)]
        return decode_node(memory.read(addr_offset(addr),
                                       node_size(node_type)))

    seen = set()
    cluster, index = _build("ART")
    client = index.client(0)
    ex = cluster.direct_executor()
    for _cn, op, key, value in _script():
        if op != "insert":
            continue
        ex.run(client.insert(key, value))
        root = raw(cluster, index.root_addr, NODE256)
        slot = root.find_child(ord("g"))
        if slot is not None and not slot.is_leaf:
            seen.add(slot.size_class)
    assert seen == {NODE4, NODE16, NODE48, NODE256}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_point_descent.py --regenerate")
    previous = _golden() if os.path.exists(FIXTURE) else None
    with open(FIXTURE, "w") as f:
        json.dump(_generate(previous), f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", FIXTURE)
