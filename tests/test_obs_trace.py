"""Tests for the tracer span model and exporters (repro.obs).

Covers the span/verb/fault data model under both executors, passive
resource sampling, the export formats (JSONL, Chrome ``trace_event``,
``--profile`` summary), and the attach/detach lifecycle on the cluster.
"""

import json
import pickle

import pytest

from repro.art import encode_str
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig
from repro.dm.memory import addr_mn
from repro.dm.rdma import OpStats, ReadOp, VerbRecord, WriteOp
from repro.errors import InjectedFault, RetryLimitExceeded
from repro.fault import FaultPlan, drop
from repro.obs import (
    chrome_trace,
    iter_jsonl,
    profile_summary,
    render_profile,
    to_jsonl,
    Tracer,
    TraceConfig,
)


def _cluster():
    return Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))


def _loaded_index(cluster, n=24, prefix="t"):
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 14))
    client = index.client(0)
    ex = cluster.direct_executor()
    keys = [encode_str(f"{prefix}/{i:03d}") for i in range(n)]
    for i, key in enumerate(keys):
        ex.run(client.insert(key, f"v{i}".encode()))
    return client, keys


# ---------------------------------------------------------------------------
# Span model - direct executor
# ---------------------------------------------------------------------------

def test_direct_executor_records_named_spans():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer()
    ex = cluster.direct_executor()
    assert ex.run(client.search(keys[0])) == b"v0"
    ex.run(client.update(keys[1], b"u"))
    assert [s.name for s in tracer.spans] == ["search", "update"]
    span = tracer.spans[0]
    assert span.status == "ok"
    assert span.client.startswith("direct#")
    assert span.round_trips > 0
    assert span.messages == len(span.verbs)
    assert span.retries == 0 and span.faults == []


def test_verb_events_nest_with_addresses_and_bytes():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer()
    ex = cluster.direct_executor()
    ex.run(client.search(keys[2]))
    span = tracer.spans[0]
    assert span.verbs, "search must execute verbs"
    for verb in span.verbs:
        assert verb.kind in ("read", "write", "cas", "faa")
        assert verb.mn == addr_mn(verb.addr)
        assert verb.t_start <= verb.t_end
        assert verb.retry == 0 and verb.fault is None
    assert span.bytes_read == sum(v.resp_bytes for v in span.verbs
                                  if v.kind == "read")
    assert span.bytes_written == sum(v.req_bytes for v in span.verbs
                                     if v.kind == "write")


def test_sim_executor_spans_advance_simulated_time():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer()
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine

    def ops():
        for key in keys[:6]:
            yield from executor.run(client.search(key))

    engine.run_until_complete(engine.process(ops(), name="trace"))
    assert len(tracer.spans) == 6
    for span in tracer.spans:
        assert span.client.startswith("cn0#")
        assert span.t_end > span.t_start, "sim ops take simulated time"
        assert span.duration_ns == span.t_end - span.t_start
        for verb in span.verbs:
            assert span.t_start <= verb.t_start <= verb.t_end <= span.t_end
    # spans are sequenced in completion order with unique seq numbers
    assert [s.seq for s in tracer.spans] == sorted(
        s.seq for s in tracer.spans)


# ---------------------------------------------------------------------------
# Attach/detach lifecycle
# ---------------------------------------------------------------------------

def test_executor_created_before_attach_is_untraced():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    ex = cluster.direct_executor()          # created pre-attach
    tracer = cluster.attach_tracer()
    ex.run(client.search(keys[0]))
    assert tracer.spans == []


def test_detach_stops_new_executors_from_tracing():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer()
    assert cluster.detach_tracer() is tracer
    ex = cluster.direct_executor()
    ex.run(client.search(keys[0]))
    assert tracer.spans == []
    assert tracer not in cluster.observers


def test_attach_accepts_custom_tracer_and_config():
    cluster = _cluster()
    mine = Tracer(TraceConfig(record_verbs=False))
    assert cluster.attach_tracer(mine) is mine
    cluster.detach_tracer()
    made = cluster.attach_tracer(config=TraceConfig(max_spans=7))
    assert made.config.max_spans == 7


# ---------------------------------------------------------------------------
# Config knobs
# ---------------------------------------------------------------------------

def test_max_spans_caps_export_but_not_totals():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer(config=TraceConfig(max_spans=3))
    ex = cluster.direct_executor()
    for key in keys[:10]:
        ex.run(client.search(key))
    assert len(tracer.spans) == 3
    assert tracer.dropped_spans == 7
    assert tracer.op_totals["search"]["count"] == 10
    assert profile_summary(tracer)["search"]["count"] == 10


def test_record_verbs_off_keeps_aggregates():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer(config=TraceConfig(record_verbs=False))
    ex = cluster.direct_executor()
    ex.run(client.search(keys[0]))
    span = tracer.spans[0]
    assert span.verbs == []
    assert span.messages > 0 and span.bytes_read > 0


def test_orphan_verbs_collected_outside_spans():
    tracer = Tracer()
    tracer.on_complete(VerbRecord("loose", ReadOp(0x10, 8), 5, t_done=9))
    assert tracer.spans == []
    assert len(tracer.orphan_verbs) == 1
    assert tracer.orphan_verbs[0].kind == "read"


# ---------------------------------------------------------------------------
# Resource sampling
# ---------------------------------------------------------------------------

def test_resource_samples_from_sim_run():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer()
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine

    def ops():
        for key in keys * 4:
            yield from executor.run(client.search(key))

    engine.run_until_complete(engine.process(ops(), name="rs"))
    tracer.finish()
    assert tracer.samples, "a long sim run must produce samples"
    times = [s.t for s in tracer.samples]
    assert times == sorted(times)
    gauges = tracer.samples[-1].gauges
    assert any(k.endswith(".busy_frac") for k in gauges)
    assert any(k.endswith(".queue_ns") for k in gauges)
    assert any(k.endswith(".gbps") for k in gauges)
    # busy fractions are normalized
    for key, value in gauges.items():
        if key.endswith(".busy_frac"):
            assert 0.0 <= value <= 1.0


def test_sampling_disabled_by_zero_interval():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer(config=TraceConfig(sample_every_ns=0))
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine

    def ops():
        for key in keys[:8]:
            yield from executor.run(client.search(key))

    engine.run_until_complete(engine.process(ops(), name="ns"))
    assert tracer.samples == []


# ---------------------------------------------------------------------------
# Faults nest into spans
# ---------------------------------------------------------------------------

def test_spans_record_injected_faults_and_retries():
    cluster = _cluster()
    client, keys = _loaded_index(cluster, prefix="f")
    cluster.attach_faults(FaultPlan.chaos(11, intensity=4.0))
    tracer = cluster.attach_tracer()
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine

    def ops():
        for step, key in enumerate(keys * 3):
            try:
                if step % 2:
                    yield from executor.run(client.search(key))
                else:
                    yield from executor.run(
                        client.update(key, f"u{step}".encode()))
            except RetryLimitExceeded:
                pass

    engine.run_until_complete(engine.process(ops(), name="chaos"))
    assert sum(cluster.injector.counters.values()) > 0, \
        "plan must actually fire for this test to mean anything"
    faulted = [s for s in tracer.spans if s.faults]
    assert faulted, "chaos at intensity 4.0 must touch some span"
    tagged = [f for s in faulted for f in s.faults]
    assert all(f.kind for f in tagged)
    # a delivered fault both tags the span and bumps its retry round
    for span in (s for s in tracer.spans if s.retries > 0):
        assert span.retries <= len(span.faults)
    # every span still closed with a status
    assert all(s.status in ("ok", "failed", "error") for s in tracer.spans)


@pytest.mark.parametrize("applied_prob", [0.0, 1.0], ids=["lost", "applied"])
@pytest.mark.parametrize("sim", [False, True], ids=["direct", "sim"])
def test_dropped_verb_traced_once_by_either_executor(sim, applied_prob):
    """A dropped WRITE - lost before the MN or applied and its
    completion lost - is one traced message and one fault tag, on the
    untimed executor exactly as on the timed one."""
    cluster = _cluster()
    addr = cluster.alloc(0, 8)
    cluster.attach_faults(FaultPlan(seed=1, rules=(
        drop(1.0, ("write",), applied_prob=applied_prob),)))
    tracer = cluster.attach_tracer()
    stats = OpStats()

    def op():
        try:
            yield WriteOp(addr, b"w" * 8)
        except InjectedFault:
            pass
        return (yield ReadOp(addr, 8))

    if sim:
        engine = cluster.engine
        executor = cluster.sim_executor(0, stats)
        engine.run_until_complete(engine.process(executor.run(op()),
                                                 name="drop"))
    else:
        cluster.direct_executor(stats).run(op())
    span, = tracer.spans
    assert span.messages == stats.messages == 2
    assert [v.fault for v in span.verbs] == ["drop", None]
    assert [(f.kind, f.addr) for f in span.faults] == [("drop", addr)]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _traced_run():
    cluster = _cluster()
    client, keys = _loaded_index(cluster)
    tracer = cluster.attach_tracer()
    executor = cluster.sim_executor(0, OpStats())
    engine = cluster.engine

    def ops():
        for step, key in enumerate(keys):
            if step % 2:
                yield from executor.run(client.search(key))
            else:
                yield from executor.run(client.update(key, b"u"))

    engine.run_until_complete(engine.process(ops(), name="exp"))
    return tracer.finish()


def test_jsonl_lines_parse_and_carry_cell_tag():
    tracer = _traced_run()
    lines = list(iter_jsonl(tracer, cell="u64:Sphinx/A"))
    assert lines
    records = [json.loads(line) for line in lines]
    spans = [r for r in records if r["type"] == "span"]
    samples = [r for r in records if r["type"] == "sample"]
    assert len(spans) == len(tracer.spans)
    assert len(samples) == len(tracer.samples)
    assert all(r["cell"] == "u64:Sphinx/A" for r in records)
    rec = spans[0]
    assert {"seq", "client", "name", "t_start", "t_end", "status",
            "round_trips", "messages", "verbs"} <= set(rec)
    assert rec["verbs"][0]["kind"] in ("read", "write", "cas", "faa")
    # keys are sorted -> byte-stable formatting
    assert lines[0] == json.dumps(json.loads(lines[0]),
                                  sort_keys=True,
                                  separators=(",", ":"))


def test_to_jsonl_roundtrips_without_cell():
    tracer = _traced_run()
    text = to_jsonl(tracer)
    assert text.endswith("\n")
    first = json.loads(text.splitlines()[0])
    assert "cell" not in first


def test_chrome_trace_is_valid_trace_event_json():
    tracer = _traced_run()
    doc = chrome_trace([tracer], labels=["u64:Sphinx/A"])
    # must survive a JSON round-trip (what chrome://tracing loads)
    doc = json.loads(json.dumps(doc))
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert phases <= {"M", "X", "C"}
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "u64:Sphinx/A" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    for e in events:
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["cat"] in ("op", "verb")
        elif e["ph"] == "C":
            assert "value" in e["args"]
    ops = [e for e in events if e.get("cat") == "op"]
    verbs = [e for e in events if e.get("cat") == "verb"]
    assert len(ops) == len(tracer.spans)
    assert len(verbs) == sum(len(s.verbs) for s in tracer.spans)


def test_chrome_trace_multiple_cells_get_distinct_pids():
    a, b = _traced_run(), _traced_run()
    doc = chrome_trace([a, b], labels=["cell-a", "cell-b"])
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {0, 1}


def test_profile_summary_and_render():
    tracer = _traced_run()
    prof = profile_summary(tracer)
    assert set(prof) == {"search", "update"}
    for row in prof.values():
        assert row["count"] > 0
        assert row["round_trips"] > 0
        assert row["avg_us"] > 0
    table = render_profile({"u64:Sphinx/A": prof})
    assert "rtt/op" in table and "u64:Sphinx/A" in table
    assert "search" in table and "update" in table


def test_tracer_pickles_after_finish():
    tracer = _traced_run()
    clone = pickle.loads(pickle.dumps(tracer))
    assert len(clone.spans) == len(tracer.spans)
    assert clone.op_totals == tracer.op_totals
    assert [s.t for s in clone.samples] == [s.t for s in tracer.samples]


def test_unfinished_span_marked_open():
    tracer = Tracer()
    span = tracer.op_begin("c", "stuck", 100)
    assert span.status == "open" and span.t_end == -1
    assert span.duration_ns == 0
    # op_end is idempotent once closed
    tracer.op_end("c", 200, "ok")
    tracer.op_end("c", 999, "error")
    assert span.t_end == 200 and span.status == "ok"
    with pytest.raises(KeyError):
        tracer.op_totals["missing"]
