"""Unit tests for the NIC's FIFO station and latency recording."""

import pytest

from repro.dm.network import NetworkConfig, Nic
from repro.sim import Engine, FifoServer, LatencyRecorder


#: Every message costs nothing, so ``Nic.charge``'s ``extra_ns`` is the
#: whole service time of a job at the NIC's FIFO station.
FREE = NetworkConfig(prop_ns=0, cn_msg_ns=0, mn_msg_ns=0, mem_access_ns=0,
                     atomic_extra_ns=0, header_bytes=0)


def _station(capacity=1):
    engine = Engine()
    return engine, Nic(engine, "s", FREE, "mn", capacity=capacity)


def test_fifo_serializes_jobs():
    _engine, nic = _station()
    assert [nic.charge(0, 100), nic.charge(0, 100)] == [100, 200]


def test_fifo_capacity_parallelism():
    _engine, nic = _station(capacity=2)
    assert [nic.charge(0, 100) for _ in range(3)] == [100, 100, 200]


def test_arrive_delay_defers_service():
    _engine, nic = _station()
    assert nic.charge(0, 10, arrive_delay=500) == 510


def test_arrive_delay_does_not_break_busy_server():
    _engine, nic = _station()
    assert nic.charge(0, 1_000) == 1_000
    # Arrives at 100 but waits for the busy server.
    assert nic.charge(0, 10, arrive_delay=100) == 1_010


def test_utilization_accounting():
    engine, nic = _station()
    server = nic.server
    nic.charge(0, 400)
    engine.run_until_complete(engine.process(_sleep(engine, 1_000)))
    assert engine.now == 1_000
    assert server.utilization() == pytest.approx(0.4)
    server.reset_stats()
    assert server.busy_time == 0 and server.jobs == 0


def _sleep(engine, ns):
    yield engine.timeout(ns)


def test_invalid_service_times_rejected():
    with pytest.raises(ValueError):
        FifoServer(Engine(), "s", capacity=0)


def test_latency_recorder_percentiles():
    rec = LatencyRecorder()
    for v in range(1, 101):
        rec.record(v)
    assert rec.count == 100
    assert rec.mean() == pytest.approx(50.5)
    assert rec.percentile(0) == 1
    assert rec.percentile(100) == 100
    assert 50 <= rec.percentile(50) <= 51
    assert rec.percentile(99) >= 99


def test_latency_recorder_empty():
    rec = LatencyRecorder()
    assert rec.mean() == 0.0
    assert rec.percentile(50) == 0.0
    assert rec.summary()["count"] == 0.0


def test_latency_recorder_single_sample():
    rec = LatencyRecorder()
    rec.record(7)
    assert rec.percentile(50) == 7.0
