"""Unit tests for the NIC / network timing model."""

import pytest

from repro.dm.network import NetworkConfig, Nic
from repro.sim import Engine


def test_msg_service_components():
    net = NetworkConfig(cn_msg_ns=25, mn_msg_ns=30, bytes_per_ns=12.5,
                        header_bytes=32)
    assert net.msg_service_ns("cn", 0) == 25 + int(32 / 12.5)
    assert net.msg_service_ns("mn", 0) == 30 + int(32 / 12.5)
    big = net.msg_service_ns("mn", 2056)
    assert big == 30 + int((2056 + 32) / 12.5)


def test_unloaded_rtt_composition():
    net = NetworkConfig()
    rtt = net.unloaded_rtt_ns(0, 8)
    expected = (net.msg_service_ns("cn", 0) + net.prop_ns
                + net.msg_service_ns("mn", 0) + net.mem_access_ns
                + net.msg_service_ns("mn", 8) + net.prop_ns
                + net.msg_service_ns("cn", 8))
    assert rtt == expected


def test_larger_responses_cost_more():
    net = NetworkConfig()
    assert net.unloaded_rtt_ns(0, 2056) > net.unloaded_rtt_ns(0, 8) + 150


def test_nic_counts_messages_and_bytes():
    engine = Engine()
    net = NetworkConfig()
    nic = Nic(engine, "test", net, "cn")
    nic.charge(100)
    done = nic.charge(200)
    engine.run_until_complete(engine.process(_sleep(engine, done)))
    assert nic.messages == 2
    assert nic.payload_bytes == 300
    assert nic.utilization() > 0
    nic.reset_stats()
    assert nic.messages == 0 and nic.payload_bytes == 0


def _sleep(engine, ns):
    yield engine.timeout(ns)


def test_nic_serializes_under_load():
    net = NetworkConfig()
    nic = Nic(Engine(), "test", net, "mn")
    times = [nic.charge(64) for _ in range(3)]
    service = net.msg_service_ns("mn", 64)
    assert times == [service, 2 * service, 3 * service]


def test_atomic_extra_cost_configured():
    net = NetworkConfig()
    assert net.atomic_extra_ns > 0


def test_arrive_delay_models_propagation():
    net = NetworkConfig()
    nic = Nic(Engine(), "test", net, "mn")
    assert nic.charge(8, arrive_delay=net.prop_ns) == \
        net.prop_ns + net.msg_service_ns("mn", 8)
