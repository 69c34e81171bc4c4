"""Shared fixtures for the test suite."""

import os
import random

import pytest

from repro.dm import Cluster, ClusterConfig


@pytest.fixture(autouse=True)
def _dmsan(monkeypatch):
    """Opt-in sanitizer harness: ``REPRO_SAN=1 pytest ...`` attaches a DMSan
    monitor to every Cluster the test builds and asserts a clean report at
    teardown.  CI runs the concurrency and failure-injection suites this
    way; any other suite can be spot-checked with the same switch."""
    if os.environ.get("REPRO_SAN") != "1":
        yield
        return
    monitors = []
    original_init = Cluster.__init__
    original_attach = Cluster.attach_sanitizer

    def sanitized_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        monitors.append((self, original_attach(self)))

    def own_sanitizer(self, config=None):
        # A test that attaches its own monitor owns the verdict (seeded
        # violations are its point): the harness's monitor steps aside.
        for cluster, monitor in monitors:
            if cluster is self:
                self.detach(monitor)
        return original_attach(self, config)

    monkeypatch.setattr(Cluster, "__init__", sanitized_init)
    monkeypatch.setattr(Cluster, "attach_sanitizer", own_sanitizer)
    yield
    for _, monitor in monitors:
        report = monitor.report
        assert report.clean, \
            report.summary() + "\n" + "\n".join(report.render_violations())


@pytest.fixture
def cluster():
    """A default 3-CN / 3-MN cluster with a modest memory budget."""
    return Cluster(ClusterConfig(mn_capacity_bytes=64 << 20))


@pytest.fixture
def single_mn_cluster():
    return Cluster(ClusterConfig(num_mns=1, num_cns=1,
                                 mn_capacity_bytes=64 << 20))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
