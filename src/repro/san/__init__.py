"""DMSan: a dynamic concurrency sanitizer for one-sided RDMA protocols.

Usage::

    cluster = Cluster(config)
    monitor = cluster.attach_sanitizer()        # before building the index
    ...build index, run workload...
    assert monitor.report.clean, monitor.report.render_violations()

See :mod:`repro.san.monitor` for what the analyses check and
:mod:`repro.san.report` for the trusted-defense category sets and
:class:`repro.san.report.SanConfig`'s one policy knob.
"""

from .monitor import AccessMonitor
from .report import ABA, ATOMIC_MIX, STALE_READ, TORN_READ, UNLOCKED_WRITE, \
    USE_AFTER_FREE, WRITE_AFTER_FREE, SanConfig, SanReport, Violation

__all__ = [
    "AccessMonitor",
    "SanConfig",
    "SanReport",
    "Violation",
    "UNLOCKED_WRITE",
    "TORN_READ",
    "ATOMIC_MIX",
    "USE_AFTER_FREE",
    "WRITE_AFTER_FREE",
    "ABA",
    "STALE_READ",
]
