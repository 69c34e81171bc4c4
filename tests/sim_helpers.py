"""Test-only probes of ``repro.sim.Engine``'s private queues."""


def has_pending(engine):
    """Whether an event is still queued, on either queue: the "no
    deadlock" probe of a drive that slices ``run(until=...)``."""
    return bool(engine._fifo or engine._heap)
