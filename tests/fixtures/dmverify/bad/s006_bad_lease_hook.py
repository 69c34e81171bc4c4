"""S006: an ``Observer`` subclass whose override keeps a lease hook's
(client_id, verb, result, now) signature instead of taking the one
VerbRecord the executors deliver."""

from repro.dm.rdma import Observer


class ShadowLeaseTable(Observer):
    # BUG: executors call on_apply(rec) - one argument.
    def on_apply(self, client_id, verb, result, now):
        pass
