"""Near-miss for S006: a standalone observer (no ``Observer`` base)
implementing the full interface with the exact arities."""


class AuditMonitor:
    def on_post(self, rec):
        pass

    def on_apply(self, rec):
        pass

    def on_complete(self, rec):
        pass

    def op_begin(self, client, name, now):
        return (client, name, now)

    def on_round_trip(self, client):
        pass

    def on_fault(self, client, kind, addr, now):
        pass

    def op_end(self, client, now, status):
        pass

    def on_alloc(self, mn_id, offset, size, category):
        pass

    def on_free(self, mn_id, offset, size, category):
        pass

    def on_retire(self, mn_id, offset, size, category):
        pass


def attach_audit(cluster):
    return cluster.attach(AuditMonitor())
