"""S006: a standalone observer (no ``Observer`` base, so no no-op
defaults) whose hooks the executors cannot invoke (wrong arities,
missing methods)."""


class CountingMonitor:
    def __init__(self):
        self.events = 0

    # BUG: executors call on_post(rec) - one argument.
    def on_post(self, client, op, now):
        self.events += 1

    def on_apply(self, rec):
        pass

    # BUG: on_complete(rec) takes one; every per-op and allocator hook
    # is missing entirely.
    def on_complete(self):
        pass


def attach_counting(cluster):
    return cluster.attach(CountingMonitor())
