"""Near-miss for S004: the loop iterates the policy's attempt helper,
which owns the budget and the op deadline."""


def read_with_retry(retry, clock, addr):
    attempts = retry.attempts(clock, "read", addr=addr)
    for attempt in attempts:
        first = yield ReadOp(addr, 16)
        second = yield ReadOp(addr, 16)
        if first == second:
            return first
        yield LocalCompute(attempts.pause(retry.torn_read_delay(attempt)))
