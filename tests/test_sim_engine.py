"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_timeout_advances_clock():
    engine = Engine()
    done = []

    def proc():
        yield engine.timeout(100)
        done.append(engine.now)
        return "ok"

    p = engine.process(proc())
    assert engine.run_until_complete(p) == "ok"
    assert done == [100]


def test_timeouts_fire_in_order():
    engine = Engine()
    order = []

    def proc(delay, tag):
        yield engine.timeout(delay)
        order.append(tag)

    engine.process(proc(300, "c"))
    engine.process(proc(100, "a"))
    engine.process(proc(200, "b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_fifo_tiebreak():
    engine = Engine()
    order = []

    def proc(tag):
        yield engine.timeout(50)
        order.append(tag)

    for tag in range(5):
        engine.process(proc(tag))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_nested_generators_via_yield_from():
    engine = Engine()

    def inner():
        yield engine.timeout(10)
        return 5

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    p = engine.process(outer())
    assert engine.run_until_complete(p) == 10
    assert engine.now == 20


def test_process_is_event():
    engine = Engine()

    def child():
        yield engine.timeout(30)
        return "x"

    def parent():
        result = yield engine.process(child())
        return result + "y"

    p = engine.process(parent())
    assert engine.run_until_complete(p) == "xy"


def test_run_until_bound():
    engine = Engine()

    def proc():
        yield engine.timeout(1_000)

    engine.process(proc())
    engine.run(until=500)
    assert engine.now == 500


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-1)


def test_deadlock_detected():
    engine = Engine()

    def proc():
        yield engine.event()  # never fires

    p = engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run_until_complete(p)


def test_time_limit_enforced():
    engine = Engine()

    def proc():
        while True:
            yield engine.timeout(100)

    p = engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run_until_complete(p, limit=1_000)


def test_yielding_non_event_raises():
    engine = Engine()

    def proc():
        yield 42

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_event_value_before_trigger_raises():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_double_trigger_raises():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


# One waiter per event, and a clock that never moves backwards: each case
# runs on both dispatch loops (the REPRO_SIM_SLOW step re-runs the rest).
@pytest.fixture(params=[False, True], ids=["fast", "ref"])
def loop_engine(request):
    return Engine(slow=request.param)


def test_second_waiter_on_one_event_raises(loop_engine):
    engine = loop_engine
    shared = engine.event()

    def waiter():
        yield shared

    engine.process(waiter(), name="first")
    engine.process(waiter(), name="second")
    with pytest.raises(SimulationError, match="'second'.*already has a waiter"):
        engine.run()


def test_waiting_on_fired_event_raises(loop_engine):
    engine = loop_engine
    fired = engine.event()
    fired.succeed("v")

    def late():
        yield engine.timeout(10)  # ``fired`` is dispatched at t=0
        yield fired

    engine.process(late(), name="late")
    with pytest.raises(SimulationError, match="'late'.*already fired"):
        engine.run()


def test_run_until_before_now_refused(loop_engine):
    engine = loop_engine
    woke = []

    def sleeper():
        yield engine.timeout(10)
        yield engine.timeout(10)
        woke.append(engine.now)

    engine.process(sleeper())
    assert engine.run(until=10) == 10
    with pytest.raises(SimulationError):
        engine.run(until=5)
    assert engine.now == 10
    assert engine.run() == 20
    assert woke == [20]
