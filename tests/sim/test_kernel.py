"""Unit tests for the DES kernel: event loop, processes, interrupts."""

import pytest

from repro.sim import AllOf, AnyOf, Event, EventCancelled, Interrupt, Simulator
from repro.storage import FairShareLink


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_time_starts_at_custom_origin():
    sim = Simulator(start=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(5.0)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [5.0]


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(10.0)

    sim.spawn(proc())
    sim.run(until=25.0)
    assert sim.now == 25.0


def test_run_until_past_time_raises():
    sim = Simulator()
    sim.spawn(iter_timeout(sim, 10.0))
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_process_return_value_via_run_until_event():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "result"

    process = sim.spawn(proc())
    assert sim.run(until=process) == "result"


def test_nested_process_wait():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(3.0)
        return 42

    def parent():
        value = yield sim.spawn(child())
        log.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert log == [(3.0, 42)]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError, match="boom"):
            yield sim.spawn(child())
        return "handled"

    parent_proc = sim.spawn(parent())
    assert sim.run(until=parent_proc) == "handled"


def test_unhandled_process_exception_fails_process_event():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    process = sim.spawn(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run(until=process)


def test_spawn_order_preserved_at_same_time():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(0.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(7.0)
        gate.succeed("open")

    sim.spawn(waiter())
    sim.spawn(opener())
    sim.run()
    assert log == [(7.0, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        with pytest.raises(IOError):
            yield gate
        return True

    def failer():
        yield sim.timeout(1.0)
        gate.fail(IOError("down"))

    waiter_proc = sim.spawn(waiter())
    sim.spawn(failer())
    assert sim.run(until=waiter_proc) is True


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError())


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_cancelled_event_raises_in_waiter():
    sim = Simulator()
    gate = sim.event("gate")

    def waiter():
        with pytest.raises(EventCancelled):
            yield gate
        return "saw-cancel"

    def canceller():
        yield sim.timeout(1.0)
        gate.cancel()
        gate2 = sim.event()
        gate2.succeed()
        yield gate2

    waiter_proc = sim.spawn(waiter())
    sim.spawn(canceller())
    # The waiter is parked on a cancelled event; it is only resumed if the
    # event would have fired. Cancel means never: the simulation runs dry
    # with the waiter still parked.
    sim.run()
    assert not waiter_proc.triggered


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def attacker(victim_proc):
        yield sim.timeout(5.0)
        victim_proc.interrupt("host failure")

    victim_proc = sim.spawn(victim())
    sim.spawn(attacker(victim_proc))
    sim.run()
    assert log == [(5.0, "host failure")]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    process = sim.spawn(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    process = sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run(until=process)


def test_yield_event_from_other_simulator_fails():
    sim_a = Simulator()
    sim_b = Simulator()

    def bad():
        yield sim_b.timeout(1.0)

    process = sim_a.spawn(bad())
    with pytest.raises(RuntimeError):
        sim_a.run(until=process)


def test_allof_waits_for_every_event():
    sim = Simulator()
    times = []

    def proc():
        first = sim.timeout(2.0, value="a")
        second = sim.timeout(5.0, value="b")
        result = yield AllOf(sim, [first, second])
        times.append(sim.now)
        return sorted(result.values())

    process = sim.spawn(proc())
    assert sim.run(until=process) == ["a", "b"]
    assert times == [5.0]


def test_anyof_fires_on_first():
    sim = Simulator()

    def proc():
        slow = sim.timeout(10.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        result = yield AnyOf(sim, [slow, fast])
        return (sim.now, list(result.values()))

    process = sim.spawn(proc())
    assert sim.run(until=process) == (1.0, ["fast"])


def test_empty_allof_succeeds_immediately():
    sim = Simulator()

    def proc():
        result = yield AllOf(sim, [])
        return result

    process = sim.spawn(proc())
    assert sim.run(until=process) == {}


def test_allof_fails_if_constituent_fails():
    sim = Simulator()
    bad = sim.event()

    def proc():
        condition = AllOf(sim, [sim.timeout(5.0), bad])
        with pytest.raises(ValueError, match="nope"):
            yield condition
        return "caught"

    def failer():
        yield sim.timeout(1.0)
        bad.fail(ValueError("nope"))

    process = sim.spawn(proc())
    sim.spawn(failer())
    assert sim.run(until=process) == "caught"


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    never = sim.event()

    def proc():
        yield never

    process = sim.spawn(proc())
    with pytest.raises(RuntimeError, match="ran dry"):
        sim.run(until=process)


def test_peek_empty_is_infinite():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_determinism_same_schedule_twice():
    def build_and_run():
        sim = Simulator()
        log = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            log.append((sim.now, tag))
            yield sim.timeout(delay)
            log.append((sim.now, tag))

        for index in range(10):
            sim.spawn(proc(index, 1.0 + index % 3))
        sim.run()
        return log

    assert build_and_run() == build_and_run()


# -- the event queue ---------------------------------------------------------


def test_queue_depth_counts_live_and_dead_entries():
    sim = Simulator()
    sim.timeout(1.0)
    doomed = sim.timeout(2.0)
    assert sim.queue_depth == 2
    doomed.cancel()
    assert sim.queue_depth == 2  # the dead entry stays until it is pruned
    sim.run()
    assert sim.queue_depth == 0


def test_fair_share_churn_bounded_depth():
    # Every membership change cancels and re-arms the link's completion
    # timer; queue hygiene must keep the dead entries from piling up.
    sim = Simulator()
    link = FairShareLink(sim, capacity_bps=1e6)
    done = []

    def submit(index):
        yield sim.timeout(index * 0.01)
        yield link.transfer(5e4)
        done.append(sim.queue_depth)

    for index in range(200):
        sim.spawn(submit(index))
    sim.run()
    assert len(done) == 200
    assert max(done) < 700
