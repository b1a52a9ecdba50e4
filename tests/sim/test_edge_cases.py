"""Edge-case coverage across the kernel and primitives."""

import pytest

from repro.sim import Call, Event, EventCancelled, Simulator, Timeout
from repro.sim.resources import TokenBucket


def test_event_value_raises_stored_failure():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("stored"))
    with pytest.raises(ValueError, match="stored"):
        _ = event.value


def test_event_repr_shows_state_and_name():
    sim = Simulator()
    event = sim.event("gate")
    assert "gate" in repr(event)
    assert "pending" in repr(event)


@pytest.mark.parametrize("outcome", ["succeed", "fail"])
def test_negative_delay_is_rejected_before_the_event_changes_state(outcome):
    """A refused trigger leaves the event pending and off the heap, so it
    can still be triggered properly afterwards."""
    sim = Simulator()
    event = sim.event("gate")
    with pytest.raises(ValueError, match="negative or NaN delay"):
        if outcome == "succeed":
            event.succeed("early", delay=-1.0)
        else:
            event.fail(RuntimeError("early"), delay=-1.0)
    assert not event.triggered
    assert sim.queue_depth == 0
    event.succeed("on time", delay=2.0)
    sim.run()
    assert event.value == "on time"
    assert sim.now == 2.0


NAN = float("nan")

#: The five places a delay enters the schedule. ``timeout`` pops a
#: recycled Timeout when the pool has one and builds a fresh one through
#: ``Timeout.__init__`` otherwise, so the pool is filled for the first.
NAN_SITES = {
    "timeout_pooled": lambda sim, event: sim.timeout(NAN),
    "Timeout": lambda sim, event: Timeout(sim, NAN),
    "call_later": lambda sim, event: sim.call_later(NAN, Call(lambda: None)),
    "succeed": lambda sim, event: event.succeed("early", delay=NAN),
    "fail": lambda sim, event: event.fail(RuntimeError("early"), delay=NAN),
}


@pytest.mark.parametrize("site", sorted(NAN_SITES))
def test_nan_delay_is_rejected_at_every_schedule_site(site):
    """NaN compares false with everything, so ``delay < 0`` let it through:
    a NaN due time ran with ``sim.now == nan`` and broke the heap's order.
    Each site refuses it before it takes a sequence number or a pooled
    timeout, and the run carries on."""
    sim = Simulator()
    if site == "timeout_pooled":

        def chain():
            for _ in range(3):
                yield sim.timeout(0.5)

        sim.spawn(chain())
        sim.run()
        assert sim._timeout_pool
    pooled = len(sim._timeout_pool)
    sequence = sim._sequence
    event = sim.event("gate")
    with pytest.raises(ValueError, match="NaN delay nan"):
        NAN_SITES[site](sim, event)
    assert (sim._sequence, sim.queue_depth) == (sequence, 0)
    assert len(sim._timeout_pool) == pooled
    assert not event.triggered
    event.succeed("on time", delay=1.0)
    sim.run()
    assert event.value == "on time"
    assert sim.now == (2.5 if site == "timeout_pooled" else 1.0)


def test_lock_wait_label_is_formatted_on_demand():
    from repro.controlplane.locks import READ, WRITE, RWLock

    sim = Simulator()
    lock = RWLock(sim, name="vm-7")
    reader = lock.acquire(READ)
    writer = lock.acquire(WRITE)
    assert reader._name is None and writer._name is None
    assert reader.name == "read:vm-7"
    assert "write:vm-7" in repr(writer)


def test_cancel_processed_event_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    sim.run()
    with pytest.raises(RuntimeError, match="already processed"):
        event.cancel()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_spawned_process_waits_on_already_processed_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()
    assert done.processed

    def late_waiter():
        value = yield done
        return value

    process = sim.spawn(late_waiter())
    assert sim.run(until=process) == "early"


def test_waiting_on_already_failed_event_raises():
    sim = Simulator()
    failed = sim.event()
    failed.fail(IOError("gone"))
    sim.run()

    def late_waiter():
        with pytest.raises(IOError):
            yield failed
        return "handled"

    process = sim.spawn(late_waiter())
    assert sim.run(until=process) == "handled"


def test_token_bucket_caps_at_burst():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=100.0, burst=3.0)
    times = []

    def taker():
        # Long idle: tokens must cap at burst (3), not accrue unboundedly.
        yield sim.timeout(100.0)
        for _ in range(5):
            yield from bucket.take(1.0)
            times.append(sim.now)

    sim.spawn(taker())
    sim.run()
    immediate = sum(1 for time in times if time == pytest.approx(100.0))
    assert immediate == 3


def test_gauge_series_records_steps():
    from repro.sim import Gauge

    sim = Simulator()
    gauge = Gauge(sim, "g")
    gauge.set(1.0)
    gauge.set(3.0)
    series = gauge.series()
    assert series[0] == (0.0, 0.0)
    assert series[-1] == (0.0, 3.0)


def test_run_until_event_value_propagates_failure():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise KeyError("inside")

    process = sim.spawn(boom())
    with pytest.raises(KeyError):
        sim.run(until=process)


def test_interrupt_cause_defaults_to_none():
    from repro.sim import Interrupt

    caught = []
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(50.0)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    process = sim.spawn(victim())

    def attacker():
        yield sim.timeout(1.0)
        process.interrupt()

    sim.spawn(attacker())
    sim.run()
    assert caught == [None]
