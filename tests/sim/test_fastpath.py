"""Tests for the kernel fast path: due-now resume FIFO + queue hygiene.

The fast path replaces per-spawn bootstrap events, per-processed-yield
relay events, and per-interrupt events with a direct same-tick resume
FIFO. The determinism contract says the schedule must be *identical* to
the old relay-event kernel, so mixed workloads are compared against logs
recorded on that kernel (``mixed_workload_logs.json``).
"""

import json
import random
from pathlib import Path

import pytest

from repro.sim import AllOf, Call, Event, EventCancelled, Interrupt, Resource, Simulator
from repro.storage import FairShareLink

#: ``_mixed_workload`` logs per seed, recorded on the relay-event kernel.
RELAY_LOGS = json.loads((Path(__file__).parent / "mixed_workload_logs.json").read_text())


def _mixed_workload(sim: Simulator, seed: int) -> list:
    """A messy-but-deterministic workload touching every resume path.

    All randomness is drawn up front so the plan is a pure function of
    the seed; the log records (time, tag) at every step.
    """
    rng = random.Random(seed)
    log: list = []
    plans = [
        [round(rng.uniform(0.0, 3.0), 3) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(3, 8))
    ]

    def child(tag, delays):
        for delay in delays:
            yield sim.timeout(delay)
            log.append((sim.now, "tick", tag))
        return tag

    def parent():
        children = [
            sim.spawn(child(index, delays), name=f"child-{index}")
            for index, delays in enumerate(plans)
        ]
        for proc in children:
            value = yield proc
            log.append((sim.now, "join", value))
        # Joining finished processes again exercises the same-tick
        # (due-now FIFO) resume path, repeatedly.
        for proc in children:
            value = yield proc
            log.append((sim.now, "rejoin", value))
        gate = sim.event("gate")
        gate.succeed("open")
        yield sim.timeout(0.0)
        value = yield gate  # processed event yield
        log.append((sim.now, "gate", value))

    sim.spawn(parent(), name="parent")
    sim.run()
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
def test_fast_path_schedule_identical_to_event_path(seed):
    """Same seed => the event order the relay-event kernel recorded."""
    log = _mixed_workload(Simulator(), seed)
    assert [list(entry) for entry in log] == RELAY_LOGS[str(seed)]
    assert len(log) > 0


def test_fast_path_is_the_default():
    """Spawning and interrupting allocate no relay events: both go on the
    due-now FIFO as bare :class:`Call` entries, never onto the heap."""
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            pass

    process = sim.spawn(sleeper())
    assert sim._heap == [] and [type(entry) for entry in sim._due] == [Call]
    sim.run(until=0.0)
    process.interrupt("wake")
    assert len(sim._heap) == 1 and [type(entry) for entry in sim._due] == [Call]


def test_queue_depth_counts_both_queues_live_and_dead():
    """``queue_depth`` is heap plus due-now FIFO, cancelled entries included
    until the loop drops them."""
    sim = Simulator()

    def nap():
        yield sim.timeout(0.0)

    sim.spawn(nap())  # bootstrap: FIFO
    sim.timeout(1.0)  # heap
    now_dead = sim.event()
    now_dead.succeed()  # FIFO
    later_dead = sim.event()
    later_dead.succeed(delay=2.0)  # heap
    now_dead.cancel()
    later_dead.cancel()
    assert (len(sim._heap), len(sim._due)) == (2, 2)
    assert sim.queue_depth == 4
    sim.run(until=0.5)
    assert sim.queue_depth == 2  # the live tick at 1.0, the dead one at 2.0
    sim.run()
    assert sim.queue_depth == 0


def test_same_tick_resume_of_processed_event():
    sim = Simulator()
    log = []
    gate = sim.event("gate")
    gate.succeed("value")

    def proc():
        yield sim.timeout(1.0)  # gate is processed by now
        result = yield gate
        log.append((sim.now, result))

    sim.spawn(proc())
    sim.run()
    assert log == [(1.0, "value")]


def test_interrupt_during_same_tick_resume():
    """An interrupt landing after a deferred resume still lands exactly once."""
    sim = Simulator()
    log = []
    gate = sim.event("gate")
    gate.succeed("v")

    def victim():
        yield sim.timeout(1.0)
        value = yield gate  # processed: resume goes through the due-now FIFO
        log.append(("resumed", sim.now, value))
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt("cause")

    target = sim.spawn(victim())
    sim.spawn(attacker(target))
    sim.run()
    assert log == [("resumed", 1.0, "v"), ("interrupted", 1.0, "cause")]


def test_interrupt_before_same_tick_resume_drains():
    """Interrupt queued *before* the deferred resume wins; the stale resume
    entry must not double-advance the generator."""
    sim = Simulator()
    log = []
    gate = sim.event("gate")
    gate.succeed("v")

    def attacker(target_box):
        yield sim.timeout(1.0)
        target_box[0].interrupt("early")

    def victim():
        try:
            yield sim.timeout(1.0)
            value = yield gate
            log.append(("resumed", value))
            yield sim.timeout(5.0)
            log.append(("slept",))
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    box = []
    sim.spawn(attacker(box))  # spawned first: its t=1.0 wake precedes victim's
    box.append(sim.spawn(victim()))
    sim.run()
    # The attacker wakes first at t=1.0 and interrupts while the victim is
    # still parked on its own timeout — the victim never reaches the gate.
    assert log == [("interrupted", 1.0, "early")]


def test_withdraw_on_interrupt_during_same_tick_grant():
    """A request granted in the same tick its owner is interrupted — with the
    interrupt sequenced *before* the grant's callbacks — must hand the slot
    on, not leak it."""
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="slot")
    log = []
    waiter_proc = None

    def attacker():
        yield sim.timeout(1.0)
        waiter_proc.interrupt("die")  # queued before holder's release below

    def holder():
        request = resource.request()
        yield request
        yield sim.timeout(1.0)
        resource.release(request)  # grants waiter in the same tick

    def waiter():
        request = resource.request()
        try:
            yield request
            log.append(("held", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))

    def follower():
        yield sim.timeout(0.5)
        request = resource.request()
        yield request
        log.append(("granted", sim.now))
        resource.release(request)

    sim.spawn(attacker())  # spawned first: its t=1.0 wake precedes the release
    sim.spawn(holder())
    waiter_proc = sim.spawn(waiter())
    sim.spawn(follower())
    sim.run()
    # The waiter was granted the slot and interrupted in the same tick; the
    # kernel must release the granted-but-unconsumed slot to the follower.
    assert log == [("interrupted", 1.0), ("granted", 1.0)]
    assert resource.in_use == 0


def test_interrupt_while_queued_withdraws():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def holder():
        request = resource.request()
        yield request
        yield sim.timeout(10.0)
        resource.release(request)

    def waiter():
        request = resource.request()
        yield request

    sim.spawn(holder())
    waiter_proc = sim.spawn(waiter())

    def attacker():
        yield sim.timeout(1.0)
        waiter_proc.interrupt("give up")

    sim.spawn(attacker())
    with pytest.raises(Interrupt):
        sim.run(until=waiter_proc)
    assert resource.queue_depth == 0


# -- heap hygiene -----------------------------------------------------------


def test_cancel_heavy_run_keeps_heap_bounded():
    """FairShareLink-style cancel/rearm storms must not accrete dead entries."""
    sim = Simulator()
    peaks = []

    def driver():
        timer = None
        for _ in range(5_000):
            if timer is not None:
                timer.cancel()
            timer = Event(sim)
            timer.succeed(delay=1_000.0)
            peaks.append(sim.queue_depth)
            yield sim.timeout(0.01)

    sim.spawn(driver())
    sim.run()
    assert max(peaks) < 200  # without compaction this reaches ~5000


def test_fair_share_link_heap_bounded():
    sim = Simulator()
    link = FairShareLink(sim, capacity_bps=1e6)
    peaks = []

    def submit(index):
        yield sim.timeout(index * 0.01)
        yield link.transfer(5e4)
        peaks.append(sim.queue_depth)

    for index in range(300):
        sim.spawn(submit(index))
    sim.run()
    assert len(peaks) == 300
    assert max(peaks) < 700  # ~2 entries per in-flight transfer, not per cancel


def test_compaction_preserves_order():
    """Compacting dead entries must not disturb the live schedule."""
    sim = Simulator()
    order = []
    live = []
    # 100 live timers interleaved with 200 cancelled events — enough dead
    # weight to trigger at least one in-place compaction.
    for index in range(100):
        event = Event(sim)
        event.callbacks.append(lambda _e, i=index: order.append(i))
        event.succeed(delay=float(index))
        live.append(event)
        for _ in range(2):
            dead = Event(sim)
            dead.succeed(delay=float(index) + 0.5)
            dead.cancel()
    sim.run()
    assert order == list(range(100))


def test_peek_and_run_agree_after_cancellations():
    sim = Simulator()
    cancelled = Event(sim)
    cancelled.succeed(delay=1.0)
    kept = Event(sim)
    fired = []
    kept.callbacks.append(lambda _e: fired.append(sim.now))
    kept.succeed(delay=2.0)
    cancelled.cancel()
    assert sim.peek() == 2.0
    sim.run(until=sim.peek())
    assert fired == [2.0]


def test_determinism_under_storm_rig_seed():
    """End-to-end: two identical storms on the fast kernel match event for
    event (the property the exhibits' byte-identical regeneration rests on)."""
    from repro.core.experiments import StormRig

    def run():
        rig = StormRig(seed=3, hosts=4, datastores=2)
        outcome = rig.closed_loop_storm(total=12, concurrency=4, linked=True)
        return outcome

    assert run() == run()


def test_condition_on_processed_events_fires_without_dead_callbacks():
    """Satellite regression: Condition must not append callbacks to events
    whose callback list already ran (they would never fire)."""
    sim = Simulator()
    first = sim.event()
    second = sim.event()
    first.succeed("a")
    second.succeed("b")
    sim.run()  # both processed, callback lists cleared
    condition = AllOf(sim, [first, second])
    assert condition.triggered
    assert first.callbacks == []
    assert second.callbacks == []

    def waiter():
        result = yield condition
        return sorted(result.values())

    process = sim.spawn(waiter())
    assert sim.run(until=process) == ["a", "b"]


def test_cancelled_event_resume_raises_eventcancelled():
    """A triggered-then-cancelled event a process was parked on: the process
    stays parked (cancel means never), matching the historical contract."""
    sim = Simulator()
    gate = sim.event("gate")

    def waiter():
        with pytest.raises(EventCancelled):
            yield gate

    process = sim.spawn(waiter())
    gate.succeed("v")
    gate.cancel()
    sim.run()
    assert not process.triggered
