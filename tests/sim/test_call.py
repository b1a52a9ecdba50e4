"""Tests for standing timers: :class:`Call` entries via ``call_later``.

A :class:`Call` is a schedule entry that nothing waits on and nothing
cancels: a tick on the kernel heap when it is due later, a bare entry on
the due-now FIFO when it is due at ``now``. Either way it must order
against ordinary events by the same ``(time, sequence)`` key, survive
every path that touches the schedule (horizon put-back, ``peek``/``step``,
compaction), and cost exactly one sequence number per scheduling.
"""

import pytest

from repro.sim import Call, Simulator


def test_call_and_timeout_at_same_time_fire_in_sequence_order():
    sim = Simulator()
    order = []
    sim.timeout(1.0).callbacks.append(lambda _event: order.append("timeout-a"))
    sim.call_later(1.0, Call(lambda: order.append("call")))
    sim.timeout(1.0).callbacks.append(lambda _event: order.append("timeout-b"))
    sim.run()
    assert order == ["timeout-a", "call", "timeout-b"]
    assert sim.now == 1.0


def test_one_call_scheduled_many_times_fires_each_time():
    sim = Simulator()
    fired = []
    call = Call(lambda: fired.append(sim.now))
    for delay in (3.0, 1.0, 2.0, 1.0):
        sim.call_later(delay, call)
    assert sim.queue_depth == 4
    sim.run()
    assert fired == [1.0, 1.0, 2.0, 3.0]


def test_negative_delay_raises_without_taking_a_sequence_number():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative or NaN delay"):
        sim.call_later(-0.5, Call(lambda: None))
    assert sim._sequence == 0
    assert sim.queue_depth == 0


def test_run_until_horizon_puts_a_later_call_back():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, Call(lambda: fired.append(sim.now)))
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert fired == []
    assert sim.queue_depth == 1
    sim.run()
    assert fired == [5.0]


def test_peek_and_run_agree():
    sim = Simulator()
    fired = []
    sim.call_later(3.0, Call(lambda: fired.append(("call", sim.now))))
    sim.timeout(1.0).callbacks.append(lambda _event: fired.append(("timeout", sim.now)))
    assert sim.peek() == 1.0
    sim.run(until=sim.peek())
    assert fired == [("timeout", 1.0)]
    assert sim.peek() == 3.0
    sim.run(until=sim.peek())
    assert fired == [("timeout", 1.0), ("call", 3.0)]
    assert sim.peek() == float("inf")


def test_compaction_keeps_every_call_entry():
    sim = Simulator()
    order = []
    # 100 calls interleaved with 200 cancelled timeouts: enough dead weight
    # to trigger at least one in-place compaction.
    for index in range(100):
        sim.call_later(float(index), Call(lambda i=index: order.append(i)))
        for _ in range(2):
            sim.timeout(index + 0.5).cancel()
    assert sim.queue_depth < 300  # compacted at least once
    sim.run()
    assert order == list(range(100))


def test_each_call_later_takes_exactly_one_sequence_number():
    sim = Simulator()
    call = Call(lambda: None)
    for expected in range(1, 6):
        sim.call_later(1.0, call)
        assert sim._sequence == expected
    sim.timeout(1.0)
    assert sim._sequence == 6
