"""Timeout pooling: recycle-safety.

A fired :class:`Timeout` is recycled onto the simulator's free list only
when the kernel loop holds the sole remaining references (an exact
refcount check). Anything still reachable — a process's yielded event, a
condition constituent, a user variable — must never be recycled. That
pooling never changes a schedule is pinned by ``test_fastpath``, which
compares the (pooled) kernel with recorded logs
(``mixed_workload_logs.json``).
"""

import pytest

from repro.sim import AllOf, Simulator, Timeout


def _drive_chain(sim, cycles=200):
    def chain():
        for _ in range(cycles):
            yield sim.timeout(0.5)

    sim.spawn(chain())
    sim.run()


def test_timeouts_are_recycled():
    sim = Simulator()
    _drive_chain(sim)
    # The chain reuses a tiny working set instead of 200 fresh objects.
    assert sim._timeout_pool
    assert len(sim._timeout_pool) < 8


def test_pool_objects_are_reused():
    sim = Simulator()
    seen = set()

    def chain():
        for _ in range(50):
            timeout = sim.timeout(1.0)
            seen.add(id(timeout))
            yield timeout

    sim.spawn(chain())
    sim.run()
    assert len(seen) < 10  # ids repeat: the pool is actually serving


def test_held_timeout_is_never_recycled():
    sim = Simulator()
    held = sim.timeout(1.0, value="mine")
    sim.run()
    assert held not in sim._timeout_pool
    assert held.processed
    assert held.value == "mine"
    # A later timeout must be a different object, not `held` re-armed.
    fresh = sim.timeout(1.0)
    assert fresh is not held
    assert held.value == "mine"


def test_condition_constituents_are_never_recycled():
    sim = Simulator()
    results = []

    def waiter():
        gate = AllOf(sim, [sim.timeout(1.0, value="a"), sim.timeout(2.0, value="b")])
        got = yield gate
        results.append(sorted(got.values()))

    sim.spawn(waiter())
    sim.run()
    # The AllOf still references both timeouts, so neither was recycled.
    assert results == [["a", "b"]]
    assert len(sim._timeout_pool) == 0


def test_recycled_timeout_comes_back_clean():
    sim = Simulator()
    stale_ids = []

    def first():
        timeout = sim.timeout(3.0, value="stale")
        timeout.name = "stale-name"
        stale_ids.append(id(timeout))
        yield timeout

    sim.spawn(first())
    sim.run()
    reused = sim.timeout(1.0)
    assert id(reused) in stale_ids  # genuinely the recycled object
    assert reused._value is None
    assert reused._exception is None
    assert reused._name is None
    assert reused.delay == 1.0
    assert reused.callbacks == []
    assert reused.name == "timeout(1.0)"


def test_recycled_timeout_rejects_negative_delay():
    sim = Simulator()
    _drive_chain(sim, cycles=5)
    assert sim._timeout_pool
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_direct_timeout_construction_still_works():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 2.0, value=7)
    timeout.callbacks.append(lambda event: fired.append(event.value))
    sim.run()
    assert fired == [7]


def test_subclassed_timeouts_are_not_pooled():
    class Tagged(Timeout):
        __slots__ = ("tag",)

        def __init__(self, sim, delay):
            super().__init__(sim, delay)
            self.tag = "x"

    sim = Simulator()
    Tagged(sim, 1.0)
    sim.run()
    assert len(sim._timeout_pool) == 0


def test_cancelled_timeouts_are_not_pooled():
    sim = Simulator()
    timeout = sim.timeout(1.0)
    timeout.cancel()
    del timeout
    sim.timeout(2.0)
    sim.run()
    # The cancelled entry was pruned, never recycled; the live one fired
    # with nobody holding it and was pooled.
    assert len(sim._timeout_pool) == 1
    assert sim._timeout_pool[0]._state == "processed"
