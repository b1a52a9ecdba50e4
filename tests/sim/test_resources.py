"""Unit tests for resources: the FCFS/prioritised server and the token bucket."""

import pytest

from repro.sim import Resource, Simulator
from repro.sim.resources import TokenBucket


def hold(sim, resource, duration, log, tag, priority=0.0):
    request = resource.request(priority=priority)
    yield request
    log.append(("start", tag, sim.now))
    try:
        yield sim.timeout(duration)
    finally:
        resource.release(request)
    log.append(("end", tag, sim.now))


def test_capacity_one_serializes():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []
    sim.spawn(hold(sim, resource, 5.0, log, "a"))
    sim.spawn(hold(sim, resource, 5.0, log, "b"))
    sim.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 5.0),
        ("start", "b", 5.0),
        ("end", "b", 10.0),
    ]


def test_capacity_two_runs_pair_concurrently():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    log = []
    for tag in "abc":
        sim.spawn(hold(sim, resource, 4.0, log, tag))
    sim.run()
    starts = {tag: time for kind, tag, time in log if kind == "start"}
    assert starts == {"a": 0.0, "b": 0.0, "c": 4.0}


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_release_unheld_request_is_error():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    holder = resource.request()

    def proc():
        yield holder
        queued = resource.request()
        with pytest.raises(RuntimeError):
            resource.release(queued)
        queued.withdraw()
        resource.release(holder)

    sim.spawn(proc())
    sim.run()
    assert resource.in_use == 0
    assert resource.queue_depth == 0


def test_withdraw_queued_request():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def impatient():
        request = resource.request()
        if not request.triggered:
            request.withdraw()
            log.append("gave-up")
            yield sim.timeout(0.0)
        else:
            yield request
            resource.release(request)

    sim.spawn(hold(sim, resource, 10.0, log, "holder"))
    sim.spawn(impatient())
    sim.run()
    assert "gave-up" in log


def test_wait_times_recorded():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []
    sim.spawn(hold(sim, resource, 3.0, log, "a"))
    sim.spawn(hold(sim, resource, 3.0, log, "b"))
    sim.run()
    starts = {tag: time for kind, tag, time in log if kind == "start"}
    assert starts == {"a": 0.0, "b": 3.0}


def test_priority_resource_grants_lowest_priority_first():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def submit():
        # Occupy, then queue low-priority before high-priority.
        yield sim.timeout(0.0)

    sim.spawn(hold(sim, resource, 5.0, log, "holder"))
    sim.spawn(hold(sim, resource, 1.0, log, "bulk", priority=10.0))
    sim.spawn(hold(sim, resource, 1.0, log, "interactive", priority=1.0))
    sim.spawn(submit())
    sim.run()
    order = [tag for kind, tag, _ in log if kind == "start"]
    assert order == ["holder", "interactive", "bulk"]


def test_priority_ties_break_fcfs():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []
    sim.spawn(hold(sim, resource, 2.0, log, "holder"))
    sim.spawn(hold(sim, resource, 1.0, log, "first", priority=5.0))
    sim.spawn(hold(sim, resource, 1.0, log, "second", priority=5.0))
    sim.run()
    order = [tag for kind, tag, _ in log if kind == "start"]
    assert order == ["holder", "first", "second"]


def test_token_bucket_paces_takers():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, burst=2.0)
    times = []

    def taker():
        for _ in range(4):
            yield from bucket.take(1.0)
            times.append(sim.now)

    sim.spawn(taker())
    sim.run()
    # Burst of 2 immediately, then 1/sec.
    assert times == [0.0, 0.0, 1.0, 2.0]


def test_token_bucket_rejects_oversized_take():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, burst=2.0)

    def taker():
        with pytest.raises(ValueError):
            yield from bucket.take(5.0)
        yield sim.timeout(0.0)

    sim.spawn(taker())
    sim.run()


def test_token_bucket_validates_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        TokenBucket(sim, rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(sim, rate=1.0, burst=0.0)


def test_granted_requests_are_freed_without_the_cycle_collector():
    """A granted request holds no reference to itself, so a storm of
    grant/release pairs leaves no unreachable Request for the cyclic
    collector: refcounting frees each one at its release."""
    import gc

    from repro.sim.resources import Request

    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        log = []
        for index in range(40):
            sim.spawn(hold(sim, resource, 1.0, log, index))
        sim.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Request)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(log) == 80
    assert leaked == []
