"""Unit tests for the control-plane message bus.

Each test drives a bare :class:`MessageBus` (no management server) with
hand-rolled publisher/consumer processes, pinning the delivery semantics
docs/bus.md promises: bounded queues that backpressure their
publishers, at-least-once redelivery with a bounded budget,
consumer-side idempotency-key dedup, dead-letter-once accounting, and
partition stall/heal. Two storm-level tests check that routing a whole
control plane over the bus changes timing but never outcomes, and that a
task whose host-agent message exhausts its redeliveries retries in place.
"""

import random

import pytest

from repro.controlplane.bus import (
    DEFAULT_CAPACITY,
    MAX_REDELIVERIES,
    REDELIVERY_TIMEOUT_S,
    MessageBus,
)
from repro.controlplane.server import NULL_BUS
from repro.faults import MessageLost, TopicPartition, TransientError
from repro.sim.kernel import Simulator


def make_bus(**kwargs):
    sim = Simulator()
    kwargs.setdefault("rng", random.Random(7))
    bus = MessageBus(sim, **kwargs)
    return sim, bus


def consume(bus, topic, results, count):
    """A consumer that accepts ``count`` admitted messages then exits."""

    def loop():
        taken = 0
        while taken < count:
            message = yield topic.get()
            if not bus.accept(message):
                continue
            results.append(message.payload)
            taken += 1

    return bus.sim.spawn(loop(), name=f"consumer:{topic.name}")


def publish(bus, topic_name, payload, key, reply=None):
    return bus.sim.spawn(
        bus.publish(topic_name, payload, key=key, reply=reply),
        name=f"publisher:{key}",
    )


def test_publish_deliver_roundtrip():
    sim, bus = make_bus()
    topic = bus.subscribe("t")
    results = []
    consume(bus, topic, results, 2)
    publish(bus, "t", "a", key="k1")
    publish(bus, "t", "b", key="k2")
    sim.run()
    assert results == ["a", "b"]
    stats = topic.stats
    assert stats.published == 2 and stats.delivered == 2
    assert stats.redelivered == stats.deduped == stats.dead_lettered == 0
    assert topic.depth == 0


def test_single_subscriber_enforced():
    _sim, bus = make_bus()
    bus.subscribe("t")
    with pytest.raises(RuntimeError, match="already has a subscriber"):
        bus.subscribe("t")


def test_duplicate_key_deduped_at_consumer():
    sim, bus = make_bus()
    topic = bus.subscribe("t")
    results = []

    def loop():
        while True:
            message = yield topic.get()
            if not bus.accept(message):
                continue
            results.append(message.payload)

    consumer = sim.spawn(loop(), name="consumer")
    publish(bus, "t", "first", key="same")
    publish(bus, "t", "second", key="same")
    sim.run()
    assert results == ["first"]
    assert topic.stats.deduped == 1
    consumer.interrupt()
    sim.run()


def test_block_overflow_backpressures_publisher():
    sim, bus = make_bus()
    topic = bus.subscribe("t")
    order = []

    def tracked(key):
        yield from bus.publish("t", key, key=key)
        order.append(key)

    keys = [f"k{i}" for i in range(DEFAULT_CAPACITY + 1)]
    publishers = [sim.spawn(tracked(key), name=key) for key in keys]
    sim.run(until=sim.timeout(0.0))
    # The first DEFAULT_CAPACITY filled the queue; the last publisher is
    # parked on a put request, not enqueued.
    assert order == keys[:-1]
    assert not publishers[-1].processed
    assert topic.depth == DEFAULT_CAPACITY
    results = []
    consume(bus, topic, results, len(keys))
    sim.run()
    assert order == keys
    assert results == keys
    assert topic.stats.published == topic.stats.delivered == len(keys)


def test_drop_fault_triggers_redelivery():
    sim, bus = make_bus()
    topic = bus.subscribe("t")
    results = []
    consume(bus, topic, results, 1)
    bus.faults.set_drop("w", 1.0)
    publish(bus, "t", "payload", key="k")
    sim.run(until=sim.timeout(1.0))
    assert results == []  # lost in transit
    assert topic.stats.dropped == 1
    bus.faults.disarm("w")
    sim.run()
    # The redelivery timer re-sent the copy after the window healed.
    assert results == ["payload"]
    assert sim.now == REDELIVERY_TIMEOUT_S
    assert topic.stats.redelivered == 1
    assert topic.stats.delivered == 1


def test_redelivery_budget_exhaustion_dead_letters_once():
    sim, bus = make_bus()
    bus.subscribe("t")
    bus.faults.set_drop("w", 1.0)  # never heals: every copy is lost
    outcomes = []

    def tracked():
        reply = sim.event(name="reply:k")
        yield from bus.publish("t", "p", key="k", reply=reply)
        try:
            yield reply
        except MessageLost as error:
            outcomes.append(str(error))

    sim.spawn(tracked(), name="p")
    sim.run()
    assert len(outcomes) == 1
    assert "redelivery budget exhausted" in outcomes[0]
    stats = bus.topic_stats()["t"]
    assert stats.dead_lettered == 1
    assert stats.redelivered == MAX_REDELIVERIES
    assert stats.delivered == 0
    assert sim.now == (MAX_REDELIVERIES + 1) * REDELIVERY_TIMEOUT_S


def test_partition_stalls_then_heals():
    sim, bus = make_bus()
    topic = bus.subscribe("t")
    results = []
    consume(bus, topic, results, 1)
    partition = TopicPartition(start_s=0.0, duration_s=10.0)
    partition.arm(None, "w", [bus])
    assert bus.faults.blocked()  # a partition is an all-keys block
    publish(bus, "t", "p", key="k")
    sim.run(until=sim.timeout(10.0))
    # Queued but parked: the consumer is waiting, the message is not lost.
    assert results == []
    assert topic.depth == 1
    partition.disarm(None, "w", [bus])  # heal drains the backlog immediately
    assert results == [] and topic.depth == 0
    sim.run()
    assert results == ["p"]
    assert sim.now == 10.0


def test_overlapping_fault_windows_compose():
    _sim, bus = make_bus()
    bus.faults.set_drop("w1", 0.5)
    bus.faults.set_drop("w2", 0.5)
    # Independent events: 1 - 0.5 * 0.5.
    assert bus.faults.drop_rate == pytest.approx(0.75)
    bus.faults.set_delay("w1", 2.0)
    bus.faults.set_delay("w2", 5.0)
    assert bus.faults.delay_s == 5.0  # delays take the max
    bus.faults.disarm("w2")
    assert bus.faults.drop_rate == pytest.approx(0.5)
    assert bus.faults.delay_s == 2.0
    bus.faults.disarm("w1")
    assert not bus.faults.armed


def test_late_kill_never_fails_completed_work():
    """A copy dead-lettered after its key succeeded is a dedup only."""
    sim, bus = make_bus()
    topic = bus.subscribe("t")
    results = []
    consume(bus, topic, results, 1)
    reply = sim.event(name="reply:k")
    publish(bus, "t", "p", key="k", reply=reply)
    sim.run(until=sim.timeout(1.0))
    assert results == ["p"]  # key "k" is done
    # A late copy of the same key finds no consumer: it sits queued until
    # its redelivery budget runs out and the bus kills it.
    late_reply = sim.event(name="reply:k-late")
    publish(bus, "t", "p-again", key="k", reply=late_reply)
    sim.run()
    assert sim.now == 1.0 + (MAX_REDELIVERIES + 1) * REDELIVERY_TIMEOUT_S
    assert topic.depth == 0
    # Neither reply failed: the done key's late copy is a dedup only.
    assert not reply.triggered and not late_reply.triggered
    assert topic.stats.deduped == 1
    assert topic.stats.dead_lettered == 0


def test_message_lost_is_transient():
    assert issubclass(MessageLost, TransientError)


def test_null_bus_is_inert():
    assert not NULL_BUS.mediated
    assert NULL_BUS.__slots__ == ()


def test_message_bus_is_always_mediated():
    sim = Simulator()
    bus = MessageBus(sim)
    assert bus.mediated
    assert bus.topic_stats() == {}  # no topic until someone subscribes


def test_mediated_storm_matches_direct_outcomes():
    """Mediated transport may reshuffle timing, never outcomes.

    Zero-latency publish/deliver hops insert extra sim events, so exact
    schedule equality is not required — but the same storm must complete
    the same clones with no dead letters and all messages accounted.
    """
    from repro.core.experiments import StormRig

    rig_direct = StormRig(seed=3, hosts=8, datastores=2)
    summary_direct = rig_direct.closed_loop_storm(total=48, concurrency=12, linked=True)
    rig_bus = StormRig(seed=3, hosts=8, datastores=2, bus=True)
    summary_bus = rig_bus.closed_loop_storm(total=48, concurrency=12, linked=True)

    assert rig_direct.bus is None and rig_direct.server.bus is NULL_BUS
    assert summary_bus["completed"] == summary_direct["completed"]
    assert len(rig_bus.server.tasks.dead_letters) == 0
    stats = rig_bus.bus.topic_stats()
    published = sum(s.published for s in stats.values())
    delivered = sum(s.delivered for s in stats.values())
    assert published == delivered > 0
    assert rig_bus.bus.depths() == {name: 0 for name in stats}


def test_exhausted_redeliveries_retry_the_task_in_place():
    """A lost host-agent message fails the attempt, not the task.

    Every copy is dropped for longer than the redelivery budget lasts, so
    the first attempt's agent call ends in :class:`MessageLost`. The task
    manager's retry policy re-runs the attempt in place, and it succeeds
    once the drop window has closed.
    """
    from repro.controlplane import ControlPlaneConfig
    from repro.controlplane.resilience import RetryPolicy
    from repro.core.experiments import StormRig
    from repro.faults import FaultInjector, FaultSchedule, FaultTargets, MessageDrop
    from repro.faults.chaos import check_exactly_once

    config = ControlPlaneConfig(
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=1.0, jitter=0.0)
    )
    rig = StormRig(seed=0, hosts=2, datastores=1, config=config, bus=True, journal=True)
    # Opens once the submissions are consumed and outlasts the first
    # attempt's redeliveries; the retry's first copy is still lost, its
    # redelivery lands after the window.
    window = MessageDrop(0.5, (MAX_REDELIVERIES + 1) * REDELIVERY_TIMEOUT_S + 5.0, rate=1.0)
    FaultInjector(
        rig.sim,
        FaultTargets.for_server(rig.server),
        FaultSchedule([window]),
        rng=rig.streams.stream("injector"),
    ).start()
    summary = rig.closed_loop_storm(total=2, concurrency=2, linked=True)
    rig.sim.run()

    tasks = rig.server.tasks
    assert summary["completed"] == 2
    assert [task.attempts for task in tasks.tasks] == [2, 2]
    assert tasks.retries == 2
    assert tasks.dead_letters == []
    stats = rig.bus.topic_stats()
    assert stats["tasks.submit:vc-1"].dropped == 0
    agent_stats = [s for name, s in stats.items() if name.startswith("agent.")]
    assert sum(s.dead_lettered for s in agent_stats) == 2
    assert check_exactly_once(rig.server) == []


# -- shared subscriptions and forwarding (federation primitives) ----------


def test_shared_topic_fans_work_across_consumers():
    sim, bus = make_bus()
    topic = bus.subscribe_shared("pool")
    left, right = [], []
    consume(bus, topic, left, 2)
    consume(bus, topic, right, 2)
    for i in range(4):
        publish(bus, "pool", f"p{i}", key=f"k{i}")
    sim.run()
    # Every message delivered exactly once, split across the two pullers.
    assert sorted(left + right) == ["p0", "p1", "p2", "p3"]
    assert left and right


def test_shared_topic_rejects_exclusive_subscribe():
    _, bus = make_bus()
    pool = bus.subscribe_shared("pool")
    with pytest.raises(RuntimeError):
        bus.subscribe("pool")
    # Joining the pool again is fine — that is the point of shared.
    assert bus.subscribe_shared("pool") is pool


def test_exclusive_topic_rejects_shared_subscribe():
    _, bus = make_bus()
    bus.subscribe("t")
    with pytest.raises(RuntimeError):
        bus.subscribe_shared("t")


def test_forward_reroutes_without_consuming_key():
    sim, bus = make_bus()
    source = bus.subscribe("src")
    sink = bus.subscribe("dst")
    results = []
    consume(bus, sink, results, 1)

    def reroute():
        message = yield source.get()
        bus.forward(message, "dst")

    sim.spawn(reroute(), name="reroute")
    reply = sim.event(name="reply:fwd")
    publish(bus, "src", "payload", key="fwd-1", reply=reply)
    sim.run()
    assert results == ["payload"]
    assert bus.topic_stats()["src"].forwarded == 1
    # The idempotency key survived the hop: the forwarded copy was the
    # one accepted, and a later duplicate of the same key is deduped.
    publish(bus, "dst", "payload", key="fwd-1")
    sim.run(until=sim.timeout(0.0))
    sim.run()
    assert bus.topic_stats()["dst"].deduped >= 1


def test_forward_settles_reply_from_executing_consumer():
    sim, bus = make_bus()
    source = bus.subscribe("src")
    sink = bus.subscribe("dst")

    def reroute():
        message = yield source.get()
        bus.forward(message, "dst")

    def execute():
        message = yield sink.get()
        assert bus.accept(message)

        def work():
            yield sim.timeout(1.0)
            return "done"

        bus.bridge(sim.spawn(work(), name="work"), message)

    sim.spawn(reroute(), name="reroute")
    sim.spawn(execute(), name="execute")
    reply = sim.event(name="reply:fwd")
    publish(bus, "src", "payload", key="fwd-2", reply=reply)
    sim.run()
    assert reply.triggered and reply.value == "done"
