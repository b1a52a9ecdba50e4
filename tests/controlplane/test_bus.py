"""Unit tests for the control-plane message bus.

Each test drives a bare :class:`MessageBus` (no management server) with
hand-rolled publisher/consumer processes, pinning the delivery semantics
docs/bus.md promises: bounded queues with three overflow policies,
publisher backpressure, at-least-once redelivery with a bounded budget,
consumer-side idempotency-key dedup, dead-letter-once accounting, and
partition stall/heal. One storm-level test checks that routing a whole
control plane over the bus changes timing but never outcomes.
"""

import random

import pytest

from repro.controlplane.bus import (
    MessageBus,
    NULL_BUS,
    OVERFLOW_BLOCK,
    OVERFLOW_DEAD_LETTER,
    OVERFLOW_SHED_OLDEST,
)
from repro.faults import MessageLost, TransientError
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
    topic = bus.subscribe("t", capacity=1, overflow=OVERFLOW_BLOCK)
    order = []

    def tracked(key):
        yield from bus.publish("t", key, key=key)
        order.append(key)

    sim.spawn(tracked("k1"), name="p1")
    second = sim.spawn(tracked("k2"), name="p2")
    sim.run(until=sim.timeout(0.0))
    # k1 filled the queue; k2 is parked on a put request, not enqueued.
    assert order == ["k1"]
    assert not second.processed
    assert topic.depth == 1
    results = []
    consume(bus, topic, results, 2)
    sim.run()
    assert order == ["k1", "k2"]
    assert results == ["k1", "k2"]
    assert topic.stats.shed == 0


def test_shed_oldest_evicts_head_to_dead_letters():
    sim, bus = make_bus()
    topic = bus.subscribe("t", capacity=1, overflow=OVERFLOW_SHED_OLDEST)
    outcomes = {}

    def tracked(key):
        reply = sim.event(name=f"reply:{key}")
        yield from bus.publish("t", key, key=key, reply=reply)
        try:
            yield reply
            outcomes[key] = "ok"
        except MessageLost:
            outcomes[key] = "lost"

    sim.spawn(tracked("old"), name="p1")
    sim.spawn(tracked("new"), name="p2")
    results = []

    def consumer():
        message = yield topic.get()
        assert bus.accept(message)
        results.append(message.payload)
        message.reply.succeed("done")

    sim.spawn(consumer(), name="consumer")
    sim.run()
    # The head ("old") was evicted to make room; the newcomer delivered.
    assert results == ["new"]
    assert outcomes == {"old": "lost", "new": "ok"}
    assert topic.stats.shed == 1
    assert topic.stats.dead_lettered == 1


def test_dead_letter_overflow_rejects_incoming():
    sim, bus = make_bus()
    topic = bus.subscribe("t", capacity=1, overflow=OVERFLOW_DEAD_LETTER)
    outcomes = {}

    def tracked(key):
        reply = sim.event(name=f"reply:{key}")
        yield from bus.publish("t", key, key=key, reply=reply)
        try:
            yield reply
            outcomes[key] = "ok"
        except MessageLost:
            outcomes[key] = "lost"

    sim.spawn(tracked("kept"), name="p1")
    sim.spawn(tracked("rejected"), name="p2")
    results = []

    def consumer():
        yield sim.timeout(1.0)  # let both publishes race the full queue
        message = yield topic.get()
        assert bus.accept(message)
        results.append(message.payload)
        message.reply.succeed("done")

    sim.spawn(consumer(), name="consumer")
    sim.run()
    assert results == ["kept"]
    assert outcomes == {"kept": "ok", "rejected": "lost"}
    assert topic.stats.dead_lettered == 1


def test_drop_fault_triggers_redelivery():
    sim, bus = make_bus(redelivery_timeout_s=5.0)
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
    assert topic.stats.redelivered == 1
    assert topic.stats.delivered == 1


def test_redelivery_budget_exhaustion_dead_letters_once():
    sim, bus = make_bus(redelivery_timeout_s=2.0, max_redeliveries=2)
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
    assert stats.redelivered == bus.max_redeliveries
    assert stats.delivered == 0


def test_partition_stalls_then_heals():
    sim, bus = make_bus(redelivery_timeout_s=1000.0)
    topic = bus.subscribe("t")
    results = []
    consume(bus, topic, results, 1)
    bus.faults.set_partition("w", topics=["t"])
    publish(bus, "t", "p", key="k")
    sim.run(until=sim.timeout(10.0))
    # Queued but parked: the consumer is waiting, the message is not lost.
    assert results == []
    assert topic.depth == 1
    bus.faults.disarm("w")  # heal drains the backlog immediately
    sim.run()
    assert results == ["p"]
    assert topic.depth == 0


def test_partition_scope_only_hits_named_topics():
    _sim, bus = make_bus()
    bus.faults.set_partition("w", topics=["a"])
    assert bus.faults.partitioned("a")
    assert not bus.faults.partitioned("b")
    bus.faults.disarm("w")
    assert not bus.faults.armed


def test_overlapping_fault_windows_compose():
    _sim, bus = make_bus()
    bus.faults.set_drop("w1", 0.5)
    bus.faults.set_drop("w2", 0.5, topics=["t"])
    # Independent events: 1 - 0.5 * 0.5.
    assert bus.faults.drop_rate("t") == pytest.approx(0.75)
    assert bus.faults.drop_rate("other") == pytest.approx(0.5)
    bus.faults.set_delay("w1", 2.0)
    bus.faults.set_delay("w2", 5.0)
    assert bus.faults.delay_s("t") == 5.0  # delays take the max
    bus.faults.disarm("w2")
    assert bus.faults.drop_rate("t") == pytest.approx(0.5)
    bus.faults.disarm("w1")
    assert not bus.faults.armed


def test_late_kill_never_fails_completed_work():
    """A duplicate dead-lettered after its key succeeded is a dedup only."""
    sim, bus = make_bus()
    topic = bus.subscribe("t", capacity=1, overflow=OVERFLOW_SHED_OLDEST)
    results = []
    consume(bus, topic, results, 1)
    reply = sim.event(name="reply:k")
    publish(bus, "t", "p", key="k", reply=reply)
    sim.run()
    assert results == ["p"]  # key "k" is done
    # A late copy of the same key arrives and is evicted by a newcomer.
    publish(bus, "t", "p-again", key="k")
    publish(bus, "t", "q", key="k2")
    sim.run(until=sim.timeout(0.0))
    assert not reply.triggered or reply.ok  # the done key's reply never failed
    assert topic.stats.deduped >= 1
    assert bus.topic_stats()["t"].dead_lettered == 0


def test_message_lost_is_transient():
    assert issubclass(MessageLost, TransientError)


def test_null_bus_is_inert():
    assert not NULL_BUS.mediated
    assert NULL_BUS.topic_stats() == {}
    assert NULL_BUS.depths() == {}


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
