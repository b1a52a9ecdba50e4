"""The control-plane message bus: topics, backpressure, at-least-once.

The paper's control plane is a pipeline — gateway → director → task
manager → host agents — whose hops this repo originally modeled as direct
Python calls. That hides an entire failure domain: queueing between
tiers, message loss, duplication, reordering, and partitions. This module
makes inter-component delivery first-class:

- **Named topics** with one subscriber each (point-to-point queues, the
  shape every control-plane hop here has). Queues are bounded; the
  overflow policy is configurable per topic: ``block`` (publisher
  backpressure), ``shed_oldest`` (evict the head to dead letters), or
  ``dead_letter`` (reject the incoming message). A topic claimed with
  :meth:`MessageBus.subscribe_shared` instead admits *many* consumers —
  waiting getters are served FIFO, so a shared topic is a work-stealing
  pool (the shard-federation submission topic in
  :mod:`repro.cloud.federation`).
- **Forwarding.** :meth:`MessageBus.forward` re-routes a delivered
  message to another topic *without* consuming its idempotency key: the
  delivered copy is acknowledged (its redelivery timer stops) and a
  fresh copy with the same key, payload, and reply is published to the
  target topic. This is the shard-failover hop — a submission pending on
  a crashed shard's topic moves to the survivors' shared topic, and the
  key discipline still guarantees at-most-once execution.
- **At-least-once delivery.** Every message carries an idempotency key
  and arms a redelivery timer when offered; a copy lost in transit (a
  ``message_drop`` fault window) is re-sent when the timer fires, up to
  ``max_redeliveries`` times, after which the bus gives up: the message
  is dead-lettered and its reply fails with
  :class:`~repro.faults.errors.MessageLost` (a ``TransientError``, so the
  ordinary retry machinery owns the outcome).
- **Exactly-once effects on top.** The bus keeps per-key ``done`` / ``dead``
  sets; :meth:`MessageBus.accept` is the consumer-side gate that admits
  each key at most once and counts late copies as dedups. Task-derived
  keys reuse the journal's ``task-{id}:attempt-{n}`` identity, so a
  duplicated or redelivered message can never re-execute work an earlier
  copy performed.
- **Message-level chaos.** A :class:`BusFaultHook` (armed by the
  ``message_*`` / ``topic_partition`` specs in
  :mod:`repro.faults.schedule`) injects drop, duplicate, delay, reorder,
  and per-topic partition faults, each scopable to a topic subset.

One rule for the design choice: a :class:`MessageBus` always carries the
hops, and "no bus" is spelled ``bus=None`` — the server substitutes the
inert :data:`NULL_BUS` (``mediated`` is False, components call each
other directly, no consumer processes spawn; the same discipline as
``NULL_JOURNAL``).

Instrumentation: publish / queue-wait / deliver spans ride the caller's
span tree (``PHASE_BUS`` / ``PHASE_QUEUE``), and telemetry exposes
per-topic queue-depth probes plus published / delivered / redelivered /
deduped / dropped / shed / dead-letter counters and a queue-wait
histogram. ``python -m repro bus`` demos all of it.
"""

from __future__ import annotations

import random
import typing
from collections import deque
from dataclasses import dataclass

from repro.faults.errors import MessageLost
from repro.sim.events import Event
from repro.telemetry import NULL_TELEMETRY
from repro.tracing import NULL_SPAN, PHASE_BUS, PHASE_QUEUE

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

# Overflow policies for bounded topic queues.
OVERFLOW_BLOCK = "block"            # publisher waits for space (backpressure)
OVERFLOW_SHED_OLDEST = "shed_oldest"  # evict the queue head to dead letters
OVERFLOW_DEAD_LETTER = "dead_letter"  # reject the incoming message

OVERFLOW_POLICIES = (OVERFLOW_BLOCK, OVERFLOW_SHED_OLDEST, OVERFLOW_DEAD_LETTER)

#: Bound of a topic not configured explicitly at ``subscribe`` time.
DEFAULT_CAPACITY = 64


class Message:
    """One in-flight bus message.

    ``key`` is the idempotency identity: redelivered and duplicated copies
    share it, and the consumer-side :meth:`MessageBus.accept` gate admits
    each key at most once. ``reply`` (optional) is the event the consumer
    bridge settles with the handler's outcome; ``task`` (optional) links
    the message to the control-plane task it serves so a bus-level dead
    letter lands in the task manager's deduplicated sink.

    The envelope also carries the originating attempt's trace identity
    (``trace_id`` / ``origin_span_id``, captured from ``span`` at publish
    time): redelivered copies, fault-injected duplicates, and dead letters
    all attribute back to the root trace even after the live span object
    is finished or the copy outlives the attempt that published it.
    """

    __slots__ = (
        "key",
        "payload",
        "topic",
        "reply",
        "task",
        "span",
        "trace_id",
        "origin_span_id",
        "published_at",
        "enqueued_at",
        "redeliveries",
        "acked",
        "in_queue",
        "timer",
        "wait_span",
    )

    def __init__(
        self,
        key: str,
        payload: typing.Any,
        topic: str,
        published_at: float,
        reply: Event | None = None,
        task: typing.Any = None,
        span: typing.Any = NULL_SPAN,
        trace_id: int | None = None,
        origin_span_id: int | None = None,
    ) -> None:
        self.key = key
        self.payload = payload
        self.topic = topic
        self.reply = reply
        self.task = task
        self.span = span
        if trace_id is None and not span.is_null:
            trace_id = span.context.trace_id
            origin_span_id = span.context.span_id
        self.trace_id = trace_id
        self.origin_span_id = origin_span_id
        self.published_at = published_at
        self.enqueued_at = published_at
        self.redeliveries = 0
        self.acked = False
        self.in_queue = False
        self.timer: Event | None = None
        self.wait_span: typing.Any = None

    def clone(self, now: float) -> "Message":
        """A duplicate copy: same identity and reply, fresh delivery state."""
        return Message(
            key=self.key,
            payload=self.payload,
            topic=self.topic,
            published_at=now,
            reply=self.reply,
            task=self.task,
            span=self.span,
            trace_id=self.trace_id,
            origin_span_id=self.origin_span_id,
        )

    def __repr__(self) -> str:
        return f"<Message {self.topic}:{self.key} redeliveries={self.redeliveries}>"


@dataclass
class TopicStats:
    """Per-topic delivery accounting, surfaced by ``python -m repro bus``."""

    published: int = 0
    delivered: int = 0
    redelivered: int = 0
    duplicated: int = 0
    deduped: int = 0
    dropped: int = 0
    delayed: int = 0
    reordered: int = 0
    shed: int = 0
    dead_lettered: int = 0
    forwarded: int = 0
    max_depth: int = 0
    waits: int = 0
    total_wait_s: float = 0.0

    @property
    def mean_wait_s(self) -> float:
        return self.total_wait_s / self.waits if self.waits else 0.0


class _PutRequest(Event):
    """A blocked publisher's wait-for-space event.

    ``withdraw`` hooks the kernel's interrupt path: a publisher
    interrupted while waiting for queue space must not hold its place in
    line.
    """

    __slots__ = ("topic",)

    def __init__(self, sim: "Simulator", topic: "Topic") -> None:
        super().__init__(sim, name=f"bus-put:{topic.name}")
        self.topic = topic

    def withdraw(self) -> None:
        try:
            self.topic.putters.remove(self)
        except ValueError:
            pass


#: Ring size for per-topic dead-letter attribution records.
RECENT_DEAD_LIMIT = 32


class Topic:
    """One named bounded queue: single-subscriber unless marked ``shared``."""

    __slots__ = (
        "bus",
        "name",
        "capacity",
        "overflow",
        "queue",
        "getters",
        "putters",
        "stats",
        "subscribed",
        "shared",
        "recent_dead",
    )

    def __init__(self, bus: "MessageBus", name: str, capacity: int, overflow: str) -> None:
        if capacity < 1:
            raise ValueError(f"topic capacity must be >= 1, got {capacity}")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {overflow!r}; known: {OVERFLOW_POLICIES}")
        self.bus = bus
        self.name = name
        self.capacity = capacity
        self.overflow = overflow
        self.queue: deque[Message] = deque()
        self.getters: deque[Event] = deque()
        self.putters: deque[_PutRequest] = deque()
        self.stats = TopicStats()
        self.subscribed = False
        self.shared = False
        # (key, trace_id, time, reason) for the last few dead letters —
        # the incident recorder lifts these into bundles.
        self.recent_dead: deque[tuple[str, int | None, float, str]] = deque(
            maxlen=RECENT_DEAD_LIMIT
        )

    @property
    def full(self) -> bool:
        return len(self.queue) >= self.capacity

    @property
    def depth(self) -> int:
        return len(self.queue)

    def get(self) -> Event:
        """Consumer side: an event that fires with the next message."""
        event = self.bus.sim.event(name=f"bus-get:{self.name}")
        self.getters.append(event)
        self.bus._drain(self)
        return event


_MISSING = object()


class BusFaultHook:
    """Message-level fault state for one bus, armed per *source* token.

    The same composition idiom as :class:`~repro.faults.hooks.FaultHook`:
    each fault window registers under an opaque source token, overlapping
    windows compose (drop/duplicate/reorder rates combine as independent
    events, delays take the max), and disarming one window leaves the
    others armed. Every entry may be scoped to a topic subset; an empty
    scope means *all* topics. Healing the last partition on a topic drains
    any backlog it stalled.
    """

    def __init__(self, bus: "MessageBus") -> None:
        self._bus = bus
        self._drops: dict[object, tuple[frozenset[str] | None, float]] = {}
        self._duplicates: dict[object, tuple[frozenset[str] | None, float]] = {}
        self._delays: dict[object, tuple[frozenset[str] | None, float]] = {}
        self._reorders: dict[object, tuple[frozenset[str] | None, float]] = {}
        self._partitions: dict[object, frozenset[str] | None] = {}

    @staticmethod
    def _scope(topics: typing.Iterable[str] | None) -> frozenset[str] | None:
        if not topics:
            return None
        return frozenset(topics)

    # -- arming ------------------------------------------------------------

    def set_drop(self, source: object, rate: float, topics=None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {rate}")
        self._drops[source] = (self._scope(topics), rate)

    def set_duplicate(self, source: object, rate: float, topics=None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"duplicate rate must be in [0, 1], got {rate}")
        self._duplicates[source] = (self._scope(topics), rate)

    def set_delay(self, source: object, delay_s: float, topics=None) -> None:
        if delay_s < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay_s}")
        self._delays[source] = (self._scope(topics), delay_s)

    def set_reorder(self, source: object, rate: float, topics=None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"reorder rate must be in [0, 1], got {rate}")
        self._reorders[source] = (self._scope(topics), rate)

    def set_partition(self, source: object, topics=None) -> None:
        self._partitions[source] = self._scope(topics)

    def disarm(self, source: object) -> None:
        """Remove every fault registered under ``source``."""
        self._drops.pop(source, None)
        self._duplicates.pop(source, None)
        self._delays.pop(source, None)
        self._reorders.pop(source, None)
        healed = self._partitions.pop(source, _MISSING) is not _MISSING
        if healed:
            self._bus._drain_all()

    # -- introspection -----------------------------------------------------

    @property
    def armed(self) -> bool:
        return bool(
            self._drops
            or self._duplicates
            or self._delays
            or self._reorders
            or self._partitions
        )

    @staticmethod
    def _matching(table, topic: str):
        for scope, value in table.values():
            if scope is None or topic in scope:
                yield value

    @staticmethod
    def _combined(rates: typing.Iterable[float]) -> float:
        survive = 1.0
        for rate in rates:
            survive *= 1.0 - rate
        return 1.0 - survive

    def drop_rate(self, topic: str) -> float:
        return self._combined(self._matching(self._drops, topic))

    def duplicate_rate(self, topic: str) -> float:
        return self._combined(self._matching(self._duplicates, topic))

    def reorder_rate(self, topic: str) -> float:
        return self._combined(self._matching(self._reorders, topic))

    def delay_s(self, topic: str) -> float:
        return max(self._matching(self._delays, topic), default=0.0)

    def partitioned(self, topic: str) -> bool:
        return any(scope is None or topic in scope for scope in self._partitions.values())


class MessageBus:
    """The in-sim broker; see the module docstring for semantics.

    A topic not configured explicitly at ``subscribe`` time holds
    :data:`DEFAULT_CAPACITY` messages and blocks its publishers when full.

    Parameters
    ----------
    redelivery_timeout_s / max_redeliveries:
        At-least-once knobs: how long an unacknowledged message waits
        before the bus re-sends it, and how many expiries it survives
        before being dead-lettered (``MessageLost``).
    """

    #: A bus always carries the control-plane hops (see :data:`NULL_BUS`).
    mediated = True

    def __init__(
        self,
        sim: "Simulator",
        name: str = "bus",
        rng: random.Random | None = None,
        telemetry=None,
        redelivery_timeout_s: float = 30.0,
        max_redeliveries: int = 3,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rng = rng or random.Random(0)
        self.redelivery_timeout_s = redelivery_timeout_s
        self.max_redeliveries = max_redeliveries
        self.faults = BusFaultHook(self)
        # Where a bus-level dead letter for a task-linked message lands;
        # the management server points this at the task manager's
        # deduplicated sink so bus sheds and retry-layer dead letters are
        # counted once (see TaskManager.record_message_dead_letter).
        self.dead_letter_sink: typing.Callable[[typing.Any, BaseException], None] | None = None
        self._topics: dict[str, Topic] = {}
        # Consumer-side exactly-once state: keys accepted (work executed)
        # and keys given up on (dead-lettered). A key in either set is
        # never executed again.
        self._done_keys: set[str] = set()
        self._dead_keys: set[str] = set()
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        t = self._telemetry
        labels = {"bus": name}
        self._t_published = t.counter("bus_published_total", help="messages published", **labels)
        self._t_delivered = t.counter("bus_delivered_total", help="messages delivered", **labels)
        self._t_redelivered = t.counter(
            "bus_redelivered_total", help="redelivery timer re-sends", **labels
        )
        self._t_duplicated = t.counter(
            "bus_duplicated_total", help="fault-injected duplicate copies", **labels
        )
        self._t_deduped = t.counter(
            "bus_deduped_total", help="copies suppressed by idempotency keys", **labels
        )
        self._t_dropped = t.counter(
            "bus_dropped_total", help="copies lost in transit (drop faults)", **labels
        )
        self._t_shed = t.counter(
            "bus_shed_total", help="messages evicted by queue overflow", **labels
        )
        self._t_dead_letter = t.counter(
            "bus_dead_letter_total", help="messages the bus gave up on", **labels
        )
        self._t_forwarded = t.counter(
            "bus_forwarded_total", help="messages re-routed to another topic", **labels
        )
        self._t_dead_letter_deduped = t.counter(
            "bus_dead_letter_deduped_total",
            help="dead-letter attempts suppressed (key already done or dead)",
            **labels,
        )
        self._t_queue_wait = t.histogram(
            "bus_queue_wait_s", help="enqueue-to-delivery wait", **labels
        )

    # -- topics ------------------------------------------------------------

    def topic(self, name: str, capacity: int | None = None, overflow: str | None = None) -> Topic:
        """Get or create a topic; config applies only on first creation."""
        existing = self._topics.get(name)
        if existing is not None:
            return existing
        topic = Topic(
            self,
            name,
            capacity if capacity is not None else DEFAULT_CAPACITY,
            overflow if overflow is not None else OVERFLOW_BLOCK,
        )
        self._topics[name] = topic
        self._telemetry.probe(
            "bus_queue_depth",
            lambda t=topic: float(len(t.queue)),
            help="messages waiting in the topic queue",
            bus=self.name,
            topic=name,
        )
        # Per-topic TopicStats surfaced as cumulative probes so triage and
        # repro-top can localize bus trouble to a topic through the
        # scraper (probes scrape as levels; windowed increase = max - min).
        for field, help_text in (
            ("published", "messages published to this topic"),
            ("delivered", "messages delivered to the consumer"),
            ("redelivered", "redelivery timer re-sends"),
            ("duplicated", "fault-injected duplicate copies"),
            ("deduped", "copies suppressed by idempotency keys"),
            ("dropped", "copies lost in transit (drop faults)"),
            ("delayed", "publishes stalled by delay faults"),
            ("reordered", "messages that jumped the queue"),
            ("shed", "messages evicted by queue overflow"),
            ("dead_lettered", "messages this topic gave up on"),
            ("forwarded", "messages re-routed to another topic"),
        ):
            self._telemetry.probe(
                f"bus_topic_{field}",
                lambda t=topic, f=field: float(getattr(t.stats, f)),
                help=help_text,
                bus=self.name,
                topic=name,
            )
        return topic

    def subscribe(self, name: str, capacity: int | None = None, overflow: str | None = None) -> Topic:
        """Claim a topic's consumer side; topics are single-subscriber."""
        topic = self.topic(name, capacity=capacity, overflow=overflow)
        if topic.shared:
            raise RuntimeError(f"topic {name!r} is shared; use subscribe_shared")
        if topic.subscribed:
            raise RuntimeError(f"topic {name!r} already has a subscriber")
        topic.subscribed = True
        return topic

    def subscribe_shared(
        self, name: str, capacity: int | None = None, overflow: str | None = None
    ) -> Topic:
        """Join a shared topic as one of many consumers (work-stealing).

        Waiting getters are served FIFO, so whichever consumer has been
        idle longest takes the next message — a pull-based work pool.
        A topic already claimed exclusively cannot be joined, and vice
        versa: the two subscription modes are mutually exclusive per
        topic.
        """
        topic = self.topic(name, capacity=capacity, overflow=overflow)
        if topic.subscribed and not topic.shared:
            raise RuntimeError(f"topic {name!r} already has an exclusive subscriber")
        topic.subscribed = True
        topic.shared = True
        return topic

    def topic_stats(self) -> dict[str, TopicStats]:
        return {name: topic.stats for name, topic in sorted(self._topics.items())}

    def depths(self) -> dict[str, int]:
        return {name: topic.depth for name, topic in sorted(self._topics.items())}

    # -- publishing --------------------------------------------------------

    def publish(
        self,
        topic_name: str,
        payload: typing.Any,
        key: str,
        reply: Event | None = None,
        span=NULL_SPAN,
        task: typing.Any = None,
    ):
        """Publish one message (process-style generator; may block).

        Order of hazards models a real hop: delay faults hold the send,
        the overflow policy gates admission (``block`` backpressures the
        publisher here), and only then does the copy cross the "network",
        where a drop fault may lose it — the redelivery timer re-sends
        lost copies, so delivery is at-least-once.
        """
        topic = self.topic(topic_name)
        message = Message(
            key=key,
            payload=payload,
            topic=topic_name,
            published_at=self.sim.now,
            reply=reply,
            task=task,
            span=span,
        )
        topic.stats.published += 1
        self._t_published.add()
        pub_span = NULL_SPAN
        if not span.is_null:
            pub_span = span.child(
                f"bus.publish:{topic_name}", phase=PHASE_BUS, tags={"key": key}
            )
        try:
            delay = self.faults.delay_s(topic_name)
            if delay > 0.0:
                topic.stats.delayed += 1
                yield self.sim.timeout(delay)
            if topic.overflow == OVERFLOW_BLOCK:
                while topic.full:
                    request = _PutRequest(self.sim, topic)
                    topic.putters.append(request)
                    yield request
            elif topic.overflow == OVERFLOW_SHED_OLDEST:
                if topic.full and topic.queue:
                    victim = topic.queue.popleft()
                    victim.in_queue = False
                    topic.stats.shed += 1
                    self._t_shed.add()
                    self._kill(topic, victim, "shed by overflow")
            elif topic.full:  # OVERFLOW_DEAD_LETTER
                topic.stats.shed += 1
                self._t_shed.add()
                self._kill(topic, message, "rejected by full queue")
                return
            self._offer(topic, message)
        finally:
            pub_span.finish()

    # -- delivery internals ------------------------------------------------

    def _roll(self, rate: float) -> bool:
        return rate > 0.0 and self.rng.random() < rate

    def _offer(self, topic: Topic, message: Message) -> None:
        """Send one copy across the wire: it lands in the queue or is lost."""
        if self._roll(self.faults.drop_rate(topic.name)):
            message.in_queue = False
            topic.stats.dropped += 1
            self._t_dropped.add()
            self._arm_timer(topic, message)
            return
        self._insert(topic, message)
        self._drain(topic)

    def _insert(self, topic: Topic, message: Message) -> None:
        # Redeliveries and duplicate copies bypass the capacity bound: the
        # original was already admitted, so bounded-queue accounting
        # treats them as in-flight rather than new offered load.
        message.in_queue = True
        message.enqueued_at = self.sim.now
        if not message.span.is_null:
            message.wait_span = message.span.child(
                f"bus.queue_wait:{topic.name}", phase=PHASE_QUEUE, tags={"wait": True}
            )
        if topic.queue and self._roll(self.faults.reorder_rate(topic.name)):
            topic.stats.reordered += 1
            topic.queue.insert(self.rng.randrange(len(topic.queue) + 1), message)
        else:
            topic.queue.append(message)
        if len(topic.queue) > topic.stats.max_depth:
            topic.stats.max_depth = len(topic.queue)
        self._arm_timer(topic, message)

    def _arm_timer(self, topic: Topic, message: Message) -> None:
        if message.acked:
            return
        old = message.timer
        if old is not None and not old.processed:
            old.cancel()
        timer = self.sim.timeout(self.redelivery_timeout_s)
        timer.callbacks.append(lambda _event, t=topic, m=message: self._redeliver(t, m))
        message.timer = timer

    def _redeliver(self, topic: Topic, message: Message) -> None:
        """Redelivery timer expired: re-send a lost copy or give up."""
        if message.acked:
            return
        message.redeliveries += 1
        if message.redeliveries > self.max_redeliveries:
            self._kill(topic, message, "redelivery budget exhausted")
            return
        if message.in_queue:
            # Still queued (partition or backlog): the copy is not lost,
            # just waiting — keep the expiry counting toward the budget.
            self._arm_timer(topic, message)
            return
        topic.stats.redelivered += 1
        self._t_redelivered.add()
        if not message.span.is_null:
            message.span.annotate("bus.redeliveries", message.redeliveries)
        self._offer(topic, message)

    def _drain(self, topic: Topic) -> None:
        """Match queued messages to waiting getters (unless partitioned)."""
        if self.faults.partitioned(topic.name):
            return
        while topic.queue and topic.getters:
            message = topic.queue.popleft()
            getter = topic.getters.popleft()
            message.in_queue = False
            wait = self.sim.now - message.enqueued_at
            topic.stats.delivered += 1
            topic.stats.waits += 1
            topic.stats.total_wait_s += wait
            self._t_delivered.add()
            self._t_queue_wait.observe(wait, trace_id=message.trace_id)
            if message.wait_span is not None:
                message.wait_span.finish()
                message.wait_span = None
            if not message.span.is_null:
                message.span.child(
                    f"bus.deliver:{topic.name}",
                    phase=PHASE_BUS,
                    tags={"redeliveries": message.redeliveries},
                ).finish()
            getter.succeed(message)
            if self._roll(self.faults.duplicate_rate(topic.name)):
                clone = message.clone(self.sim.now)
                topic.stats.duplicated += 1
                self._t_duplicated.add()
                self._insert(topic, clone)
        self._release_putters(topic)

    def _release_putters(self, topic: Topic) -> None:
        """Wake blocked publishers, one per free queue slot.

        Over-waking is harmless (a woken publisher re-checks ``full`` and
        re-blocks), but releasing one per slot avoids thundering the whole
        line every delivery.
        """
        free = topic.capacity - topic.depth
        while free > 0 and topic.putters:
            waiter = topic.putters.popleft()
            if waiter.triggered or waiter.cancelled:
                continue
            waiter.succeed()
            free -= 1

    def _drain_all(self) -> None:
        for topic in self._topics.values():
            self._drain(topic)

    def _kill(self, topic: Topic, message: Message, reason: str) -> None:
        """Give up on a message: dead-letter it exactly once per key.

        A killed copy whose key already succeeded (or already
        dead-lettered) is counted as a dedup only — its reply is left
        alone, so a late duplicate can never fail work that another copy
        completed.
        """
        message.acked = True
        if message.timer is not None and not message.timer.processed:
            message.timer.cancel()
        if message.in_queue:
            try:
                topic.queue.remove(message)
            except ValueError:
                pass
            message.in_queue = False
            # Killing a queued message frees a slot; blocked publishers
            # must not stay parked on space that now exists.
            self._release_putters(topic)
        if message.wait_span is not None:
            message.wait_span.finish(error=reason)
            message.wait_span = None
        key = message.key
        if key in self._done_keys or key in self._dead_keys:
            topic.stats.deduped += 1
            self._t_dead_letter_deduped.add()
            return
        self._dead_keys.add(key)
        topic.stats.dead_lettered += 1
        self._t_dead_letter.add()
        topic.recent_dead.append((key, message.trace_id, self.sim.now, reason))
        if not message.span.is_null:
            message.span.annotate("bus.dead_letter", reason)
        error = MessageLost(f"{topic.name}:{key}: {reason}")
        if message.reply is not None and not message.reply.triggered:
            message.reply.fail(error)
        if self.dead_letter_sink is not None and message.task is not None:
            self.dead_letter_sink(message.task, error)

    def forward(self, message: Message, topic_name: str) -> Event:
        """Re-route a delivered message to another topic, keeping its key.

        The delivered copy is acknowledged — its redelivery timer stops —
        but the idempotency key is *not* consumed, so the forwarded copy
        is still executable exactly once wherever it lands. The fresh
        copy carries the same key, payload, reply, task link, and trace
        identity; publication goes through the normal hazard pipeline
        (delay faults, overflow policy, drop faults) as a spawned
        process, whose event is returned.

        This is the shard-failover primitive: a consumer that finds its
        shard inside a crash window forwards pending submissions to the
        survivors' shared topic instead of accepting them.
        """
        message.acked = True
        if message.timer is not None and not message.timer.processed:
            message.timer.cancel()
            message.timer = None
        source = self._topics[message.topic]
        source.stats.forwarded += 1
        self._t_forwarded.add()
        if not message.span.is_null:
            message.span.annotate("bus.forwarded_to", topic_name)
        return self.sim.spawn(
            self.publish(
                topic_name,
                message.payload,
                key=message.key,
                reply=message.reply,
                span=message.span,
                task=message.task,
            ),
            name=f"bus-forward:{message.key}",
        )

    # -- consumer side -----------------------------------------------------

    def accept(self, message: Message) -> bool:
        """Acknowledge a delivered message and gate execution on its key.

        Returns True exactly once per key; late copies (redeliveries the
        original beat to the consumer, fault-injected duplicates, copies
        of a dead key) acknowledge but return False and count as dedups.
        Consumers call this first and skip work when it returns False.
        """
        message.acked = True
        if message.timer is not None and not message.timer.processed:
            message.timer.cancel()
            message.timer = None
        topic = self._topics[message.topic]
        if message.key in self._done_keys or message.key in self._dead_keys:
            topic.stats.deduped += 1
            self._t_deduped.add()
            return False
        self._done_keys.add(message.key)
        return True

    def bridge(self, process: Event, message: Message) -> None:
        """Settle the message's reply with a handler process's outcome."""
        reply = message.reply
        if reply is None:
            return

        def settle(event: Event) -> None:
            if reply.triggered:
                return
            if event._exception is None:
                reply.succeed(event._value)
            else:
                reply.fail(event._exception)

        if process.processed:
            settle(process)
        else:
            process.callbacks.append(settle)


class AgentProxy:
    """Bus-mediated stand-in for a :class:`~repro.controlplane.host_agent.HostAgent`.

    ``call`` publishes to the host's ``agent.{host}`` topic with a
    task-derived idempotency key and waits on the reply; every other
    attribute (``faults``, ``breaker``, ``host``, ``utilization``, …)
    delegates to the real agent, so fault injection, breaker policy, and
    telemetry probes keep working unchanged in mediated mode.
    """

    def __init__(self, bus: MessageBus, agent, topic_name: str) -> None:
        self._bus = bus
        self._agent = agent
        self._topic_name = topic_name
        self._seq = 0

    def __getattr__(self, name: str):
        return getattr(self._agent, name)

    def call(self, kind: str, median_s: float, span=NULL_SPAN, task=None):
        self._seq += 1
        if task is not None:
            key = f"task-{task.task_id}:attempt-{task.attempts}:{kind}:{self._seq}"
        else:
            key = f"{self._agent.host.entity_id}:{kind}:{self._seq}"
        reply = self._bus.sim.event(name=f"bus-reply:{key}")
        yield from self._bus.publish(
            self._topic_name,
            (kind, median_s, span),
            key=key,
            reply=reply,
            span=span,
            task=task,
        )
        result = yield reply
        return result


class _NullBus:
    """The inert bus: ``mediated`` is False and nothing ever runs.

    A shared singleton (:data:`NULL_BUS`) stands in for "no bus
    configured", so the server and director need no None checks.
    """

    __slots__ = ()

    mediated = False

    def topic_stats(self) -> dict[str, TopicStats]:
        return {}

    def depths(self) -> dict[str, int]:
        return {}

    def __repr__(self) -> str:
        return "<NullBus>"


NULL_BUS = _NullBus()

__all__ = [
    "AgentProxy",
    "BusFaultHook",
    "Message",
    "MessageBus",
    "NULL_BUS",
    "OVERFLOW_BLOCK",
    "OVERFLOW_DEAD_LETTER",
    "OVERFLOW_POLICIES",
    "OVERFLOW_SHED_OLDEST",
    "Topic",
    "TopicStats",
]
