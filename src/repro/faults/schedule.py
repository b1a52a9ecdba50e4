"""Declarative fault schedules.

A :class:`FaultSchedule` is an ordered collection of timed
:class:`FaultSpec` windows; the :class:`~repro.faults.injector.FaultInjector`
arms each spec at ``start_s`` and disarms it at ``start_s + duration_s``.
Specs are frozen dataclasses, so schedules compare and hash by value
for reproducibility.

Spec catalogue:

==================  =========================================================
``host_flap``       hosts disconnect for the window (calls fail fast,
                    placement avoids them), then reconnect
``agent_degrade``   host-agent calls slow down by ``latency_factor`` and/or
                    fail with probability ``drop_rate``
``db_slowdown``     every database service time is multiplied by ``factor``
``datastore_outage``  copies into the named datastores fail
``copy_flakiness``  every copy fails with probability ``fail_rate``
``shard_crash``     submissions to the named management servers fail
``server_crash``    the named management servers crash outright: in-flight
                    task processes are aborted, submissions rejected, and
                    the restart (at window end) replays the task journal
``message_drop``    bus messages vanish in transit with probability
                    ``rate`` (redelivery timers resend them)
``message_duplicate``  delivered bus messages are cloned with probability
                    ``rate`` (consumers deduplicate by idempotency key)
``message_delay``   bus publishes stall ``delay_s`` before enqueueing
``message_reorder`` bus messages jump the queue with probability ``rate``
``topic_partition`` bus topics stop delivering entirely for the window
                    (queues build; healing drains them)
==================  =========================================================

:attr:`FaultSpec.intensity` is a spec's headline rate, factor or delay
(1.0 for binary kinds). Message faults cover every topic on the bus.

Targets are referenced *by name* (host names, datastore names, server
names); empty target tuples mean "pick ``count`` at random from the live
infrastructure" using the injector's seeded stream, keeping schedules
portable across rig sizes.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.faults.manifest import GroundTruthManifest, window_from_spec

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultTargets


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One timed fault window. Subclasses define arm/disarm behaviour."""

    start_s: float
    duration_s: float

    kind: typing.ClassVar[str] = "abstract"

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def intensity(self) -> float:
        """The headline magnitude; 1.0 for binary kinds (crashes, outages)."""
        return 1.0

    # The injector calls select() once at arm time (resolving names and
    # random picks into live components), then arm()/disarm() with the
    # same selection and a unique per-window token.
    def select(self, targets: "FaultTargets", rng: random.Random) -> list:
        raise NotImplementedError

    def arm(self, targets: "FaultTargets", token: object, selection: list) -> None:
        raise NotImplementedError

    def disarm(self, targets: "FaultTargets", token: object, selection: list) -> None:
        raise NotImplementedError

    def describe(self, selection: list) -> str:
        # NB: never repr() live entities here — their back-references
        # (host ↔ cluster ↔ vms) make dataclass repr blow up combinatorially.
        names = ",".join(
            item.name if hasattr(item, "name") else type(item).__name__
            for item in selection
        )
        return f"{self.kind}[{names}]"


@dataclasses.dataclass(frozen=True)
class HostFlap(FaultSpec):
    """Hosts disconnect for the window, then reconnect."""

    hosts: tuple[str, ...] = ()
    count: int = 1

    kind: typing.ClassVar[str] = "host_flap"

    def select(self, targets, rng):
        return targets.pick_hosts(self.hosts, self.count, rng)

    def arm(self, targets, token, selection):
        for host in selection:
            targets.flap_down(host)

    def disarm(self, targets, token, selection):
        for host in selection:
            targets.flap_up(host)


@dataclasses.dataclass(frozen=True)
class AgentDegrade(FaultSpec):
    """Host-agent calls slow down and/or drop for the window."""

    hosts: tuple[str, ...] = ()
    count: int = 1
    latency_factor: float = 1.0
    drop_rate: float = 0.0

    kind: typing.ClassVar[str] = "agent_degrade"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1.0")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if self.latency_factor == 1.0 and self.drop_rate == 0.0:
            raise ValueError("agent_degrade must degrade latency or drop calls")

    @property
    def intensity(self) -> float:
        return float(self.drop_rate)

    def select(self, targets, rng):
        return targets.pick_hosts(self.hosts, self.count, rng)

    def arm(self, targets, token, selection):
        for host in selection:
            hook = targets.agent_hook(host)
            if self.latency_factor > 1.0:
                hook.set_latency(token, self.latency_factor)
            if self.drop_rate > 0.0:
                hook.set_drop(token, self.drop_rate)

    def disarm(self, targets, token, selection):
        for host in selection:
            targets.agent_hook(host).disarm(token)


@dataclasses.dataclass(frozen=True)
class DbSlowdown(FaultSpec):
    """Every database service time is multiplied by ``factor``."""

    factor: float = 2.0

    kind: typing.ClassVar[str] = "db_slowdown"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1.0")

    @property
    def intensity(self) -> float:
        return float(self.factor)

    def select(self, targets, rng):
        return targets.database_hooks()

    def arm(self, targets, token, selection):
        for hook in selection:
            hook.set_latency(token, self.factor)

    def disarm(self, targets, token, selection):
        for hook in selection:
            hook.disarm(token)

    def describe(self, selection):
        return f"{self.kind}[x{self.factor:g}]"


@dataclasses.dataclass(frozen=True)
class DatastoreOutage(FaultSpec):
    """Copies into the selected datastores fail for the window."""

    datastores: tuple[str, ...] = ()
    count: int = 1

    kind: typing.ClassVar[str] = "datastore_outage"

    def select(self, targets, rng):
        return targets.pick_datastores(self.datastores, self.count, rng)

    def arm(self, targets, token, selection):
        for datastore in selection:
            for hook in targets.copy_hooks():
                hook.block((token, datastore.entity_id), key=datastore.entity_id)

    def disarm(self, targets, token, selection):
        for datastore in selection:
            for hook in targets.copy_hooks():
                hook.disarm((token, datastore.entity_id))


@dataclasses.dataclass(frozen=True)
class CopyFlakiness(FaultSpec):
    """Every copy fails with probability ``fail_rate`` for the window."""

    fail_rate: float = 0.5

    kind: typing.ClassVar[str] = "copy_flakiness"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fail_rate <= 1.0:
            raise ValueError("fail_rate must be in (0, 1]")

    @property
    def intensity(self) -> float:
        return float(self.fail_rate)

    def select(self, targets, rng):
        return targets.copy_hooks()

    def arm(self, targets, token, selection):
        for hook in selection:
            hook.set_drop(token, self.fail_rate)

    def disarm(self, targets, token, selection):
        for hook in selection:
            hook.disarm(token)

    def describe(self, selection):
        return f"{self.kind}[p={self.fail_rate:g}]"


@dataclasses.dataclass(frozen=True)
class ShardCrash(FaultSpec):
    """Submissions to the selected management servers fail for the window."""

    shards: tuple[str, ...] = ()
    count: int = 1

    kind: typing.ClassVar[str] = "shard_crash"

    def select(self, targets, rng):
        return targets.pick_servers(self.shards, self.count, rng)

    def arm(self, targets, token, selection):
        for server in selection:
            server.faults.block(token)

    def disarm(self, targets, token, selection):
        for server in selection:
            server.faults.disarm(token)


@dataclasses.dataclass(frozen=True)
class ServerCrash(FaultSpec):
    """The selected management servers crash for the window.

    Harsher than :class:`ShardCrash` (which only rejects *new*
    submissions): arming interrupts every in-flight task process with
    :class:`~repro.faults.errors.ServerCrashed` and rejects submissions;
    disarming restarts the server, whose
    :class:`~repro.controlplane.recovery.RecoveryManager` replays the task
    journal and reconciles the interrupted work. ``duration_s`` is the
    downtime.
    """

    shards: tuple[str, ...] = ()
    count: int = 1

    kind: typing.ClassVar[str] = "server_crash"

    def select(self, targets, rng):
        return targets.pick_servers(self.shards, self.count, rng)

    def arm(self, targets, token, selection):
        for server in selection:
            server.crash(token)

    def disarm(self, targets, token, selection):
        for server in selection:
            server.restart(token)


#: The bus-hook setter each message fault arms with its intensity; a
#: kind not listed (``topic_partition``) blocks every key instead.
_HOOK_SETTERS = {
    "message_drop": "set_drop",
    "message_duplicate": "set_duplicate",
    "message_delay": "set_delay",
    "message_reorder": "set_reorder",
}


@dataclasses.dataclass(frozen=True)
class MessageFault(FaultSpec):
    """Shared skeleton for bus-level message faults, on every topic.

    Targets every mediated bus (direct-call rigs have none, so these
    windows arm as no-ops there — random schedules stay portable).
    """

    def select(self, targets, rng):
        return targets.buses()

    def arm(self, targets, token, selection):
        setter = _HOOK_SETTERS.get(self.kind)
        for bus in selection:
            if setter is None:
                bus.faults.block(token)
            else:
                getattr(bus.faults, setter)(token, self.intensity)

    def disarm(self, targets, token, selection):
        for bus in selection:
            bus.faults.disarm(token)
            if self.kind not in _HOOK_SETTERS:
                bus.drain_all()  # a healed partition delivers its backlog

    def describe(self, selection):
        return f"{self.kind}[*]"


@dataclasses.dataclass(frozen=True)
class _RateFault(MessageFault):
    """A message fault whose intensity is a probability ``rate`` in (0, 1]."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")

    @property
    def intensity(self) -> float:
        return float(self.rate)


@dataclasses.dataclass(frozen=True)
class MessageDrop(_RateFault):
    """Bus messages vanish in transit with probability ``rate``."""

    rate: float = 0.3

    kind: typing.ClassVar[str] = "message_drop"


@dataclasses.dataclass(frozen=True)
class MessageDuplicate(_RateFault):
    """Delivered bus messages are cloned with probability ``rate``."""

    rate: float = 0.3

    kind: typing.ClassVar[str] = "message_duplicate"


@dataclasses.dataclass(frozen=True)
class MessageDelay(MessageFault):
    """Bus publishes stall ``delay_s`` before enqueueing."""

    delay_s: float = 2.0

    kind: typing.ClassVar[str] = "message_delay"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay_s <= 0.0:
            raise ValueError("delay_s must be > 0")

    @property
    def intensity(self) -> float:
        return float(self.delay_s)


@dataclasses.dataclass(frozen=True)
class MessageReorder(_RateFault):
    """Bus messages jump the queue with probability ``rate``."""

    rate: float = 0.5

    kind: typing.ClassVar[str] = "message_reorder"


@dataclasses.dataclass(frozen=True)
class TopicPartition(MessageFault):
    """Bus topics stop delivering for the window; healing drains them.

    Redelivery timers keep firing during the partition but re-queued
    messages stay parked, so a long partition can exhaust a message's
    redelivery budget — exactly the at-least-once-then-give-up semantics
    the dead-letter path exists for.
    """

    kind: typing.ClassVar[str] = "topic_partition"


MESSAGE_FAULT_KINDS = ("drop", "duplicate", "delay", "reorder", "partition")
# The intensity range each randomized message fault is drawn from.
MESSAGE_FAULT_RANGES = {
    "drop": (0.1, 0.6), "duplicate": (0.1, 0.5), "delay": (0.5, 5.0), "reorder": (0.2, 0.8),
}


def draw_intensity(rng: random.Random, kind: str, ranges: dict) -> float:
    """A uniform draw from ``ranges[kind]``; 0.0 (no draw) for kinds without one."""
    return rng.uniform(*ranges[kind]) if kind in ranges else 0.0


def message_fault(
    kind: str, intensity: float, start_s: float, duration_s: float
) -> MessageFault:
    """One message-fault window on every topic, by short kind name.

    ``intensity`` is the drop/duplicate/reorder rate, or the delay in
    seconds for ``delay``; a ``partition`` ignores it.
    """
    if kind == "drop":
        return MessageDrop(start_s, duration_s, rate=intensity)
    if kind == "duplicate":
        return MessageDuplicate(start_s, duration_s, rate=intensity)
    if kind == "delay":
        return MessageDelay(start_s, duration_s, delay_s=intensity)
    if kind == "reorder":
        return MessageReorder(start_s, duration_s, rate=intensity)
    if kind == "partition":
        return TopicPartition(start_s, duration_s)
    raise ValueError(f"unknown message fault kind {kind!r}; known: {MESSAGE_FAULT_KINDS}")


SPEC_KINDS: dict[str, type[FaultSpec]] = {
    spec.kind: spec
    for spec in (
        HostFlap,
        AgentDegrade,
        DbSlowdown,
        DatastoreOutage,
        CopyFlakiness,
        ShardCrash,
        ServerCrash,
        MessageDrop,
        MessageDuplicate,
        MessageDelay,
        MessageReorder,
        TopicPartition,
    )
}


class FaultSchedule:
    """An ordered set of fault windows driven by one injector run."""

    def __init__(self, specs: typing.Iterable[FaultSpec] = ()) -> None:
        self._specs: list[FaultSpec] = []
        for spec in specs:
            self.add(spec)

    def add(self, spec: FaultSpec) -> "FaultSchedule":
        if not isinstance(spec, FaultSpec):
            raise TypeError(f"expected a FaultSpec, got {type(spec).__name__}")
        self._specs.append(spec)
        return self

    @property
    def specs(self) -> list[FaultSpec]:
        return list(self._specs)

    @property
    def horizon_s(self) -> float:
        """Time by which every window has been disarmed."""
        return max((spec.end_s for spec in self._specs), default=0.0)

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> typing.Iterator[FaultSpec]:
        return iter(self._specs)

    def ground_truth(self) -> GroundTruthManifest:
        """The *planned* injection oracle: one window per spec.

        Targets are the requested names; random picks stay unresolved
        (empty tuples) — use
        :meth:`~repro.faults.injector.FaultInjector.ground_truth` for the
        names actually drawn at arm time.
        """
        return GroundTruthManifest(window_from_spec(spec) for spec in self._specs)


def standard_fault_schedule(duration_s: float, scale: float = 1.0) -> FaultSchedule:
    """The R-X3 reference schedule, phased across ``duration_s``.

    Three overlapping stress phases: an early host-flap window, a long
    agent degradation running to near the end of the window (the
    expensive one: latency inflation turns calls into timeout storms, and
    slow/dropped calls back up behind the degraded agents' op slots), and
    a late database slowdown, plus copy flakiness covering the middle of
    the degradation. ``scale`` widens the blast radius (host counts and
    rates) for harsher ablations.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    count = max(1, round(2 * scale))
    return FaultSchedule(
        [
            HostFlap(
                start_s=0.10 * duration_s, duration_s=0.20 * duration_s, count=count
            ),
            AgentDegrade(
                start_s=0.25 * duration_s,
                duration_s=0.70 * duration_s,
                count=max(1, round(3 * scale)),
                latency_factor=12.0 * scale,
                drop_rate=min(0.9, 0.45 * scale),
            ),
            DbSlowdown(
                start_s=0.55 * duration_s, duration_s=0.20 * duration_s, factor=3.0
            ),
            CopyFlakiness(
                start_s=0.30 * duration_s,
                duration_s=0.30 * duration_s,
                fail_rate=min(0.9, 0.30 * scale),
            ),
            DatastoreOutage(
                start_s=0.45 * duration_s, duration_s=0.10 * duration_s, count=1
            ),
        ]
    )


def random_fault_schedule(
    rng: random.Random,
    duration_s: float,
    max_specs: int = 6,
) -> FaultSchedule:
    """A randomized schedule for property tests: any mix of fault kinds,
    windows anywhere in ``[0, duration_s)``, always bounded.

    Message-fault kinds target mediated buses only; on direct-call rigs
    they arm as no-ops, so the same schedule runs on either topology.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    schedule = FaultSchedule()
    for _ in range(rng.randint(1, max_specs)):
        start = rng.uniform(0.0, duration_s * 0.8)
        duration = rng.uniform(duration_s * 0.05, duration_s * 0.5)
        kind = rng.choice(
            ["host_flap", "agent_degrade", "db_slowdown", "copy_flakiness",
             "datastore_outage", "shard_crash", "server_crash", *MESSAGE_FAULT_KINDS]
        )
        if kind == "host_flap":
            schedule.add(HostFlap(start, duration, count=rng.randint(1, 3)))
        elif kind == "agent_degrade":
            schedule.add(
                AgentDegrade(
                    start,
                    duration,
                    count=rng.randint(1, 3),
                    latency_factor=rng.uniform(2.0, 20.0),
                    drop_rate=rng.uniform(0.1, 0.8),
                )
            )
        elif kind == "db_slowdown":
            schedule.add(DbSlowdown(start, duration, factor=rng.uniform(1.5, 6.0)))
        elif kind == "copy_flakiness":
            schedule.add(CopyFlakiness(start, duration, fail_rate=rng.uniform(0.1, 0.9)))
        elif kind == "datastore_outage":
            schedule.add(DatastoreOutage(start, duration, count=1))
        elif kind == "shard_crash":
            schedule.add(ShardCrash(start, duration, count=1))
        elif kind == "server_crash":
            schedule.add(ServerCrash(start, duration, count=1))
        else:
            intensity = draw_intensity(rng, kind, MESSAGE_FAULT_RANGES)
            schedule.add(message_fault(kind, intensity, start, duration))
    return schedule
