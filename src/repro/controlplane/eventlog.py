"""The event log and alarm subsystem: write amplification on the database.

Every management task emits events ("VM powered on", "clone completed",
"task failed"); alarms evaluate rules over the inventory and emit more
events on state changes. Event tables were a notorious scaling problem
for era management servers — cloud churn turns each provisioning wave
into an insert flood. The log buffers and flushes in batches, charging
the shared database.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.kernel import Simulator
from repro.sim.stats import MetricsRegistry
from repro.tracing import NULL_TRACER, PHASE_EVENTLOG
from repro.controlplane.database import DatabaseModel

INFO = "info"
WARNING = "warning"
ALERT = "alert"

_SEVERITIES = (INFO, WARNING, ALERT)


@dataclasses.dataclass(frozen=True)
class ManagementEvent:
    """One event-log entry."""

    time: float
    kind: str
    entity_id: str
    severity: str = INFO
    message: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


class EventLog:
    """Buffered event sink flushed to the database in batches."""

    def __init__(
        self,
        sim: Simulator,
        database: DatabaseModel,
        flush_interval_s: float = 10.0,
        max_batch: int = 64,
    ) -> None:
        if flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.sim = sim
        self.database = database
        self.flush_interval_s = flush_interval_s
        self.max_batch = max_batch
        self.metrics = MetricsRegistry(sim, prefix="events")
        # Set by the owning server when tracing is on: flushes get their
        # own root spans (they run outside any task).
        self.tracer = NULL_TRACER
        self.events: list[ManagementEvent] = []
        self._pending: list[ManagementEvent] = []
        self._until: float | None = None
        self._running = False
        self._stopped = False

    def post(
        self,
        kind: str,
        entity_id: str,
        severity: str = INFO,
        message: str = "",
    ) -> ManagementEvent:
        """Append an event (synchronous; the flusher pays the DB cost)."""
        event = ManagementEvent(
            time=self.sim.now,
            kind=kind,
            entity_id=entity_id,
            severity=severity,
            message=message,
        )
        self.events.append(event)
        self._pending.append(event)
        self.metrics.counter("posted").add()
        self.metrics.counter(f"severity.{severity}").add()
        return event

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def active(self) -> bool:
        """True while the log is accepting its flusher's schedule — i.e. it
        has been started and not (explicitly or by its bound) stopped."""
        return self._running and not self._stopped

    def start(self, until: float | None = None) -> None:
        if self._running:
            raise RuntimeError("event flusher already started")
        self._running = True
        self._stopped = False
        self._until = until
        self.sim.spawn(self._flusher(), name="event-flusher")

    def stop(self) -> None:
        """Stop logging now; the flusher drains the backlog then exits.

        After a stop the owning server may enable a fresh log (what-if
        replays toggle logging around the window of interest).
        """
        self._until = self.sim.now
        self._stopped = True

    def flush_once(self) -> typing.Generator[typing.Any, typing.Any, int]:
        """Process-style: write up to ``max_batch`` pending events."""
        if not self._pending:
            return 0
        batch, self._pending = (
            self._pending[: self.max_batch],
            self._pending[self.max_batch :],
        )
        span = self.tracer.start_trace(
            "eventlog.flush", phase=PHASE_EVENTLOG, tags={"events": len(batch)}
        )
        try:
            # One row per event; the batch is never empty here.
            yield from self.database.write(rows=len(batch), span=span)
        except BaseException as exc:
            span.finish(error=type(exc).__name__)
            raise
        span.finish()
        self.metrics.counter("flushed").add(len(batch))
        self.metrics.counter("flush_batches").add()
        return len(batch)

    def _flusher(self) -> typing.Generator:
        try:
            while True:
                yield self.sim.timeout(self.flush_interval_s)
                drained = yield from self.flush_once()
                if self._until is not None and self.sim.now >= self._until and not self._pending:
                    return
                # Keep draining big backlogs without waiting a full interval.
                while drained and self._pending:
                    drained = yield from self.flush_once()
        finally:
            self._running = False
            self._stopped = True

    # -- queries ----------------------------------------------------------------

    def by_severity(self, severity: str) -> list[ManagementEvent]:
        return [event for event in self.events if event.severity == severity]

    def by_kind(self, kind: str) -> list[ManagementEvent]:
        return [event for event in self.events if event.kind == kind]


@dataclasses.dataclass(frozen=True)
class AlarmRule:
    """A named predicate over one entity kind."""

    name: str
    entity_kind: str  # "host" | "datastore"
    predicate: typing.Callable[[typing.Any], bool]
    severity: str = WARNING


def datastore_usage_rule(threshold: float = 0.90) -> AlarmRule:
    """Fires when a datastore exceeds ``threshold`` fraction used."""
    return AlarmRule(
        name=f"datastore-usage>{threshold:.0%}",
        entity_kind="datastore",
        predicate=lambda ds: ds.capacity_gb > 0
        and ds.used_gb / ds.capacity_gb > threshold,
        severity=ALERT,
    )


def host_memory_rule(threshold: float = 0.90) -> AlarmRule:
    """Fires when a host's admitted memory exceeds ``threshold`` of limit."""
    return AlarmRule(
        name=f"host-memory>{threshold:.0%}",
        entity_kind="host",
        predicate=lambda host: host.memory_limit_gb > 0
        and host.memory_in_use_gb / host.memory_limit_gb > threshold,
        severity=WARNING,
    )


class AlarmManager:
    """Periodically evaluates rules over the inventory, posting events on
    state transitions (trigger and clear), like the real alarm service."""

    def __init__(
        self,
        server,
        event_log: EventLog,
        rules: typing.Sequence[AlarmRule] = (),
        check_interval_s: float = 60.0,
    ) -> None:
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        self.server = server
        self.event_log = event_log
        self.rules = list(rules) or [datastore_usage_rule(), host_memory_rule()]
        self.check_interval_s = check_interval_s
        self.metrics = MetricsRegistry(server.sim, prefix="alarms")
        self._active: set[tuple[str, str]] = set()  # (rule, entity_id)
        self._until: float | None = None
        self._running = False

    def _entities(self, kind: str) -> list:
        from repro.datacenter.entities import Datastore, Host

        entity_type = {"host": Host, "datastore": Datastore}[kind]
        return sorted(
            self.server.inventory.all(entity_type), key=lambda e: e.entity_id
        )

    @property
    def active(self) -> set[tuple[str, str]]:
        return set(self._active)

    def evaluate_once(self) -> int:
        """Evaluate all rules; post transition events. Returns changes."""
        changes = 0
        for rule in self.rules:
            for entity in self._entities(rule.entity_kind):
                key = (rule.name, entity.entity_id)
                firing = bool(rule.predicate(entity))
                if firing and key not in self._active:
                    self._active.add(key)
                    self.event_log.post(
                        f"alarm.triggered.{rule.name}",
                        entity.entity_id,
                        severity=rule.severity,
                    )
                    self.metrics.counter("triggered").add()
                    changes += 1
                elif not firing and key in self._active:
                    self._active.discard(key)
                    self.event_log.post(
                        f"alarm.cleared.{rule.name}", entity.entity_id, severity=INFO
                    )
                    self.metrics.counter("cleared").add()
                    changes += 1
        return changes

    def start(self, until: float | None = None) -> None:
        if self._running:
            raise RuntimeError("alarm manager already started")
        self._running = True
        self._until = until
        self.server.sim.spawn(self._loop(), name="alarms")

    def _loop(self) -> typing.Generator:
        sim = self.server.sim
        while True:
            yield sim.timeout(self.check_interval_s)
            if self._until is not None and sim.now >= self._until:
                return
            self.evaluate_once()
