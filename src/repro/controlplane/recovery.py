"""Crash recovery: the durable task journal and the restart reconciler.

The management server is itself a single point of failure; this module
makes its crash a *modeled* fault rather than an impossibility. Three
pieces:

- :class:`TaskJournal` — a write-ahead journal of task lifecycle records
  (admit / per-attempt dispatch / terminal), layered on the rows the task
  manager already writes through :class:`~repro.controlplane.database
  .DatabaseModel`: the admit record becomes durable with the task-row
  insert, dispatch records ride the same WAL, and the terminal record
  rides the completion row. Journal appends are therefore synchronous
  in-memory bookkeeping — they charge **no additional simulated time**,
  so a journal-on run is schedule-identical to a journal-off run (the
  differential test in ``tests/controlplane/test_journal_neutrality.py``
  holds this to byte identity). :data:`NULL_JOURNAL` is the zero-cost
  off switch, mirroring ``NULL_TRACER`` / ``NULL_TELEMETRY``.

- :class:`RecoveryManager` — parks task processes that a
  :class:`~repro.faults.schedule.ServerCrash` window interrupts, and on
  restart replays the journal (a database read sized to the journal) and
  reconciles each parked task against host/inventory ground truth:
  *adopt* orphaned completed work, *roll back* half-done placements,
  *re-issue* idempotent attempts, *requeue* tasks that never dispatched.
  A journal terminal record always wins over reconciliation — replay
  never re-issues (or re-dead-letters) a task that already reached a
  terminal state.

- the **exactly-once invariant** (checked by ``repro.faults.chaos``):
  every admitted task ends in exactly one terminal state — succeeded or
  failed (dead-lettered when the retry machinery owned it) — with no
  duplicate terminal records, no duplicate dead letters, and no
  duplicate placed VMs from re-issued attempts.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.errors import ServerCrashed
from repro.sim.kernel import Event, Interrupt
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.tracing import NULL_TRACER, PHASE_RECOVERY

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.controlplane.task_manager import Task

# Reconciliation verdicts handed back to a parked task process.
VERDICT_ADOPT = "adopt"          # ground truth says the work completed
VERDICT_REISSUE = "reissue"      # re-run the attempt (idempotency key fresh)
VERDICT_REQUEUE = "requeue"      # never dispatched: re-acquire slots
VERDICT_FAILED = "failed"        # journal terminal record says error

# Probe outcomes from an operation's ground-truth inspection.
PROBE_COMPLETE = "complete"
PROBE_PARTIAL = "partial"
PROBE_ABSENT = "absent"


def crash_cause(error: BaseException) -> ServerCrashed | None:
    """The :class:`ServerCrashed` behind ``error``, if it is one.

    Crash interrupts arrive as :class:`~repro.sim.kernel.Interrupt` with a
    ``ServerCrashed`` cause; resources unwound mid-crash may re-raise the
    cause bare. Anything else is not a crash.
    """
    if isinstance(error, Interrupt) and isinstance(error.cause, ServerCrashed):
        return error.cause
    if isinstance(error, ServerCrashed):
        return error
    return None


# --------------------------------------------------------------------------
# The task journal.
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One write-ahead journal entry.

    ``kind`` is ``admit`` / ``dispatch`` / ``terminal``. Dispatch records
    carry the attempt number and an idempotency key
    (``task-<id>:attempt-<n>``) so replay can tell a re-issued attempt
    from a duplicate. Terminal records carry the final state
    (``success`` / ``error``), the error string, and whether a dead
    letter was recorded.
    """

    kind: str
    task_id: int
    op_type: str
    at: float
    attempt: int = 0
    idempotency_key: str = ""
    state: str = ""
    error: str = ""
    dead_letter: bool = False


class TaskJournal:
    """Write-ahead task journal; records piggyback on existing DB writes.

    Appends are plain list/dict updates — no simulated time, no events —
    because each record's durability point is a row the task manager
    already writes (admit insert, completion row); see the module
    docstring. ``enabled`` mirrors the tracer/telemetry pattern so hot
    paths can skip formatting work when off.
    """

    enabled: typing.ClassVar[bool] = True

    def __init__(self) -> None:
        self.records: list[JournalRecord] = []
        self._admits: dict[int, JournalRecord] = {}
        self._dispatches: dict[int, list[JournalRecord]] = {}
        self._terminals: dict[int, JournalRecord] = {}

    # -- appends (write-ahead points) --------------------------------------

    def record_admit(self, task: "Task") -> None:
        """Journal a task admission (rides the task-row insert)."""
        record = JournalRecord(
            kind="admit",
            task_id=task.task_id,
            op_type=task.op_type,
            at=task.submitted_at,
        )
        self.records.append(record)
        self._admits[task.task_id] = record

    def record_dispatch(self, task: "Task", attempt: int) -> None:
        """Journal the start of one attempt, with its idempotency key."""
        record = JournalRecord(
            kind="dispatch",
            task_id=task.task_id,
            op_type=task.op_type,
            at=task.started_at if task.started_at is not None else task.submitted_at,
            attempt=attempt,
            idempotency_key=f"task-{task.task_id}:attempt-{attempt}",
        )
        self.records.append(record)
        self._dispatches.setdefault(task.task_id, []).append(record)

    def record_terminal(self, task: "Task", dead_letter: bool = False) -> None:
        """Journal the terminal state (rides the completion row).

        Idempotent: the first terminal record wins — replay and late
        finalization paths may both reach this point for one task.
        """
        if task.task_id in self._terminals:
            return
        from repro.controlplane.task_manager import TaskState

        record = JournalRecord(
            kind="terminal",
            task_id=task.task_id,
            op_type=task.op_type,
            at=task.finished_at if task.finished_at is not None else task.submitted_at,
            attempt=task.attempts,
            state="success" if task.state is TaskState.SUCCESS else "error",
            error=task.error or "",
            dead_letter=dead_letter,
        )
        self.records.append(record)
        self._terminals[task.task_id] = record

    # -- queries -----------------------------------------------------------

    def admitted(self, task_id: int) -> bool:
        return task_id in self._admits

    def terminal_record(self, task_id: int) -> JournalRecord | None:
        return self._terminals.get(task_id)

    def dispatches(self, task_id: int) -> list[JournalRecord]:
        return list(self._dispatches.get(task_id, ()))

    def open_task_ids(self) -> list[int]:
        """Admitted tasks with no terminal record — replay's worklist."""
        return [tid for tid in self._admits if tid not in self._terminals]

    def terminal_counts(self) -> dict[int, int]:
        """Terminal records per task id (the exactly-once check input).

        The index keeps one terminal per task by construction; this
        recounts from the raw record list so the invariant check cannot
        be fooled by the index itself.
        """
        counts: dict[int, int] = {}
        for record in self.records:
            if record.kind == "terminal":
                counts[record.task_id] = counts.get(record.task_id, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.records)


class NullJournal:
    """Journal disabled: every append is a no-op, every query is empty."""

    enabled: typing.ClassVar[bool] = False
    records: list[JournalRecord] = []

    def record_admit(self, task: "Task") -> None:
        pass

    def record_dispatch(self, task: "Task", attempt: int) -> None:
        pass

    def record_terminal(self, task: "Task", dead_letter: bool = False) -> None:
        pass

    def admitted(self, task_id: int) -> bool:
        return False

    def terminal_record(self, task_id: int) -> None:
        return None

    def dispatches(self, task_id: int) -> list[JournalRecord]:
        return []

    def open_task_ids(self) -> list[int]:
        return []

    def terminal_counts(self) -> dict[int, int]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_JOURNAL = NullJournal()


# --------------------------------------------------------------------------
# The recovery manager.
# --------------------------------------------------------------------------


@dataclasses.dataclass
class CrashEpoch:
    """Bookkeeping for one crash → restart → reconciliation cycle."""

    crashed_at: float
    restarted_at: float | None = None
    recovered_at: float | None = None
    interrupted: int = 0
    replayed_records: int = 0
    parked: int = 0
    adopted: int = 0
    rolled_back: int = 0
    reissued: int = 0
    requeued: int = 0
    from_journal: int = 0

    @property
    def downtime_s(self) -> float:
        if self.restarted_at is None:
            return 0.0
        return self.restarted_at - self.crashed_at

    @property
    def replay_s(self) -> float:
        if self.restarted_at is None or self.recovered_at is None:
            return 0.0
        return self.recovered_at - self.restarted_at


class _ParkedTask:
    """One task process waiting out a crash window."""

    __slots__ = ("task", "stage", "event")

    def __init__(self, task: "Task", stage: str, event: Event) -> None:
        self.task = task
        self.stage = stage
        self.event = event


class RecoveryManager:
    """Replays the journal on restart and reconciles parked tasks.

    Owned by every :class:`ManagementServer` (construction is passive —
    no processes, no events — so a server that never crashes pays
    nothing). The server calls :meth:`on_crash` / :meth:`on_restart`;
    interrupted task processes call :meth:`park` and resume with a
    reconciliation verdict once replay completes.
    """

    def __init__(self, server: "ManagementServer") -> None:
        self.server = server
        self.sim = server.sim
        self.tracer = server.tracer if server.tracer is not None else NULL_TRACER
        self.crashes: list[CrashEpoch] = []
        self._parked: list[_ParkedTask] = []
        self._recover_proc = None
        telemetry = server.telemetry if server.telemetry is not None else NULL_TELEMETRY
        self._t_crashes = telemetry.counter("recovery_crashes_total")
        self._t_parked = telemetry.counter("recovery_parked_total")
        self._t_adopted = telemetry.counter("recovery_adopted_total")
        self._t_reissued = telemetry.counter("recovery_reissued_total")
        self._t_rolled_back = telemetry.counter("recovery_rolled_back_total")
        self._t_requeued = telemetry.counter("recovery_requeued_total")
        self._t_replayed = telemetry.counter("recovery_replayed_records_total")

    # -- introspection -----------------------------------------------------

    @property
    def journal(self):
        return self.server.journal

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    def verdict_totals(self) -> dict[str, int]:
        totals = {"adopted": 0, "rolled_back": 0, "reissued": 0, "requeued": 0}
        for epoch in self.crashes:
            totals["adopted"] += epoch.adopted
            totals["rolled_back"] += epoch.rolled_back
            totals["reissued"] += epoch.reissued
            totals["requeued"] += epoch.requeued
        return totals

    # -- crash / restart hooks (called by ManagementServer) ----------------

    def on_crash(self, interrupted: int) -> CrashEpoch:
        epoch = CrashEpoch(crashed_at=self.sim.now, interrupted=interrupted)
        self.crashes.append(epoch)
        self._t_crashes.add()
        return epoch

    def on_restart(self) -> None:
        """Spawn the reconciliation process for the just-ended downtime."""
        if self.crashes:
            self.crashes[-1].restarted_at = self.sim.now
        if self._recover_proc is not None and self._recover_proc.is_alive:
            return
        self._recover_proc = self.sim.spawn(
            self._recover(), name=f"{self.server.name}:recovery"
        )

    # -- parking (called by TaskManager) -----------------------------------

    def park(self, task: "Task", stage: str) -> typing.Generator[typing.Any, typing.Any, str]:
        """Process-style: wait for the next replay, return its verdict.

        A further crash while parked re-parks for the following restart
        (the interrupt detaches the process from the stale event).
        """
        while True:
            slot = _ParkedTask(
                task, stage, Event(self.sim, name=f"recover:task-{task.task_id}")
            )
            self._parked.append(slot)
            if self.crashes:
                self.crashes[-1].parked += 1
            self._t_parked.add()
            task.span.annotate("parked", stage)
            try:
                verdict = yield slot.event
            except Interrupt as interrupt:
                if crash_cause(interrupt) is None:
                    raise
                if slot in self._parked:
                    self._parked.remove(slot)
                continue
            return verdict

    # -- reconciliation ----------------------------------------------------

    def _recover(self) -> typing.Generator:
        """Replay the journal, then adjudicate every parked task."""
        epoch = self.crashes[-1] if self.crashes else CrashEpoch(crashed_at=self.sim.now)
        span = self.tracer.start_span(
            f"{self.server.name}.recovery",
            phase=PHASE_RECOVERY,
            tags={"parked": len(self._parked)},
        )
        # Journal replay: one scan over the WAL-resident records.
        replay_rows = max(1, len(self.journal))
        epoch.replayed_records = len(self.journal)
        self._t_replayed.add(len(self.journal))
        try:
            yield from self.server.database.read(rows=replay_rows, span=span)
        except Exception:
            # A concurrently-armed DB fault must not strand parked tasks;
            # reconcile from the in-memory journal regardless.
            self.server.metrics.counter("recovery_replay_failures").add()
        while self._parked:
            if self.server.crashed:
                # Crashed again mid-reconciliation: the rest of the parked
                # set belongs to the next restart's replay.
                break
            slot = self._parked.pop(0)
            verdict = self.adjudicate(slot.task, slot.stage, epoch, span)
            # Each reconciliation decision is itself a state write (task row
            # update / orphan cleanup) — charge the database for it.
            try:
                yield from self.server.database.write(rows=1, span=span)
            except Exception:
                self.server.metrics.counter("recovery_replay_failures").add()
            slot.event.succeed(value=verdict)
        epoch.recovered_at = self.sim.now
        span.annotate("adopted", epoch.adopted)
        span.annotate("reissued", epoch.reissued)
        span.annotate("requeued", epoch.requeued)
        span.finish()

    def adjudicate(self, task: "Task", stage: str, epoch: CrashEpoch, span) -> str:
        """One task's verdict: journal terminal record first, then probe.

        The journal terminal record *wins* over any reconciliation — a
        task that reached a terminal state during the crash window is
        never re-issued and never dead-lettered a second time.
        """
        record = self.journal.terminal_record(task.task_id)
        if record is not None:
            epoch.from_journal += 1
            if record.state == "success":
                epoch.adopted += 1
                self._t_adopted.add()
                return VERDICT_ADOPT
            return VERDICT_FAILED
        if stage == "dispatch":
            epoch.requeued += 1
            self._t_requeued.add()
            return VERDICT_REQUEUE
        operation = task.operation
        probe = PROBE_ABSENT
        if operation is not None:
            probe = operation.recovery_probe(self.server, task)
        child = span.child(
            f"reconcile.task-{task.task_id}",
            phase=PHASE_RECOVERY,
            tags={"probe": probe, "stage": stage},
        )
        if probe == PROBE_COMPLETE:
            operation.recovery_adopt(self.server, task)
            epoch.adopted += 1
            self._t_adopted.add()
            child.finish()
            return VERDICT_ADOPT
        if probe == PROBE_PARTIAL:
            operation.recovery_rollback(self.server, task)
            epoch.rolled_back += 1
            self._t_rolled_back.add()
        epoch.reissued += 1
        self._t_reissued.add()
        child.finish()
        return VERDICT_REISSUE
