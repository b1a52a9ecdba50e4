"""The task manager: admission, dispatch, and lifecycle of management tasks.

Every operation becomes a Task: created (DB write), queued behind the
datacenter-wide in-flight limit, executed, and committed (DB write). The
task queue depth over time is R-F7; per-type task latencies feed R-F2.

The resilience layer lives here: an optional
:class:`~repro.controlplane.resilience.RetryPolicy` re-runs task bodies
that fail with transient errors (exponential backoff + jitter, bounded by
a global :class:`~repro.controlplane.resilience.RetryBudget`), optional
per-task deadlines bound queue wait and forbid retries past the deadline,
and retryable failures that exhaust their attempts/budget/deadline leave a
:class:`~repro.controlplane.resilience.DeadLetter` record — the retry
machinery never gives up silently. Observable via the ``retries``,
``dead_letter``, ``deadline_exceeded``, and ``retry_budget_denied``
ids under the manager's telemetry scope.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import typing

from repro.sim.events import AnyOf
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.sim.stats import Gauge
from repro.controlplane.database import DatabaseModel
from repro.controlplane.resilience import (
    DeadLetter,
    RetryBudget,
    RetryPolicy,
    TaskDeadlineExceeded,
)
from repro.faults.errors import crash_cause
from repro.telemetry.metrics import NULL_SCOPE
from repro.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    PHASE_QUEUE,
    PHASE_RETRY,
    PHASE_TASK,
)


class TaskState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUCCESS = "success"
    ERROR = "error"


@dataclasses.dataclass
class Task:
    """One management task's lifecycle record."""

    task_id: int
    op_type: str
    submitted_at: float
    priority: float = 5.0
    state: TaskState = TaskState.QUEUED
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    # Absolute sim time by which the task must finish (None = no deadline).
    deadline: float | None = None
    # Body executions so far (1 = no retries).
    attempts: int = 0
    # Per-phase attribution filled in by the operation: (phase, plane, seconds).
    phases: list[tuple[str, str, float]] = dataclasses.field(default_factory=list)
    # Operation-specific payload (e.g. the created VM for clones).
    result: typing.Any = None
    # Current tracing span for the task's work (the root span outside
    # attempts, the attempt span while a body runs; NULL_SPAN untraced).
    span: typing.Any = NULL_SPAN
    # The submitting operation, when known — crash recovery probes it for
    # ground truth (repr suppressed: operations back-reference the server).
    operation: typing.Any = dataclasses.field(default=None, repr=False)

    @property
    def queue_wait(self) -> float:
        if self.started_at is None:
            raise RuntimeError("task not started")
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("task not finished")
        return self.finished_at - self.submitted_at

    def plane_seconds(self, plane: str) -> float:
        """Total attributed seconds on one plane ('control' or 'data')."""
        return sum(seconds for _, p, seconds in self.phases if p == plane)


class NullJournal:
    """Journal disabled: every append is a no-op, every query is empty.

    The off switch for :class:`~repro.controlplane.recovery.TaskJournal`
    lives here, with its one consumer, so a run without a journal never
    loads the recovery module.
    """

    def record_admit(self, task: Task) -> None:
        pass

    def record_dispatch(self, task: Task, attempt: int) -> None:
        pass

    def record_terminal(self, task: Task, dead_letter: bool = False) -> None:
        pass

    def terminal_record(self, task_id: int) -> None:
        return None

    def open_task_ids(self) -> list[int]:
        return []

    def terminal_counts(self) -> dict[int, int]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_JOURNAL = NullJournal()


class TaskManager:
    """Admits tasks under the in-flight limit and records their lifecycle."""

    def __init__(
        self,
        sim: Simulator,
        database: DatabaseModel,
        max_inflight: int,
        per_type_limits: typing.Mapping[str, int] | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | None = None,
        task_deadline_s: float | None = None,
        rng: random.Random | None = None,
        tracer=None,
        telemetry=None,
    ) -> None:
        if task_deadline_s is not None and task_deadline_s <= 0:
            raise ValueError("task_deadline_s must be positive")
        self.sim = sim
        self.database = database
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dispatch = Resource(sim, capacity=max_inflight, name="task-dispatch")
        self._type_limits: dict[str, Resource] = {
            op_type: Resource(sim, capacity=limit, name=f"limit:{op_type}")
            for op_type, limit in (per_type_limits or {}).items()
        }
        self.retry_policy = retry_policy
        self.retry_budget = retry_budget
        self.task_deadline_s = task_deadline_s
        self.rng = rng or random.Random(0xACE)
        self.tasks: list[Task] = []
        self.dead_letters: list[DeadLetter] = []
        self._dead_lettered: set[int] = set()
        self._next_id = 0
        # Retries granted (chaos sweeps read it; the scope exports it too).
        self.retries = 0
        # Time-weighted queue depth: R-F7's series and mean.
        self.depth = Gauge(sim, "queue_depth")
        # Crash-recovery attachments, wired by ManagementServer after
        # construction: the write-ahead journal (NULL_JOURNAL = off, the
        # schedule-neutral default) and the recovery manager that parks
        # crash-interrupted task processes until the journal replays.
        self.journal = NULL_JOURNAL
        self.recovery = None
        # Telemetry handles, grabbed once (all NULL_METRIC when disabled —
        # the hot path pays one no-op bound-method call per event): the
        # hub's families, then the ids under this manager's scope
        # (``vc-1.tasks.retries``), which join the scrape at first write.
        self._scope = telemetry if telemetry is not None else NULL_SCOPE
        hub = self._scope.hub
        self._t_success = hub.counter("tasks_completed_total", outcome="success")
        self._t_error = hub.counter("tasks_completed_total", outcome="error")
        self._t_retries_total = hub.counter("tasks_retries_total")
        self._t_dead_letter_total = hub.counter("tasks_dead_letter_total")
        self._t_latency = hub.histogram("tasks_latency_s")
        scope = self._scope
        self._t_insert_failures = scope.counter("insert_failures")
        self._t_deadline_exceeded = scope.counter("deadline_exceeded")
        self._t_crash_reissues = scope.counter("crash_reissues")
        self._t_retries = scope.counter("retries")
        self._t_crash_parked = scope.counter("crash_parked")
        self._t_crash_adopted = scope.counter("crash_adopted")
        self._t_retry_budget_denied = scope.counter("retry_budget_denied")
        self._t_dead_letter_deduped = scope.counter("dead_letter_deduped")
        self._t_dead_letter = scope.counter("dead_letter")
        self._t_completion_write_failures = scope.counter("completion_write_failures")
        self._t_latency_all = scope.duration("latency.all")
        # op type -> its (retries, completed, latency) handles.
        self._t_by_op: dict[str, tuple] = {}
        scope.probe("queue_depth", lambda: self.depth.value)

    def run_task(
        self,
        op_type: str,
        body: typing.Callable[[Task], typing.Generator],
        priority: float = 5.0,
        parent_span=NULL_SPAN,
        operation=None,
    ) -> typing.Generator[typing.Any, typing.Any, Task]:
        """Process-style: run ``body(task)`` under the task lifecycle.

        The body is a process generator; its phases should be appended to
        ``task.phases``. Transient failures are retried per the configured
        :class:`RetryPolicy`; terminal failures mark the task ERROR,
        record a dead letter, and re-raise.

        With tracing enabled the task gets a root span (a child of
        ``parent_span`` when the caller — e.g. the cloud director — is
        itself traced), one ``attempt-N`` child per body execution, and
        explicit dispatch-wait/backoff spans. ``task.span`` always points
        at the span operation phases should attach to; after the task
        finishes it is the (finished) root span.
        """
        self._next_id += 1
        task = Task(
            task_id=self._next_id,
            op_type=op_type,
            submitted_at=self.sim.now,
            priority=priority,
            operation=operation,
        )
        if self.task_deadline_s is not None:
            task.deadline = task.submitted_at + self.task_deadline_s
        self.tasks.append(task)
        root_span = self.tracer.start_span(
            f"task.{op_type}",
            phase=PHASE_TASK,
            parent=None if parent_span.is_null else parent_span,
            tags={"task_id": task.task_id, "op_type": op_type},
        )
        task.span = root_span
        try:
            yield from self._run_task_traced(task, op_type, body, priority)
        finally:
            task.span = root_span
            error_name = None
            if task.state is TaskState.ERROR and task.error:
                error_name = task.error.split(":", 1)[0]
            root_span.annotate("attempts", task.attempts)
            root_span.finish(error=error_name)
        return task

    def _run_task_traced(
        self,
        task: Task,
        op_type: str,
        body: typing.Callable[[Task], typing.Generator],
        priority: float,
    ) -> typing.Generator[typing.Any, typing.Any, Task]:
        root_span = task.span
        # Task-row insert happens before dispatch: even rejected/queued work
        # costs the database. If the database itself is faulted the task
        # never existed as far as dispatch is concerned — fail it terminally
        # rather than stranding it QUEUED.
        try:
            yield from self.database.write(rows=1, span=root_span)
        except Exception as error:
            # A crash interrupt during the insert means the task was never
            # admitted: surface ServerCrashed (transient) so the caller may
            # resubmit — nothing was journaled, so nothing can duplicate.
            cause = crash_cause(error)
            if cause is not None:
                error = cause
            self._fail_terminally(task, error)
            self._t_insert_failures.add()
            raise error
        self.journal.record_admit(task)
        if self.retry_budget is not None:
            self.retry_budget.deposit()
        self.depth.add(1)
        # Per-category cap first (if configured), then the global limit —
        # matching the real dispatch order (a capped clone can't consume a
        # datacenter-wide slot while waiting on its category). Queue waits
        # are bounded by the task deadline: a request still queued at the
        # deadline is withdrawn and the task dead-lettered.
        granted: list[tuple[Resource, typing.Any]] = []
        traced = not root_span.is_null
        wait_span = (
            root_span.child("task.dispatch_wait", phase=PHASE_QUEUE, tags={"wait": True})
            if traced
            else root_span
        )
        while True:
            try:
                type_pool = self._type_limits.get(op_type)
                if type_pool is not None:
                    yield from self._acquire(type_pool, priority, task, granted)
                yield from self._acquire(self.dispatch, priority, task, granted)
                break
            except TaskDeadlineExceeded as error:
                wait_span.finish(error=type(error).__name__)
                self.depth.add(-1)
                for pool, request in granted:
                    pool.release(request)
                self._t_deadline_exceeded.add()
                self._fail_terminally(task, error)
                yield from self._finalize(task)
                raise
            except Exception as error:
                # A crash interrupt while queued: the in-flight request is
                # already withdrawn (by the kernel for a bare wait, by
                # _acquire for a deadline-bounded one); give back any slot
                # we did win, park until the journal replays, then requeue.
                if crash_cause(error) is None:
                    raise
                for pool, request in granted:
                    pool.release(request)
                granted.clear()
                yield from self._park(task, "dispatch")
        wait_span.finish()
        self.depth.add(-1)
        task.state = TaskState.RUNNING
        task.started_at = self.sim.now
        try:
            while True:
                task.attempts += 1
                self.journal.record_dispatch(task, task.attempts)
                attempt_span = (
                    root_span.child(f"attempt-{task.attempts}", phase=PHASE_TASK)
                    if traced
                    else root_span
                )
                task.span = attempt_span
                try:
                    try:
                        yield from body(task)
                    except Exception as error:
                        attempt_span.finish(error=type(error).__name__)
                        cause = crash_cause(error)
                        if cause is not None:
                            # The server crashed mid-attempt. Park until the
                            # journal replays; the verdict says whether the
                            # half-done work survived. A re-issue does not
                            # consume retry budget — the crash was the
                            # server's fault, not the attempt's.
                            verdict = yield from self._park(task, "attempt")
                            if self._settle(task, verdict, cause):
                                break
                            self._t_crash_reissues.add()
                            continue
                        delay = self._retry_delay(task, error)
                        if delay is None:
                            task.state = TaskState.ERROR
                            task.error = f"{type(error).__name__}: {error}"
                            self._record_dead_letter(task, error)
                            raise
                        self.retries += 1
                        self._t_retries.add()
                        self._op_handles(op_type)[0].add()
                        self._t_retries_total.add()
                        if delay > 0:
                            backoff_span = (
                                root_span.child(
                                    "task.backoff", phase=PHASE_RETRY, tags={"wait": True}
                                )
                                if traced
                                else root_span
                            )
                            try:
                                yield self.sim.timeout(delay)
                            except Exception as backoff_error:
                                cause = crash_cause(backoff_error)
                                if cause is None:
                                    backoff_span.finish(
                                        error=type(backoff_error).__name__
                                    )
                                    raise
                                backoff_span.finish(error=type(cause).__name__)
                                verdict = yield from self._park(task, "backoff")
                                if self._settle(task, verdict, cause):
                                    break
                                self._t_crash_reissues.add()
                                continue
                            backoff_span.finish()
                    else:
                        attempt_span.finish()
                        task.state = TaskState.SUCCESS
                        break
                finally:
                    task.span = root_span
        finally:
            self.dispatch.release(granted[-1][1])
            for pool, request in granted[:-1]:
                pool.release(request)
            yield from self._finalize(task)

    # -- lifecycle helpers ---------------------------------------------------

    def _acquire(
        self,
        pool: Resource,
        priority: float,
        task: Task,
        granted: list,
    ) -> typing.Generator:
        """Request a slot, bounded by the task deadline (if any)."""
        request = pool.request(priority=priority)
        if task.deadline is None:
            yield request
        else:
            remaining = task.deadline - self.sim.now
            if remaining <= 0:
                request.withdraw()
                raise TaskDeadlineExceeded(
                    f"task {task.task_id} ({task.op_type}) hit its deadline "
                    f"before dispatch"
                )
            timer = self.sim.timeout(remaining)
            try:
                yield AnyOf(self.sim, [request, timer])
            except Exception:
                # The kernel withdraws only a request yielded bare; one
                # waited on through a condition is ours to give back.
                if request.triggered:
                    pool.release(request)
                else:
                    request.withdraw()
                raise
            if not request.triggered:
                request.withdraw()
                raise TaskDeadlineExceeded(
                    f"task {task.task_id} ({task.op_type}) queued past its "
                    f"deadline ({self.task_deadline_s:.0f}s)"
                )
        granted.append((pool, request))

    def _park(self, task: Task, stage: str) -> typing.Generator[typing.Any, typing.Any, str]:
        """Wait out a crash window; return the reconciliation verdict."""
        if self.recovery is None:
            raise RuntimeError(
                f"task {task.task_id} crash-interrupted but no recovery "
                f"manager is attached"
            )
        self._t_crash_parked.add()
        verdict = yield from self.recovery.park(task, stage)
        return verdict

    def _settle(self, task: Task, verdict: str, cause: BaseException) -> bool:
        """Apply a post-replay verdict inside the attempt loop.

        True = task done (orphaned work adopted); False = re-issue the
        attempt. A ``failed`` verdict (the journal already holds a terminal
        error record for this task) re-raises the crash cause — the dead
        letter, if any, was recorded before the crash and is never
        duplicated (see :meth:`_record_dead_letter`).
        """
        # Only a parked task gets here, so the recovery module is loaded.
        from repro.controlplane.recovery import VERDICT_ADOPT, VERDICT_FAILED

        if verdict == VERDICT_ADOPT:
            task.state = TaskState.SUCCESS
            self._t_crash_adopted.add()
            return True
        if verdict == VERDICT_FAILED:
            record = self.journal.terminal_record(task.task_id)
            task.state = TaskState.ERROR
            if record is not None and record.error:
                task.error = record.error
            else:
                task.error = f"{type(cause).__name__}: {cause}"
            raise cause
        return False

    def _retry_delay(self, task: Task, error: BaseException) -> float | None:
        """Backoff before the next attempt, or None to fail terminally."""
        policy = self.retry_policy
        if policy is None or not policy.retryable(error):
            return None
        if task.attempts >= policy.max_attempts:
            return None
        if self.retry_budget is not None and not self.retry_budget.withdraw():
            self._t_retry_budget_denied.add()
            return None
        delay = policy.backoff_s(task.attempts, self.rng)
        if task.deadline is not None and self.sim.now + delay >= task.deadline:
            # A retry that cannot finish by the deadline only deepens the
            # backlog; give up now.
            self._t_deadline_exceeded.add()
            return None
        return delay

    def _fail_terminally(self, task: Task, error: BaseException) -> None:
        task.state = TaskState.ERROR
        task.error = f"{type(error).__name__}: {error}"
        task.finished_at = self.sim.now
        self._record_dead_letter(task, error)

    def _record_dead_letter(self, task: Task, error: BaseException) -> None:
        """Record work the retry machinery gave up on.

        Dead letters are retryable failures that exhausted their attempts,
        budget, or deadline: work the resilience layer promised to mask and
        couldn't. Non-retryable errors (business failures, host-pinned
        preconditions) pass through as plain task errors for the caller to
        handle — e.g. the cloud director re-places them on another host.
        Without a retry policy there is no promise, hence no dead letters.

        Deduplicated against the journal: a task whose terminal record was
        already journaled (it died during a crash window and the record
        survived) must not grow a second dead letter on replay — the
        journal's terminal record wins.
        """
        if self.retry_policy is None or not self.retry_policy.retryable(error):
            return
        if (
            task.task_id in self._dead_lettered
            or self.journal.terminal_record(task.task_id) is not None
        ):
            self._t_dead_letter_deduped.add()
            return
        self._dead_lettered.add(task.task_id)
        self.dead_letters.append(
            DeadLetter(
                task_id=task.task_id,
                op_type=task.op_type,
                submitted_at=task.submitted_at,
                failed_at=self.sim.now,
                attempts=task.attempts,
                error=task.error or "",
            )
        )
        self._t_dead_letter.add()
        self._t_dead_letter_total.add()

    def record_message_dead_letter(self, task: Task, error: BaseException) -> None:
        """Bus-level dead letter for a task-linked message: one shared sink.

        The message bus points its ``dead_letter_sink`` here so bus sheds
        and resilience-layer dead letters are counted once, through the
        same dedup (``_dead_lettered`` + the journal's terminal record).
        Only a terminally-failed task records anything: while the task is
        live, a lost message surfaces as :class:`MessageLost` through the
        reply and the retry machinery owns the outcome — if *it* gives up,
        the ordinary ``_record_dead_letter`` path fires with this dedup
        guaranteeing no double count.
        """
        if task is None or task.state is not TaskState.ERROR:
            return
        self._record_dead_letter(task, error)

    def _finalize(self, task: Task) -> typing.Generator:
        """Completion row + metrics + event post; never masks the outcome."""
        if task.finished_at is None:
            task.finished_at = self.sim.now
        # Journal the terminal state ahead of the completion row (it is the
        # write-ahead record the row makes durable). Idempotent: replay
        # paths may have journaled it already.
        self.journal.record_terminal(
            task, dead_letter=task.task_id in self._dead_lettered
        )
        # Completion row: state transition + result payload. A faulted
        # database must not turn a finished task's outcome into a new
        # exception — count and move on.
        try:
            yield from self.database.write(rows=1, span=task.span)
        except Exception:
            self._t_completion_write_failures.add()
        _, completed, latency = self._op_handles(task.op_type)
        completed.add()
        latency.observe(task.latency)
        self._t_latency_all.observe(task.latency)
        outcome = self._t_success if task.state is TaskState.SUCCESS else self._t_error
        outcome.add()
        self._t_latency.observe(
            task.latency,
            trace_id=None if task.span.is_null else task.span.trace_id,
        )

    def _op_handles(self, op_type: str) -> tuple:
        """One op type's (retries, completed, latency) handles, made on
        first use; each joins the scrape at its own first write."""
        handles = self._t_by_op.get(op_type)
        if handles is None:
            scope = self._scope
            handles = self._t_by_op[op_type] = (
                scope.counter(f"retries.{op_type}"),
                scope.counter(f"completed.{op_type}"),
                scope.duration(f"latency.{op_type}"),
            )
        return handles

    # -- reporting ----------------------------------------------------------

    def completed(self, op_type: str | None = None) -> list[Task]:
        done = [t for t in self.tasks if t.state in (TaskState.SUCCESS, TaskState.ERROR)]
        if op_type is None:
            return done
        return [t for t in done if t.op_type == op_type]

    def succeeded(self, op_type: str | None = None) -> list[Task]:
        return [t for t in self.completed(op_type) if t.state == TaskState.SUCCESS]

    def failed(self) -> list[Task]:
        return [t for t in self.tasks if t.state == TaskState.ERROR]

    def unaccounted(self) -> list[Task]:
        """Tasks neither finished nor dead-lettered (should be empty at
        quiescence — the R-X3 acceptance check)."""
        return [
            t
            for t in self.tasks
            if t.state not in (TaskState.SUCCESS, TaskState.ERROR)
        ]

    def assert_accounted(self) -> None:
        """Hard post-run invariant: every task reached a terminal state.

        Exhibits and the quiescence property call this after their run
        drains — a lost task fails loudly here instead of silently
        shrinking goodput.
        """
        stranded = self.unaccounted()
        if stranded:
            detail = ", ".join(
                f"task-{t.task_id}({t.op_type}:{t.state.value})"
                for t in stranded[:10]
            )
            more = "" if len(stranded) <= 10 else f" (+{len(stranded) - 10} more)"
            raise RuntimeError(
                f"{len(stranded)} unaccounted task(s) after run: {detail}{more}"
            )

    @property
    def queue_depth(self) -> float:
        return self.depth.value

    def queue_depth_series(self) -> list[tuple[float, float]]:
        return self.depth.series()
