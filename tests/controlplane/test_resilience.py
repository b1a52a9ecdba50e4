"""Unit tests for retry policies, breakers, and dead letters."""

import random

import pytest

from repro.controlplane import TaskState
from repro.controlplane.resilience import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    NO_RETRY,
    RetryPolicy,
    TaskDeadlineExceeded,
)
from repro.controlplane.task_manager import TaskManager
from repro.faults import InjectedFault, TransientError
from repro.telemetry.metrics import Telemetry
from tests.scoped import scoped


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_multiplier"):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError, match="max_backoff_s"):
            RetryPolicy(base_backoff_s=10.0, max_backoff_s=5.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_deterministic_without_jitter(self):
        policy = RetryPolicy(base_backoff_s=1.0, backoff_multiplier=2.0,
                             max_backoff_s=5.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_s(1, rng) == 1.0
        assert policy.backoff_s(2, rng) == 2.0
        assert policy.backoff_s(3, rng) == 4.0
        assert policy.backoff_s(4, rng) == 5.0  # capped
        with pytest.raises(ValueError, match="attempt"):
            policy.backoff_s(0, rng)

    def test_backoff_jitter_stays_in_band(self):
        policy = RetryPolicy(base_backoff_s=8.0, jitter=0.5)
        rng = random.Random(1)
        for _ in range(100):
            delay = policy.backoff_s(1, rng)
            assert 4.0 <= delay <= 8.0

    def test_retryable_filters_by_type(self):
        policy = RetryPolicy()
        assert policy.retryable(InjectedFault("x"))
        assert not policy.retryable(RuntimeError("x"))
        assert not policy.retryable(TaskDeadlineExceeded("x"))

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1


class TestCircuitBreaker:
    def make(self, sim, threshold=3, cooldown=30.0, probes=1):
        return CircuitBreaker(
            sim,
            BreakerPolicy(
                failure_threshold=threshold,
                cooldown_s=cooldown,
                half_open_probes=probes,
            ),
            name="esx00",
        )

    def test_trips_after_consecutive_failures_only(self, sim):
        breaker = self.make(sim, threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_open_fast_fails_until_cooldown(self, sim):
        breaker = self.make(sim, cooldown=30.0)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.fast_fails == 1
        sim.run(until=31.0)
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_success_closes(self, sim):
        breaker = self.make(sim)
        for _ in range(3):
            breaker.record_failure()
        sim.run(until=31.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_retrips(self, sim):
        breaker = self.make(sim)
        for _ in range(3):
            breaker.record_failure()
        sim.run(until=31.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()

    def test_half_open_caps_probes(self, sim):
        breaker = self.make(sim, probes=1)
        for _ in range(3):
            breaker.record_failure()
        sim.run(until=31.0)
        assert breaker.allow()
        assert not breaker.allow()  # probe slot already taken
        assert breaker.fast_fails == 1

    def test_engaged_tracks_every_state(self, sim):
        breaker = self.make(sim, cooldown=30.0)
        assert not breaker.engaged  # CLOSED
        for _ in range(3):
            breaker.record_failure()
        assert breaker.engaged  # OPEN, inside cooldown
        sim.run(until=31.0)
        # Cooldown elapsed: a probe deserves routing again.
        assert not breaker.engaged
        assert breaker.allow()  # takes the only probe slot
        assert breaker.engaged  # HALF_OPEN, probes exhausted
        breaker.record_success()
        assert not breaker.engaged

    def test_engaged_does_not_consume_probes(self, sim):
        breaker = self.make(sim)
        for _ in range(3):
            breaker.record_failure()
        sim.run(until=31.0)
        for _ in range(5):
            assert not breaker.engaged
        assert breaker.state is BreakerState.OPEN  # reads shift no state
        assert breaker.allow()

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError, match="half_open_probes"):
            BreakerPolicy(half_open_probes=0)


@pytest.fixture
def telemetry(sim):
    return Telemetry(sim)


class TestDeadLetters:
    @pytest.fixture(autouse=True)
    def _telemetry(self, telemetry):
        self.telemetry = telemetry

    def make_tm(self, sim, database, **kwargs):
        return TaskManager(
            sim, database, max_inflight=4, telemetry=self.telemetry.scope("tasks"), **kwargs
        )

    def run_one(self, sim, manager, body, op_type="op"):
        def proc():
            try:
                yield from manager.run_task(op_type, body)
            except Exception as error:  # noqa: BLE001
                return error
            return None

        process = sim.spawn(proc())
        return sim.run(until=process)

    def test_exhausted_retryable_failure_is_dead_lettered(self, sim, database):
        manager = self.make_tm(
            sim, database,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.1),
        )

        def body(task):
            yield sim.timeout(0.1)
            raise InjectedFault("flaky forever")

        error = self.run_one(sim, manager, body, op_type="clone")
        assert isinstance(error, InjectedFault)
        (task,) = manager.tasks
        assert task.state == TaskState.ERROR
        assert task.attempts == 3
        (letter,) = manager.dead_letters
        assert letter.task_id == task.task_id
        assert letter.op_type == "clone"
        assert letter.attempts == 3
        assert "flaky forever" in letter.error
        assert manager.retries == scoped(self.telemetry, "tasks_retries_total") == 2
        assert scoped(self.telemetry, "tasks.retries.clone") == 2

    def test_retry_masks_transient_failure(self, sim, database):
        manager = self.make_tm(
            sim, database,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.1),
        )
        calls = []

        def body(task):
            calls.append(sim.now)
            yield sim.timeout(0.1)
            if len(calls) == 1:
                raise InjectedFault("only once")

        assert self.run_one(sim, manager, body) is None
        (task,) = manager.tasks
        assert task.state == TaskState.SUCCESS
        assert task.attempts == 2
        assert manager.dead_letters == []

    def test_non_retryable_error_is_not_dead_lettered(self, sim, database):
        manager = self.make_tm(
            sim, database, retry_policy=RetryPolicy(max_attempts=3)
        )

        def body(task):
            yield sim.timeout(0.1)
            raise RuntimeError("business failure")

        error = self.run_one(sim, manager, body)
        assert isinstance(error, RuntimeError)
        assert manager.dead_letters == []
        assert manager.retries == scoped(self.telemetry, "tasks_retries_total") == 0

    def test_no_policy_means_no_promise_no_dead_letter(self, sim, database):
        manager = self.make_tm(sim, database)

        def body(task):
            yield sim.timeout(0.1)
            raise InjectedFault("transient")

        error = self.run_one(sim, manager, body)
        assert isinstance(error, InjectedFault)
        assert manager.dead_letters == []


class TestDeadlines:
    def test_queued_past_deadline_is_withdrawn(self, sim, database, telemetry):
        manager = TaskManager(
            sim, database, max_inflight=1, task_deadline_s=5.0,
            telemetry=telemetry.scope("tasks"),
        )

        def slow(task):
            yield sim.timeout(60.0)

        def fast(task):
            yield sim.timeout(0.1)

        outcomes = []

        def proc(body):
            try:
                yield from manager.run_task("op", body)
            except Exception as error:  # noqa: BLE001
                outcomes.append(error)
            else:
                outcomes.append(None)

        sim.spawn(proc(slow))
        sim.run(until=1.0)  # slot-holder is RUNNING before fast submits
        sim.spawn(proc(fast))
        sim.run()
        # Completion order: the queued task blows its 5s deadline long
        # before the slot-holder finishes its 60s body.
        assert isinstance(outcomes[0], TaskDeadlineExceeded)
        assert outcomes[1] is None
        assert scoped(telemetry, "tasks.deadline_exceeded") == 1
        stuck = [t for t in manager.tasks if t.state == TaskState.ERROR]
        assert len(stuck) == 1
        assert manager.unaccounted() == []
        # TaskDeadlineExceeded is not transient: no dead letter by default.
        assert manager.dead_letters == []

    def test_retry_that_cannot_beat_deadline_fails_now(self, sim, database, telemetry):
        manager = TaskManager(
            sim, database, max_inflight=4, task_deadline_s=10.0,
            telemetry=telemetry.scope("tasks"),
            retry_policy=RetryPolicy(
                max_attempts=5, base_backoff_s=30.0, jitter=0.0
            ),
        )

        def body(task):
            yield sim.timeout(0.1)
            raise InjectedFault("transient")

        def proc():
            try:
                yield from manager.run_task("op", body)
            except Exception as error:  # noqa: BLE001
                return error
            return None

        process = sim.spawn(proc())
        error = sim.run(until=process)
        assert isinstance(error, InjectedFault)
        (task,) = manager.tasks
        assert task.attempts == 1  # the 30s backoff would blow the deadline
        assert scoped(telemetry, "tasks.deadline_exceeded") == 1
        assert len(manager.dead_letters) == 1
        assert sim.now < 10.0
