"""Crash recovery: journal lifecycle, reconciliation, exactly-once.

Covers the task journal's write-ahead records, the server's crash/restart
token protocol, the reconciliation verdict paths (adopt / reissue /
requeue), the exactly-once invariant under a mid-storm crash, and the
dead-letter dedup regression (journal terminal record wins on replay).
"""

import pytest

from repro.controlplane import ControlPlaneConfig
from repro.controlplane.recovery import (
    NULL_JOURNAL,
    PROBE_ABSENT,
    TaskJournal,
    crash_cause,
)
from repro.controlplane.resilience import RetryPolicy
from repro.controlplane.server import ManagementServer
from repro.controlplane.task_manager import Task, TaskState
from repro.core.experiments import StormRig
from repro.faults.chaos import check_exactly_once, run_fault_point, storm_rig
from repro.faults.errors import ServerCrashed
from repro.faults.schedule import ServerCrash
from repro.operations.base import Operation
from repro.sim import RandomStreams, Simulator
from repro.sim.kernel import Interrupt


# -- crash_cause -------------------------------------------------------------


def test_crash_cause_unwraps_interrupt_and_bare_error():
    crash = ServerCrashed("vc01 crashed")
    assert crash_cause(Interrupt(crash)) is crash
    assert crash_cause(crash) is crash
    assert crash_cause(Interrupt("host died")) is None
    assert crash_cause(ValueError("boom")) is None


# -- the journal -------------------------------------------------------------


def test_journal_records_full_lifecycle():
    rig = StormRig(seed=0, hosts=4, datastores=2, journal=True)
    rig.closed_loop_storm(total=4, concurrency=2, linked=True)

    journal = rig.server.journal
    assert journal.enabled
    assert len(journal) >= 3 * 4  # admit + >=1 dispatch + terminal per task
    assert journal.open_task_ids() == []
    for task in rig.server.tasks.tasks:
        assert journal.admitted(task.task_id)
        dispatches = journal.dispatches(task.task_id)
        assert dispatches
        assert dispatches[0].idempotency_key == f"task-{task.task_id}:attempt-1"
        record = journal.terminal_record(task.task_id)
        assert record is not None
        assert record.state == "success"
    assert all(n == 1 for n in journal.terminal_counts().values())


def test_journal_terminal_record_is_first_wins():
    journal = TaskJournal()
    task = Task(task_id=7, op_type="clone", submitted_at=0.0)
    task.state = TaskState.SUCCESS
    task.finished_at = 5.0
    journal.record_terminal(task)
    task.state = TaskState.ERROR
    journal.record_terminal(task)  # replay path reaching it again
    assert journal.terminal_counts() == {7: 1}
    assert journal.terminal_record(7).state == "success"


def test_null_journal_is_inert():
    task = Task(task_id=1, op_type="clone", submitted_at=0.0)
    NULL_JOURNAL.record_admit(task)
    NULL_JOURNAL.record_dispatch(task, 1)
    NULL_JOURNAL.record_terminal(task)
    assert not NULL_JOURNAL.enabled
    assert len(NULL_JOURNAL) == 0
    assert not NULL_JOURNAL.admitted(1)
    assert NULL_JOURNAL.terminal_record(1) is None
    assert NULL_JOURNAL.open_task_ids() == []


# -- crash / restart protocol ------------------------------------------------


def test_crash_tokens_nest_and_submit_refuses_while_down():
    sim = Simulator()
    server = ManagementServer(sim, RandomStreams(seed=1), journal=TaskJournal())
    server.crash("window-a")
    assert server.crashed

    class NoOp:
        op_type = type("OpType", (), {"value": "noop"})

    errors: list[BaseException] = []

    def waiter():
        try:
            yield server.submit(NoOp())
        except Exception as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    sim.spawn(waiter(), name="waiter")
    sim.run()
    # The submission failed its process with ServerCrashed; no task row.
    assert [type(e) for e in errors] == [ServerCrashed]
    assert server.tasks.tasks == []

    server.crash("window-b")
    server.restart("window-a")
    assert server.crashed  # the overlapping window still holds it down
    server.restart("window-b")
    assert not server.crashed
    sim.run()  # the (empty) recovery replay must drain
    assert sim.peek() == float("inf")
    assert len(server.recovery.crashes) == 1


def test_operation_recovery_protocol_defaults():
    operation = Operation.__new__(Operation)
    assert operation.recovery_probe(None, None) == PROBE_ABSENT
    assert operation.recovery_adopt(None, None) is None
    assert operation.recovery_rollback(None, None) is None


# -- reconciliation verdicts under a real crash ------------------------------


def _crash_point(seed, crash_at_s, downtime_s, total, concurrency, linked=True):
    return run_fault_point(
        storm_rig(seed, total, concurrency, linked=linked),
        [ServerCrash(start_s=crash_at_s, duration_s=downtime_s, count=1)],
    )


def test_crash_mid_linked_storm_holds_exactly_once():
    result = _crash_point(seed=0, crash_at_s=3.0, downtime_s=30.0, total=8, concurrency=3)
    assert result.ok, result.violations
    counters = result.counters
    assert counters["parked"] > 0
    assert result.completed == 8
    assert result.dead_letters == 0
    # Every parked task got exactly one verdict.
    assert (
        counters["adopted"] + counters["reissued"] + counters["requeued"]
        == counters["parked"]
    )
    assert counters["mttr_s"] > 0.0


def test_crash_mid_full_copy_reissues_idempotently():
    result = _crash_point(
        seed=0, crash_at_s=60.0, downtime_s=30.0, total=6, concurrency=3,
        linked=False,
    )
    assert result.ok, result.violations
    assert result.counters["reissued"] > 0  # mid-copy work cannot be adopted
    assert result.completed == 6


def test_crash_interrupts_inflight_tasks_in_admission_order():
    # Each interrupt draws a kernel sequence number, so the order the crash
    # walks its in-flight set is part of the schedule: it must be the order
    # the tasks were admitted, not one that follows object addresses.
    rig = StormRig(
        seed=0,
        hosts=8,
        datastores=2,
        config=ControlPlaneConfig(max_inflight_tasks=16),
        journal=True,
    )
    for index in range(64):
        rig.server.submit(rig.clone_op(index, linked=True))
    rig.sim.run(until=1.0)
    admitted = [task.task_id for task in rig.server.tasks.tasks if task.finished_at is None]
    assert len(admitted) == 64

    rig.server.crash("window")
    rig.sim.run(until=rig.sim.now)  # deliver the same-tick interrupts
    parked = [slot.task.task_id for slot in rig.server.recovery._parked]
    rig.server.restart("window")
    rig.sim.run()
    assert parked == admitted
    rig.server.tasks.assert_accounted()


def test_crash_point_reruns_identically_in_one_process():
    first = _crash_point(seed=3, crash_at_s=4.0, downtime_s=20.0, total=12, concurrency=4)
    second = _crash_point(seed=3, crash_at_s=4.0, downtime_s=20.0, total=12, concurrency=4)
    assert first.ok, first.violations
    assert first.counters["parked"] > 0
    assert second == first


def test_crash_requeues_tasks_waiting_at_dispatch():
    # storm_rig caps max_inflight below the worker concurrency, so an
    # early crash always catches at least one task at the dispatch wait.
    result = _crash_point(seed=1, crash_at_s=2.0, downtime_s=10.0, total=8, concurrency=4)
    assert result.ok, result.violations
    assert result.counters["requeued"] > 0
    assert result.completed == 8


# -- dead-letter dedup on replay (the fixed bug) -----------------------------


def _manager_with_retries():
    sim = Simulator()
    server = ManagementServer(
        sim,
        RandomStreams(seed=1),
        config=ControlPlaneConfig(
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.1)
        ),
        journal=TaskJournal(),
    )
    return server.tasks


def test_dead_letter_deduped_when_failed_twice():
    tasks = _manager_with_retries()
    task = Task(task_id=1, op_type="clone", submitted_at=0.0)
    tasks.tasks.append(task)
    error = ServerCrashed("boom")  # retryable: dead letters apply

    tasks._fail_terminally(task, error)
    assert len(tasks.dead_letters) == 1
    tasks._fail_terminally(task, error)  # replay reaches the terminal again
    assert len(tasks.dead_letters) == 1
    assert tasks.metrics.counter("dead_letter_deduped").value == 1


def test_journal_terminal_record_blocks_second_dead_letter():
    tasks = _manager_with_retries()
    task = Task(task_id=2, op_type="clone", submitted_at=0.0)
    tasks.tasks.append(task)
    task.state = TaskState.ERROR
    task.error = "ServerCrashed: boom"
    task.finished_at = 1.0
    # The terminal record survived the crash window; replay must not grow
    # a fresh dead letter for it.
    tasks.journal.record_terminal(task, dead_letter=True)

    tasks._record_dead_letter(task, ServerCrashed("boom"))
    assert tasks.dead_letters == []
    assert tasks.metrics.counter("dead_letter_deduped").value == 1


def test_check_exactly_once_flags_duplicate_dead_letters():
    tasks = _manager_with_retries()
    task = Task(task_id=3, op_type="clone", submitted_at=0.0)
    tasks.tasks.append(task)
    tasks._fail_terminally(task, ServerCrashed("boom"))
    # Simulate the pre-fix bug: a second dead letter for the same task.
    tasks.dead_letters.append(tasks.dead_letters[0])

    violations = check_exactly_once(tasks.recovery.server)
    assert any("dead-lettered 2 times" in v for v in violations)


# -- accounting invariant ----------------------------------------------------


def test_assert_accounted_raises_on_stranded_tasks():
    tasks = _manager_with_retries()
    task = Task(task_id=4, op_type="clone", submitted_at=0.0)
    tasks.tasks.append(task)
    with pytest.raises(RuntimeError, match="unaccounted"):
        tasks.assert_accounted()
    task.state = TaskState.SUCCESS
    tasks.assert_accounted()
